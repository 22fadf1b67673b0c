/**
 * @file
 * One experiment cell assembled from the library's public pieces,
 * exactly as runWorkload() / trace::runTrace() / runMultiCore() build
 * it, so the benchmark can run it three ways:
 *
 *  - plain: the cell as the runner runs it (the fingerprint and the
 *    untraced host time);
 *  - traced: every core's event source wrapped in a timing decorator
 *    and every CoreModel::step call timed;
 *  - replayed: a shadow core that makes the calls CoreModel's exact
 *    engine makes -- Mmu::translate, BranchUnit::wouldMispredict /
 *    predictAndUpdate, CacheHierarchy::instFetch / dataAccess /
 *    instPrefetch / markL2Priority -- on its own fresh layer objects,
 *    records each layer's call stream, and drives a second set of
 *    fresh layer objects through each stream alone in a timed loop
 *    (the ChampSim CRC2 harness shape, applied to every layer).  The
 *    L2 demand stream, captured through setL2Observer, drives a
 *    standalone Cache running the cell's L2 policy.
 *
 * The shadow core's result must fingerprint identically to the
 * runner's cell, which proves the recorded streams are the calls the
 * real core makes.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/profile_cache.hh"
#include "sim/multicore.hh"

namespace perfbench {

/** What one cell simulates: one label per core and the L2 policy. */
struct CellPlan
{
    std::vector<std::string> cores;  //!< Proxy names / trace labels.
    std::string policy;
    trrip::SimOptions options;
};

/** The plan of grid cell (@p workload_label, @p policy). */
CellPlan planFor(const std::string &workload_label,
                 const std::string &policy,
                 const trrip::SimOptions &options);

/** Simulated outcome of one assembled run. */
struct CellResult
{
    std::vector<trrip::SimResult> cores;
    trrip::CacheStats slc;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;

    /** The SimResult the runner records for this cell (the
     *  multi-core aggregate for bundles). */
    trrip::SimResult aggregate() const;

    /** goldenFingerprint() of aggregate(). */
    std::uint64_t fingerprint() const;
};

/** Host time of one plain or traced run, in nanoseconds. */
struct RunTiming
{
    double wallNs = 0.0;    //!< The whole stepping loop.
    double stepNs = 0.0;    //!< Sum of CoreModel::step calls.
    /** Sum of produce() calls (traced), by source kind. */
    double executorNs = 0.0;
    double traceSourceNs = 0.0;
    /** Decorator bookkeeping inside step, subtracted from stepNs. */
    double decoratorNs = 0.0;
    std::uint64_t events = 0;       //!< Events the decorator passed.
    std::uint64_t instructions = 0; //!< Retired, all cores.
};

/** Per-layer calls and replay host time of one cell. */
struct LayerReport
{
    CellResult shadow;  //!< What the shadow core simulated.
    std::uint64_t events = 0;

    std::uint64_t translateCalls = 0;
    std::uint64_t wouldMispredictCalls = 0;
    std::uint64_t predictCalls = 0;
    std::uint64_t fetchCalls = 0;
    std::uint64_t dataCalls = 0;
    std::uint64_t prefetchCalls = 0;
    std::uint64_t priorityCalls = 0;
    std::uint64_t l2Calls = 0;

    double mmuNs = 0.0;
    double branchNs = 0.0;
    double hierarchyNs = 0.0;  //!< All hierarchy calls, timed as one.
    /** hierarchyNs split by call kind (per-call tick shares); the
     *  rest is markL2Priority. */
    double fetchNs = 0.0;
    double dataNs = 0.0;
    double prefetchNs = 0.0;
    double l2PolicyNs = 0.0;
};

/**
 * The software half of a cell (workload synthesis, training profile
 * or trace index, classification, layout, loading), prepared once;
 * every run() / replay() builds a fresh engine over it.
 */
class AssembledCell
{
  public:
    /** Profiles and trace indexes come from @p cache, as in the
     *  runner. */
    AssembledCell(const CellPlan &plan,
                  trrip::exp::ProfileCache &cache);
    ~AssembledCell();

    AssembledCell(const AssembledCell &) = delete;
    AssembledCell &operator=(const AssembledCell &) = delete;

    /** Run the cell; with @p traced, through the timing decorator. */
    CellResult run(bool traced, RunTiming *timing = nullptr);

    /** Shadow-core run plus per-layer stream replays. */
    LayerReport replay();

    unsigned numCores() const;

  private:
    struct Lane;
    CellPlan plan_;
    std::vector<std::unique_ptr<Lane>> lanes_;
};

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
