/**
 * @file
 * The benchmark's workloads and the library calls that run them:
 * set-up, one grid pass on an ExperimentRunner, the traced cells, the
 * pinned golden checks and the paper-fidelity rows.
 */

#ifndef PERFBENCH_CELLS_HH
#define PERFBENCH_CELLS_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.hh"
#include "measure.hh"

namespace perfbench {

/** The paper-default cell budget the ROADMAP baselines use. */
constexpr trrip::InstCount kCellBudget = 6'000'000;

/** One benchmark workload: a closed-loop grid and who runs it. */
struct Workload
{
    std::string name;
    std::vector<std::string> workloads;  //!< Grid workload axis.
    std::vector<std::string> policies;   //!< Grid policy axis.
    unsigned workers = 1;
    /** The TRRIP variant the fidelity gaps compare to SRRIP, with
     *  the paper's published values for it. */
    std::string trrip;
    double paperSpeedupPct = 0.0;
    double paperL2iCutPct = 0.0;
    /** Mini-pack traces the set-up writes and indexes. */
    std::vector<std::string> traces;
    /** The workload label the traced run times under every policy. */
    std::string tracedWorkload;
};

/** Throws std::invalid_argument for an unknown @p name. */
Workload makeWorkload(const std::string &name,
                      const std::string &pack_dir);

/** `mc:D+S+D+S` over the mini pack in @p pack_dir. */
std::string traceMcLabel(const std::string &pack_dir);

/** Every cell's options: the Table 1 defaults at @p budget. */
trrip::SimOptions cellOptions(trrip::InstCount budget);

/** @p items in a seed-determined order (Fisher-Yates, SplitMix64). */
std::vector<std::string> permuted(std::vector<std::string> items,
                                  std::uint64_t seed);

/**
 * Everything before the timed phase: start the runner's pool, write
 * the trace pack, synthesize the workloads and collect their training
 * profiles, and index the traces -- all into @p runner's caches.
 */
void setUp(trrip::exp::ExperimentRunner &runner, const Workload &wl,
           const std::string &pack_dir, trrip::InstCount budget);

/**
 * The traced run's cells: wl.tracedWorkload under every policy.  The
 * set is fixed; @p seed only orders it.
 */
std::vector<std::pair<std::string, std::string>>
tracedCells(const Workload &wl, std::uint64_t seed);

/** The workload's grid in its canonical (paper) axis order. */
trrip::exp::ExperimentSpec gridSpec(const Workload &wl,
                                    trrip::InstCount budget);

/** The same grid with both axes in a @p seed-determined order. */
trrip::exp::ExperimentSpec shuffledGridSpec(const Workload &wl,
                                            trrip::InstCount budget,
                                            std::uint64_t seed);

/** "workload|policy": the order-independent name of a cell. */
std::string cellKey(const std::string &workload, const std::string &policy);

/** Failed-cell count and fingerprints by cell key. */
struct GridCells
{
    std::map<std::string, std::uint64_t> fingerprints;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t instructions = 0;
};

GridCells gridCells(const trrip::exp::ExperimentResults &results);

/**
 * FNV-1a over the (key, fingerprint) pairs in key order, with
 * @p pack_dir cut out of the keys so that the digest does not depend
 * on where the run wrote its trace pack.
 */
std::uint64_t simDigest(const std::map<std::string, std::uint64_t> &fps,
                        const std::string &pack_dir);

/**
 * Cells of @p cells whose fingerprint differs from @p reference (or
 * that are missing from it).
 */
std::uint64_t mismatches(const GridCells &cells,
                         const std::map<std::string, std::uint64_t> &reference);

/** Result of re-running the pinned golden tables. */
struct GoldenTally
{
    std::uint64_t checked = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
};

/** All 24 goldens (proxy, trace, multi-core), one after another;
 *  the trace cases read the mini pack in @p pack_dir. */
GoldenTally checkGoldens(const std::string &pack_dir);

/** SRRIP vs the workload's TRRIP variant, one row per workload
 *  label; empty when a needed cell failed. */
std::vector<FidelityRow> fidelityRows(
    const trrip::exp::ExperimentResults &results, const Workload &wl);

} // namespace perfbench

#endif // PERFBENCH_CELLS_HH
