/**
 * @file
 * The repository benchmark: one named workload per process.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--work-dir <dir>]
 *
 * With --trace 0 it repeats closed-loop rounds -- fresh runner,
 * set-up, one grid pass -- for --seconds and reports the end-to-end
 * metrics over those rounds.  With --trace 1 it reports the
 * per-layer metrics instead (see perfbench/README.md).  Every cell's
 * fingerprint is checked against the run's first pass, and after the
 * measurement every run re-checks the 24 pinned goldens.  The last
 * stdout line is the JSON result.
 */

#include <algorithm>
#include <cstdio>
#include <exception>
#include <iomanip>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cells.hh"
#include "replay.hh"
#include "trace/generate.hh"
#include "trace/replay.hh"
#include "workloads/builder.hh"
#include "workloads/proxies.hh"

using namespace trrip;
using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = "perfbench-work";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + key);
        const std::string value = argv[++i];
        if (key == "--workload")
            a.workload = value;
        else if (key == "--seed")
            a.seed = std::stoull(value);
        else if (key == "--seconds")
            a.seconds = std::stod(value);
        else if (key == "--trace")
            a.trace = std::stoi(value) != 0;
        else if (key == "--work-dir")
            a.workDir = value;
        else
            throw std::invalid_argument("unknown option " + key);
    }
    if (a.workload.empty())
        throw std::invalid_argument("--workload is required");
    if (!(a.seconds > 0.0))
        throw std::invalid_argument("--seconds must be > 0");
    return a;
}

/** Metrics in insertion order, each with its unit. */
class Metrics
{
  public:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };

    void
    set(const std::string &name, double value, const char *unit)
    {
        entries_.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::ostringstream os;
        os << std::setprecision(17) << "{";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            os << (i ? ", " : "") << "\"" << entries_[i].name
               << "\": {\"value\": " << entries_[i].value
               << ", \"unit\": \"" << entries_[i].unit << "\"}";
        }
        os << "}";
        return os.str();
    }

  private:
    std::vector<Entry> entries_;
};

/** Operations attempted and failed over the whole run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(const GridCells &cells)
    {
        attempted += cells.attempted;
        failed += cells.failed;
    }
};

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

void
printSpread(const char *name, const std::vector<double> &v)
{
    const auto [q1, q3] = quartiles(v);
    std::printf("  %-18s median %.4f  q1 %.4f  q3 %.4f  (%zu samples:",
                name, median(v), q1, q3, v.size());
    for (double x : v)
        std::printf(" %.4g", x);
    std::printf(")\n");
}

// ------------------------------------------------------- untraced run

Metrics
runTimed(const Args &args, const Workload &wl, const std::string &pack,
         Tally &tally)
{
    std::vector<double> setup_s, wall_s, rate;
    double instructions = 0.0;
    double pass_s = 0.0;
    double rss_mb = 0.0;
    std::map<std::string, std::uint64_t> reference;
    std::vector<FidelityRow> fidelity;
    // Rounds run while the next one (as long as the last) still ends
    // within --seconds, so a run lasts about --seconds whatever a
    // round costs.
    const auto start = Clock::now();
    double round_s = 0.0;
    for (unsigned round = 0;
         round < 3 || secondsSince(start) + round_s <= args.seconds;
         ++round) {
        const auto t0 = Clock::now();
        {
            exp::ExperimentRunner runner(wl.workers);
            setUp(runner, wl, pack, kCellBudget);
            const auto t1 = Clock::now();
            // The first round is the figure as the paper orders it;
            // later rounds submit the axes in seed-drawn orders.
            const exp::ExperimentResults results = runner.run(
                round == 0 ? gridSpec(wl, kCellBudget)
                           : shuffledGridSpec(wl, kCellBudget,
                                              args.seed + round));
            const auto t2 = Clock::now();

            setup_s.push_back(
                std::chrono::duration<double>(t1 - t0).count());
            wall_s.push_back(
                std::chrono::duration<double>(t2 - t0).count());
            const GridCells cells = gridCells(results);
            const double pass =
                std::chrono::duration<double>(t2 - t1).count();
            instructions += static_cast<double>(cells.instructions);
            pass_s += pass;
            rate.push_back(static_cast<double>(cells.instructions) /
                           1e6 / pass);
            tally.add(cells);
            if (round == 0) {
                // A user runs the figure once per process; later
                // rounds would only add allocator fragmentation.
                rss_mb = peakRssMb();
                reference = cells.fingerprints;
                fidelity = fidelityRows(results, wl);
                std::printf("{\"sim_digest\": \"%s\", \"cells\": %zu}\n",
                            hex(simDigest(reference, pack)).c_str(),
                            reference.size());
            } else {
                tally.failed += mismatches(cells, reference);
            }
        }
        round_s = secondsSince(t0);
    }
    std::printf("%zu rounds of set-up + one grid pass:\n", rate.size());
    printSpread("pass Minstr/s", rate);
    printSpread("wall_s", wall_s);
    printSpread("setup_s", setup_s);

    // Throughput and wall time are totals over the timed rounds (the
    // instructions of every pass over their time; the time per figure
    // averaged over the rounds), which weight every round by its
    // length; set-up is the median round.
    Metrics m;
    m.set("sim_minstr_per_s", instructions / 1e6 / pass_s, "Minstr/s");
    m.set("wall_s", mean(wall_s), "s");
    m.set("setup_s", median(setup_s), "s");
    m.set("peak_rss_mb", rss_mb, "MB");
    if (fidelity.empty()) {
        ++tally.failed;  // A fidelity cell failed: no gap to report.
        return m;
    }
    const double speedup = geomeanSpeedupPercent(fidelity);
    const double cut = geomeanL2iMpkiCutPercent(fidelity);
    std::printf("fidelity: %s vs SRRIP geomean speedup %+.2f%% (paper "
                "%+.1f%%), L2 inst-MPKI cut %.2f%% (paper %.1f%%)\n",
                wl.trrip.c_str(), speedup, wl.paperSpeedupPct, cut,
                wl.paperL2iCutPct);
    m.set("trrip_speedup_gap_pp", gapPp(speedup, wl.paperSpeedupPct),
          "pp");
    m.set("trrip_l2i_mpki_cut_gap_pp", gapPp(cut, wl.paperL2iCutPct),
          "pp");
    return m;
}

// --------------------------------------------------------- traced run

/** Host time of the set-up layers, timed one input at a time. */
struct SetupSplit
{
    double buildS = 0.0;
    double profileS = 0.0;
    double prepareS = 0.0;
    double indexS = 0.0;
    double packS = 0.0;
};

SetupSplit
timeSetup(const Workload &wl, const std::string &pack, InstCount budget)
{
    SetupSplit s;
    const SimOptions opts = cellOptions(budget);
    if (!wl.traces.empty()) {
        const auto t0 = Clock::now();
        trace::generateMiniTracePack(pack);
        s.packS = secondsSince(t0);
        for (const std::string &name : wl.traces) {
            const std::string path = trace::miniTracePath(pack, name);
            auto t = Clock::now();
            auto index = std::make_shared<const trace::TraceIndex>(
                trace::buildTraceIndex(path));
            s.indexS += secondsSince(t);
            t = Clock::now();
            trace::prepareTrace(path, opts, index);
            s.prepareS += secondsSince(t);
        }
        return s;
    }
    for (const std::string &name : wl.workloads) {
        auto t = Clock::now();
        const SyntheticWorkload w = buildWorkload(proxyParams(name));
        s.buildS += secondsSince(t);
        t = Clock::now();
        SimOptions wopts = opts;
        wopts.precomputedProfile = std::make_shared<const Profile>(
            collectProfile(w, resolveProfileBudget(opts)));
        s.profileS += secondsSince(t);
        t = Clock::now();
        prepareWorkload(w, wopts);
        s.prepareS += secondsSince(t);
    }
    return s;
}

/** Sums over the traced cells. */
struct LayerSums
{
    double instructions = 0.0;
    double stepNs = 0.0;
    double executorNs = 0.0;
    double traceNs = 0.0;
    double interleaveNs = 0.0;
    double tracedWallNs = 0.0;
    double untracedWallNs = 0.0;
    LayerReport layers;

    void
    add(const RunTiming &traced, const RunTiming &untraced,
        const LayerReport &rep, bool multicore)
    {
        instructions += static_cast<double>(traced.instructions);
        stepNs += traced.stepNs - traced.decoratorNs;
        executorNs += traced.executorNs;
        traceNs += traced.traceSourceNs;
        if (multicore)
            interleaveNs += traced.wallNs - traced.stepNs;
        tracedWallNs += traced.wallNs;
        untracedWallNs += untraced.wallNs;
        LayerReport &l = layers;
        l.translateCalls += rep.translateCalls;
        l.wouldMispredictCalls += rep.wouldMispredictCalls;
        l.predictCalls += rep.predictCalls;
        l.fetchCalls += rep.fetchCalls;
        l.dataCalls += rep.dataCalls;
        l.prefetchCalls += rep.prefetchCalls;
        l.priorityCalls += rep.priorityCalls;
        l.l2Calls += rep.l2Calls;
        l.mmuNs += rep.mmuNs;
        l.branchNs += rep.branchNs;
        l.hierarchyNs += rep.hierarchyNs;
        l.fetchNs += rep.fetchNs;
        l.dataNs += rep.dataNs;
        l.prefetchNs += rep.prefetchNs;
        l.l2PolicyNs += rep.l2PolicyNs;
    }
};

/** One count-pair line of the self-check; true when equal. */
bool
pairLine(const char *call, std::uint64_t calls, const char *counter,
         std::uint64_t value)
{
    const bool ok = calls == value;
    std::printf("    %-22s %12llu  %-30s %12llu  %s\n", call,
                static_cast<unsigned long long>(calls), counter,
                static_cast<unsigned long long>(value),
                ok ? "match" : "MISMATCH");
    return ok;
}

/** Simulated work counts summed over every cell of a pass. */
struct WorkCounts
{
    double instructions = 0.0;
    double cycles = 0.0;
    double l1iAccesses = 0.0, l1iMisses = 0.0;
    double l1dAccesses = 0.0, l1dMisses = 0.0;
    double l2InstMisses = 0.0, l2DataMisses = 0.0;
    double slcMisses = 0.0;
    double pfIssued = 0.0, pfCovered = 0.0;
    double tlbAccesses = 0.0, tlbMisses = 0.0;
    double mispredicts = 0.0;
    double dramReads = 0.0, dramWrites = 0.0;

    void
    add(const exp::CellRecord &rec)
    {
        const SimResult &r = rec.result();
        instructions += static_cast<double>(r.instructions);
        cycles += r.cycles;
        l1iAccesses += static_cast<double>(r.l1i.demandAccesses);
        l1iMisses += static_cast<double>(r.l1i.demandMisses);
        l1dAccesses += static_cast<double>(r.l1d.demandAccesses);
        l1dMisses += static_cast<double>(r.l1d.demandMisses);
        l2InstMisses += static_cast<double>(r.l2.instDemandMisses);
        l2DataMisses += static_cast<double>(r.l2.dataDemandMisses);
        slcMisses += static_cast<double>(r.slc.demandMisses);
        pfIssued += static_cast<double>(r.prefetch.issued);
        pfCovered += static_cast<double>(r.prefetch.covered);
        tlbAccesses += static_cast<double>(r.tlb.accesses);
        tlbMisses += static_cast<double>(r.tlb.misses);
        mispredicts += static_cast<double>(r.branch.mispredicts);
        dramReads += rec.metrics.at("dram_reads");
        dramWrites += rec.metrics.at("dram_writes");
    }

    double pki(double count) const
    { return instructions > 0.0 ? count * 1000.0 / instructions : 0.0; }
};

/** The host-time layer metrics of one repetition of the traced cells. */
std::vector<Metrics::Entry>
hostTimeMetrics(const LayerSums &sums)
{
    const double instr = sums.instructions;
    const LayerReport &l = sums.layers;
    const auto per_op = [](double ns, std::uint64_t ops) {
        return ops > 0 ? ns / static_cast<double>(ops) : 0.0;
    };
    Closure closure;
    closure.stepNs = sums.stepNs / instr;
    closure.sourceNs = (sums.executorNs + sums.traceNs) / instr;
    closure.layersNs = (l.mmuNs + l.branchNs + l.hierarchyNs) / instr;
    return {
        {"workloads.executor.ns_per_instr", sums.executorNs / instr,
         "ns/instr"},
        {"trace.source.ns_per_instr", sums.traceNs / instr, "ns/instr"},
        {"sim.core.step_ns_per_instr", closure.stepNs, "ns/instr"},
        {"sim.multicore.interleave_ns_per_instr", sums.interleaveNs / instr,
         "ns/instr"},
        {"cache.hierarchy.fetch_ns_per_op", per_op(l.fetchNs, l.fetchCalls),
         "ns/op"},
        {"cache.hierarchy.fetch_ns_per_instr", l.fetchNs / instr,
         "ns/instr"},
        {"cache.hierarchy.data_ns_per_op", per_op(l.dataNs, l.dataCalls),
         "ns/op"},
        {"cache.hierarchy.data_ns_per_instr", l.dataNs / instr, "ns/instr"},
        {"cache.hierarchy.prefetch_ns_per_op",
         per_op(l.prefetchNs, l.prefetchCalls), "ns/op"},
        {"cache.hierarchy.prefetch_ns_per_instr", l.prefetchNs / instr,
         "ns/instr"},
        {"sw.mmu.ns_per_op", per_op(l.mmuNs, l.translateCalls), "ns/op"},
        {"sw.mmu.ns_per_instr", l.mmuNs / instr, "ns/instr"},
        {"branch.ns_per_op",
         per_op(l.branchNs, l.predictCalls + l.wouldMispredictCalls),
         "ns/op"},
        {"branch.ns_per_instr", l.branchNs / instr, "ns/instr"},
        {"cache.l2_policy.ns_per_op", per_op(l.l2PolicyNs, l.l2Calls),
         "ns/op"},
        {"cache.l2_policy.ns_per_instr", l.l2PolicyNs / instr, "ns/instr"},
        {"sim.core.self_ns_per_instr", closure.selfNs(), "ns/instr"},
        {"closure_ratio", closure.ratio(), "ratio"},
        {"tracing_overhead_frac",
         sums.tracedWallNs / sums.untracedWallNs - 1.0, "frac"},
    };
}

Metrics
runTraced(const Args &args, const Workload &wl, const std::string &pack,
          double calibration, Tally &tally)
{
    const SetupSplit split = timeSetup(wl, pack, kCellBudget);

    // Cold grid pass on the workload's own pool: the reference
    // fingerprints and the profile-cache hit fraction.
    exp::ExperimentRunner runner(wl.workers);
    auto t0 = Clock::now();
    const exp::ExperimentResults cold =
        runner.run(gridSpec(wl, kCellBudget));
    const double wall_n = secondsSince(t0);
    const GridCells cold_cells = gridCells(cold);
    tally.add(cold_cells);
    const auto &reference = cold_cells.fingerprints;
    std::printf("{\"sim_digest\": \"%s\", \"cells\": %zu}\n",
                hex(simDigest(reference, pack)).c_str(), reference.size());
    const double lookups =
        static_cast<double>(cold.profileHits + cold.profileCollections);
    const double hit_frac =
        lookups > 0 ? static_cast<double>(cold.profileHits) / lookups
                    : 0.0;

    // The same grid on one worker: what the pool buys.
    double speedup = 1.0;
    if (wl.workers > 1) {
        exp::ExperimentRunner serial(1);
        t0 = Clock::now();
        const exp::ExperimentResults one =
            serial.run(shuffledGridSpec(wl, kCellBudget, args.seed));
        const double wall_1 = secondsSince(t0);
        const GridCells one_cells = gridCells(one);
        tally.add(one_cells);
        tally.failed += mismatches(one_cells, reference);
        speedup = wall_1 / wall_n;
        std::printf("pool: %u workers %.3f s, 1 worker %.3f s\n",
                    wl.workers, wall_n, wall_1);
    }

    // Every cell again, assembled from public pieces: proves the
    // assembly is the runner's cell and yields the DRAM counters the
    // runner's SimResult does not carry.
    exp::ExperimentSpec assembled =
        shuffledGridSpec(wl, kCellBudget, splitMix64(args.seed));
    assembled.runCell = [](const exp::CellContext &ctx) {
        AssembledCell cell(planFor(ctx.workload, ctx.policy, ctx.options),
                           *ctx.profiles);
        const CellResult r = cell.run(false);
        exp::CellOutcome out;
        out.artifacts.result = r.aggregate();
        out.metrics["dram_reads"] = static_cast<double>(r.dramReads);
        out.metrics["dram_writes"] = static_cast<double>(r.dramWrites);
        return out;
    };
    const exp::ExperimentResults asm_results = runner.run(assembled);
    const GridCells asm_cells = gridCells(asm_results);
    tally.add(asm_cells);
    tally.failed += mismatches(asm_cells, reference);
    WorkCounts work;
    for (const exp::CellRecord &rec : asm_results.cells())
        if (rec.valid && !rec.failed)
            work.add(rec);

    // Traced cells: one fixed workload under every policy, in seed
    // order, so every seed times the same work.
    const auto traced = tracedCells(wl, args.seed);

    // Each traced cell is timed kLayerRepeats times; every host-time
    // layer metric is the median over the repetitions.
    constexpr int kLayerRepeats = 3;
    std::vector<LayerSums> sums(kLayerRepeats);
    for (const auto &[w, p] : traced) {
        const CellPlan plan = planFor(w, p, cellOptions(kCellBudget));
        AssembledCell cell(plan, runner.profiles());
        const std::uint64_t ref = reference.at(cellKey(w, p));
        bool ok = true;
        for (int r = 0; r < kLayerRepeats; ++r) {
            RunTiming untraced, timed;
            const CellResult plain = cell.run(false, &untraced);
            const CellResult traced_result = cell.run(true, &timed);
            const LayerReport rep = cell.replay();
            sums[r].add(timed, untraced, rep, cell.numCores() > 1);
            ok &= plain.fingerprint() == ref &&
                  traced_result.fingerprint() == ref &&
                  rep.shadow.fingerprint() == ref;
            if (r > 0)
                continue;
            std::printf("traced cell %s | %s\n", w.c_str(), p.c_str());
            std::printf("    fingerprints: runner %s plain %s traced %s "
                        "replay %s\n",
                        hex(ref).c_str(), hex(plain.fingerprint()).c_str(),
                        hex(traced_result.fingerprint()).c_str(),
                        hex(rep.shadow.fingerprint()).c_str());
            const SimResult agg = rep.shadow.aggregate();
            ok &= pairLine("events (decorator)", timed.events,
                           "events (replay source)", rep.events);
            ok &= pairLine("Mmu::translate", rep.translateCalls,
                           "TlbStats::accesses", agg.tlb.accesses);
            ok &= pairLine("predictAndUpdate", rep.predictCalls,
                           "BranchStats::branches", agg.branch.branches);
            ok &= pairLine("instFetch", rep.fetchCalls,
                           "L1I instDemandAccesses",
                           agg.l1i.instDemandAccesses);
            ok &= pairLine("dataAccess", rep.dataCalls,
                           "L1D dataDemandAccesses",
                           agg.l1d.dataDemandAccesses);
            std::printf(
                "    also: wouldMispredict %llu, instPrefetch %llu, "
                "markL2Priority %llu, L2 demand %llu\n",
                static_cast<unsigned long long>(rep.wouldMispredictCalls),
                static_cast<unsigned long long>(rep.prefetchCalls),
                static_cast<unsigned long long>(rep.priorityCalls),
                static_cast<unsigned long long>(rep.l2Calls));
        }
        ++tally.attempted;
        tally.failed += ok ? 0 : 1;
    }

    Metrics m;
    std::vector<std::vector<Metrics::Entry>> per_repeat;
    for (const LayerSums &s : sums)
        per_repeat.push_back(hostTimeMetrics(s));
    for (std::size_t i = 0; i < per_repeat[0].size(); ++i) {
        std::vector<double> values;
        for (const auto &metrics : per_repeat)
            values.push_back(metrics[i].value);
        m.set(per_repeat[0][i].name, median(values),
              per_repeat[0][i].unit.c_str());
    }

    m.set("workloads.build_s", split.buildS, "s");
    m.set("sw.profile_s", split.profileS, "s");
    m.set("sw.prepare_s", split.prepareS, "s");
    m.set("trace.index_s", split.indexS, "s");
    m.set("trace.pack_s", split.packS, "s");

    m.set("exp.pool.speedup", speedup, "x");
    m.set("exp.pool.efficiency", speedup / wl.workers, "frac");
    m.set("exp.profile_cache.hit_frac", hit_frac, "frac");

    m.set("cache.l1i.apki", work.pki(work.l1iAccesses), "per_kinstr");
    m.set("cache.l1i.mpki", work.pki(work.l1iMisses), "per_kinstr");
    m.set("cache.l1d.apki", work.pki(work.l1dAccesses), "per_kinstr");
    m.set("cache.l1d.mpki", work.pki(work.l1dMisses), "per_kinstr");
    m.set("cache.l2.inst_mpki", work.pki(work.l2InstMisses), "per_kinstr");
    m.set("cache.l2.data_mpki", work.pki(work.l2DataMisses), "per_kinstr");
    m.set("cache.slc.mpki", work.pki(work.slcMisses), "per_kinstr");
    m.set("cache.prefetch.issued_pki", work.pki(work.pfIssued),
          "per_kinstr");
    m.set("cache.prefetch.useful_frac",
          work.pfIssued > 0 ? work.pfCovered / work.pfIssued : 0.0, "frac");
    m.set("sw.mmu.lookups_pki", work.pki(work.tlbAccesses), "per_kinstr");
    m.set("sw.mmu.tlb_mpki", work.pki(work.tlbMisses), "per_kinstr");
    m.set("branch.mispredict_pki", work.pki(work.mispredicts),
          "per_kinstr");
    m.set("mem.dram.reads_pki", work.pki(work.dramReads), "per_kinstr");
    m.set("mem.dram.writes_pki", work.pki(work.dramWrites), "per_kinstr");
    m.set("sim.core.ipc",
          work.cycles > 0.0 ? work.instructions / work.cycles : 0.0,
          "instr/cycle");
    m.set("host.calibration_mops", calibration, "Mops/s");
    return m;
}

int
run(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::string pack = args.workDir + "/mini_traces";
    const Workload wl = makeWorkload(args.workload, pack);

    const double calibration = calibrationMops();
    std::printf("{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"trace\": %d, \"calibration_mops\": %.3f, \"nproc\": %u, "
                "\"workers\": %u, \"compiler\": \"%s\", \"flags\": \"%s\", "
                "\"lto\": %s, \"cell_budget\": %llu}}\n",
                wl.name.c_str(), static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0, calibration,
                std::thread::hardware_concurrency(), wl.workers,
                PERFBENCH_COMPILER, PERFBENCH_FLAGS,
                PERFBENCH_LTO ? "true" : "false",
                static_cast<unsigned long long>(kCellBudget));

    // The goldens run after the measurement, so the peak RSS read in
    // the first round is the figure's alone.
    Tally tally;
    const Metrics metrics =
        args.trace ? runTraced(args, wl, pack, calibration, tally)
                   : runTimed(args, wl, pack, tally);
    const GoldenTally goldens = checkGoldens(pack);
    tally.attempted += goldens.checked;
    tally.failed += goldens.failed;
    std::printf("goldens: %llu/%llu match\n",
                static_cast<unsigned long long>(goldens.checked -
                                                goldens.failed),
                static_cast<unsigned long long>(goldens.checked));
    for (const std::string &f : goldens.failures)
        std::printf("  golden FAILED: %s\n", f.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                tally.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                metrics.json().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
