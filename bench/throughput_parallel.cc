/**
 * @file
 * Parallel aggregate-throughput benchmark: the headline metric for
 * the experiment layer as a fleet service.  Runs the same fig6
 * workload mix as bench/throughput twice -- once on a dedicated
 * serial runner, once with every policy's grid submitted to the
 * persistent worker pool at the same time (so cells steal across
 * specs at cell granularity) -- and reports serial Minstr/s,
 * aggregate Minstr/s over N workers, and scaling efficiency
 * aggregate / (serial * workers).
 *
 * Correctness is held to the identical contract as serial execution:
 * before timing, all 16 golden fingerprint tuples (sim/golden.hh,
 * the same table tests/test_golden pins) are re-verified through the
 * parallel submit() path, and after timing the per-policy aggregate
 * counters are cross-checked against the serial pass.  Any mismatch
 * exits non-zero.
 *
 * Timing is wall-clock and machine-dependent, so everything goes to
 * the PERF_throughput_parallel.json sidecar -- never into BENCH_*
 * files.  Env knobs: TRRIP_JOBS (worker count; default hardware
 * concurrency), TRRIP_INSTR_MILLIONS (per-cell budget),
 * TRRIP_PERF_POLICIES, TRRIP_RESULTS_DIR.  Scaling numbers are only
 * meaningful on a >= 4-core machine; the sidecar records the worker
 * count so tools/check_perf_floor.py can gate on
 * TRRIP_AGG_FLOOR / TRRIP_SCALING_FLOOR where that holds.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hh"
#include "sim/golden.hh"
#include "util/logging.hh"

namespace {

using namespace trrip;
using namespace trrip::exp;
using namespace trrip::bench;

std::string
sidecarPath()
{
    const char *dir = std::getenv("TRRIP_RESULTS_DIR");
    std::string base = (dir && *dir) ? dir : ".";
    return base + "/PERF_throughput_parallel.json";
}

struct PolicyTotals
{
    std::string policy;
    std::uint64_t instructions = 0;
    std::uint64_t l2DemandMisses = 0;
    double cycles = 0.0;
    double wallSeconds = 0.0; //!< Serial pass only.
};

PolicyTotals
totalsOf(const ExperimentResults &results, const std::string &policy)
{
    PolicyTotals t;
    t.policy = policy;
    t.wallSeconds = results.wallSeconds;
    for (const CellRecord &cell : results.cells()) {
        if (!cell.valid)
            continue;
        t.instructions += cell.result().instructions;
        t.l2DemandMisses += cell.result().l2.demandMisses;
        t.cycles += cell.result().cycles;
    }
    return t;
}

double
minstrPerSec(std::uint64_t instructions, double wall)
{
    return wall > 0.0
               ? static_cast<double>(instructions) / 1e6 / wall
               : 0.0;
}

/** Fill @p runner's profile cache for the fig6 mix (untimed). */
void
warmup(ExperimentRunner &runner, ExperimentSpec spec)
{
    spec.policies = {"SRRIP"};
    runner.run(spec, {});
}

/**
 * Re-verify the 16 pinned proxy golden tuples through the parallel
 * submit() path: one free-form cell per tuple, each running its own
 * pipeline.  Returns how many matched.
 */
std::size_t
verifyGoldens(ExperimentRunner &runner)
{
    const std::vector<GoldenCase> &cases = goldenCases();
    ExperimentSpec spec;
    spec.name = "golden_parallel";
    spec.title = "Golden fingerprints through the worker pool";
    for (std::size_t i = 0; i < cases.size(); ++i)
        spec.workloads.push_back("case-" + std::to_string(i));
    spec.policies = {"pinned"};
    spec.runCell = [&cases](const CellContext &ctx) {
        const GoldenCase &c = cases[ctx.id.workload];
        const CoDesignPipeline pipeline(proxyParams(c.workload));
        const RunArtifacts art = pipeline.run(c.policy, c.options());
        CellOutcome out;
        out.metrics["fingerprint_ok"] =
            goldenFingerprint(art.result) == c.expected ? 1.0 : 0.0;
        return out;
    };
    const ExperimentResults results = runner.run(spec, {});
    std::size_t matched = 0;
    for (const CellRecord &cell : results.cells()) {
        if (cell.metrics.at("fingerprint_ok") == 1.0) {
            ++matched;
        } else {
            const GoldenCase &c = cases[cell.id.workload];
            std::fprintf(stderr,
                         "golden mismatch under parallel execution: "
                         "%s / %s\n",
                         c.workload, c.policy);
        }
    }
    return matched;
}

} // namespace

int
main()
{
    ExperimentSpec spec;
    spec.name = "throughput_parallel";
    spec.title =
        "Parallel aggregate throughput (simulated Minstr/s, fig6 mix)";
    spec.workloads = proxyNames();
    spec.options = defaultOptions();

    const std::vector<std::string> policies = envList(
        "TRRIP_PERF_POLICIES",
        {"SRRIP", "LRU", "DRRIP", "SHiP", "TRRIP-2"});

    // One pool, TRRIP_JOBS wide, shared by the golden check and the
    // aggregate pass.
    ExperimentRunner parallel(0);
    const unsigned workers = parallel.threads();

    banner("Golden fingerprints through the worker pool (" +
           std::to_string(workers) + " workers)");
    const std::size_t n_golden = goldenCases().size();
    const std::size_t matched = verifyGoldens(parallel);
    std::printf("%zu/%zu fingerprints match\n", matched, n_golden);

    // --- Serial baseline: cells back to back on one worker. ---
    banner("Serial baseline");
    ExperimentRunner serial(1);
    warmup(serial, spec);
    std::vector<PolicyTotals> serial_totals;
    std::uint64_t serial_instr = 0;
    double serial_wall = 0.0;
    for (const std::string &policy : policies) {
        spec.policies = {policy};
        const PolicyTotals t =
            totalsOf(runOrExit(serial, spec), policy);
        serial_instr += t.instructions;
        serial_wall += t.wallSeconds;
        std::printf("%-12s %8.2f Minstr in %7.2f s -> %7.2f "
                    "Minstr/s\n",
                    policy.c_str(),
                    static_cast<double>(t.instructions) / 1e6,
                    t.wallSeconds,
                    minstrPerSec(t.instructions, t.wallSeconds));
        serial_totals.push_back(t);
    }
    const double serial_rate = minstrPerSec(serial_instr, serial_wall);
    std::printf("%-12s %8.2f Minstr in %7.2f s -> %7.2f Minstr/s\n",
                "total", static_cast<double>(serial_instr) / 1e6,
                serial_wall, serial_rate);

    // --- Aggregate: every policy's grid in flight at once. ---
    banner("Aggregate on " + std::to_string(workers) +
           " workers (all specs in flight, cell stealing across "
           "specs)");
    warmup(parallel, spec);
    std::vector<PendingRun> pending;
    const auto t0 = std::chrono::steady_clock::now();
    for (const std::string &policy : policies) {
        spec.policies = {policy};
        pending.push_back(parallel.submit(spec, {}));
    }
    std::vector<PolicyTotals> agg_totals;
    for (std::size_t i = 0; i < pending.size(); ++i)
        agg_totals.push_back(
            totalsOf(pending[i].wait(), policies[i]));
    const double agg_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    // Determinism cross-check: the parallel pass must have simulated
    // exactly what the serial pass simulated.
    bool identical = true;
    std::uint64_t agg_instr = 0;
    for (std::size_t i = 0; i < agg_totals.size(); ++i) {
        agg_instr += agg_totals[i].instructions;
        if (agg_totals[i].instructions !=
                serial_totals[i].instructions ||
            agg_totals[i].l2DemandMisses !=
                serial_totals[i].l2DemandMisses ||
            agg_totals[i].cycles != serial_totals[i].cycles) {
            identical = false;
            std::fprintf(stderr,
                         "parallel/serial divergence for policy %s\n",
                         policies[i].c_str());
        }
    }

    const double agg_rate = minstrPerSec(agg_instr, agg_wall);
    const double speedup =
        serial_rate > 0.0 ? agg_rate / serial_rate : 0.0;
    const double efficiency = workers > 0 ? speedup / workers : 0.0;
    std::printf("%-12s %8.2f Minstr in %7.2f s -> %7.2f Minstr/s "
                "aggregate\n",
                "total", static_cast<double>(agg_instr) / 1e6,
                agg_wall, agg_rate);
    std::printf("scaling: %.2fx over serial on %u workers -> %.1f%% "
                "efficiency\n",
                speedup, workers, 100.0 * efficiency);
    if (workers < 4) {
        std::printf("note: %u worker(s) -- scaling numbers are only "
                    "meaningful on >= 4 cores\n",
                    workers);
    }

    const std::string path = sidecarPath();
    std::ofstream out(path);
    fatal_if(!out, "cannot open ", path, " for writing");
    char buf[256];
    out << "{\n  \"bench\": \"throughput_parallel\",\n";
    out << "  \"budget_instructions\": "
        << resolveBudget(spec.options) << ",\n";
    out << "  \"workloads\": " << spec.workloads.size() << ",\n";
    out << "  \"workers\": " << workers << ",\n";
    out << "  \"policies\": [";
    for (std::size_t i = 0; i < policies.size(); ++i)
        out << (i ? ", " : "") << '"' << policies[i] << '"';
    out << "],\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"golden_fingerprints\": {\"total\": %zu, "
                  "\"matched\": %zu},\n",
                  n_golden, matched);
    out << buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"deterministic\": %s,\n",
                  identical ? "true" : "false");
    out << buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"serial\": {\"instructions\": %llu, "
                  "\"wall_seconds\": %.6f, \"minstr_per_sec\": "
                  "%.3f},\n",
                  static_cast<unsigned long long>(serial_instr),
                  serial_wall, serial_rate);
    out << buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"aggregate\": {\"instructions\": %llu, "
                  "\"wall_seconds\": %.6f, \"minstr_per_sec\": "
                  "%.3f},\n",
                  static_cast<unsigned long long>(agg_instr), agg_wall,
                  agg_rate);
    out << buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"scaling\": {\"workers\": %u, \"speedup\": "
                  "%.3f, \"efficiency\": %.3f}\n",
                  workers, speedup, efficiency);
    out << buf;
    out << "}\n";
    std::printf("\nwrote %s\n", path.c_str());

    if (matched != n_golden || !identical) {
        std::fprintf(stderr, "FAIL: parallel execution diverged from "
                             "the pinned serial behavior\n");
        return 1;
    }
    return 0;
}
