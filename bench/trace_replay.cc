/**
 * @file
 * Trace-replay benchmark and correctness gate for the src/trace/
 * subsystem.
 *
 * Regenerates the deterministic mini-trace pack in place (no
 * downloads), then:
 *  1. re-verifies the pinned trace golden fingerprints
 *     (sim/golden.hh) through the parallel submit() path, sharing one
 *     TraceIndex per trace via the profile cache;
 *  2. times serial trace replay and reports replay Minstr/s;
 *  3. runs a mixed grid -- proxy workloads and trace:<path> workloads
 *     on the same axes -- through the standard sinks, producing
 *     BENCH_trace_replay.json, and cross-checks it cell by cell
 *     against a dedicated serial runner (the BENCH file must be
 *     bit-identical for any TRRIP_JOBS; CI diffs 1 vs 4).
 *
 * Timing goes only to the PERF_trace_replay.json sidecar
 * (tools/check_perf_floor.py gates on TRRIP_TRACE_FLOOR where the
 * machine supports it).  Env knobs: TRRIP_JOBS, TRRIP_TRACE_DIR
 * (where the pack is written; default mini_traces),
 * TRRIP_INSTR_MILLIONS, TRRIP_RESULTS_DIR.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hh"
#include "sim/golden.hh"
#include "trace/format.hh"
#include "trace/generate.hh"
#include "trace/replay.hh"
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
    return base + "/PERF_trace_replay.json";
}

std::string
traceDir()
{
    const char *dir = std::getenv("TRRIP_TRACE_DIR");
    return (dir && *dir) ? dir : "mini_traces";
}

/**
 * Re-verify the pinned trace golden tuples through the parallel
 * submit() path, one free-form cell per tuple; the per-trace index is
 * shared through the runner's profile cache exactly as in a real
 * mixed grid.  Returns how many matched.
 */
std::size_t
verifyTraceGoldens(ExperimentRunner &runner, const std::string &dir)
{
    const std::vector<TraceGoldenCase> &cases = traceGoldenCases();
    ExperimentSpec spec;
    spec.name = "trace_golden_parallel";
    spec.title = "Trace golden fingerprints through the worker pool";
    for (std::size_t i = 0; i < cases.size(); ++i)
        spec.workloads.push_back("case-" + std::to_string(i));
    spec.policies = {"pinned"};
    spec.runCell = [&cases, &dir](const CellContext &ctx) {
        const TraceGoldenCase &c = cases[ctx.id.workload];
        const std::string path = trace::miniTracePath(dir, c.trace);
        const RunArtifacts art =
            trace::runTrace(path, c.policy, c.options(),
                            ctx.profiles->traceIndex(path));
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
            const TraceGoldenCase &c = cases[cell.id.workload];
            std::fprintf(stderr,
                         "trace golden mismatch under parallel "
                         "execution: %s / %s\n",
                         c.trace, c.policy);
        }
    }
    return matched;
}

} // namespace

int
main()
{
    const std::string dir = traceDir();
    banner("Mini-trace pack (" + dir + ")");
    const std::vector<std::string> pack =
        trace::generateMiniTracePack(dir);
    for (const std::string &path : pack) {
        const trace::TraceIndex index = trace::buildTraceIndex(path);
        // The decoded lap every replay of this trace shares.
        const std::size_t lap = index.lap.bytes();
        std::printf("%-40s %8llu records  %5zu blocks  %7zu lap "
                    "bytes (%.1f B/record, raw %zu)\n",
                    path.c_str(),
                    static_cast<unsigned long long>(index.recordCount),
                    index.blocks.size(), lap,
                    static_cast<double>(lap) /
                        static_cast<double>(index.recordCount),
                    sizeof(trace::TraceInstr));
    }

    ExperimentRunner parallel(0);
    const unsigned workers = parallel.threads();

    banner("Trace golden fingerprints through the worker pool (" +
           std::to_string(workers) + " workers)");
    const std::size_t n_golden = traceGoldenCases().size();
    const std::size_t matched = verifyTraceGoldens(parallel, dir);
    std::printf("%zu/%zu fingerprints match\n", matched, n_golden);

    // --- Serial replay throughput (PERF sidecar only). ---
    banner("Serial trace replay throughput");
    const SimOptions options = defaultOptions();
    std::uint64_t replay_instr = 0;
    double replay_wall = 0.0;
    for (const std::string &path : pack) {
        // Index construction is untimed: a fleet amortizes it across
        // the whole grid through the profile cache.
        const auto index = std::make_shared<const trace::TraceIndex>(
            trace::buildTraceIndex(path));
        const auto t0 = std::chrono::steady_clock::now();
        const RunArtifacts art =
            trace::runTrace(path, "TRRIP-2", options, index);
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        replay_instr += art.result.instructions;
        replay_wall += wall;
        std::printf("%-40s %8.2f Minstr in %6.2f s -> %7.2f "
                    "Minstr/s\n",
                    path.c_str(),
                    static_cast<double>(art.result.instructions) / 1e6,
                    wall,
                    wall > 0
                        ? static_cast<double>(art.result.instructions) /
                              1e6 / wall
                        : 0.0);
    }
    const double replay_rate =
        replay_wall > 0
            ? static_cast<double>(replay_instr) / 1e6 / replay_wall
            : 0.0;
    std::printf("%-40s %8.2f Minstr in %6.2f s -> %7.2f Minstr/s\n",
                "total", static_cast<double>(replay_instr) / 1e6,
                replay_wall, replay_rate);

    // --- Mixed proxy + trace grid through the standard sinks. ---
    ExperimentSpec spec;
    spec.name = "trace_replay";
    spec.title = "Mixed proxy + trace grid (trace:<path> workloads)";
    spec.workloads = {"python", "gcc"};
    for (const std::string &path : pack)
        spec.workloads.push_back(trace::kTracePrefix + path);
    spec.policies =
        envList("TRRIP_PERF_POLICIES", {"SRRIP", "LRU", "TRRIP-2"});
    spec.options = defaultOptions();

    banner(spec.title + " on " + std::to_string(workers) + " workers");
    const ExperimentResults results = runExperiment(spec, parallel);

    // Determinism gate: a dedicated serial runner (fresh caches) must
    // reproduce every cell bit-identically.
    ExperimentRunner serialRunner(1);
    const ExperimentResults serial = serialRunner.run(spec, {});
    bool identical = true;
    for (const std::string &w : spec.workloads) {
        for (const std::string &p : spec.policies) {
            const SimResult &a = results.result(w, p);
            const SimResult &b = serial.result(w, p);
            if (a.cycles != b.cycles ||
                a.instructions != b.instructions ||
                a.l2.demandMisses != b.l2.demandMisses) {
                identical = false;
                std::fprintf(stderr,
                             "parallel/serial divergence for cell "
                             "%s / %s\n",
                             w.c_str(), p.c_str());
            }
        }
    }
    std::printf("parallel vs serial: %s\n",
                identical ? "bit-identical" : "DIVERGED");

    const std::string path = sidecarPath();
    std::ofstream out(path);
    fatal_if(!out, "cannot open ", path, " for writing");
    char buf[256];
    out << "{\n  \"bench\": \"trace_replay\",\n";
    out << "  \"budget_instructions\": " << resolveBudget(spec.options)
        << ",\n";
    out << "  \"workers\": " << workers << ",\n";
    out << "  \"traces\": [";
    for (std::size_t i = 0; i < pack.size(); ++i)
        out << (i ? ", " : "") << '"' << pack[i] << '"';
    out << "],\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"golden_fingerprints\": {\"total\": %zu, "
                  "\"matched\": %zu},\n",
                  n_golden, matched);
    out << buf;
    std::snprintf(buf, sizeof(buf), "  \"deterministic\": %s,\n",
                  identical ? "true" : "false");
    out << buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"trace\": {\"instructions\": %llu, "
                  "\"wall_seconds\": %.6f, \"minstr_per_sec\": "
                  "%.3f}\n",
                  static_cast<unsigned long long>(replay_instr),
                  replay_wall, replay_rate);
    out << buf;
    out << "}\n";
    std::printf("\nwrote %s\n", path.c_str());

    if (matched != n_golden || !identical) {
        std::fprintf(stderr, "FAIL: trace replay diverged from the "
                             "pinned behavior\n");
        return 1;
    }
    return 0;
}
