/**
 * @file
 * Simulation-throughput benchmark: simulated Minstr/s per replacement
 * policy on the Fig. 6 workload mix (all ten proxy benchmarks).
 *
 * Timing is wall-clock and therefore machine-dependent, so it goes to
 * a separate PERF_throughput.json sidecar -- never into a BENCH_*.json
 * file, which stay byte-reproducible across runs, machines and thread
 * counts.  The grid runs on a dedicated single-threaded runner (cells
 * back to back on one core) after a warm-up pass that fills the shared
 * profile cache, so the measured time is simulation, not PGO training
 * or thread scheduling.
 *
 * Env knobs: TRRIP_INSTR_MILLIONS (per-cell budget), TRRIP_RESULTS_DIR
 * (sidecar directory), TRRIP_PERF_POLICIES (comma-separated policy
 * specs overriding the default set).
 *
 * Per-layer costs (executor, core, branch unit, MMU, hierarchy, L2
 * policy) come from the traced replay of the repository benchmark:
 * python3 perfbench/run.py --workload proxy-grid --seed 1
 * --seconds 50 --trace 1.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hh"
#include "util/logging.hh"

namespace {

std::string
sidecarPath()
{
    const char *dir = std::getenv("TRRIP_RESULTS_DIR");
    std::string base = (dir && *dir) ? dir : ".";
    return base + "/PERF_throughput.json";
}

struct PolicyTiming
{
    std::string policy;
    std::uint64_t instructions = 0;
    double wallSeconds = 0.0;

    double
    minstrPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(instructions) / 1e6 /
                         wallSeconds
                   : 0.0;
    }
};

} // namespace

int
main()
{
    using namespace trrip;
    using namespace trrip::exp;
    using namespace trrip::bench;

    ExperimentSpec spec;
    spec.name = "throughput";
    spec.title = "Simulation throughput (simulated Minstr/s, serial)";
    spec.workloads = proxyNames();
    spec.options = defaultOptions();

    // Serial runner: per-policy wall time is one core simulating cells
    // back to back, directly comparable across policies and commits.
    ExperimentRunner runner(1);

    // Warm-up: collect every workload's training profile once so the
    // timed passes measure simulation only.  The cheapest way to walk
    // all workloads is a one-policy grid whose timing we discard.
    spec.policies = {"SRRIP"};
    runner.run(spec, {});

    banner(spec.title);
    const std::vector<std::string> policies = envList(
        "TRRIP_PERF_POLICIES",
        {"SRRIP", "LRU", "DRRIP", "SHiP", "TRRIP-2"});
    std::vector<PolicyTiming> timings;
    std::uint64_t total_instr = 0;
    double total_wall = 0.0;
    for (const std::string &policy : policies) {
        spec.policies = {policy};
        const ExperimentResults results = runOrExit(runner, spec);
        PolicyTiming t;
        t.policy = policy;
        t.wallSeconds = results.wallSeconds;
        for (const CellRecord &cell : results.cells()) {
            if (cell.valid)
                t.instructions += cell.result().instructions;
        }
        total_instr += t.instructions;
        total_wall += t.wallSeconds;
        std::printf("%-12s %8.2f Minstr in %7.2f s -> %7.2f Minstr/s\n",
                    policy.c_str(),
                    static_cast<double>(t.instructions) / 1e6,
                    t.wallSeconds, t.minstrPerSec());
        timings.push_back(t);
    }

    PolicyTiming total;
    total.policy = "total";
    total.instructions = total_instr;
    total.wallSeconds = total_wall;
    std::printf("%-12s %8.2f Minstr in %7.2f s -> %7.2f Minstr/s\n",
                "total", static_cast<double>(total_instr) / 1e6,
                total_wall, total.minstrPerSec());

    const std::string path = sidecarPath();
    std::ofstream out(path);
    fatal_if(!out, "cannot open ", path, " for writing");
    out << "{\n  \"bench\": \"throughput\",\n";
    out << "  \"budget_instructions\": "
        << resolveBudget(spec.options) << ",\n";
    out << "  \"workloads\": " << spec.workloads.size() << ",\n";
    out << "  \"policies\": [\n";
    for (std::size_t i = 0; i < timings.size(); ++i) {
        const PolicyTiming &t = timings[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "    {\"policy\": \"%s\", \"instructions\": %llu, "
                      "\"wall_seconds\": %.6f, "
                      "\"minstr_per_sec\": %.3f}%s\n",
                      t.policy.c_str(),
                      static_cast<unsigned long long>(t.instructions),
                      t.wallSeconds, t.minstrPerSec(),
                      i + 1 < timings.size() ? "," : "");
        out << buf;
    }
    out << "  ],\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"total\": {\"instructions\": %llu, "
                  "\"wall_seconds\": %.6f, \"minstr_per_sec\": %.3f}\n",
                  static_cast<unsigned long long>(total.instructions),
                  total.wallSeconds, total.minstrPerSec());
    out << buf;
    out << "}\n";
    std::printf("\nwrote %s\n", path.c_str());
    return 0;
}
