/**
 * @file
 * Interactive policy/configuration explorer.
 *
 * Usage:
 *   policy_explorer [workload] [policy-spec] [l2KiB] [assoc] [instrM]
 *
 * The policy argument is a PolicyRegistry spec string, so parameters
 * sweep from the command line; "help" lists every registered policy
 * with its schema.
 *
 * Examples:
 *   policy_explorer                          # python, all policies
 *   policy_explorer sqlite TRRIP-2           # one policy on sqlite
 *   policy_explorer gcc "TRRIP-1(bits=3)"    # parameterized spec
 *   policy_explorer python help              # registry schema listing
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/codesign.hh"
#include "core/policy_registry.hh"
#include "util/error.hh"
#include "workloads/proxies.hh"

namespace {

int
explore(int argc, char **argv)
{
    using namespace trrip;

    const std::string workload = argc > 1 ? argv[1] : "python";
    const std::string policy = argc > 2 ? argv[2] : "all";
    const std::uint64_t l2_kib =
        argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 128;
    const std::uint32_t assoc =
        argc > 4 ? static_cast<std::uint32_t>(
                       std::strtoul(argv[4], nullptr, 10))
                 : 8;
    const double instr_m = argc > 5 ? std::atof(argv[5]) : 4.0;

    if (policy == "help") {
        std::printf("%s",
                    PolicyRegistry::instance().helpText().c_str());
        return 0;
    }

    SimOptions opts;
    opts.maxInstructions =
        static_cast<InstCount>(instr_m * 1'000'000);
    opts.hier.l2.sizeBytes = l2_kib * 1024;
    opts.hier.l2.assoc = assoc;

    CoDesignPipeline pipeline(proxyParams(workload));
    std::printf("workload=%s  L2=%lluKiB %u-way  budget=%.1fM "
                "instructions\n\n",
                workload.c_str(),
                static_cast<unsigned long long>(l2_kib), assoc,
                instr_m);

    const auto base = pipeline.run("SRRIP", opts);
    std::printf("%-10s %8s %9s %9s %9s %9s\n", "policy", "IPC",
                "I-MPKI", "D-MPKI", "hotEvict", "speedup%");
    std::printf("%-10s %8.3f %9.3f %9.3f %9llu %9s\n", "SRRIP",
                base.result.ipc(), base.result.l2InstMpki,
                base.result.l2DataMpki,
                static_cast<unsigned long long>(
                    base.result.l2HotEvictions),
                "baseline");

    std::vector<std::string> to_run;
    if (policy == "all") {
        to_run = evaluatedPolicyNames();
        to_run.erase(to_run.begin()); // SRRIP already printed.
    } else {
        to_run.push_back(policy);
    }
    for (const auto &name : to_run) {
        const auto res = pipeline.run(name, opts);
        std::printf("%-10s %8.3f %9.3f %9.3f %9llu %9.2f\n",
                    name.c_str(), res.result.ipc(),
                    res.result.l2InstMpki, res.result.l2DataMpki,
                    static_cast<unsigned long long>(
                        res.result.l2HotEvictions),
                    CoDesignPipeline::speedupPercent(base.result,
                                                     res.result));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return explore(argc, argv);
    } catch (const trrip::SimError &err) {
        // An unknown workload name or a bad policy spec.
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
}
