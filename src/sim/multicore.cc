#include "sim/multicore.hh"

#include <algorithm>

#include "core/policy_registry.hh"
#include "sim/golden.hh"
#include "util/error.hh"
#include "util/logging.hh"
#include "workloads/builder.hh"
#include "workloads/proxies.hh"

namespace trrip {

bool
isMultiCoreName(const std::string &name)
{
    return name.rfind(kMultiCorePrefix, 0) == 0;
}

std::vector<std::string>
multiCoreWorkloadsOf(const std::string &name)
{
    std::vector<std::string> out;
    if (!isMultiCoreName(name))
        return out;
    const std::string body =
        name.substr(std::string(kMultiCorePrefix).size());
    std::size_t start = 0;
    while (true) {
        const std::size_t plus = body.find('+', start);
        if (plus == std::string::npos) {
            out.push_back(body.substr(start));
            return out;
        }
        out.push_back(body.substr(start, plus - start));
        start = plus + 1;
    }
}

namespace {

void
sumCacheStats(CacheStats &into, const CacheStats &from)
{
    into.demandAccesses += from.demandAccesses;
    into.demandMisses += from.demandMisses;
    into.instDemandAccesses += from.instDemandAccesses;
    into.instDemandMisses += from.instDemandMisses;
    into.dataDemandAccesses += from.dataDemandAccesses;
    into.dataDemandMisses += from.dataDemandMisses;
    into.prefetchFills += from.prefetchFills;
    into.fills += from.fills;
    into.evictions += from.evictions;
    into.writebacks += from.writebacks;
    into.invalidations += from.invalidations;
    for (std::size_t t = 0; t < from.evictionsByTemp.size(); ++t)
        into.evictionsByTemp[t] += from.evictionsByTemp[t];
    into.instEvictions += from.instEvictions;
    into.dataEvictions += from.dataEvictions;
}

void
foldBytes(std::uint64_t &h, std::uint64_t value)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (value >> (i * 8)) & 0xffu;
        h *= 0x100000001b3ull;
    }
}

} // namespace

MultiCoreResult
runMultiCore(const std::vector<std::string> &core_workloads,
             const std::string &policy_spec,
             const MultiCoreOptions &options)
{
    const unsigned n = static_cast<unsigned>(core_workloads.size());
    // Labels come from user input (mc: grammar): reject, don't abort.
    if (n == 0 || std::find(core_workloads.begin(), core_workloads.end(),
                            std::string()) != core_workloads.end()) {
        std::string label = kMultiCorePrefix;
        for (unsigned c = 0; c < n; ++c)
            label += (c ? "+" : "") + core_workloads[c];
        throw SimError(ErrorCategory::BuildFailure,
                       "runMultiCore: empty core workload in bundle '" +
                           label + "'");
    }
    panic_if(options.quantum == 0, "runMultiCore: zero quantum");
    panic_if(!options.coreBudgets.empty() &&
                 options.coreBudgets.size() != core_workloads.size(),
             "runMultiCore: ", options.coreBudgets.size(),
             " budgets for ", n, " cores");

    SimOptions opts = options.base;
    opts.hier.l2Policy = PolicySpec(policy_spec);

    // The shared fabric.  One core bypasses MultiCoreHierarchy: the
    // plain single-core CacheHierarchy runs, so N=1 is bit-identical
    // to runWorkload()/runTrace() (the inclusive shared-SLC protocol
    // and owner masks never even construct).
    std::unique_ptr<MultiCoreHierarchy> shared;
    if (n > 1) {
        MultiCoreParams mp;
        mp.hier = opts.hier;
        mp.numCores = n;
        mp.naiveBackInvalidate = options.naiveBackInvalidate;
        shared = std::make_unique<MultiCoreHierarchy>(mp);
    }

    // Proxy lanes reference their workload; these keep them alive.
    std::vector<std::shared_ptr<const SyntheticWorkload>> workloads(n);
    std::vector<std::unique_ptr<Lane>> lanes;
    std::vector<InstCount> budgets(n);
    for (unsigned c = 0; c < n; ++c) {
        const std::string &label = core_workloads[c];
        const InstCount budget =
            options.coreBudgets.empty() ? 0 : options.coreBudgets[c];
        budgets[c] = budget > 0 ? budget : resolveBudget(opts);
        CacheHierarchy *hier = shared ? &shared->core(c) : nullptr;

        if (trace::isTraceName(label)) {
            const std::string path = trace::tracePathOf(label);
            trace::TraceRuntime trt = trace::prepareTrace(
                path, opts,
                options.traceIndexProvider
                    ? options.traceIndexProvider(path)
                    : nullptr);
            lanes.push_back(std::make_unique<Lane>(
                std::move(trt.art), std::move(trt.pageTable), nullptr,
                std::move(trt.index), opts, hier));
            continue;
        }
        workloads[c] = options.workloadProvider
                           ? options.workloadProvider(label)
                           : std::make_shared<const SyntheticWorkload>(
                                 buildWorkload(proxyParams(label)));
        SimOptions wopts = opts;
        if (options.profileProvider && !wopts.precomputedProfile) {
            wopts.precomputedProfile = options.profileProvider(
                *workloads[c], resolveProfileBudget(wopts));
        }
        WorkloadRuntime wrt = prepareWorkload(*workloads[c], wopts);
        lanes.push_back(std::make_unique<Lane>(
            std::move(wrt.art), std::move(wrt.pageTable),
            workloads[c].get(), nullptr, opts, hier));
    }

    // Deterministic round-robin: each rotation advances every
    // unfinished core by one quantum in core-id order.  A finished
    // core drops out; the others keep rotating (per-core budgets are
    // independent).
    while (true) {
        bool all_done = true;
        for (unsigned c = 0; c < n; ++c) {
            CoreModel &core = *lanes[c]->core;
            if (core.retired() >= budgets[c])
                continue;
            all_done = false;
            core.step(std::min<InstCount>(
                budgets[c], core.retired() + options.quantum));
        }
        if (all_done)
            break;
    }

    // Finalize only after ALL stepping: every core's result.slc is
    // then the same end-of-run shared snapshot, independent of the
    // core's position in the rotation.
    MultiCoreResult result;
    result.cores.reserve(n);
    for (const std::unique_ptr<Lane> &lane : lanes) {
        lane->art.result = lane->core->finalize();
        result.cores.push_back(std::move(lane->art));
    }
    // Every core's stack reaches the shared SLC and DRAM (N=1: its
    // own), so core 0's view is the bundle's.
    const CacheHierarchy &hier = *lanes[0]->hier;
    result.slc = hier.slc().stats();
    result.dramReads = hier.dram().reads();
    result.dramWrites = hier.dram().writes();
    return result;
}

std::uint64_t
multiCoreFingerprint(const MultiCoreResult &result)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const RunArtifacts &core : result.cores)
        foldBytes(h, goldenFingerprint(core.result));
    foldBytes(h, result.dramReads);
    foldBytes(h, result.dramWrites);
    return h;
}

SimResult
aggregateMultiCore(const MultiCoreResult &result)
{
    SimResult sum;
    for (const RunArtifacts &core : result.cores) {
        const SimResult &r = core.result;
        sum.instructions += r.instructions;
        sum.cycles = std::max(sum.cycles, r.cycles);
        sum.topdown.retire += r.topdown.retire;
        sum.topdown.ifetch += r.topdown.ifetch;
        sum.topdown.mispred += r.topdown.mispred;
        sum.topdown.depend += r.topdown.depend;
        sum.topdown.issue += r.topdown.issue;
        sum.topdown.mem += r.topdown.mem;
        sum.topdown.other += r.topdown.other;
        sumCacheStats(sum.l1i, r.l1i);
        sumCacheStats(sum.l1d, r.l1d);
        sumCacheStats(sum.l2, r.l2);
        sum.prefetch.issued += r.prefetch.issued;
        sum.prefetch.covered += r.prefetch.covered;
        sum.prefetch.late += r.prefetch.late;
        sum.branch.branches += r.branch.branches;
        sum.branch.mispredicts += r.branch.mispredicts;
        sum.branch.btbMisses += r.branch.btbMisses;
        sum.tlb.accesses += r.tlb.accesses;
        sum.tlb.misses += r.tlb.misses;
        sum.l2HotEvictions += r.l2HotEvictions;
    }
    sum.slc = result.slc;
    if (sum.instructions > 0) {
        const double kilo =
            static_cast<double>(sum.instructions) / 1000.0;
        sum.l2InstMpki =
            static_cast<double>(sum.l2.instDemandMisses) / kilo;
        sum.l2DataMpki =
            static_cast<double>(sum.l2.dataDemandMisses) / kilo;
    }
    return sum;
}

} // namespace trrip
