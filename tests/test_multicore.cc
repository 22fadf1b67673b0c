/**
 * @file
 * Multi-core driver suite (sim/multicore.hh).
 *
 * Three rings of proof, from the inside out:
 *  - hand-computed interleaving over a fixed-size event source: the
 *    round-robin schedule advances every core by exactly one quantum
 *    per rotation, a budget-exhausted core drops out while the others
 *    progress, and an SLC eviction back-invalidates exactly the
 *    owning core's private levels;
 *  - N=1 equivalence: a one-core bundle replays every pinned
 *    single-core golden fingerprint (proxy and trace) bit for bit --
 *    the multi-core path IS the single-core engine when no sharing
 *    exists;
 *  - N>1 pinned fingerprints: 2- and 4-core bundles with mixed
 *    temperature profiles, one bundle mixing a proxy core with a
 *    trace-replay core, plus driver-level determinism and the
 *    masked-vs-naive back-invalidation equivalence end to end.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/codesign.hh"
#include "exp/runner.hh"
#include "sim/golden.hh"
#include "sim/multicore.hh"
#include "trace/generate.hh"
#include "trace/replay.hh"

namespace trrip {
namespace {

// ------------------------------------------------------------ labels

TEST(MultiCoreName, ParsesBundleLabels)
{
    EXPECT_TRUE(isMultiCoreName("mc:python+gcc"));
    EXPECT_FALSE(isMultiCoreName("python"));
    EXPECT_FALSE(isMultiCoreName("trace:foo.trrtrc"));

    const std::vector<std::string> one = multiCoreWorkloadsOf("mc:gcc");
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], "gcc");

    const std::vector<std::string> four =
        multiCoreWorkloadsOf("mc:python+clang+gcc+sqlite");
    ASSERT_EQ(four.size(), 4u);
    EXPECT_EQ(four[0], "python");
    EXPECT_EQ(four[3], "sqlite");

    EXPECT_TRUE(multiCoreWorkloadsOf("python").empty());
}

/** `mc:` labels with an empty component: each must be rejected. */
const std::vector<std::string> kEmptyComponentLabels = {
    "mc:", "mc:+", "mc:gcc+", "mc:+gcc", "mc:gcc++clang"};

TEST(MultiCoreName, EmptyComponentsStayEmptyLabels)
{
    EXPECT_EQ(multiCoreWorkloadsOf("mc:"),
              std::vector<std::string>({""}));
    EXPECT_EQ(multiCoreWorkloadsOf("mc:+"),
              std::vector<std::string>({"", ""}));
    EXPECT_EQ(multiCoreWorkloadsOf("mc:gcc+"),
              std::vector<std::string>({"gcc", ""}));
    EXPECT_EQ(multiCoreWorkloadsOf("mc:+gcc"),
              std::vector<std::string>({"", "gcc"}));
    EXPECT_EQ(multiCoreWorkloadsOf("mc:gcc++clang"),
              std::vector<std::string>({"gcc", "", "clang"}));
}

TEST(MultiCoreName, EmptyComponentIsABuildFailure)
{
    MultiCoreOptions mo;
    mo.base.maxInstructions = 10'000;
    for (const std::string &label : kEmptyComponentLabels) {
        try {
            runMultiCore(multiCoreWorkloadsOf(label), "SRRIP", mo);
            ADD_FAILURE() << label << " ran instead of throwing";
        } catch (const SimError &e) {
            EXPECT_EQ(e.category(), ErrorCategory::BuildFailure)
                << label << ": " << e.what();
        }
    }
    EXPECT_THROW(runMultiCore({}, "SRRIP", mo), SimError);
}

TEST(MultiCoreName, EmptyComponentBecomesAnErrorRowUnderSkip)
{
    exp::ExperimentSpec spec;
    spec.name = "mc_empty_component";
    spec.workloads = kEmptyComponentLabels;
    spec.workloads.push_back("mc:gcc");  // The one well-formed cell.
    spec.policies = {"SRRIP"};
    spec.options.maxInstructions = 20'000;
    spec.options.profileInstructions = 10'000;
    spec.onError.mode = exp::OnError::Mode::Skip;

    exp::ExperimentRunner runner(2);
    const exp::ExperimentResults results = runner.run(spec, {});
    ASSERT_EQ(results.cells().size(), spec.workloads.size());
    for (const exp::CellRecord &rec : results.cells()) {
        if (rec.workload == "mc:gcc") {
            EXPECT_FALSE(rec.failed) << rec.errorMessage;
            continue;
        }
        EXPECT_TRUE(rec.failed) << rec.workload;
        EXPECT_EQ(rec.errorCategory, "build_failure") << rec.workload;
    }
}

TEST(MultiCoreName, UnknownProxyLaneIsABuildFailure)
{
    exp::ExperimentSpec spec;
    spec.name = "mc_unknown_proxy";
    spec.workloads = {"mc:gcc+nosuch", "gcc"};
    spec.policies = {"SRRIP"};
    spec.options.maxInstructions = 20'000;
    spec.options.profileInstructions = 10'000;
    spec.onError.mode = exp::OnError::Mode::Skip;
    exp::ExperimentRunner runner(2);

    const exp::ExperimentResults results = runner.run(spec, {});
    const exp::CellRecord &bad = results.at("mc:gcc+nosuch", "SRRIP");
    EXPECT_TRUE(bad.failed);
    EXPECT_EQ(bad.errorCategory, "build_failure");
    EXPECT_NE(bad.errorMessage.find("unknown workload: nosuch"),
              std::string::npos)
        << bad.errorMessage;
    EXPECT_FALSE(results.at("gcc", "SRRIP").failed);

    spec.onError.mode = exp::OnError::Mode::Abort;
    try {
        runner.run(spec, {});
        ADD_FAILURE() << "Abort-mode grid with an unknown lane ran";
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::BuildFailure)
            << e.what();
    }
}

// ---------------------------------- hand-computed interleaving cases

/**
 * Pure generator of 10-instruction, branch-free, data-free blocks
 * cycling over a small code footprint.  Every event is identical in
 * size, so quantum arithmetic is exact: step(k * 10) retires exactly
 * k events.
 */
class FixedSource final : public BBEventSource
{
  public:
    explicit FixedSource(Addr base) : base_(base) {}

    void
    produce(BBEvent *ring, std::uint32_t mask, std::uint32_t pos,
            std::uint32_t count) override
    {
        for (std::uint32_t k = 0; k < count; ++k) {
            BBEvent &ev = ring[(pos + k) & mask];
            ev.bb = next_ % 8;
            ev.vaddr = base_ + (next_ % 8) * 64;
            ev.instrs = 10;
            ev.bytes = 16;
            ev.hasBranch = false;
            ev.numData = 0;
            ev.fdipMispredict = false;
            ++next_;
        }
    }

  private:
    Addr base_;
    std::uint64_t next_ = 0;
};

/** Tiny two-core fabric + engines around FixedSources. */
struct TwoCoreRig
{
    MultiCoreHierarchy fabric;
    PageTable pt;
    Mmu mmu0, mmu1;
    BranchUnit br0, br1;
    FixedSource src0, src1;
    CoreModel core0, core1;

    static MultiCoreParams
    params()
    {
        MultiCoreParams mp;
        mp.hier.l1i = CacheGeometry{"L1I", 256, 2, 64};
        mp.hier.l1d = CacheGeometry{"L1D", 256, 2, 64};
        mp.hier.l2 = CacheGeometry{"L2", 512, 1, 64};
        mp.hier.slc = CacheGeometry{"SLC", 1024, 2, 64};
        mp.hier.enablePrefetch = false;
        mp.numCores = 2;
        return mp;
    }

    TwoCoreRig() :
        fabric(params()), pt(4096), mmu0(pt), mmu1(pt),
        br0(BranchParams{}), br1(BranchParams{}), src0(0x10000),
        src1(0x20000),
        core0(src0, fabric.core(0), mmu0, br0, CoreParams{},
              BackendParams{}),
        core1(src1, fabric.core(1), mmu1, br1, CoreParams{},
              BackendParams{})
    {
        // Both cores' code pages, mapped up front (no loader here).
        pt.map(0x10000, Temperature::Hot);
        pt.map(0x20000, Temperature::Warm);
    }
};

TEST(MultiCoreInterleave, RoundRobinAdvancesEachCoreOneQuantum)
{
    TwoCoreRig rig;
    const InstCount quantum = 100;  // = exactly 10 FixedSource events.
    for (InstCount target = quantum; target <= 500; target += quantum) {
        rig.core0.step(target);
        rig.core1.step(target);
        // Fixed 10-instruction events divide the quantum exactly, so
        // the rotation boundary is computable by hand: no overshoot,
        // perfect fairness at every boundary.
        EXPECT_EQ(rig.core0.retired(), target);
        EXPECT_EQ(rig.core1.retired(), target);
    }
    const SimResult r0 = rig.core0.finalize();
    const SimResult r1 = rig.core1.finalize();
    EXPECT_EQ(r0.instructions, 500u);
    EXPECT_EQ(r1.instructions, 500u);
}

TEST(MultiCoreInterleave, ExhaustedCoreDropsOutOthersProgress)
{
    TwoCoreRig rig;
    const InstCount quantum = 100;
    const InstCount budget0 = 200, budget1 = 1000;
    while (rig.core0.retired() < budget0 ||
           rig.core1.retired() < budget1) {
        if (rig.core0.retired() < budget0)
            rig.core0.step(std::min<InstCount>(
                budget0, rig.core0.retired() + quantum));
        if (rig.core1.retired() < budget1)
            rig.core1.step(std::min<InstCount>(
                budget1, rig.core1.retired() + quantum));
    }
    EXPECT_EQ(rig.core0.retired(), budget0);
    EXPECT_EQ(rig.core1.retired(), budget1);
    const SimResult r1 = rig.core1.finalize();
    EXPECT_EQ(r1.instructions, budget1);
}

TEST(MultiCoreInterleave, SlcEvictionBackInvalidatesExactlyTheOwner)
{
    // Direct-mapped 8-set L2s and a 2-way 8-set SLC: addresses 0x0,
    // 0x200, 0x400 all map to set 0 of every level.
    MultiCoreParams mp = TwoCoreRig::params();
    mp.hier.slc = CacheGeometry{"SLC", 512, 1, 64};  // 8 sets, 1-way.
    MultiCoreHierarchy fabric(mp);

    const Addr line_a = 0x0, line_b = 0x200;
    MemRequest req;
    req.type = AccessType::InstFetch;
    req.temp = Temperature::Hot;

    // Core 0 fetches A: private L1I/L2 copies + SLC owner bit 0.
    req.vaddr = req.paddr = req.pc = line_a;
    fabric.core(0).instFetch(req, 0);
    EXPECT_TRUE(fabric.core(0).l2().contains(line_a));
    EXPECT_TRUE(fabric.core(0).l1i().contains(line_a));
    EXPECT_TRUE(fabric.slc().contains(line_a));
    EXPECT_EQ(fabric.slc().ownerOf(line_a), 0b01u);
    EXPECT_TRUE(fabric.checkInclusion());

    // Core 1 fetches B (same SLC set, 1-way): the SLC evicts A and
    // must back-invalidate core 0's copies -- and ONLY core 0's.
    req.vaddr = req.paddr = req.pc = line_b;
    fabric.core(1).instFetch(req, 100);
    EXPECT_FALSE(fabric.core(0).l2().contains(line_a));
    EXPECT_FALSE(fabric.core(0).l1i().contains(line_a));
    EXPECT_TRUE(fabric.core(1).l2().contains(line_b));
    EXPECT_TRUE(fabric.core(1).l1i().contains(line_b));
    // The probe hit exactly the owner: core 0 saw one L2 + one L1I
    // invalidation, core 1 none at all.
    EXPECT_EQ(fabric.core(0).l2().stats().invalidations, 1u);
    EXPECT_EQ(fabric.core(0).l1i().stats().invalidations, 1u);
    EXPECT_EQ(fabric.core(1).l2().stats().invalidations, 0u);
    EXPECT_EQ(fabric.core(1).l1i().stats().invalidations, 0u);
    EXPECT_TRUE(fabric.checkInclusion());
}

TEST(MultiCoreInterleave, OwnerMaskTracksSharersAndReleases)
{
    MultiCoreParams mp = TwoCoreRig::params();
    MultiCoreHierarchy fabric(mp);

    const Addr line_a = 0x0, line_a2 = 0x200;
    MemRequest req;
    req.type = AccessType::InstFetch;
    req.temp = Temperature::Warm;

    // Both cores fetch A: the SLC mask accumulates both owner bits.
    req.vaddr = req.paddr = req.pc = line_a;
    fabric.core(0).instFetch(req, 0);
    EXPECT_EQ(fabric.slc().ownerOf(line_a), 0b01u);
    fabric.core(1).instFetch(req, 10);
    EXPECT_EQ(fabric.slc().ownerOf(line_a), 0b11u);
    EXPECT_TRUE(fabric.checkInclusion());

    // Core 0 fetches A2 (same direct-mapped L2 set; the 2-way SLC
    // set holds both): core 0's L2 evicts A, which only RELEASES its
    // owner bit -- the SLC copy stays, core 1's copies stay.
    req.vaddr = req.paddr = req.pc = line_a2;
    fabric.core(0).instFetch(req, 20);
    EXPECT_FALSE(fabric.core(0).l2().contains(line_a));
    EXPECT_TRUE(fabric.slc().contains(line_a));
    EXPECT_EQ(fabric.slc().ownerOf(line_a), 0b10u);
    EXPECT_TRUE(fabric.core(1).l2().contains(line_a));
    EXPECT_EQ(fabric.slc().ownerOf(line_a2), 0b01u);
    EXPECT_TRUE(fabric.checkInclusion());

    // Core 0 re-fetches A: a shared-SLC demand hit re-ORs bit 0.
    req.vaddr = req.paddr = req.pc = line_a;
    fabric.core(0).instFetch(req, 30);
    EXPECT_EQ(fabric.slc().ownerOf(line_a), 0b11u);
    EXPECT_TRUE(fabric.checkInclusion());
}

// --------------------------------------------- N=1 golden equivalence

TEST(MultiCoreGolden, OneCoreBundleReplaysProxyGoldens)
{
    // The multi-core driver with one core must BE the single-core
    // pipeline: every pinned proxy fingerprint replays bit for bit.
    for (const GoldenCase &c : goldenCases()) {
        MultiCoreOptions mo;
        mo.base = c.options();
        const MultiCoreResult mc =
            runMultiCore({c.workload}, c.policy, mo);
        ASSERT_EQ(mc.cores.size(), 1u);
        std::string dump;
        const std::uint64_t fp =
            goldenFingerprint(mc.cores[0].result, &dump);
        EXPECT_EQ(fp, c.expected)
            << "mc:" << c.workload << " / " << c.policy
            << ": one-core bundle diverged from the single-core "
            << "engine.  Counter dump:\n" << dump;
    }
}

/**
 * The mini-trace pack this suite regenerates.  Private to the suite:
 * ctest -j runs the other suites that regenerate a pack concurrently.
 */
constexpr const char *kTraceDir = "golden_mini_traces_multicore";

TEST(MultiCoreGolden, OneCoreBundleReplaysTraceGoldens)
{
    const std::string dir = kTraceDir;
    trace::generateMiniTracePack(dir);
    for (const TraceGoldenCase &c : traceGoldenCases()) {
        MultiCoreOptions mo;
        mo.base = c.options();
        const std::string label =
            std::string(trace::kTracePrefix) +
            trace::miniTracePath(dir, c.trace);
        const MultiCoreResult mc = runMultiCore({label}, c.policy, mo);
        ASSERT_EQ(mc.cores.size(), 1u);
        std::string dump;
        const std::uint64_t fp =
            goldenFingerprint(mc.cores[0].result, &dump);
        EXPECT_EQ(fp, c.expected)
            << "mc trace " << c.trace << " / " << c.policy
            << ": one-core bundle diverged from the single-core "
            << "trace replay.  Counter dump:\n" << dump;
    }
}

TEST(MultiCoreGolden, OneCoreBundleIsQuantumInvariant)
{
    // run(n) == { step(n); finalize() } end to end: with no shared
    // state, cutting the run into quanta of any size must not move a
    // single bit of the result.
    const GoldenCase &c = goldenCases().front();
    std::uint64_t fps[2];
    const InstCount quanta[2] = {1000, 10 * kGoldenBudget};
    for (int i = 0; i < 2; ++i) {
        MultiCoreOptions mo;
        mo.base = c.options();
        mo.quantum = quanta[i];
        const MultiCoreResult mc =
            runMultiCore({c.workload}, c.policy, mo);
        fps[i] = goldenFingerprint(mc.cores[0].result);
    }
    EXPECT_EQ(fps[0], fps[1]) << "quantum size leaked into an "
                              << "unshared one-core result";
}

// ----------------------------------------- N>1 pinned configurations

std::vector<std::string>
resolveBundle(const char *workloads, const std::string &trace_dir)
{
    std::vector<std::string> labels = multiCoreWorkloadsOf(
        std::string(kMultiCorePrefix) + workloads);
    for (std::string &label : labels) {
        if (!label.empty() && label[0] == '@') {
            label = std::string(trace::kTracePrefix) +
                    trace::miniTracePath(trace_dir, label.substr(1));
        }
    }
    return labels;
}

TEST(MultiCoreGolden, MultiCoreFingerprintsAreBitIdentical)
{
    const std::string dir = kTraceDir;
    trace::generateMiniTracePack(dir);
    const bool print = std::getenv("TRRIP_PRINT_GOLDEN") != nullptr;
    for (const MultiCoreGoldenCase &c : multiCoreGoldenCases()) {
        MultiCoreOptions mo;
        mo.base = c.options();
        const MultiCoreResult mc =
            runMultiCore(resolveBundle(c.workloads, dir), c.policy, mo);
        const std::uint64_t fp = multiCoreFingerprint(mc);
        if (print) {
            std::printf("        {\"%s\", \"%s\", %s, "
                        "0x%016llxull},\n",
                        c.workloads, c.policy,
                        c.pgo ? "true" : "false",
                        static_cast<unsigned long long>(fp));
            continue;
        }
        EXPECT_EQ(fp, c.expected)
            << "mc:" << c.workloads << " / " << c.policy
            << ": multi-core simulation behavior changed.";
    }
}

TEST(MultiCoreRunner, CellsEqualDirectCalls)
{
    // Every runner cell is one runMultiCore() call; its result must be
    // what the direct entry points produce, with and without profile
    // reuse, on one worker or four.
    const std::string dir = kTraceDir;
    trace::generateMiniTracePack(dir);
    const std::string path = trace::miniTracePath(dir, "dispatch");
    const std::string tr = trace::kTracePrefix + path;

    exp::ExperimentSpec spec;
    spec.name = "runner_equals_direct";
    spec.workloads = {"gcc", tr, "mc:gcc+gcc", "mc:" + tr + "+python"};
    spec.policies = {"SRRIP", "TRRIP-2"};
    spec.options.maxInstructions = 40'000;
    spec.options.profileInstructions = 20'000;
    std::mutex builds_mutex;
    std::map<std::string, int> builds;
    spec.paramsFor = [&](const std::string &label) {
        std::lock_guard<std::mutex> lock(builds_mutex);
        ++builds[label];
        return proxyParams(label);
    };

    // Direct references: single-core fingerprints, and for bundles
    // the aggregate fingerprint plus what it cannot see (per-core
    // cycles, shared DRAM traffic).
    std::map<std::string, std::uint64_t> fingerprint;
    std::map<std::string, std::map<std::string, double>> bundle;
    for (const std::string &policy : spec.policies) {
        fingerprint["gcc/" + policy] = goldenFingerprint(
            CoDesignPipeline(proxyParams("gcc"))
                .run(policy, spec.options)
                .result);
        fingerprint[tr + "/" + policy] = goldenFingerprint(
            trace::runTrace(path, policy, spec.options).result);
        for (const std::string &label : {spec.workloads[2],
                                         spec.workloads[3]}) {
            MultiCoreOptions mo;
            mo.base = spec.options;
            const MultiCoreResult mc = runMultiCore(
                multiCoreWorkloadsOf(label), policy, mo);
            const std::string key = label + "/" + policy;
            fingerprint[key] = goldenFingerprint(aggregateMultiCore(mc));
            for (std::size_t c = 0; c < mc.cores.size(); ++c) {
                bundle[key]["core" + std::to_string(c) + "_cycles"] =
                    mc.cores[c].result.cycles;
            }
            bundle[key]["dram_reads"] =
                static_cast<double>(mc.dramReads);
            bundle[key]["dram_writes"] =
                static_cast<double>(mc.dramWrites);
        }
    }

    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(jobs) + " jobs");
        builds.clear();
        exp::ExperimentRunner runner(jobs);
        const exp::ExperimentResults results = runner.run(spec, {});
        for (const exp::CellRecord &rec : results.cells()) {
            const std::string key = rec.workload + "/" + rec.policy;
            ASSERT_FALSE(rec.failed) << key << ": " << rec.errorMessage;
            EXPECT_EQ(goldenFingerprint(rec.result()),
                      fingerprint.at(key))
                << key;
            for (const auto &[metric, value] : bundle[key])
                EXPECT_EQ(rec.metrics.at(metric), value)
                    << key << " " << metric;
        }
        // One build per distinct proxy label per submit, shared by
        // single-core cells and bundle lanes alike.
        EXPECT_EQ(builds,
                  (std::map<std::string, int>{{"gcc", 1},
                                              {"python", 1}}));
    }
}

TEST(MultiCoreRunner, BundleRecordsResolvedPolicies)
{
    // A bundle cell's policy labels come from the stacks its lanes
    // ran on: the policy axis in every private L2, the shared SLC's
    // own spec for the SLC.
    exp::ExperimentSpec spec;
    spec.name = "mc_resolved_policies";
    spec.workloads = {"mc:gcc+gcc"};
    spec.policies = {"TRRIP-2(bits=3)"};
    spec.options.maxInstructions = 20'000;
    spec.options.profileInstructions = 10'000;
    spec.options.hier.slcPolicy = "SRRIP";
    const std::vector<std::pair<std::string, std::string>> want = {
        {"L1I", "LRU"},
        {"L1D", "LRU"},
        {"L2", "TRRIP-2(bits=3)"},
        {"SLC", "SRRIP(bits=2)"}};

    exp::ExperimentRunner runner(1);
    const exp::ExperimentResults results = runner.run(spec, {});
    const exp::CellRecord &rec =
        results.at("mc:gcc+gcc", "TRRIP-2(bits=3)");
    ASSERT_FALSE(rec.failed) << rec.errorMessage;
    EXPECT_EQ(rec.artifacts.resolvedPolicies, want);

    // Every lane of the direct run records the same labels.
    MultiCoreOptions mo;
    mo.base = spec.options;
    const MultiCoreResult mc =
        runMultiCore({"gcc", "gcc"}, "TRRIP-2(bits=3)", mo);
    ASSERT_EQ(mc.cores.size(), 2u);
    for (const RunArtifacts &core : mc.cores)
        EXPECT_EQ(core.resolvedPolicies, want);
}

TEST(MultiCoreGolden, DriverIsDeterministicAcrossRuns)
{
    MultiCoreOptions mo;
    mo.base.maxInstructions = 30'000;
    const std::vector<std::string> bundle = {"gcc", "sqlite"};
    const std::uint64_t fp1 = multiCoreFingerprint(
        runMultiCore(bundle, "TRRIP-2", mo));
    const std::uint64_t fp2 = multiCoreFingerprint(
        runMultiCore(bundle, "TRRIP-2", mo));
    EXPECT_EQ(fp1, fp2) << "same spec, different bits";
}

TEST(MultiCoreGolden, MaskedAndNaiveBackInvalidationAgreeEndToEnd)
{
    // The randomized hierarchy-level differential lives in
    // tests/test_cache.cc; this is the same equivalence driven by the
    // full engine: owner-masked back-invalidation must not move one
    // bit of any core's counters versus probing every core.
    MultiCoreOptions mo;
    mo.base.maxInstructions = 30'000;
    // A small SLC so evictions (the cascade under test) are constant.
    mo.base.hier.slc = CacheGeometry{"SLC", 64 * 1024, 8, 64};
    const std::vector<std::string> bundle = {"python", "gcc"};
    const std::uint64_t masked = multiCoreFingerprint(
        runMultiCore(bundle, "SRRIP", mo));
    mo.naiveBackInvalidate = true;
    const std::uint64_t naive = multiCoreFingerprint(
        runMultiCore(bundle, "SRRIP", mo));
    EXPECT_EQ(masked, naive)
        << "owner-masked back-invalidation changed observable "
        << "behavior";
}

TEST(MultiCoreGolden, PerCoreBudgetsRunIndependently)
{
    MultiCoreOptions mo;
    mo.base.profileInstructions = 20'000;
    mo.quantum = 2'000;
    mo.coreBudgets = {5'000, 40'000};
    const MultiCoreResult mc =
        runMultiCore({"gcc", "gcc"}, "SRRIP", mo);
    ASSERT_EQ(mc.cores.size(), 2u);
    // The stalled core stops within one event of its budget while the
    // other runs its full course.
    EXPECT_GE(mc.cores[0].result.instructions, 5'000u);
    EXPECT_LT(mc.cores[0].result.instructions, 6'000u);
    EXPECT_GE(mc.cores[1].result.instructions, 40'000u);
}

} // namespace
} // namespace trrip
