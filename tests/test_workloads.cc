/**
 * @file
 * Unit tests for the synthetic workload generator and execution
 * engine: structural invariants, determinism, dispatch distribution,
 * call-stack correctness, and layout-adjacency branch semantics.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "sw/layout.hh"
#include "util/error.hh"
#include "workloads/builder.hh"
#include "workloads/executor.hh"
#include "workloads/proxies.hh"

namespace trrip {
namespace {

WorkloadParams
smallParams()
{
    WorkloadParams p;
    p.name = "small";
    p.seed = 11;
    p.numHandlers = 12;
    p.numHelpers = 8;
    p.numColdFuncs = 4;
    p.numExternalFuncs = 4;
    p.regions = {DataRegionSpec{}};
    return p;
}

ElfImage
layoutOf(const SyntheticWorkload &wl)
{
    return layoutProgram(wl.program, nullptr, nullptr, LayoutOptions());
}

TEST(Builder, StructureMatchesSpec)
{
    const auto wl = buildWorkload(smallParams());
    EXPECT_EQ(wl.handlers.size(), 12u);
    EXPECT_EQ(wl.helpers.size(), 8u);
    EXPECT_EQ(wl.coldFuncs.size(), 4u);
    EXPECT_EQ(wl.externals.size(), 4u);
    EXPECT_EQ(wl.program.function(wl.dispatcher).kind,
              FuncKind::Dispatcher);
    EXPECT_EQ(wl.regionBase.size(), 1u);
}

TEST(Builder, DeterministicForSameSeed)
{
    const auto a = buildWorkload(smallParams());
    const auto b = buildWorkload(smallParams());
    ASSERT_EQ(a.program.numBlocks(), b.program.numBlocks());
    for (std::uint32_t i = 0; i < a.program.numBlocks(); ++i) {
        EXPECT_EQ(a.program.block(i).instrs, b.program.block(i).instrs);
        EXPECT_EQ(a.program.block(i).role, b.program.block(i).role);
    }
    EXPECT_EQ(a.handlerTierWeight, b.handlerTierWeight);
}

TEST(Builder, DifferentSeedDifferentStructure)
{
    auto p = smallParams();
    const auto a = buildWorkload(p);
    p.seed = 12;
    const auto b = buildWorkload(p);
    bool differs = a.program.numBlocks() != b.program.numBlocks();
    if (!differs) {
        for (std::uint32_t i = 0; i < a.program.numBlocks(); ++i) {
            if (a.program.block(i).instrs != b.program.block(i).instrs)
                differs = true;
        }
    }
    EXPECT_TRUE(differs);
}

TEST(Builder, TierWeightsAssigned)
{
    auto p = smallParams();
    p.numHandlers = 100;
    p.coreHandlerFraction = 0.2;
    p.rareHandlerFraction = 0.3;
    const auto wl = buildWorkload(p);
    int core = 0, rare = 0, common = 0;
    for (double w : wl.handlerTierWeight) {
        if (w == p.coreHandlerBoost)
            ++core;
        else if (w == p.rareHandlerDamp)
            ++rare;
        else
            ++common;
    }
    EXPECT_EQ(core, 20);
    EXPECT_EQ(rare, 30);
    EXPECT_EQ(common, 50);
}

TEST(Builder, FunctionsEndInReturnBlock)
{
    const auto wl = buildWorkload(smallParams());
    for (const auto &fn : wl.program.functions()) {
        if (fn.kind == FuncKind::Dispatcher)
            continue;
        ASSERT_FALSE(fn.body.empty());
        // The last body slot never carries a rare successor.
        EXPECT_EQ(fn.rareAfter.back(), -1);
    }
}

TEST(Builder, LoopEndsHaveRoomToJumpBack)
{
    const auto wl = buildWorkload(smallParams());
    for (const auto &fn : wl.program.functions()) {
        for (std::size_t i = 0; i < fn.body.size(); ++i) {
            const auto &bb = wl.program.block(fn.body[i]);
            if (bb.role == BBRole::LoopEnd) {
                EXPECT_GE(i, bb.loopBodyLen);
            }
        }
    }
}

TEST(Builder, DataRegionsDisjoint)
{
    auto p = smallParams();
    p.regions.push_back(DataRegionSpec{});
    p.regions.push_back(DataRegionSpec{});
    const auto wl = buildWorkload(p);
    for (std::size_t i = 1; i < wl.regionBase.size(); ++i) {
        EXPECT_GE(wl.regionBase[i],
                  wl.regionBase[i - 1] + p.regions[i - 1].sizeBytes);
    }
}

TEST(Executor, DeterministicStream)
{
    const auto wl = buildWorkload(smallParams());
    const auto img = layoutOf(wl);
    ExecOptions opts;
    opts.seed = 5;
    Executor a(wl, img, opts), b(wl, img, opts);
    BBEvent ea, eb;
    for (int i = 0; i < 20000; ++i) {
        a.next(ea);
        b.next(eb);
        ASSERT_EQ(ea.bb, eb.bb);
        ASSERT_EQ(ea.vaddr, eb.vaddr);
        ASSERT_EQ(ea.numData, eb.numData);
        if (ea.hasBranch) {
            ASSERT_EQ(ea.branch.target, eb.branch.target);
        }
    }
}

TEST(Executor, DifferentSeedsDiverge)
{
    const auto wl = buildWorkload(smallParams());
    const auto img = layoutOf(wl);
    Executor a(wl, img, ExecOptions{5, 0.8});
    Executor b(wl, img, ExecOptions{6, 0.8});
    BBEvent ea, eb;
    int same = 0;
    for (int i = 0; i < 2000; ++i) {
        a.next(ea);
        b.next(eb);
        same += ea.bb == eb.bb ? 1 : 0;
    }
    EXPECT_LT(same, 2000);
}

TEST(Executor, CallStackBounded)
{
    const auto wl = buildWorkload(smallParams());
    const auto img = layoutOf(wl);
    Executor ex(wl, img, ExecOptions{7, 0.8});
    BBEvent ev;
    for (int i = 0; i < 50000; ++i) {
        ex.next(ev);
        ASSERT_LE(ex.stackDepth(), wl.params.maxCallDepth);
        ASSERT_GE(ex.stackDepth(), 1u);
    }
}

TEST(Executor, EveryHandlerEventuallyRuns)
{
    auto params = smallParams();
    // Neutralize the frequency tiers so coverage is a pure Zipf
    // question (tiered coverage is tested separately).
    params.rareHandlerFraction = 0.0;
    params.coreHandlerFraction = 0.0;
    const auto wl = buildWorkload(params);
    const auto img = layoutOf(wl);
    Executor ex(wl, img, ExecOptions{7, 0.3});
    BBEvent ev;
    std::set<std::uint32_t> seen_funcs;
    for (int i = 0; i < 300000; ++i) {
        ex.next(ev);
        seen_funcs.insert(wl.program.block(ev.bb).func);
    }
    for (const auto h : wl.handlers)
        EXPECT_TRUE(seen_funcs.count(h)) << "handler " << h;
}

TEST(Executor, CoreHandlersDominateExecution)
{
    auto p = smallParams();
    p.numHandlers = 40;
    p.coreHandlerFraction = 0.25;
    p.coreHandlerBoost = 150.0;
    const auto wl = buildWorkload(p);
    const auto img = layoutOf(wl);
    Executor ex(wl, img, ExecOptions{7, 0.5});
    BBEvent ev;
    std::map<std::uint32_t, std::uint64_t> func_events;
    for (int i = 0; i < 200000; ++i) {
        ex.next(ev);
        ++func_events[wl.program.block(ev.bb).func];
    }
    std::uint64_t core_events = 0, handler_events = 0;
    for (std::size_t i = 0; i < wl.handlers.size(); ++i) {
        const auto n = func_events[wl.handlers[i]];
        handler_events += n;
        if (wl.handlerTierWeight[i] == p.coreHandlerBoost)
            core_events += n;
    }
    EXPECT_GT(static_cast<double>(core_events) /
                  static_cast<double>(handler_events),
              0.9);
}

TEST(Executor, BranchTakenMatchesLayoutAdjacency)
{
    const auto wl = buildWorkload(smallParams());
    const auto img = layoutOf(wl);
    Executor ex(wl, img, ExecOptions{7, 0.8});
    BBEvent ev;
    for (int i = 0; i < 20000; ++i) {
        ex.next(ev);
        if (!ev.hasBranch)
            continue;
        const Addr fallthrough = ev.vaddr + ev.bytes;
        EXPECT_EQ(ev.branch.taken, ev.branch.target != fallthrough);
    }
}

TEST(Executor, ReturnTargetsMatchRasConvention)
{
    // For call/return pairing, every return must land at the caller's
    // call pc + 4 (the address the RAS would predict).
    const auto wl = buildWorkload(smallParams());
    const auto img = layoutOf(wl);
    Executor ex(wl, img, ExecOptions{7, 0.8});
    BBEvent ev;
    std::vector<Addr> shadow_ras;
    int checked = 0;
    for (int i = 0; i < 100000 && checked < 500; ++i) {
        ex.next(ev);
        if (!ev.hasBranch)
            continue;
        if (ev.branch.isCall) {
            shadow_ras.push_back(ev.branch.pc + 4);
        } else if (ev.branch.isReturn && !shadow_ras.empty()) {
            EXPECT_EQ(ev.branch.target, shadow_ras.back());
            shadow_ras.pop_back();
            ++checked;
        }
    }
    EXPECT_GE(checked, 500);
}

TEST(Executor, PgoLayoutReducesTakenBranches)
{
    // The same workload must show more fall-throughs (fewer taken
    // branches) under the PGO layout -- the paper section 2.3 effect.
    auto p = smallParams();
    p.numHandlers = 30;
    const auto wl = buildWorkload(p);
    const auto nonpgo = layoutOf(wl);

    // Build a PGO layout from a quick profile.
    Profile prof(wl.program.numBlocks());
    {
        Executor ex(wl, nonpgo, ExecOptions{p.trainSeed, 0.8});
        BBEvent ev;
        for (int i = 0; i < 100000; ++i) {
            ex.next(ev);
            prof.record(ev.bb);
        }
    }
    const auto cls =
        classifyTemperature(wl.program, prof, ClassifierOptions());
    const auto pgo = layoutProgram(wl.program, &cls, &prof,
                                   LayoutOptions());

    const auto taken_fraction = [&](const ElfImage &img) {
        Executor ex(wl, img, ExecOptions{42, 0.8});
        BBEvent ev;
        std::uint64_t branches = 0, taken = 0;
        for (int i = 0; i < 100000; ++i) {
            ex.next(ev);
            if (ev.hasBranch && ev.branch.conditional) {
                ++branches;
                taken += ev.branch.taken ? 1 : 0;
            }
        }
        return static_cast<double>(taken) /
               static_cast<double>(branches);
    };
    EXPECT_LT(taken_fraction(pgo), taken_fraction(nonpgo));
}

TEST(Executor, DataAccessesStayInsideRegions)
{
    auto p = smallParams();
    p.regions = {DataRegionSpec{"r0", 64 * 1024},
                 DataRegionSpec{"r1", 1 << 20}};
    const auto wl = buildWorkload(p);
    const auto img = layoutOf(wl);
    Executor ex(wl, img, ExecOptions{9, 0.8});
    BBEvent ev;
    for (int i = 0; i < 50000; ++i) {
        ex.next(ev);
        for (std::uint8_t d = 0; d < ev.numData; ++d) {
            const Addr a = ev.data[d].vaddr;
            const bool in_r0 = a >= wl.regionBase[0] &&
                               a < wl.regionBase[0] + 64 * 1024;
            const bool in_r1 = a >= wl.regionBase[1] &&
                               a < wl.regionBase[1] + (1 << 20);
            ASSERT_TRUE(in_r0 || in_r1);
        }
    }
}

TEST(Executor, FetchAddressesComeFromImage)
{
    const auto wl = buildWorkload(smallParams());
    const auto img = layoutOf(wl);
    Executor ex(wl, img, ExecOptions{9, 0.8});
    BBEvent ev;
    for (int i = 0; i < 20000; ++i) {
        ex.next(ev);
        const bool in_main = ev.vaddr >= img.imageBase &&
                             ev.vaddr < img.imageEnd;
        const bool in_ext = img.isExternal(ev.vaddr);
        ASSERT_TRUE(in_main || in_ext);
    }
}

TEST(Proxies, AllRegisteredWorkloadsBuild)
{
    for (const auto &name : proxyNames()) {
        const auto params = proxyParams(name);
        EXPECT_EQ(params.name, name);
        const auto wl = buildWorkload(params);
        EXPECT_GT(wl.program.numBlocks(), 0u);
    }
    for (const auto &name : systemComponentNames()) {
        const auto wl = buildWorkload(proxyParams(name));
        EXPECT_GT(wl.program.numBlocks(), 0u);
    }
}

TEST(Proxies, UnknownNameIsABuildFailure)
{
    try {
        proxyParams("nope");
        ADD_FAILURE() << "unknown proxy name did not throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::BuildFailure);
        EXPECT_EQ(e.message(), "unknown workload: nope");
    }
}

TEST(Proxies, ClangIsTheLargestBinary)
{
    // Paper Table 5: clang 168 MB dwarfs the others.
    std::uint64_t clang_size = 0, max_other = 0;
    for (const auto &name : proxyNames()) {
        const auto wl = buildWorkload(proxyParams(name));
        const auto img = layoutProgram(wl.program, nullptr, nullptr,
                                       [&] {
                                           LayoutOptions o;
                                           o.extraColdTextBytes =
                                               wl.params
                                                   .extraColdTextBytes;
                                           o.extraBinaryBytes =
                                               wl.params
                                                   .extraBinaryBytes;
                                           return o;
                                       }());
        if (name == "clang")
            clang_size = img.binaryBytes;
        else
            max_other = std::max(max_other, img.binaryBytes);
    }
    EXPECT_GT(clang_size, max_other);
}

} // namespace
} // namespace trrip
