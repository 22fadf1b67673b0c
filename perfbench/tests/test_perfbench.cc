/**
 * @file
 * Tests of the benchmark's own arithmetic: the sample statistics, the
 * fig6/table3 fidelity formulas on a hand-computed grid, the closure
 * split, the RSS read and the trace-mc label.
 *
 *   cmake --build <dir> --target perfbench_test && <dir>/perfbench_test
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>

#include "cells.hh"
#include "measure.hh"
#include "sim/multicore.hh"
#include "trace/replay.hh"

namespace perfbench {
namespace {

TEST(Measure, MedianOddEvenAndUnsorted)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
    EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Measure, QuartilesMatchPythonStatistics)
{
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    std::vector<double> ten;
    for (int i = 10; i >= 1; --i)
        ten.push_back(i);
    auto [q1, q3] = quartiles(ten);
    EXPECT_DOUBLE_EQ(q1, 2.75);
    EXPECT_DOUBLE_EQ(q3, 8.25);

    // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
    std::tie(q1, q3) = quartiles({3.0, 1.0, 2.0});
    EXPECT_DOUBLE_EQ(q1, 1.0);
    EXPECT_DOUBLE_EQ(q3, 3.0);

    // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]: the
    // exclusive method extrapolates past the ends of small samples.
    std::tie(q1, q3) = quartiles({5.0, 1.0});
    EXPECT_DOUBLE_EQ(q1, 0.0);
    EXPECT_DOUBLE_EQ(q3, 6.0);
}

trrip::SimResult
cell(double cycles, double l2i_mpki)
{
    trrip::SimResult r;
    r.instructions = 1000;
    r.cycles = cycles;
    r.l2InstMpki = l2i_mpki;
    return r;
}

TEST(Measure, FidelityGapsOnAHandComputedGrid)
{
    // Two workloads x {SRRIP, TRRIP}.  Speedups: 1100/1000 - 1 = 10 %
    // and 2000/2500 - 1 = -20 %; geomean = sqrt(1.1 * 0.8) - 1.
    // MPKI cuts: 1 - 6/8 = 25 % and 1 - 9/10 = 10 %; table3 takes the
    // geomean of the negated cuts and negates it back:
    // 1 - sqrt(0.75 * 0.9).
    const std::vector<FidelityRow> rows{
        {cell(1100.0, 8.0), cell(1000.0, 6.0)},
        {cell(2000.0, 10.0), cell(2500.0, 9.0)},
    };
    const double speedup = (std::sqrt(1.1 * 0.8) - 1.0) * 100.0;
    const double cut = (1.0 - std::sqrt(0.75 * 0.9)) * 100.0;
    EXPECT_NEAR(geomeanSpeedupPercent(rows), speedup, 1e-9);
    EXPECT_NEAR(geomeanL2iMpkiCutPercent(rows), cut, 1e-9);
    EXPECT_NEAR(gapPp(geomeanSpeedupPercent(rows), 3.9),
                3.9 - speedup, 1e-9);
    EXPECT_NEAR(gapPp(geomeanL2iMpkiCutPercent(rows), 26.5),
                26.5 - cut, 1e-9);
    EXPECT_DOUBLE_EQ(gapPp(28.0, 26.5), 1.5);
}

TEST(Measure, ClosureKeepsTheSignOfTheResidual)
{
    Closure c;
    c.stepNs = 30.0;
    c.sourceNs = 7.0;
    c.layersNs = 20.0;
    EXPECT_DOUBLE_EQ(c.selfNs(), 3.0);
    EXPECT_DOUBLE_EQ(c.ratio(), 0.9);

    c.layersNs = 26.0;  // Layers alone slower than inside the core.
    EXPECT_DOUBLE_EQ(c.selfNs(), -3.0);
    EXPECT_DOUBLE_EQ(c.ratio(), 1.1);

    EXPECT_DOUBLE_EQ(Closure{}.ratio(), 0.0);
}

TEST(Measure, PeakRssSeesATouchedAllocation)
{
    const double before = peakRssMb();
    EXPECT_GT(before, 0.0);
    constexpr std::size_t kBytes = 64u << 20;
    auto block = std::make_unique<char[]>(kBytes);
    std::memset(block.get(), 1, kBytes);
    EXPECT_GE(peakRssMb(), before + 48.0) << "touched 64 MiB";
    EXPECT_EQ(block[kBytes - 1], 1);
}

TEST(Measure, CalibrationKernelReportsARate)
{
    EXPECT_GT(calibrationMops(3, 100'000), 0.0);
}

TEST(Workloads, TraceMcLabelIsFourTraceCores)
{
    const std::string label = traceMcLabel("work/pack");
    const std::string d = "trace:work/pack/dispatch.trrtrc";
    const std::string s = "trace:work/pack/streaming.trrtrc";
    EXPECT_EQ(label, "mc:" + d + "+" + s + "+" + d + "+" + s);
    ASSERT_TRUE(trrip::isMultiCoreName(label));
    const auto cores = trrip::multiCoreWorkloadsOf(label);
    ASSERT_EQ(cores.size(), 4u);
    EXPECT_EQ(trrip::trace::tracePathOf(cores[0]),
              "work/pack/dispatch.trrtrc");
    EXPECT_EQ(trrip::trace::tracePathOf(cores[3]),
              "work/pack/streaming.trrtrc");
    EXPECT_THROW(traceMcLabel("a+b"), std::invalid_argument);
}

TEST(Workloads, DigestIgnoresWhereThePackWasWritten)
{
    const std::map<std::string, std::uint64_t> a{
        {traceMcLabel("run-1/pack") + "|SRRIP", 5}};
    const std::map<std::string, std::uint64_t> b{
        {traceMcLabel("run-22/pack") + "|SRRIP", 5}};
    const std::map<std::string, std::uint64_t> c{
        {traceMcLabel("run-22/pack") + "|SRRIP", 6}};
    EXPECT_EQ(simDigest(a, "run-1/pack"), simDigest(b, "run-22/pack"));
    EXPECT_NE(simDigest(b, "run-22/pack"), simDigest(c, "run-22/pack"));
}

TEST(Workloads, SeedPermutesTheAxesWithoutLosingCells)
{
    const Workload wl = makeWorkload("proxy-grid", "pack");
    EXPECT_EQ(wl.workloads.size() * wl.policies.size(), 90u);
    auto a = permuted(wl.policies, 7);
    EXPECT_EQ(a, permuted(wl.policies, 7));
    auto sorted_a = a;
    auto sorted_p = wl.policies;
    std::sort(sorted_a.begin(), sorted_a.end());
    std::sort(sorted_p.begin(), sorted_p.end());
    EXPECT_EQ(sorted_a, sorted_p);
    EXPECT_THROW(makeWorkload("nope", "pack"), std::invalid_argument);
}

TEST(Workloads, SeedOrdersButDoesNotChooseTheTracedCells)
{
    for (const char *name : {"proxy-grid", "trace-mc"}) {
        const Workload wl = makeWorkload(name, "pack");
        auto a = tracedCells(wl, 1);
        auto b = tracedCells(wl, 2);
        EXPECT_EQ(a.size(), wl.policies.size()) << name;
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        EXPECT_EQ(a, b) << name;
        for (const auto &[w, p] : a)
            EXPECT_EQ(w, wl.tracedWorkload) << name;
    }
}

} // namespace
} // namespace perfbench
