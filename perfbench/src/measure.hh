/**
 * @file
 * The benchmark's own arithmetic: sample statistics, the paper
 * fidelity gaps, the per-layer closure, host memory and the fixed
 * calibration kernel.  Header-only so tests/test_perfbench.cc checks
 * exactly the code the benchmark runs.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/codesign.hh"
#include "util/hash.hh"
#include "util/stats.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median; the mean of the two middle samples for an even count. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::invalid_argument("median of no samples");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/**
 * First and third quartile exactly as Python's
 * statistics.quantiles(v, n=4) computes them (the default
 * 'exclusive' method), so the spreads this program prints are the
 * spreads anyone recomputes from its output.
 */
inline std::pair<double, double>
quartiles(std::vector<double> v)
{
    if (v.empty())
        throw std::invalid_argument("quartiles of no samples");
    std::sort(v.begin(), v.end());
    const auto n = static_cast<long long>(v.size());
    if (n == 1)
        return {v[0], v[0]};
    const auto cut = [&](long long i) {
        const long long m = n + 1;
        // Python clamps j into [1, n - 1] before interpolating.
        const long long j = std::clamp(i * m / 4, 1LL, n - 1);
        const long long delta = i * m - j * 4;
        return (v[j - 1] * static_cast<double>(4 - delta) +
                v[j] * static_cast<double>(delta)) /
               4.0;
    };
    return {cut(1), cut(3)};
}

/** One workload's baseline and TRRIP results (one row of Fig. 6). */
struct FidelityRow
{
    trrip::SimResult base;
    trrip::SimResult trrip;
};

/** Geomean speedup (%) of TRRIP over the baseline, as fig6 does. */
inline double
geomeanSpeedupPercent(const std::vector<FidelityRow> &rows)
{
    std::vector<double> gains;
    for (const FidelityRow &r : rows) {
        gains.push_back(
            trrip::CoDesignPipeline::speedupPercent(r.base, r.trrip));
    }
    return trrip::geomeanPercent(gains);
}

/**
 * Geomean L2 instruction-MPKI reduction (%) of TRRIP vs the
 * baseline, as table3_mpki does: the geomean of the negated
 * reductions, negated back.
 */
inline double
geomeanL2iMpkiCutPercent(const std::vector<FidelityRow> &rows)
{
    std::vector<double> negated;
    for (const FidelityRow &r : rows) {
        negated.push_back(-trrip::CoDesignPipeline::reductionPercent(
            r.base.l2InstMpki, r.trrip.l2InstMpki));
    }
    return -trrip::geomeanPercent(negated);
}

/** |reproduced - paper| in percentage points. */
inline double
gapPp(double reproduced, double paper)
{
    return std::abs(reproduced - paper);
}

/**
 * Where the traced step time went, in ns per simulated instruction:
 * the event source plus the replayed layers against the whole step.
 */
struct Closure
{
    double stepNs = 0.0;
    double sourceNs = 0.0;
    double layersNs = 0.0;  //!< MMU + branch + hierarchy replays.

    /** What the core spends outside every measured layer; may be
     *  negative when layers run slower alone than inside the core. */
    double selfNs() const { return stepNs - sourceNs - layersNs; }

    double
    ratio() const
    {
        return stepNs > 0.0 ? (sourceNs + layersNs) / stepNs : 0.0;
    }
};

/** Peak resident set of this process in MiB (Linux ru_maxrss, KiB). */
inline double
peakRssMb()
{
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        throw std::runtime_error("getrusage failed");
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * Fixed host calibration kernel: a dependent SplitMix64 chain with a
 * table update per step, whose work never changes between commits.
 * Returns the kernel rate in million steps per host second (median
 * of @p reps timings), so figures from different hosts can be
 * normalized by it.
 */
inline double
calibrationMops(unsigned reps = 5, std::uint64_t steps = 4'000'000)
{
    std::vector<std::uint64_t> table(1u << 14, 0);
    std::vector<double> rates;
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    for (unsigned r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < steps; ++i) {
            const std::uint64_t x = trrip::splitMix64Next(state);
            table[x & (table.size() - 1)] += x >> 32;
            state ^= table[(x >> 20) & (table.size() - 1)];
        }
        rates.push_back(static_cast<double>(steps) / 1e6 /
                        secondsSince(t0));
    }
    // Keep the result observable so the loop cannot be folded away.
    volatile std::uint64_t observed = state ^ table[0];
    (void)observed;
    return median(rates);
}

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
