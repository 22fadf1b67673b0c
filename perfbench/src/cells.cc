#include "cells.hh"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "sim/golden.hh"
#include "sim/multicore.hh"
#include "trace/generate.hh"
#include "trace/replay.hh"
#include "util/hash.hh"
#include "workloads/builder.hh"
#include "workloads/proxies.hh"

namespace perfbench {

using namespace trrip;

namespace {

/** Fig. 6's policy axis: SRRIP first, then every mechanism. */
const std::vector<std::string> kFig6Policies{
    "SRRIP", "LRU",      "BRRIP",   "DRRIP",  "SHiP",
    "CLIP",  "Emissary", "TRRIP-1", "TRRIP-2"};

std::string
traceLabel(const std::string &pack_dir, const std::string &name)
{
    return std::string(trace::kTracePrefix) +
           trace::miniTracePath(pack_dir, name);
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

std::string
traceMcLabel(const std::string &pack_dir)
{
    // '+' separates the bundle's cores, so it cannot appear in a path.
    if (pack_dir.find('+') != std::string::npos)
        throw std::invalid_argument("trace pack dir contains '+': " +
                                    pack_dir);
    const std::string d = traceLabel(pack_dir, "dispatch");
    const std::string s = traceLabel(pack_dir, "streaming");
    return std::string(kMultiCorePrefix) + d + "+" + s + "+" + d + "+" +
           s;
}

Workload
makeWorkload(const std::string &name, const std::string &pack_dir)
{
    Workload wl;
    wl.name = name;
    if (name == "proxy-grid") {
        wl.workloads = proxyNames();
        wl.policies = kFig6Policies;
        wl.workers = std::clamp(std::thread::hardware_concurrency(), 1u,
                                4u);
        wl.trrip = "TRRIP-1";
        wl.paperSpeedupPct = 3.9;
        wl.paperL2iCutPct = 26.5;
        // Frontend-bound (Fig. 6's clang), so instruction-side
        // changes show in its traced layers first.
        wl.tracedWorkload = "clang";
    } else if (name == "trace-mc") {
        wl.workloads = {traceMcLabel(pack_dir)};
        wl.policies = {"SRRIP", "TRRIP-2"};
        wl.trrip = "TRRIP-2";
        wl.paperSpeedupPct = 3.9;
        wl.paperL2iCutPct = 27.3;
        wl.traces = {"dispatch", "streaming"};
        wl.tracedWorkload = wl.workloads.front();
    } else {
        throw std::invalid_argument("unknown workload '" + name +
                                    "' (proxy-grid, trace-mc)");
    }
    return wl;
}

SimOptions
cellOptions(InstCount budget)
{
    SimOptions opts;
    opts.maxInstructions = budget;
    return opts;
}

std::vector<std::string>
permuted(std::vector<std::string> items, std::uint64_t seed)
{
    std::uint64_t state = seed;
    for (std::size_t i = items.size(); i > 1; --i) {
        const std::size_t j = splitMix64Next(state) % i;
        std::swap(items[i - 1], items[j]);
    }
    return items;
}

std::vector<std::pair<std::string, std::string>>
tracedCells(const Workload &wl, std::uint64_t seed)
{
    std::vector<std::pair<std::string, std::string>> cells;
    for (const std::string &p : permuted(wl.policies, seed))
        cells.emplace_back(wl.tracedWorkload, p);
    return cells;
}

void
setUp(exp::ExperimentRunner &runner, const Workload &wl,
      const std::string &pack_dir, InstCount budget)
{
    if (!wl.traces.empty())
        trace::generateMiniTracePack(pack_dir);

    // One set-up cell per distinct input, run on the runner's own
    // pool (which this first submit starts) into its ProfileCache.
    exp::ExperimentSpec spec;
    spec.name = "perfbench_setup";
    spec.policies = {"setup"};
    for (const std::string &label : wl.workloads) {
        for (const std::string &core :
             isMultiCoreName(label) ? multiCoreWorkloadsOf(label)
                                    : std::vector<std::string>{label}) {
            if (std::find(spec.workloads.begin(), spec.workloads.end(),
                          core) == spec.workloads.end())
                spec.workloads.push_back(core);
        }
    }
    const SimOptions opts = cellOptions(budget);
    spec.runCell = [opts](const exp::CellContext &ctx) {
        if (trace::isTraceName(ctx.workload)) {
            ctx.profiles->traceIndex(trace::tracePathOf(ctx.workload));
        } else {
            const SyntheticWorkload w =
                buildWorkload(proxyParams(ctx.workload));
            ctx.profiles->get(w, resolveProfileBudget(opts));
        }
        return exp::CellOutcome{};
    };
    runner.run(spec);
}

exp::ExperimentSpec
gridSpec(const Workload &wl, InstCount budget)
{
    exp::ExperimentSpec spec;
    spec.name = "perfbench_" + wl.name;
    spec.workloads = wl.workloads;
    spec.policies = wl.policies;
    spec.options = cellOptions(budget);
    // Failed cells become counted error rows instead of aborting.
    spec.onError.mode = exp::OnError::Mode::Skip;
    return spec;
}

exp::ExperimentSpec
shuffledGridSpec(const Workload &wl, InstCount budget, std::uint64_t seed)
{
    exp::ExperimentSpec spec = gridSpec(wl, budget);
    spec.workloads = permuted(spec.workloads, seed);
    spec.policies = permuted(spec.policies, splitMix64(seed));
    return spec;
}

std::string
cellKey(const std::string &workload, const std::string &policy)
{
    return workload + "|" + policy;
}

GridCells
gridCells(const exp::ExperimentResults &results)
{
    GridCells out;
    for (const exp::CellRecord &rec : results.cells()) {
        if (!rec.valid)
            continue;
        ++out.attempted;
        if (rec.failed) {
            ++out.failed;
            continue;
        }
        out.fingerprints[cellKey(rec.workload, rec.policy)] =
            goldenFingerprint(rec.result());
        out.instructions += rec.result().instructions;
    }
    return out;
}

std::uint64_t
simDigest(const std::map<std::string, std::uint64_t> &fps,
          const std::string &pack_dir)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &[raw, fp] : fps) {
        std::string key = raw;
        for (std::size_t at = key.find(pack_dir); at != std::string::npos;
             at = key.find(pack_dir, at))
            key.erase(at, pack_dir.size());
        for (unsigned char c : key) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
        foldBytes(h, fp);
    }
    return h;
}

std::uint64_t
mismatches(const GridCells &cells,
           const std::map<std::string, std::uint64_t> &reference)
{
    std::uint64_t bad = 0;
    for (const auto &[key, fp] : cells.fingerprints) {
        const auto it = reference.find(key);
        bad += it == reference.end() || it->second != fp;
    }
    return bad;
}

GoldenTally
checkGoldens(const std::string &pack_dir)
{
    trace::generateMiniTracePack(pack_dir);

    GoldenTally tally;
    const auto check = [&](const std::string &label, std::uint64_t expected,
                           const auto &run) {
        ++tally.checked;
        try {
            if (run() == expected)
                return;
            tally.failures.push_back(label + " (fingerprint mismatch)");
        } catch (const std::exception &e) {
            tally.failures.push_back(label + " (error: " + e.what() + ")");
        }
        ++tally.failed;
    };
    for (const GoldenCase &c : goldenCases()) {
        check(std::string(c.workload) + "/" + c.policy, c.expected, [&] {
            CoDesignPipeline p(proxyParams(c.workload));
            return goldenFingerprint(p.run(c.policy, c.options()).result);
        });
    }
    for (const TraceGoldenCase &c : traceGoldenCases()) {
        check(std::string("trace:") + c.trace + "/" + c.policy, c.expected,
              [&] {
                  return goldenFingerprint(
                      trace::runTrace(trace::miniTracePath(pack_dir,
                                                           c.trace),
                                      c.policy, c.options())
                          .result);
              });
    }
    for (const MultiCoreGoldenCase &c : multiCoreGoldenCases()) {
        check(std::string("mc:") + c.workloads + "/" + c.policy, c.expected,
              [&] {
                  std::vector<std::string> cores = multiCoreWorkloadsOf(
                      std::string(kMultiCorePrefix) + c.workloads);
                  for (std::string &core : cores) {
                      if (!core.empty() && core[0] == '@')
                          core = traceLabel(pack_dir, core.substr(1));
                  }
                  MultiCoreOptions mo;
                  mo.base = c.options();
                  return multiCoreFingerprint(
                      runMultiCore(cores, c.policy, mo));
              });
    }
    return tally;
}

std::vector<FidelityRow>
fidelityRows(const exp::ExperimentResults &results, const Workload &wl)
{
    std::vector<FidelityRow> rows;
    for (const std::string &label : wl.workloads) {
        const exp::CellRecord &base = results.at(label, "SRRIP");
        const exp::CellRecord &test = results.at(label, wl.trrip);
        if (base.failed || test.failed)
            return {};
        rows.push_back(FidelityRow{base.result(), test.result()});
    }
    return rows;
}

} // namespace perfbench
