#include "workloads/proxies.hh"

#include "util/error.hh"

namespace trrip {

namespace {

/** Shared defaults; per-benchmark code below adjusts. */
WorkloadParams
base(const std::string &name, std::uint64_t seed)
{
    WorkloadParams p;
    p.name = name;
    p.seed = seed;
    p.trainSeed = seed * 7919 + 13;
    return p;
}

DataRegionSpec
region(const char *name, std::uint64_t size, DataPattern pattern,
       double weight, float stores, double locality,
       std::uint64_t window, double dependent = 0.0)
{
    DataRegionSpec r;
    r.name = name;
    r.sizeBytes = size;
    r.pattern = pattern;
    r.weight = weight;
    r.storeFraction = stores;
    r.localityFraction = locality;
    r.localityBytes = window;
    r.dependentFraction = dependent;
    return r;
}

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * 1024;

} // namespace

std::vector<std::string>
proxyNames()
{
    return {"abseil", "bullet", "clamscan", "clang", "deepsjeng",
            "gcc",    "omnetpp", "python",  "rapidjson", "sqlite"};
}

std::vector<std::string>
systemComponentNames()
{
    return {"interp", "ui", "graphics", "render", "js_runtime"};
}

WorkloadParams
proxyParams(const std::string &name)
{
    // ---------------- Proxy benchmarks (paper Table 2) ----------------
    if (name == "abseil") {
        // C++ utility library test: moderate hot code, data-dominated
        // (btree benchmark), high TRRIP headroom.
        WorkloadParams p = base(name, 101);
        p.numHandlers = 110;
        p.numHelpers = 90;
        p.helperCallProb = 0.45;
        p.numColdFuncs = 260;
        p.numExternalFuncs = 40;
        p.zipfSkew = 0.5;
        p.trainZipfSkew = 0.45;
        p.externalCallProb = 0.02;
        p.dataAccessesPerBB = 0.9;
        p.regions = {region("btree", 8 * kMiB, DataPattern::Random,
                            2.0, 0.25f, 0.80, 16 * kKiB, 0.7),
                     region("arena", 512 * kKiB, DataPattern::Random,
                            1.0, 0.2f, 0.97, 16 * kKiB, 0.3),
                     region("logbuf", 2 * kMiB,
                            DataPattern::Sequential, 0.8, 0.3f, 1.0, 0)};
        p.extraColdTextBytes = 3800 * kKiB;
        p.extraBinaryBytes = 1400 * kKiB;
        return p;
    }
    if (name == "bullet") {
        // Physics/rendering proxy: tiny hot loop set, much time in
        // external math code; lowest instruction MPKI of the suite.
        WorkloadParams p = base(name, 102);
        p.numHandlers = 90;
        p.numHelpers = 30;
        p.numColdFuncs = 80;
        p.numExternalFuncs = 30;
        p.zipfSkew = 0.7;
        p.trainZipfSkew = 0.65;
        p.externalCallProb = 0.14;
        p.loopIterMean = 7.0;
        p.dataAccessesPerBB = 0.3;
        p.regions = {region("bodies", 1 * kMiB, DataPattern::Random,
                            1.5, 0.3f, 0.92, 16 * kKiB, 0.3),
                     region("contacts", 256 * kKiB,
                            DataPattern::Random, 1.0, 0.2f, 0.98,
                            16 * kKiB, 0.5)};
        p.extraColdTextBytes = 500 * kKiB;
        p.extraBinaryBytes = 240 * kKiB;
        return p;
    }
    if (name == "clamscan") {
        // Malware scanner: streaming scan buffers, signature matching
        // partially in external code.
        WorkloadParams p = base(name, 103);
        p.numHandlers = 60;
        p.numHelpers = 30;
        p.numColdFuncs = 120;
        p.numExternalFuncs = 40;
        p.zipfSkew = 0.8;
        p.trainZipfSkew = 0.75;
        p.externalCallProb = 0.11;
        p.dataAccessesPerBB = 0.3;
        p.regions = {region("scanbuf", 4 * kMiB,
                            DataPattern::Sequential, 1.6, 0.05f, 1.0,
                            0),
                     region("sigs", 1 * kMiB, DataPattern::Random,
                            1.0, 0.2f, 0.97, 16 * kKiB, 0.4)};
        p.extraColdTextBytes = 280 * kKiB;
        p.extraBinaryBytes = 180 * kKiB;
        return p;
    }
    if (name == "clang") {
        // Compiler: the largest code footprint of the suite by far;
        // instruction MPKI dominates everything else.
        WorkloadParams p = base(name, 104);
        p.numHandlers = 5000;
        p.numHelpers = 3000;
        p.handlerBodyBBs = 9;
        p.loopBBFraction = 0.06;
        p.loopIterMean = 3.0;
        p.numColdFuncs = 900;
        p.numExternalFuncs = 64;
        p.zipfSkew = 0.30;
        p.trainZipfSkew = 0.27;
        p.externalCallProb = 0.03;
        p.dataAccessesPerBB = 0.95;
        p.regions = {region("ast", 16 * kMiB, DataPattern::Random,
                            2.0, 0.3f, 0.86, 16 * kKiB, 0.7),
                     region("tokens", 4 * kMiB,
                            DataPattern::Sequential, 1.6, 0.05f, 1.0,
                            0)};
        p.extraColdTextBytes = 150 * kMiB;
        p.extraBinaryBytes = 12 * kMiB;
        return p;
    }
    if (name == "deepsjeng") {
        // Chess search: small loop-heavy hot core that almost fits the
        // L2; TRRIP's protection nearly eliminates its code misses.
        WorkloadParams p = base(name, 105);
        p.numHandlers = 420;
        p.numHelpers = 70;
        p.numColdFuncs = 160;
        p.numExternalFuncs = 8;
        p.zipfSkew = 0.45;
        p.trainZipfSkew = 0.42;
        p.externalCallProb = 0.004;
        p.coldCallProb = 0.015;
        p.loopIterMean = 8.0;
        p.loopBBFraction = 0.26;
        p.dataAccessesPerBB = 0.35;
        p.regions = {region("board", 768 * kKiB, DataPattern::Random,
                            1.5, 0.3f, 0.975, 16 * kKiB, 0.5),
                     region("tt", 256 * kKiB, DataPattern::Random,
                            1.0, 0.2f, 0.985, 16 * kKiB, 0.5),
                     region("movegen", 1 * kMiB,
                            DataPattern::Sequential, 0.35, 0.1f, 1.0, 0)};
        p.extraColdTextBytes = 16 * kKiB;
        p.extraBinaryBytes = 24 * kKiB;
        return p;
    }
    if (name == "gcc") {
        WorkloadParams p = base(name, 106);
        p.numHandlers = 760;
        p.numHelpers = 150;
        p.loopBBFraction = 0.08;
        p.numColdFuncs = 420;
        p.numExternalFuncs = 24;
        p.zipfSkew = 0.42;
        p.trainZipfSkew = 0.39;
        p.externalCallProb = 0.02;
        p.dataAccessesPerBB = 0.5;
        p.regions = {region("ir", 4 * kMiB, DataPattern::Random, 2.0,
                            0.3f, 0.975, 16 * kKiB, 0.6),
                     region("symtab", 1 * kMiB, DataPattern::Random,
                            1.0, 0.2f, 0.98, 16 * kKiB, 0.5),
                     region("rtlbuf", 2 * kMiB,
                            DataPattern::Sequential, 0.8, 0.2f, 1.0, 0)};
        p.extraColdTextBytes = 11 * kMiB;
        p.extraBinaryBytes = 2 * kMiB;
        return p;
    }
    if (name == "omnetpp") {
        // Discrete event simulator: large warm callee population, part
        // of the costly misses land in warm code (paper section 4.6).
        WorkloadParams p = base(name, 107);
        p.numHandlers = 240;
        p.numHelpers = 520;
        p.loopBBFraction = 0.09;
        p.numColdFuncs = 240;
        p.numExternalFuncs = 70;
        p.zipfSkew = 0.45;
        p.trainZipfSkew = 0.42;
        p.externalCallProb = 0.08;
        p.helperCallProb = 0.45;
        p.dataAccessesPerBB = 0.75;
        p.regions = {region("events", 6 * kMiB, DataPattern::Random,
                            2.0, 0.3f, 0.90, 16 * kKiB, 0.6),
                     region("queues", 512 * kKiB, DataPattern::Random,
                            1.0, 0.2f, 0.97, 16 * kKiB, 0.5),
                     region("msgbuf", 2 * kMiB,
                            DataPattern::Sequential, 0.8, 0.3f, 1.0, 0)};
        p.extraColdTextBytes = 1800 * kKiB;
        p.extraBinaryBytes = 700 * kKiB;
        return p;
    }
    if (name == "python") {
        // Bytecode interpreter: the canonical dispatcher workload.
        WorkloadParams p = base(name, 108);
        p.numHandlers = 380;
        p.numHelpers = 360;
        p.loopBBFraction = 0.08;
        p.numColdFuncs = 380;
        p.numExternalFuncs = 40;
        p.zipfSkew = 0.45;
        p.trainZipfSkew = 0.42;
        p.externalCallProb = 0.03;
        p.dataAccessesPerBB = 0.8;
        p.regions = {region("objects", 4 * kMiB, DataPattern::Random,
                            2.0, 0.3f, 0.92, 16 * kKiB, 0.6),
                     region("bytecode", 2 * kMiB,
                            DataPattern::Sequential, 1.6, 0.02f, 1.0,
                            0)};
        p.extraColdTextBytes = 17 * kMiB;
        p.extraBinaryBytes = 3 * kMiB;
        return p;
    }
    if (name == "rapidjson") {
        // JSON parser: streaming input, small hot core, noticeable
        // external (allocator / stdlib) share.
        WorkloadParams p = base(name, 109);
        p.numHandlers = 40;
        p.numHelpers = 300;
        p.helperZipfSkew = 1.2;
        p.numColdFuncs = 100;
        p.numExternalFuncs = 60;
        p.zipfSkew = 0.75;
        p.trainZipfSkew = 0.70;
        p.externalCallProb = 0.10;
        p.helperCallProb = 0.08;
        p.dataAccessesPerBB = 0.75;
        p.regions = {region("json", 8 * kMiB, DataPattern::Sequential,
                            1.4, 0.05f, 1.0, 0),
                     region("dom", 2 * kMiB, DataPattern::Random, 1.0,
                            0.4f, 0.96, 16 * kKiB, 0.4)};
        p.extraColdTextBytes = 6500 * kKiB;
        p.extraBinaryBytes = 1200 * kKiB;
        return p;
    }
    if (name == "sqlite") {
        // Database engine: VDBE opcode dispatch, b-tree data.
        WorkloadParams p = base(name, 110);
        p.numHandlers = 1000;
        p.numHelpers = 170;
        p.loopBBFraction = 0.08;
        p.numColdFuncs = 320;
        p.numExternalFuncs = 32;
        p.zipfSkew = 0.45;
        p.trainZipfSkew = 0.42;
        p.externalCallProb = 0.03;
        p.dataAccessesPerBB = 0.55;
        p.regions = {region("btree", 3 * kMiB, DataPattern::Random,
                            2.0, 0.3f, 0.96, 16 * kKiB, 0.6),
                     region("pager", 1 * kMiB, DataPattern::Random,
                            1.0, 0.2f, 0.975, 16 * kKiB, 0.5),
                     region("walbuf", 2 * kMiB,
                            DataPattern::Sequential, 0.8, 0.4f, 1.0, 0)};
        p.extraColdTextBytes = 700 * kKiB;
        p.extraBinaryBytes = 300 * kKiB;
        return p;
    }

    // -------- System software components (paper Fig. 1) --------
    if (name == "interp") {
        WorkloadParams p = proxyParams("python");
        p.name = name;
        p.seed = 201;
        return p;
    }
    if (name == "ui") {
        WorkloadParams p = base(name, 202);
        p.numHandlers = 380;
        p.numHelpers = 700;
        p.numExternalFuncs = 90;
        p.zipfSkew = 0.74;
        p.externalCallProb = 0.08;
        p.dataAccessesPerBB = 0.8;
        p.regions = {region("widgets", 3 * kMiB, DataPattern::Random,
                            1.5, 0.3f, 0.92, 96 * kKiB)};
        p.extraColdTextBytes = 4 * kMiB;
        return p;
    }
    if (name == "graphics") {
        WorkloadParams p = base(name, 203);
        p.numHandlers = 320;
        p.numHelpers = 420;
        p.numExternalFuncs = 100;
        p.zipfSkew = 0.78;
        p.externalCallProb = 0.12;
        p.loopIterMean = 7.0;
        p.dataAccessesPerBB = 0.95;
        p.regions = {region("cmdbuf", 4 * kMiB,
                            DataPattern::Sequential, 1.5, 0.25f, 1.0,
                            0),
                     region("textures", 8 * kMiB, DataPattern::Strided,
                            1.0, 0.1f, 0.9, 64 * kKiB)};
        p.extraColdTextBytes = 3 * kMiB;
        return p;
    }
    if (name == "render") {
        WorkloadParams p = base(name, 204);
        p.numHandlers = 420;
        p.numHelpers = 560;
        p.numExternalFuncs = 90;
        p.zipfSkew = 0.76;
        p.externalCallProb = 0.09;
        p.dataAccessesPerBB = 0.9;
        p.regions = {region("display_list", 6 * kMiB,
                            DataPattern::Random, 1.5, 0.3f, 0.9,
                            96 * kKiB)};
        p.extraColdTextBytes = 5 * kMiB;
        return p;
    }
    if (name == "js_runtime") {
        WorkloadParams p = base(name, 205);
        p.numHandlers = 560;
        p.numHelpers = 800;
        p.numExternalFuncs = 60;
        p.zipfSkew = 0.8;
        p.externalCallProb = 0.04;
        p.dataAccessesPerBB = 0.9;
        p.regions = {region("heap", 6 * kMiB, DataPattern::Random,
                            2.0, 0.35f, 0.9, 96 * kKiB)};
        p.extraColdTextBytes = 9 * kMiB;
        return p;
    }

    throw SimError(ErrorCategory::BuildFailure,
                   "unknown workload: " + name);
}

} // namespace trrip
