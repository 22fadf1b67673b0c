/**
 * @file
 * Tests for the PolicyRegistry and the policy-spec grammar: round-trip
 * parse/print for every registered policy, schema completeness (every
 * parameter observably reaches the instance), error diagnostics
 * (unknown policy with nearest-match suggestion, unknown key,
 * out-of-range and malformed values, each a BuildFailure SimError),
 * per-level policy assignment, and byte-identical BENCH output between
 * a bare policy name and its fully spelled-out spec.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "cache/hierarchy.hh"
#include "cache/replacement/clip.hh"
#include "cache/replacement/drrip.hh"
#include "cache/replacement/emissary.hh"
#include "cache/replacement/ship.hh"
#include "core/policy_registry.hh"
#include "core/trrip_policy.hh"
#include "exp/runner.hh"
#include "exp/sink.hh"
#include "sim/simulator.hh"
#include "workloads/builder.hh"
#include "workloads/proxies.hh"

namespace trrip {
namespace {

PolicyRegistry &
reg()
{
    return PolicyRegistry::instance();
}

CacheGeometry
geom()
{
    return CacheGeometry{"t", 8 * 1024, 4, 64};
}

// ------------------------------ grammar -----------------------------

TEST(PolicySpecGrammar, BareNameParses)
{
    const PolicySpec spec("SRRIP");
    EXPECT_EQ(spec.name(), "SRRIP");
    EXPECT_TRUE(spec.params().empty());
    EXPECT_EQ(spec.print(), "SRRIP");
    EXPECT_EQ(spec.canonical(), "SRRIP(bits=2)");
}

TEST(PolicySpecGrammar, ParameterizedSpecParses)
{
    const PolicySpec spec("DRRIP(psel_bits=8, throttle=64)");
    EXPECT_EQ(spec.name(), "DRRIP");
    ASSERT_EQ(spec.params().size(), 2u);
    EXPECT_TRUE(spec.has("psel_bits"));
    EXPECT_TRUE(spec.has("throttle"));
    EXPECT_EQ(spec.print(), "DRRIP(psel_bits=8,throttle=64)");
    EXPECT_EQ(spec.canonical(),
              "DRRIP(bits=2,leader_sets=32,psel_bits=8,throttle=64)");
}

TEST(PolicySpecGrammar, WhitespaceAndEmptyParensTolerated)
{
    EXPECT_EQ(PolicySpec("  TRRIP-2 ( bits = 3 ) ").print(),
              "TRRIP-2(bits=3)");
    EXPECT_EQ(PolicySpec("LRU()").print(), "LRU");
}

TEST(PolicySpecGrammar, RealParametersRoundTrip)
{
    const PolicySpec spec("Emissary(prob=0.25,ways=2)");
    EXPECT_EQ(spec.print(), "Emissary(prob=0.25,ways=2)");
    EXPECT_EQ(spec.canonical(), "Emissary(ways=2,prob=0.25)");
}

TEST(PolicySpecGrammar, RoundTripForEveryRegisteredPolicy)
{
    for (const auto &name : reg().names()) {
        // Bare name.
        const PolicySpec bare = reg().parse(name);
        EXPECT_EQ(bare, reg().parse(bare.print())) << name;
        // Canonical (all parameters explicit) must also round-trip.
        const PolicySpec full = reg().parse(bare.canonical());
        EXPECT_EQ(full, reg().parse(full.print())) << name;
        EXPECT_EQ(full.canonical(), bare.canonical()) << name;
    }
}

// --------------------------- completeness ---------------------------

TEST(PolicyRegistryCompleteness, EveryPolicyConstructsWithDefaults)
{
    for (const auto &name : reg().names()) {
        auto policy = reg().instantiate(name, geom());
        ASSERT_NE(policy, nullptr) << name;
    }
}

TEST(PolicyRegistryCompleteness, SchemasAreWellFormed)
{
    for (const auto &name : reg().names()) {
        const PolicySchema &schema = reg().schema(name);
        EXPECT_EQ(schema.name, name);
        EXPECT_FALSE(schema.doc.empty()) << name;
        for (const auto &p : schema.params) {
            EXPECT_FALSE(p.key.empty()) << name;
            EXPECT_FALSE(p.doc.empty()) << name << "." << p.key;
            EXPECT_LE(p.minValue, p.maxValue) << name << "." << p.key;
            EXPECT_GE(p.defaultValue, p.minValue) << name << "." << p.key;
            EXPECT_LE(p.defaultValue, p.maxValue) << name << "." << p.key;
        }
    }
}

TEST(PolicyRegistryCompleteness, EvaluatedNamesAreRegistered)
{
    for (const auto &name : evaluatedPolicyNames())
        EXPECT_TRUE(reg().known(name)) << name;
    EXPECT_FALSE(reg().helpText().empty());
}

MemRequest
instReq(Addr pc, bool priority = false)
{
    MemRequest r;
    r.vaddr = r.paddr = r.pc = pc;
    r.type = AccessType::InstFetch;
    r.priority = priority;
    return r;
}

MemRequest
loadReq(Addr addr)
{
    MemRequest r;
    r.vaddr = r.paddr = r.pc = addr;
    r.type = AccessType::Load;
    return r;
}

const SetDueling &
duelingOf(ReplacementPolicy &p)
{
    if (auto *drrip = dynamic_cast<DrripPolicy *>(&p))
        return drrip->dueling();
    return dynamic_cast<ClipPolicy &>(p).dueling();
}

/** Of 8 data fills into @p set, how many inserted at Intermediate. */
double
intermediateFills(ReplacementPolicy &p, std::uint32_t set)
{
    auto &rrip = dynamic_cast<RripBase &>(p);
    int n = 0;
    for (std::uint32_t i = 0; i < 8; ++i) {
        rrip.onFill(set, i % 4, loadReq(0x1000 + i * 64));
        n += rrip.rrpvOf(set, i % 4) == rrip.intermediate() ? 1 : 0;
    }
    return n;
}

using Probe = std::function<double(ReplacementPolicy &)>;

/**
 * One observable per registered "Policy.key" parameter, read off an
 * instance for geom(): an accessor the policy already has, else its
 * behaviour on a fixed short stream.
 */
const std::map<std::string, Probe> &
parameterProbes()
{
    static const std::map<std::string, Probe> probes = [] {
        const Probe distant = [](ReplacementPolicy &p) {
            return double(dynamic_cast<RripBase &>(p).distant());
        };
        // Leader sets of either constituency across the whole cache.
        const Probe leaders = [](ReplacementPolicy &p) {
            int n = 0;
            for (std::uint32_t s = 0; s < geom().numSets(); ++s)
                n += duelingOf(p).leaderOf(s) >= 0 ? 1 : 0;
            return double(n);
        };
        // PSEL starts at its midpoint, 2^(psel_bits-1).
        const Probe psel = [](ReplacementPolicy &p) {
            return double(duelingOf(p).pselValue());
        };
        std::map<std::string, Probe> m;
        for (const char *name : {"SRRIP", "BRRIP", "DRRIP", "SHiP",
                                 "CLIP", "TRRIP-1", "TRRIP-2"})
            m[std::string(name) + ".bits"] = distant;
        m["DRRIP.leader_sets"] = leaders;
        m["CLIP.leader_sets"] = leaders;
        m["DRRIP.psel_bits"] = psel;
        m["CLIP.psel_bits"] = psel;
        m["BRRIP.throttle"] = [](ReplacementPolicy &p) {
            return intermediateFills(p, 0);
        };
        // DRRIP's throttle shows in a set leading the BRRIP side.
        m["DRRIP.throttle"] = [](ReplacementPolicy &p) {
            std::uint32_t set = 0;
            while (duelingOf(p).leaderOf(set) != 1)
                ++set;
            return intermediateFills(p, set);
        };
        // A dead-on-arrival signature (counter trained to zero) makes
        // another PC Distant only when the SHCT is small enough for
        // the two signatures (0x10, 0x20) to share an entry.
        m["SHiP.shct_bits"] = [](ReplacementPolicy &p) {
            auto &ship = dynamic_cast<ShipPolicy &>(p);
            ship.onFill(0, 0, instReq(0x40));
            ship.onEvict(0, 0);
            ship.onFill(0, 1, instReq(0x80));
            return double(ship.rrpvOf(0, 1));
        };
        m["Random.seed"] = [](ReplacementPolicy &p) {
            double victims = 0;
            for (int i = 0; i < 16; ++i)
                victims = victims * 4 + p.victim(0, loadReq(0));
            return victims;
        };
        // With way 0 the LRU line and the only priority line.
        m["Emissary.ways"] = [](ReplacementPolicy &p) {
            for (std::uint32_t w = 0; w < 4; ++w)
                p.onFill(0, w, instReq(0x100 + w * 64));
            p.onPriorityHint(0, 0);
            return double(p.victim(0, loadReq(0)));
        };
        m["Emissary.prob"] = [](ReplacementPolicy &p) {
            auto &emissary = dynamic_cast<EmissaryPolicy &>(p);
            int set_bits = 0;
            for (std::uint32_t i = 0; i < 16; ++i) {
                emissary.onFill(0, i % 4, instReq(0x100, true));
                set_bits += emissary.priorityOf(0, i % 4) ? 1 : 0;
            }
            return double(set_bits);
        };
        return m;
    }();
    return probes;
}

TEST(PolicyRegistryCompleteness, ParametersReachThePolicy)
{
    // Every schema parameter, moved off its default to the other end
    // of its range, must change what its probe observes.
    for (const auto &name : reg().names()) {
        if (name == "TestPseudoLRU")
            continue;   // Registered by the extension test below.
        for (const ParamSchema &param : reg().schema(name).params) {
            const std::string id = name + "." + param.key;
            const auto probe = parameterProbes().find(id);
            ASSERT_NE(probe, parameterProbes().end())
                << id << " has no probe";
            const double value = param.minValue != param.defaultValue
                                     ? param.minValue
                                     : param.maxValue;
            const std::string spec = name + "(" + param.key + "=" +
                                     policyValueString(value) + ")";
            auto base = reg().instantiate(name, geom());
            auto tuned = reg().instantiate(spec, geom());
            EXPECT_NE(probe->second(*base), probe->second(*tuned))
                << spec << " did not reach the instance";
        }
    }
}

// ------------------------------ errors ------------------------------

/** The BuildFailure message parse() throws for @p spec. */
std::string
parseError(const std::string &spec)
{
    try {
        reg().parse(spec);
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::BuildFailure) << spec;
        return e.message();
    }
    ADD_FAILURE() << "'" << spec << "' parsed";
    return "";
}

void
expectParseError(const std::string &spec, const std::string &needle)
{
    const std::string message = parseError(spec);
    EXPECT_NE(message.find(needle), std::string::npos)
        << spec << ": " << message;
}

TEST(PolicyRegistryErrors, UnknownPolicySuggestsNearestMatch)
{
    expectParseError("TRRIP2", "did you mean 'TRRIP-2'");
    expectParseError("srip", "did you mean 'SRRIP'");
}

TEST(PolicyRegistryErrors, UnknownPolicyListsRegisteredNames)
{
    expectParseError("NotAPolicy",
                     "registered: LRU, Random, SRRIP, BRRIP, DRRIP, "
                     "SHiP, CLIP, Emissary, TRRIP-1, TRRIP-2");
    EXPECT_THROW(reg().schema("NotAPolicy"), SimError);
    EXPECT_THROW(reg().instantiate(PolicySpec(), geom()), SimError);
}

TEST(PolicyRegistryErrors, UnknownKeyListsParameters)
{
    expectParseError("SRRIP(bitz=2)",
                     "no parameter 'bitz' (parameters: bits)");
}

TEST(PolicyRegistryErrors, OutOfRangeValueShowsBounds)
{
    expectParseError("SRRIP(bits=9)", "out of range: 9 not in [1, 8]");
    expectParseError("SRRIP(bits=99)",
                     "out of range: 99 not in [1, 8]");
}

TEST(PolicyRegistryErrors, MalformedSpecsRejected)
{
    expectParseError("SRRIP(bits=2", "malformed");
    expectParseError("SRRIP(bits)", "not key=value");
    expectParseError("SRRIP(bits=two)", "malformed value");
    expectParseError("SRRIP(bits=2.5)", "must be an integer");
    expectParseError("SRRIP(bits=2,bits=3)", "duplicate parameter");
    expectParseError("", "empty policy spec");
    // The implicit string conversion parses, so it throws too.
    EXPECT_THROW(PolicySpec("Bogus"), SimError);
}

TEST(PolicyRegistryErrors, CanonicalLabelPassesFreeFormLabels)
{
    // Non-policy labels pass through canonicalLabel untouched.
    EXPECT_EQ(reg().canonicalLabel("mcpat-row"), "mcpat-row");
    EXPECT_EQ(reg().canonicalLabel("SRRIP(bits=99)"), "SRRIP(bits=99)");
    EXPECT_EQ(reg().canonicalLabel("CLIP"),
              "CLIP(bits=2,leader_sets=32,psel_bits=10)");
}

// -------------------------- extensibility ---------------------------

TEST(PolicyRegistryExtension, UserPoliciesSelfRegister)
{
    // A one-off registration is immediately spec-addressable,
    // including through the Cache constructor.
    static bool registered = false;
    if (!registered) {
        registered = true;
        PolicyRegistry::instance().add(
            {"TestPseudoLRU",
             "test-only pseudo policy",
             {{"depth", ParamType::Int, 2, 1, 8, "tree depth"}}},
            [](const CacheGeometry &g, const ResolvedParams &p) {
                (void)p;
                return reg().instantiate("LRU", g);
            });
    }
    EXPECT_TRUE(reg().known("TestPseudoLRU"));
    Cache cache(geom(), PolicySpec("TestPseudoLRU(depth=3)"));
    EXPECT_EQ(cache.policy().kind(), PolicyKind::Lru);
}

// ------------------------- per-level specs --------------------------

TEST(PerLevelPolicies, HierarchyBuildsEveryLevelFromSpecs)
{
    HierarchyParams hp;
    hp.l1i = CacheGeometry{"L1I", 2 * 1024, 2, 64};
    hp.l1d = CacheGeometry{"L1D", 2 * 1024, 2, 64};
    hp.l2 = CacheGeometry{"L2", 8 * 1024, 4, 64};
    hp.slc = CacheGeometry{"SLC", 16 * 1024, 4, 64};
    hp.l1iPolicy = "TRRIP-1(bits=3)";
    hp.l1dPolicy = "Random";
    hp.l2Policy = "TRRIP-2";
    hp.slcPolicy = "SRRIP";
    CacheHierarchy h(hp);
    const auto &l1i = dynamic_cast<const TrripPolicy &>(h.l1i().policy());
    EXPECT_EQ(l1i.variant(), TrripVariant::V1);
    EXPECT_EQ(l1i.distant(), 7);    // bits=3
    EXPECT_EQ(h.l1d().policy().kind(), PolicyKind::Random);
    const auto &l2 = dynamic_cast<const TrripPolicy &>(h.l2().policy());
    EXPECT_EQ(l2.variant(), TrripVariant::V2);
    EXPECT_EQ(l2.distant(), 3);
    EXPECT_EQ(h.slc().policy().kind(), PolicyKind::Srrip);
}

TEST(PerLevelPolicies, RunWorkloadRecordsResolvedPolicies)
{
    WorkloadParams params;
    params.name = "tiny";
    params.numHandlers = 16;
    params.numHelpers = 8;
    params.regions = {DataRegionSpec{"heap", 256 * 1024}};
    const auto wl = buildWorkload(params);
    SimOptions opts;
    opts.maxInstructions = 100000;
    opts.profileInstructions = 50000;
    opts.hier.l1iPolicy = "TRRIP-1";
    opts.hier.l2Policy = "TRRIP-2(bits=3)";
    const auto art = runWorkload(wl, opts);
    ASSERT_EQ(art.resolvedPolicies.size(), 4u);
    EXPECT_EQ(art.resolvedPolicies[0].first, "L1I");
    EXPECT_EQ(art.resolvedPolicies[0].second, "TRRIP-1(bits=2)");
    EXPECT_EQ(art.resolvedPolicies[2].first, "L2");
    EXPECT_EQ(art.resolvedPolicies[2].second, "TRRIP-2(bits=3)");
}

// --------------------- sink label determinism -----------------------

TEST(RegistryDeterminism, CollidingAxisSpellingsRejected)
{
    // "SRRIP" and "SRRIP(bits=2)" are the same policy; as two axis
    // entries their canonical sink rows would be indistinguishable.
    exp::ExperimentSpec spec;
    spec.name = "collide";
    spec.workloads = {"python"};
    spec.policies = {"SRRIP", "SRRIP(bits=2)"};
    spec.options.maxInstructions = 100000;
    // A grid-level error: submit() throws before any cell runs, under
    // every OnError mode.
    for (const auto mode : {exp::OnError::Mode::Abort,
                            exp::OnError::Mode::Skip,
                            exp::OnError::Mode::Retry}) {
        spec.onError.mode = mode;
        exp::ExperimentRunner runner(1);
        try {
            runner.run(spec);
            ADD_FAILURE() << "colliding axis spellings were accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.category(), ErrorCategory::BuildFailure);
            EXPECT_NE(e.message().find("resolve to the same policy"),
                      std::string::npos)
                << e.message();
        }
    }
}

TEST(RegistryDeterminism, BareAndExplicitSpecEmitIdenticalJson)
{
    // Acceptance check: "SRRIP" and "SRRIP(bits=2)" must produce a
    // byte-identical BENCH_fig6_speedup.json.
    const auto run_grid = [](const std::string &policy,
                             const std::string &path) {
        exp::ExperimentSpec spec;
        spec.name = "fig6_speedup";
        spec.workloads = {"python"};
        spec.policies = {policy};
        spec.options.maxInstructions = 150000;
        exp::ExperimentRunner runner(2);
        exp::JsonSink sink(path);
        runner.run(spec, {&sink});
        std::ifstream in(path);
        std::stringstream content;
        content << in.rdbuf();
        std::remove(path.c_str());
        return content.str();
    };
    const std::string bare =
        run_grid("SRRIP", "test_registry_bare.json");
    const std::string full =
        run_grid("SRRIP(bits=2)", "test_registry_full.json");
    EXPECT_FALSE(bare.empty());
    EXPECT_EQ(bare, full);
}

} // namespace
} // namespace trrip
