/**
 * @file
 * Tests for MechanismSpec and the open MechanismRegistry: the
 * parse()/label()/canonical() round-trips, the typed parameter
 * schema's error paths (unknown mechanisms and keys, out-of-range
 * values, malformed composite child lists — all actionable
 * std::invalid_argument, with the fatal-exit conversion at the bench
 * boundary), registry openness through the public add() API, every
 * entry at its schema bounds (runs or throws, never aborts — in
 * process and over the wire), and the hybrid combinator end to end on
 * the SweepEngine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "mem/page_table.hh"
#include "prefetch/hybrid.hh"
#include "prefetch/mech_spec.hh"
#include "run/sweep_engine.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "sim/experiment.hh"

namespace tlbpf
{
namespace
{

// ------------------------------------------------------- round-trips

TEST(MechSpecRoundTrip, LabelRoundTripsForEveryFigure7Spec)
{
    // The satellite property: parse(label(s)) == s for every spec the
    // figures sweep, so rendered legends are canonical addresses.
    for (const MechanismSpec &spec : figure7Specs()) {
        EXPECT_EQ(MechanismSpec::parse(spec.label()), spec)
            << spec.label();
    }
}

TEST(MechSpecRoundTrip, LabelRoundTripsForEveryTable2Spec)
{
    for (const MechanismSpec &spec : table2Specs()) {
        EXPECT_EQ(MechanismSpec::parse(spec.label()), spec)
            << spec.label();
    }
}

TEST(MechSpecRoundTrip, CanonicalRoundTrips)
{
    for (const char *text :
         {"none", "sp", "sp(degree=2)", "sp(adaptive)", "rp",
          "rp(reach=2)", "dp", "dp(rows=512,assoc=4w)",
          "mp(rows=64,slots=4)", "asp(rows=32)", "hybrid(dp+sp)",
          "hybrid(dp(rows=64)+rp+sp(adaptive))"}) {
        MechanismSpec spec = MechanismSpec::parse(text);
        EXPECT_EQ(MechanismSpec::parse(spec.canonical()), spec)
            << text << " -> " << spec.canonical();
        EXPECT_EQ(MechanismSpec::parse(spec.label()), spec)
            << text << " -> " << spec.label();
    }
}

TEST(MechSpecRoundTrip, CanonicalElidesDefaults)
{
    EXPECT_EQ(MechanismSpec::parse("dp(rows=256,assoc=dm,slots=2)")
                  .canonical(),
              "dp");
    EXPECT_EQ(MechanismSpec::parse("dp(rows=512)").canonical(),
              "dp(rows=512)");
    EXPECT_EQ(MechanismSpec::parse("ASQ").canonical(),
              "sp(adaptive)");
}

TEST(MechSpecRoundTrip, LegendFormsMatchTheClosedEnumEra)
{
    // The figure-legend emissions that make table/CSV output
    // byte-identical to the pre-registry factory.
    EXPECT_EQ(MechanismSpec::parse("dp").label(), "DP,256,D");
    EXPECT_EQ(MechanismSpec::parse("mp(rows=1024,assoc=2w)").label(),
              "MP,1024,2");
    EXPECT_EQ(MechanismSpec::parse("asp(assoc=fa)").label(),
              "ASP,256,F");
    EXPECT_EQ(MechanismSpec::parse("sp(degree=3)").label(), "SP,3");
    EXPECT_EQ(MechanismSpec::parse("sp(adaptive)").label(), "ASQ");
    EXPECT_EQ(MechanismSpec::parse("rp(reach=2)").label(), "RP,4");
    EXPECT_EQ(MechanismSpec::parse("hybrid(dp+sp)").label(),
              "hybrid(DP,256,D+SP,1)");
}

TEST(MechSpec, AliasesResolve)
{
    EXPECT_EQ(MechanismSpec::parse("distance"),
              MechanismSpec::parse("dp"));
    EXPECT_EQ(MechanismSpec::parse("markov"),
              MechanismSpec::parse("mp"));
    EXPECT_EQ(MechanismSpec::parse("ASQ"),
              MechanismSpec::parse("sp(adaptive)"));
    // Case-insensitive names.
    EXPECT_EQ(MechanismSpec::parse("DP"), MechanismSpec::parse("dp"));
}

TEST(MechSpec, TypedAccessors)
{
    MechanismSpec spec = MechanismSpec::parse("dp(rows=512,assoc=4w)");
    EXPECT_EQ(spec.uintParam("rows"), 512u);
    EXPECT_EQ(spec.choiceParam("assoc"), "4w");
    EXPECT_EQ(spec.uintParam("slots"), 2u); // default filled in
    EXPECT_EQ(spec.tableParam().rows, 512u);
    EXPECT_EQ(spec.tableParam().assoc, TableAssoc::FourWay);
    EXPECT_TRUE(MechanismSpec::parse("sp(adaptive)")
                    .flagParam("adaptive"));
    EXPECT_FALSE(MechanismSpec::parse("sp").flagParam("adaptive"));
    EXPECT_THROW(spec.uintParam("nope"), std::invalid_argument);
}

TEST(MechSpecList, GreedyLongestMatchSplitsLegendsAndLists)
{
    // One legend spec.
    std::vector<MechanismSpec> one = parseMechanismList("DP,256,D");
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].label(), "DP,256,D");

    // Legend forms mixed with composites and bare names.
    std::vector<MechanismSpec> many =
        parseMechanismList("hybrid(dp+sp),DP,512,D,rp,SP,2");
    ASSERT_EQ(many.size(), 4u);
    EXPECT_EQ(many[0].label(), "hybrid(DP,256,D+SP,1)");
    EXPECT_EQ(many[1].label(), "DP,512,D");
    EXPECT_EQ(many[2].label(), "RP");
    EXPECT_EQ(many[3].label(), "SP,2");

    EXPECT_TRUE(parseMechanismList("").empty());
    EXPECT_THROW(parseMechanismList("dp,XYZ"), std::invalid_argument);
}

// ------------------------------------------------------- error paths

TEST(MechSpecErrors, UnknownMechanismThrowsActionably)
{
    try {
        MechanismSpec::parse("nosuch");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("unknown mechanism 'nosuch'"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("dp"), std::string::npos) << what;
    }
}

TEST(MechSpecErrors, UnknownParameterKeyNamesTheSchema)
{
    try {
        MechanismSpec::parse("dp(bogus=1)");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("unknown parameter 'bogus'"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("rows"), std::string::npos) << what;
    }
}

TEST(MechSpecErrors, OutOfRangeValueNamesTheRange)
{
    try {
        MechanismSpec::parse("mp(slots=99)");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("must be in [1, 8]"), std::string::npos)
            << what;
    }
    EXPECT_THROW(MechanismSpec::parse("sp(degree=0)"),
                 std::invalid_argument);
    EXPECT_THROW(MechanismSpec::parse("dp(rows=notanumber)"),
                 std::invalid_argument);
    EXPECT_THROW(MechanismSpec::parse("dp(assoc=8w)"),
                 std::invalid_argument);
    // Cross-parameter geometry checks surface at parse time, not as a
    // process abort inside PredictionTable.
    EXPECT_THROW(MechanismSpec::parse("dp(rows=7)"),
                 std::invalid_argument);
    EXPECT_THROW(MechanismSpec::parse("dp(rows=6,assoc=4w)"),
                 std::invalid_argument);
}

TEST(MechSpecErrors, MalformedSyntaxThrows)
{
    for (const char *bad :
         {"", "   ", "dp(", "dp(rows=256", "dp)", "dp(rows)",
          "dp(rows=256,rows=512)", "sp(adaptive=maybe)",
          "ASQ(degree=2)", "DP,256,D,extra"}) {
        EXPECT_THROW(MechanismSpec::parse(bad), std::invalid_argument)
            << "'" << bad << "'";
    }
}

TEST(MechSpecErrors, MalformedHybridChildListThrows)
{
    for (const char *bad :
         {"hybrid", "hybrid()", "hybrid(dp)", "hybrid(dp+)",
          "hybrid(+dp)", "hybrid(dp+nosuch)", "hybrid(dp+none)",
          "hybrid(dp+sp+dp+sp+dp+sp+dp+sp+dp)"}) {
        EXPECT_THROW(MechanismSpec::parse(bad), std::invalid_argument)
            << "'" << bad << "'";
    }
}

TEST(MechSpecErrors, HybridWithTwoRecencyStacksThrows)
{
    // Every RP threads its stack through the same page-table link
    // words, so a second RP in one hybrid, however deeply nested,
    // would corrupt the first.
    for (const char *bad :
         {"hybrid(RP+RP)", "hybrid(rp+rp(reach=2))",
          "hybrid(hybrid(RP+DP,256,D)+RP,4)"}) {
        try {
            MechanismSpec::parse(bad);
            ADD_FAILURE() << "'" << bad << "' parsed";
        } catch (const std::invalid_argument &e) {
            std::string what = e.what();
            EXPECT_NE(what.find("more than one RP"), std::string::npos)
                << what;
        }
    }

    // A hand-assembled spec is rejected at build time too.
    MechanismSpec one = MechanismSpec::parse("hybrid(RP+DP,256,D)");
    PageTable pt;
    EXPECT_NE(one.build(pt), nullptr);
    MechanismSpec two = one;
    two.children[1] = MechanismSpec::parse("RP");
    EXPECT_THROW(two.build(pt), std::invalid_argument);
}

TEST(MechSpecErrors, RpLegendFieldMustBeEven)
{
    EXPECT_EQ(MechanismSpec::parse("RP,4").uintParam("reach"), 2u);
    EXPECT_THROW(MechanismSpec::parse("RP,3"), std::invalid_argument);
    EXPECT_THROW(MechanismSpec::parse("RP,0"), std::invalid_argument);
}

TEST(MechSpecErrors, HandAssembledSpecsAreValidated)
{
    MechanismSpec bogus;
    bogus.name = "dp";
    bogus.params = {{"rows", "512"}}; // missing schema keys
    EXPECT_THROW(bogus.validate(), std::invalid_argument);
    PageTable pt;
    EXPECT_THROW(bogus.build(pt), std::invalid_argument);

    MechanismSpec stray = MechanismSpec::parse("dp");
    stray.children.push_back(MechanismSpec::parse("sp"));
    EXPECT_THROW(stray.validate(), std::invalid_argument);
}

/** The bench boundary converts resolution errors to clean exits. */
using MechSpecDeathTest = ::testing::Test;

TEST(MechSpecDeathTest, ParseMechanismOrDieExitsOneWithMessage)
{
    EXPECT_EXIT((void)parseMechanismOrDie("nosuch"),
                ::testing::ExitedWithCode(1), "unknown mechanism");
    EXPECT_EXIT((void)parseMechanismOrDie("dp(bogus=1)"),
                ::testing::ExitedWithCode(1), "unknown parameter");
    EXPECT_EXIT((void)parseMechanismOrDie("mp(slots=99)"),
                ::testing::ExitedWithCode(1), "must be in");
    EXPECT_EXIT((void)parseMechanismListOrDie("hybrid(dp)"),
                ::testing::ExitedWithCode(1), "children");
}

// -------------------------------------------------- registry openness

TEST(MechRegistry, PublicAddRegistersAndResolves)
{
    // A brand-new mechanism through the public API only — no switch,
    // no enum, no core edits.  Uses a unique name so repeated suite
    // runs in one process don't collide.
    MechanismEntry entry;
    entry.name = "testmech";
    entry.shortName = "TM";
    entry.summary = "registered by test_mech_spec";
    entry.params = {MechParam::makeUInt("depth", "test depth", 3, 1,
                                        10)};
    // Reuse SP as the engine; the point is the registration path.
    entry.build = [](const MechanismSpec &spec, PageTable &pt) {
        return MechanismSpec::parse(
                   "sp(degree=" +
                   std::to_string(spec.uintParam("depth")) + ")")
            .build(pt);
    };
    MechanismRegistry::instance().add(entry);

    MechanismSpec spec = MechanismSpec::parse("testmech(depth=5)");
    EXPECT_EQ(spec.uintParam("depth"), 5u);
    EXPECT_EQ(spec.shortName(), "TM");
    PageTable pt;
    auto built = spec.build(pt);
    ASSERT_NE(built, nullptr);
    EXPECT_EQ(built->name(), "SP");

    // Names and aliases are claimed once.
    EXPECT_THROW(MechanismRegistry::instance().add(entry),
                 std::invalid_argument);
    MechanismEntry nameless;
    EXPECT_THROW(MechanismRegistry::instance().add(nameless),
                 std::invalid_argument);
}

/**
 * Every registry entry at each parameter's minimum and maximum (and a
 * composite at its fewest and most children) either simulates or is
 * rejected with std::invalid_argument — a parsed mechanism must never
 * abort the process.  rp(reach=3..8), legend RP,6..RP,16, used to
 * parse and then panic at the first miss; one such request killed the
 * server, which must instead answer with an error frame and go on.
 */
TEST(MechRegistry, EveryEntryAtItsSchemaBoundsRunsOrThrows)
{
    constexpr std::uint64_t kBoundRefs = 4000;
    const char *const kChildren[] = {"dp",          "sp",
                                     "asp",         "mp",
                                     "rp",          "dp(rows=64)",
                                     "sp(degree=2)", "asp(rows=32)"};
    std::vector<std::string> texts;
    for (const MechanismEntry *entry :
         MechanismRegistry::instance().entries()) {
        texts.push_back(entry->name);
        if (entry->composite) {
            for (std::size_t n :
                 {entry->minChildren, entry->maxChildren}) {
                std::string text = entry->name + "(";
                for (std::size_t k = 0; k < n; ++k)
                    text += (k ? "+" : "") +
                            std::string(kChildren[k % 8]);
                texts.push_back(text + ")");
            }
            continue;
        }
        for (const MechParam &param : entry->params) {
            std::vector<std::string> values;
            if (param.kind == MechParam::Kind::UInt)
                values = {std::to_string(param.min),
                          std::to_string(param.max)};
            else if (param.kind == MechParam::Kind::Choice)
                values = {param.choices.front(), param.choices.back()};
            for (const std::string &value : values)
                texts.push_back(entry->name + "(" + param.key + "=" +
                                value + ")");
            if (param.kind == MechParam::Kind::Flag)
                texts.push_back(entry->name + "(" + param.key + ")");
        }
    }

    std::vector<SweepJob> runnable;
    for (const std::string &text : texts) {
        SweepJob job;
        try {
            job = SweepJob::functional(WorkloadSpec::app("mcf"),
                                       MechanismSpec::parse(text),
                                       kBoundRefs);
            SweepResult cell = runSweepJob(job);
            EXPECT_EQ(cell.functional.refs, kBoundRefs) << text;
        } catch (const std::invalid_argument &) {
            continue; // a clean rejection is the other allowed outcome
        }
        runnable.push_back(job);
    }
    EXPECT_GT(runnable.size(), texts.size() / 2);
    // The survivors also run as one single-pass group, where every
    // mechanism builds over its own private page table.
    EXPECT_EQ(SweepEngine(1).run(runnable, PassMode::SinglePass).size(),
              runnable.size());

    // RP,4 is the widest recency reach; one more fails at parse.
    EXPECT_EQ(MechanismSpec::parse("RP,4").uintParam("reach"), 2u);
    EXPECT_THROW(MechanismSpec::parse("rp(reach=3)"),
                 std::invalid_argument);
    EXPECT_THROW(MechanismSpec::parse("RP,6"), std::invalid_argument);

    ServerOptions options;
    options.port = 0;
    options.threads = 1;
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });
    for (const char *bad : {"rp(reach=3)", "RP,6"}) {
        SweepRequest request;
        request.workloads = {"app:mcf"};
        request.mechanisms = {bad};
        request.refs = kBoundRefs;
        std::string error;
        try {
            ServiceClient("127.0.0.1", server.port()).sweep(request);
        } catch (const std::runtime_error &e) {
            error = e.what();
        }
        EXPECT_NE(error.find("server error"), std::string::npos)
            << bad << ": " << error;
    }
    ServiceClient("127.0.0.1", server.port()).ping(); // still serving
    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();
}

TEST(MechRegistry, ListingsCoverTheBuiltins)
{
    std::string names = MechanismRegistry::instance().knownNames();
    for (const char *name :
         {"none", "sp", "asp", "mp", "rp", "dp", "hybrid"})
        EXPECT_NE(names.find(name), std::string::npos) << name;
    EXPECT_NE(MechanismRegistry::instance().find("DP"), nullptr);
    EXPECT_EQ(MechanismRegistry::instance().find("nosuch"), nullptr);
}

// ------------------------------------------------------------ hybrid

TEST(Hybrid, UnionsAndDeduplicatesChildTargets)
{
    PageTable pt;
    auto hybrid = MechanismSpec::parse("hybrid(dp+sp)").build(pt);
    auto dp = MechanismSpec::parse("dp").build(pt);
    auto sp = MechanismSpec::parse("sp").build(pt);
    ASSERT_NE(hybrid, nullptr);

    // Warm all three identically: misses at a constant distance of 1,
    // so DP learns distance 1 and predicts vpn+1 — the same target SP
    // proposes.  The hybrid must emit it once.
    PrefetchDecision dh, dd, ds;
    for (Vpn vpn = 100; vpn < 120; ++vpn) {
        TlbMiss miss{vpn, 0x4000, false, kNoPage};
        dh.clear();
        dd.clear();
        ds.clear();
        hybrid->onMiss(miss, dh);
        dp->onMiss(miss, dd);
        sp->onMiss(miss, ds);
    }
    ASSERT_FALSE(dh.targets.empty());
    ASSERT_FALSE(dd.targets.empty());
    ASSERT_FALSE(ds.targets.empty());
    // Both children propose vpn+1 = 120; the union holds it once.
    EXPECT_EQ(dd.targets.front(), 120u);
    EXPECT_EQ(ds.targets.front(), 120u);
    EXPECT_EQ(
        std::count(dh.targets.begin(), dh.targets.end(), Vpn{120}),
        1);
}

TEST(Hybrid, HardwareProfileAccumulatesChildren)
{
    MechanismSpec spec = MechanismSpec::parse("hybrid(dp+rp)");
    HardwareProfile profile = spec.hardwareProfile();
    HardwareProfile dp =
        MechanismSpec::parse("dp").hardwareProfile();
    HardwareProfile rp =
        MechanismSpec::parse("rp").hardwareProfile();
    EXPECT_EQ(profile.memOpsPerMiss,
              dp.memOpsPerMiss + rp.memOpsPerMiss);
}

TEST(Hybrid, RunsEndToEndOnTheSweepEngineBitIdentically)
{
    // The acceptance cell: hybrid(dp+sp) through accuracySweep on the
    // engine, 1 thread vs N threads, bit-identical.
    std::vector<MechanismSpec> specs = {
        MechanismSpec::parse("hybrid(dp+sp)"),
        MechanismSpec::parse("dp"),
        MechanismSpec::parse("sp"),
    };
    auto serial = accuracySweep("gcc", specs, 30000, SimConfig{}, 1);
    auto parallel = accuracySweep("gcc", specs, 30000, SimConfig{}, 4);
    ASSERT_EQ(serial.size(), 3u);
    ASSERT_EQ(parallel.size(), 3u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].label, parallel[i].label);
        EXPECT_DOUBLE_EQ(serial[i].accuracy, parallel[i].accuracy);
        EXPECT_DOUBLE_EQ(serial[i].missRate, parallel[i].missRate);
    }
    // The union can only help: hybrid accuracy >= each child's.
    EXPECT_GE(serial[0].accuracy, serial[1].accuracy - 1e-12);
    EXPECT_GE(serial[0].accuracy, serial[2].accuracy - 1e-12);

    // And as an engine batch with a labelled result row.
    SweepResult cell = runSweepJob(SweepJob::functional(
        WorkloadSpec::app("gcc"), specs[0], 30000));
    EXPECT_EQ(cell.mechanism, "hybrid(DP,256,D+SP,1)");
    EXPECT_GT(cell.functional.misses, 0u);
}

} // namespace
} // namespace tlbpf
