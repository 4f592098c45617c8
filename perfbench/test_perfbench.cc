/**
 * @file
 * Tests of the benchmark's own logic: the percentile rule, the output
 * check, and seed determinism of the workload draws.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "bench.hh"
#include "run/sweep_engine.hh"
#include "sim/experiment.hh"
#include "workload/app_registry.hh"

using namespace perfbench;

namespace
{

ExpectedTable
committed()
{
    return ExpectedTable::parse(
        readFile(std::string(PERFBENCH_DIR) + "/expected.tsv"));
}

} // namespace

TEST(PercentileRule, TailNeedsTenSamplesBeyondIt)
{
    EXPECT_EQ(tailPercentile(19), 0.0);   // not even the median
    EXPECT_EQ(tailPercentile(20), 50.0);  // 10 beyond rank 10
    EXPECT_EQ(tailPercentile(39), 50.0);
    EXPECT_EQ(tailPercentile(40), 75.0);
    EXPECT_EQ(tailPercentile(99), 75.0);  // p90 would leave 9
    EXPECT_EQ(tailPercentile(100), 90.0);
    EXPECT_EQ(tailPercentile(200), 95.0);
    EXPECT_EQ(tailPercentile(1000), 99.0);
    EXPECT_EQ(tailPercentile(10000), 99.9);
}

TEST(PercentileRule, NearestRank)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    EXPECT_EQ(percentile(v, 50.0), 50.0);
    EXPECT_EQ(percentile(v, 90.0), 90.0);
    EXPECT_EQ(percentile(v, 100.0), 100.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({}), 0.0);
}

TEST(OutputCheck, OnePerturbedCounterFails)
{
    ExpectedTable expected = committed();
    std::vector<tlbpf::SweepJob> jobs;
    for (const tlbpf::MechanismSpec &spec : tlbpf::table2Specs())
        jobs.push_back(tlbpf::SweepJob::functional(
            tlbpf::WorkloadSpec::app("mcf"), spec, kMixRefs));
    tlbpf::SweepEngine engine(1);
    std::vector<tlbpf::SweepResult> row =
        engine.run(jobs, tlbpf::PassMode::SinglePass);
    EXPECT_TRUE(expected.matches("mcf", "table2", row));

    for (std::size_t cell = 0; cell < row.size(); ++cell) {
        std::vector<tlbpf::SweepResult> bad = row;
        ++bad[cell].functional.prefetchesSuppressed;
        EXPECT_FALSE(expected.matches("mcf", "table2", bad)) << cell;
    }
    std::vector<tlbpf::SweepResult> relabelled = row;
    relabelled[0].mechanism = "DP,128,D";
    EXPECT_FALSE(expected.matches("mcf", "table2", relabelled));
    EXPECT_FALSE(expected.matches("no-such-model", "table2", row));

    Report report;
    report.check(true, "ok");
    report.check(false, "perturbed");
    EXPECT_EQ(report.attempted, 2u);
    EXPECT_EQ(report.failed, 1u);
    EXPECT_NE(report.json().find("\"correct\": false"), std::string::npos);
}

TEST(SeedDeterminism, SeedZeroIsTheNamedLists)
{
    ExpectedTable expected = committed();
    auto sorted = [](std::vector<std::string> v) {
        std::sort(v.begin(), v.end());
        return v;
    };
    // fig7_sweep reorders the set (largest footprint first); the fleet
    // sweeps the set in the named order for every seed.
    EXPECT_EQ(sorted(drawModels("fig7_sweep", 0, expected)),
              sorted(tlbpf::highMissRateApps()));
    EXPECT_EQ(drawModels("fig7_sweep", 0, expected).front(), "mcf");
    for (std::uint64_t seed = 0; seed <= 3; ++seed)
        EXPECT_EQ(drawModels("fleet_sharded", seed, expected),
                  tlbpf::highMissRateApps());
    EXPECT_EQ(drawModels("trace_replay", 0, expected),
              (std::vector<std::string>{"eon", "g721-enc", "g721-dec",
                                        "pgp-dec", "bc", "ks", "ammp",
                                        "twolf"}));
}

TEST(SeedDeterminism, DrawsRepeatAndStayInTheirPools)
{
    ExpectedTable expected = committed();
    struct Case
    {
        const char *workload;
        const char *grid;
        bool (*inPool)(double);
    };
    const Case cases[] = {
        {"fig7_sweep", "fig7", [](double r) { return r >= 0.01; }},
        {"trace_replay", "trace", [](double r) { return r < 0.015; }},
    };
    for (const Case &c : cases) {
        std::set<std::vector<std::string>> distinct;
        for (std::uint64_t seed = 1; seed <= 10; ++seed) {
            std::vector<std::string> a = drawModels(c.workload, seed,
                                                    expected);
            EXPECT_EQ(a, drawModels(c.workload, seed, expected));
            EXPECT_EQ(a.size(), kGridModels);
            EXPECT_EQ(std::set<std::string>(a.begin(), a.end()).size(),
                      a.size());
            for (const std::string &m : a)
                EXPECT_TRUE(c.inPool(
                    expected.models.at(m).at(c.grid).noneMissRate))
                    << c.workload << " drew " << m;
            distinct.insert(a);
        }
        EXPECT_GT(distinct.size(), 5u) << c.workload;
    }
}

TEST(SeedDeterminism, MixSequenceRepeatsAndReshuffles)
{
    auto draw = [](std::uint64_t seed, std::size_t count) {
        MixSequence sequence(seed);
        std::vector<MixRequest> out;
        for (std::size_t i = 0; i < count; ++i)
            out.push_back(sequence.at(i));
        return out;
    };
    std::vector<MixRequest> a = draw(3, 400);
    std::vector<MixRequest> b = draw(3, 400);
    std::vector<MixRequest> c = draw(4, 400);
    // Asking out of order or again gives the same requests.
    MixSequence again(3);
    EXPECT_EQ(again.at(399).models, a[399].models);
    EXPECT_EQ(again.at(7).models, a[7].models);
    bool differs = false;
    std::size_t cached = 0;
    std::vector<const MixRequest *> grids;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].models, b[i].models);
        EXPECT_EQ(a[i].cached, b[i].cached);
        differs |= a[i].models != c[i].models || a[i].cached != c[i].cached;
        EXPECT_GE(a[i].models.size(), 1u);
        EXPECT_LE(a[i].models.size(), 4u);
        if (!a[i].cached) {
            // A cold request is a new grid at a budget of its own.
            EXPECT_EQ(a[i].grid, grids.size());
            EXPECT_EQ(a[i].refs, kMixRefs + a[i].grid);
            grids.push_back(&a[i]);
            continue;
        }
        // A cached request repeats a grid answered before it.
        ++cached;
        ASSERT_LT(a[i].grid, grids.size()) << i;
        EXPECT_EQ(a[i].models, grids[a[i].grid]->models);
        EXPECT_EQ(a[i].refs, grids[a[i].grid]->refs);
    }
    // Request 0 is the set-up's warm-up: the same grid for every seed.
    EXPECT_FALSE(a[0].cached);
    EXPECT_EQ(a[0].models, c[0].models);
    EXPECT_EQ(a[0].models, (std::vector<std::string>{"mcf", "gcc"}));
    EXPECT_EQ(cached, 200u);
    EXPECT_TRUE(differs);
}

TEST(Tracer, SelfTimeExcludesChildren)
{
    Tracer tracer(true);
    {
        Scope outer(tracer, "outer");
        {
            Scope inner(tracer, "inner");
            inner.setCount(7);
            volatile double x = 0;
            for (int i = 0; i < 200000; ++i)
                x = x + i;
        }
    }
    auto t = tracer.totals();
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t["inner"].count, 7u);
    EXPECT_EQ(t["outer"].spans, 1u);
    EXPECT_GT(t["inner"].selfNs, t["outer"].selfNs);
    EXPECT_NEAR(t["outer"].wallNs,
                t["outer"].selfNs + t["inner"].wallNs +
                    tracer.clockPairNs(),
                1.0);
    EXPECT_EQ(tracer.spans()[1].parent, 0);
}
