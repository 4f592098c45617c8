/**
 * @file
 * Tests for the cycle model's accounting: the constant miss penalty,
 * in-flight prefetch stalls, channel contention, and RP's
 * benefit-of-the-doubt rule; its refusal of the ablation switches the
 * cycle model does not simulate; and the timed back end against the
 * stand-alone stepping simulator of timing_oracle.hh on every path a
 * timed cell runs.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "run/plan.hh"
#include "run/sweep_engine.hh"
#include "sim/experiment.hh"
#include "timing_oracle.hh"
#include "trace/ref_stream.hh"

namespace tlbpf
{
namespace
{

std::vector<MemRef>
pagedRefs(std::initializer_list<Vpn> pages, std::uint64_t instr_gap)
{
    std::vector<MemRef> refs;
    std::uint64_t icount = 0;
    for (Vpn p : pages) {
        refs.push_back(MemRef{p * kDefaultPageBytes, 0x4000, false,
                              icount});
        icount += instr_gap;
    }
    return refs;
}

SimConfig
tinyConfig()
{
    SimConfig config;
    config.tlb = TlbConfig{4, 0};
    config.pbEntries = 4;
    return config;
}

MechanismSpec
spec(const std::string &text)
{
    return MechanismSpec::parse(text);
}

TEST(TimingSim, NoMissesMeansNoStalls)
{
    VectorStream stream(pagedRefs({1, 1, 1, 1}, 10));
    TimingResult r =
        simulateTimed(tinyConfig(), TimingConfig{}, spec("none"),
                      stream);
    EXPECT_EQ(r.stallCycles, 100u); // only the single cold miss
    EXPECT_EQ(r.computeCycles, 30u);
    EXPECT_EQ(r.cycles, 130u);
}

TEST(TimingSim, EachDemandMissCostsThePenalty)
{
    VectorStream stream(pagedRefs({1, 2, 3}, 1000));
    TimingResult r =
        simulateTimed(tinyConfig(), TimingConfig{}, spec("none"),
                      stream);
    EXPECT_EQ(r.stallCycles, 300u);
}

TEST(TimingSim, BaseCpiScalesComputeCycles)
{
    TimingConfig timing;
    timing.baseCpi = 2.0;
    VectorStream stream(pagedRefs({1, 1}, 50));
    TimingResult r = simulateTimed(tinyConfig(), timing,
                                   spec("none"), stream);
    EXPECT_EQ(r.computeCycles, 100u);
}

TEST(TimingSim, CompletedPrefetchEliminatesStall)
{
    // Page 2 prefetched at the miss on page 1; the next reference is
    // far enough in the future that the prefetch has landed.
    VectorStream stream(pagedRefs({1, 2}, 1000));
    TimingResult r = simulateTimed(tinyConfig(), TimingConfig{},
                                   spec("sp"), stream);
    EXPECT_EQ(r.functional.pbHits, 1u);
    EXPECT_EQ(r.inFlightHits, 0u);
    EXPECT_EQ(r.stallCycles, 100u); // only the cold miss on page 1
}

TEST(TimingSim, InFlightPrefetchStallsPartially)
{
    // With a 300-cycle memory op, the prefetch of page 2 (issued at
    // the miss on page 1) is still in flight when page 2 is
    // referenced: the CPU stalls only for the remainder.
    TimingConfig timing;
    timing.memOpCost = 300;
    VectorStream stream(pagedRefs({1, 2}, 3));
    TimingResult r =
        simulateTimed(tinyConfig(), timing, spec("sp"), stream);
    EXPECT_EQ(r.functional.pbHits, 1u);
    EXPECT_EQ(r.inFlightHits, 1u);
    // Cold miss (100) + remaining in-flight time (300 - 103 = 197).
    EXPECT_EQ(r.stallCycles, 297u);
}

TEST(TimingSim, DemandFetchDelayedByChannelBacklog)
{
    // Miss on 1 issues a 500-cycle prefetch; the unrelated miss on 10
    // (at now = 101) must wait for the channel to clear (t = 500)
    // before its own 100-cycle walk starts.
    TimingConfig timing;
    timing.memOpCost = 500;
    VectorStream stream(pagedRefs({1, 10}, 1));
    TimingResult r =
        simulateTimed(tinyConfig(), timing, spec("sp"), stream);
    // 100 (cold) + (500 - 101 + 100) for the delayed demand fetch.
    EXPECT_EQ(r.stallCycles, 100u + 499u);
}

TEST(TimingSim, RpSkipsPrefetchesWhenChannelBusy)
{
    // Back-to-back history misses keep the channel busy with RP's
    // pointer updates, so some neighbour fetches are skipped.
    std::vector<MemRef> refs;
    std::uint64_t icount = 0;
    for (int pass = 0; pass < 6; ++pass) {
        for (Vpn p = 0; p < 12; ++p) {
            refs.push_back(MemRef{p * kDefaultPageBytes, 0, false,
                                  icount});
            icount += 2;
        }
    }
    VectorStream stream(std::move(refs));
    TimingResult r = simulateTimed(tinyConfig(), TimingConfig{},
                                   spec("rp"), stream);
    EXPECT_GT(r.prefetchesSkippedBusy, 0u);
}

TEST(TimingSim, DpNeverSkips)
{
    std::vector<MemRef> refs;
    std::uint64_t icount = 0;
    for (int pass = 0; pass < 6; ++pass) {
        for (Vpn p = 0; p < 12; ++p) {
            refs.push_back(MemRef{p * kDefaultPageBytes, 0, false,
                                  icount});
            icount += 2;
        }
    }
    VectorStream stream(std::move(refs));
    TimingResult r = simulateTimed(tinyConfig(), TimingConfig{},
                                   spec("dp(rows=64)"), stream);
    EXPECT_EQ(r.prefetchesSkippedBusy, 0u);
}

TEST(TimingSim, RpGeneratesMoreMemoryTrafficThanDp)
{
    // Paper Section 3.2: RP's traffic is 2-3x DP's.
    TimingResult rp = runTimed("ammp", spec("rp"), 200000);
    TimingResult dp = runTimed("ammp", spec("dp(rows=64)"), 200000);
    EXPECT_GT(rp.memoryOps, dp.memoryOps);
    EXPECT_GE(static_cast<double>(rp.memoryOps),
              1.5 * static_cast<double>(dp.memoryOps));
}

TEST(TimingSim, MemOpCostScalesChannelPressure)
{
    TimingConfig cheap;
    cheap.memOpCost = 1;
    TimingConfig expensive;
    expensive.memOpCost = 200;
    std::vector<MemRef> refs;
    std::uint64_t icount = 0;
    for (int pass = 0; pass < 5; ++pass)
        for (Vpn p = 0; p < 12; ++p) {
            refs.push_back(MemRef{p * kDefaultPageBytes, 0, false,
                                  icount});
            icount += 3;
        }
    VectorStream s1(refs);
    VectorStream s2(refs);
    TimingResult fast =
        simulateTimed(tinyConfig(), cheap, spec("rp"), s1);
    TimingResult slow =
        simulateTimed(tinyConfig(), expensive, spec("rp"), s2);
    EXPECT_LT(fast.cycles, slow.cycles);
}

TEST(TimingSim, FunctionalCountersMatchFunctionalSimWithoutPrefetch)
{
    auto stream1 = buildApp("gcc", 100000);
    auto stream2 = buildApp("gcc", 100000);
    SimResult functional =
        simulate(SimConfig{}, spec("none"), *stream1);
    TimingResult timed = simulateTimed(SimConfig{}, TimingConfig{},
                                       spec("none"), *stream2);
    EXPECT_EQ(timed.functional.refs, functional.refs);
    EXPECT_EQ(timed.functional.misses, functional.misses);
}

TEST(TimingSim, PrefetchingSpeedsUpStridedApp)
{
    // galgel: strided re-touch; DP should clearly beat no-prefetching.
    TimingResult base = runTimed("galgel", spec("none"), 150000);
    TimingResult dp = runTimed("galgel", spec("dp(rows=64)"), 150000);
    EXPECT_LT(dp.cycles, base.cycles);
}

/**
 * A timed cell under @p config must fail with an error naming
 * @p field, both on the simulator itself and through the engine's
 * cell runner, rather than answer the cell the switch does not apply
 * to.
 */
void
expectTimedCellRejected(const SimConfig &config, const char *field)
{
    try {
        FunctionalSimulator sim(config, {spec("DP,256,D")},
                                TimingConfig{});
        ADD_FAILURE() << "the timed simulator accepted " << field;
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
    }
    SweepJob job = SweepJob::timed(WorkloadSpec::app("mcf"),
                                   spec("DP,256,D"), 5000, config);
    EXPECT_THROW(runSweepJob(job), std::invalid_argument) << field;
}

TEST(TimingSim, RejectsContextSwitchInterval)
{
    SimConfig config;
    config.contextSwitchInterval = 1000;
    expectTimedCellRejected(config, "context_switch_interval");
}

TEST(TimingSim, RejectsTrainOnAllRefs)
{
    SimConfig config;
    config.trainOnAllRefs = true;
    expectTimedCellRejected(config, "train_on_all_refs");
}

/**
 * A checkpoint has no cycle-model section, so a timed simulator is
 * neither snapshotted nor restored: either would drop its clock.
 */
TEST(TimingSim, TimedSimulatorIsNeverCheckpointed)
{
    FunctionalSimulator timed(SimConfig{}, {spec("DP,256,D")},
                              TimingConfig{});
    FunctionalSimulator untimed(SimConfig{}, spec("DP,256,D"));
    EXPECT_TRUE(untimed.checkpointable());
    EXPECT_FALSE(timed.checkpointable());
    EXPECT_THROW(timed.snapshot(), std::invalid_argument);
    EXPECT_THROW(timed.restore(untimed.snapshot()), std::invalid_argument);
}

/** Every counter of @p r, for a readable mismatch. */
std::string
fields(const TimingResult &r)
{
    const SimResult &f = r.functional;
    std::string out;
    for (std::uint64_t v :
         {f.refs, f.misses, f.pbHits, f.demandFetches, f.prefetchesIssued,
          f.prefetchesSuppressed, f.stateOps, f.pbEvictedUnused,
          f.footprintPages, f.contextSwitches, r.cycles, r.stallCycles,
          r.computeCycles, r.memoryOps, r.prefetchesSkippedBusy,
          r.inFlightHits})
        out += std::to_string(v) + " ";
    return out;
}

/**
 * The timed back end against the stand-alone stepping simulator, field
 * for field, over Table 3's apps, a trace and a mix, eight mechanisms,
 * three geometries and two cycle models: through the engine's cell
 * runner, and through a 4-thread single-pass run, which lowers each
 * stream's eight timed cells into one Pass sharing one TLB.
 */
TEST(TimingSim, BackEndMatchesTheOracle)
{
    constexpr std::uint64_t kRefs = 20000;
    std::vector<WorkloadSpec> workloads;
    for (const std::string &app : table3Apps())
        workloads.push_back(WorkloadSpec::app(app));
    workloads.push_back(WorkloadSpec::trace(
        std::string(TLBPF_TEST_DATA_DIR) + "/sample.tpf"));
    workloads.push_back(WorkloadSpec::parse("mix:mcf+gcc@5k"));
    std::vector<MechanismSpec> mechs;
    for (const char *text : {"none", "RP", "DP,256,D", "ASP,256,D",
                             "MP,256,D", "sp", "ASQ", "hybrid(rp+dp)"})
        mechs.push_back(spec(text));
    std::vector<SimConfig> configs(3);
    configs[1].tlb = TlbConfig{64, 4};
    configs[1].pbEntries = 4;
    configs[2].pageBytes = 8192;
    TimingConfig slow;
    slow.baseCpi = 1.7;
    slow.missPenalty = 37;
    slow.memOpCost = 300;

    std::vector<SweepJob> jobs;
    for (const WorkloadSpec &workload : workloads)
        for (const SimConfig &config : configs)
            for (const TimingConfig &timing : {TimingConfig{}, slow})
                for (const MechanismSpec &mech : mechs)
                    jobs.push_back(SweepJob::timed(workload, mech, kRefs,
                                                   config, timing));
    Plan plan =
        makePlan(jobs, 1, ShardWarmup::Checkpoint, PassMode::SinglePass);
    ASSERT_EQ(plan.tasks().size(), jobs.size() / mechs.size());
    for (const Task &task : plan.tasks())
        EXPECT_EQ(task.kind, TaskKind::Pass);
    std::vector<SweepResult> passes = SweepEngine(4).run(plan);
    ASSERT_EQ(passes.size(), jobs.size());

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SweepJob &job = jobs[i];
        auto stream = job.workload.build(job.refs);
        TimingResult want =
            oracleTimed(job.config, job.timing, job.spec, *stream);
        SweepResult cell = runSweepJob(job);
        for (const SweepResult *got : {&cell, &passes[i]}) {
            EXPECT_TRUE(got->timed == want)
                << cellKey(job) << (got == &cell ? " (cell)" : " (pass)")
                << "\n  oracle " << fields(want) << "\n  got    "
                << fields(got->timed);
            EXPECT_EQ(got->functional, want.functional) << cellKey(job);
        }
    }
}

} // namespace
} // namespace tlbpf
