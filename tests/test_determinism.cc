/**
 * @file
 * Determinism guard: with a fixed workload seed, the functional and
 * timing simulators must produce bit-identical statistics across
 * repeated runs — and, since the sweep engine landed, across any
 * thread count: a mixed functional/timing batch (registry apps,
 * trace-file workloads, multi-programmed mixes and sharded cells
 * alike) must yield identical counters and identical CSV bytes at
 * 1, 4 and 8 threads.
 */

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "run/result_sink.hh"
#include "run/sweep_engine.hh"
#include "sim/experiment.hh"
#include "util/table_printer.hh"
#include "workload/app_registry.hh"

namespace tlbpf
{
namespace
{

constexpr std::uint64_t kRefs = 50000;

/** Every counter in a SimResult, in declaration order. */
std::vector<std::uint64_t>
counters(const SimResult &r)
{
    return {r.refs,
            r.misses,
            r.pbHits,
            r.demandFetches,
            r.prefetchesIssued,
            r.prefetchesSuppressed,
            r.stateOps,
            r.pbEvictedUnused,
            r.footprintPages,
            r.contextSwitches};
}

std::vector<std::uint64_t>
counters(const TimingResult &r)
{
    std::vector<std::uint64_t> all = counters(r.functional);
    all.push_back(r.cycles);
    all.push_back(r.stallCycles);
    all.push_back(r.computeCycles);
    all.push_back(r.memoryOps);
    all.push_back(r.prefetchesSkippedBusy);
    all.push_back(r.inFlightHits);
    return all;
}

TEST(Determinism, FunctionalRunsAreBitIdentical)
{
    for (const char *app : {"gcc", "galgel", "mcf"}) {
        for (const MechanismSpec &spec : table2Specs()) {
            SimResult first = runFunctional(app, spec, kRefs);
            SimResult second = runFunctional(app, spec, kRefs);
            EXPECT_EQ(counters(first), counters(second))
                << app << " under " << spec.label();
        }
    }
}

TEST(Determinism, FunctionalRunsSurviveInterleavedWork)
{
    // A run sandwiched between unrelated simulations must not change:
    // no hidden global state may leak between simulator instances.
    MechanismSpec dp = MechanismSpec::parse("dp");
    SimResult baseline = runFunctional("swim", dp, kRefs);

    MechanismSpec rp = MechanismSpec::parse("rp");
    (void)runFunctional("gcc", rp, kRefs);

    SimResult again = runFunctional("swim", dp, kRefs);
    EXPECT_EQ(counters(baseline), counters(again));
}

TEST(Determinism, TimedRunsAreBitIdentical)
{
    MechanismSpec spec = MechanismSpec::parse("dp");
    TimingResult first = runTimed("gcc", spec, kRefs);
    TimingResult second = runTimed("gcc", spec, kRefs);
    EXPECT_EQ(counters(first), counters(second));
}

/**
 * A mixed functional/timing batch covering every mechanism class,
 * several geometries, an ablation flag, and every workload kind
 * (registry app, trace file, multi-programmed mix, sharded cell) —
 * the shape of a real figure regeneration.
 */
std::vector<SweepJob>
mixedJobBatch()
{
    std::vector<SweepJob> jobs;
    for (const char *app : {"gcc", "mcf", "galgel"})
        for (const MechanismSpec &spec : table2Specs())
            jobs.push_back(SweepJob::functional(WorkloadSpec::app(app),
                                                spec, kRefs));

    MechanismSpec dp = MechanismSpec::parse("dp");
    SimConfig flushing;
    flushing.contextSwitchInterval = 10000;
    jobs.push_back(SweepJob::functional(WorkloadSpec::app("swim"), dp,
                                        kRefs, flushing));

    // Trace-file, mix and sharded workload cells.
    jobs.push_back(SweepJob::functional(
        WorkloadSpec::trace(std::string(TLBPF_TEST_DATA_DIR) +
                            "/sample.tpf"),
        dp, kRefs));
    jobs.push_back(SweepJob::functional(
        WorkloadSpec::parse("mix:mcf+gcc@1k"), dp, kRefs, flushing));
    for (std::uint32_t k = 0; k < 3; ++k)
        jobs.push_back(SweepJob::functional(
            WorkloadSpec::app("galgel").withShard(k, 3), dp, kRefs));

    for (const char *mech : {"none", "rp", "dp"})
        jobs.push_back(SweepJob::timed(WorkloadSpec::app("ammp"),
                                       MechanismSpec::parse(mech),
                                       kRefs));
    return jobs;
}

/** All counters of a SweepResult, both modes. */
std::vector<std::uint64_t>
counters(const SweepResult &r)
{
    std::vector<std::uint64_t> all = counters(r.functional);
    if (r.mode == JobMode::Timed) {
        std::vector<std::uint64_t> timed = counters(r.timed);
        all.insert(all.end(), timed.begin(), timed.end());
    }
    return all;
}

/** Render a batch's results as CSV bytes, the way the benches do. */
std::string
csvBytes(const std::vector<SweepJob> &jobs,
         const std::vector<SweepResult> &results)
{
    std::ostringstream os;
    CsvSink csv(os);
    csv.header({"app", "mechanism", "accuracy", "miss_rate",
                "cycles"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        csv.row({results[i].workload, jobs[i].spec.label(),
                 TablePrinter::num(results[i].accuracy(), 6),
                 TablePrinter::num(results[i].missRate(), 6),
                 TablePrinter::num(static_cast<std::uint64_t>(
                     results[i].mode == JobMode::Timed
                         ? results[i].timed.cycles
                         : 0))});
    }
    csv.finish();
    return os.str();
}

TEST(ParallelDeterminism, ThreadCountDoesNotChangeStats)
{
    std::vector<SweepJob> jobs = mixedJobBatch();
    std::vector<SweepResult> serial = SweepEngine(1).run(jobs);
    ASSERT_EQ(serial.size(), jobs.size());
    for (unsigned threads : {4u, 8u}) {
        std::vector<SweepResult> parallel =
            SweepEngine(threads).run(jobs);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(counters(serial[i]), counters(parallel[i]))
                << "cell " << i << " (" << jobs[i].workload.label()
                << " under "
                << jobs[i].spec.label() << ") at " << threads
                << " threads";
    }
}

TEST(ParallelDeterminism, ThreadCountDoesNotChangeCsvBytes)
{
    std::vector<SweepJob> jobs = mixedJobBatch();
    std::string serial = csvBytes(jobs, SweepEngine(1).run(jobs));
    EXPECT_FALSE(serial.empty());
    for (unsigned threads : {4u, 8u})
        EXPECT_EQ(serial, csvBytes(jobs, SweepEngine(threads).run(jobs)))
            << threads << " threads";
}

TEST(ParallelDeterminism, RepeatedParallelRunsAreBitIdentical)
{
    std::vector<SweepJob> jobs = mixedJobBatch();
    SweepEngine engine(4);
    std::vector<SweepResult> first = engine.run(jobs);
    std::vector<SweepResult> second = engine.run(jobs);
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(counters(first[i]), counters(second[i]))
            << "cell " << i;
}

/**
 * Snapshot/restore bit-identity, mechanism by mechanism: a simulator
 * restored from a mid-run checkpoint must (a) re-serialize to the
 * exact same bytes and (b) produce the exact same counters as the
 * uninterrupted run over the remaining references.  The spec list
 * covers every component with state: TLB + buffer + page table
 * (always), each prefetcher family, the recency stack, and the
 * hybrid composite's child-by-child serialization.
 */
TEST(Checkpoint, SnapshotRestoreRoundTripsPerMechanism)
{
    constexpr std::uint64_t kPrefix = 20000;
    constexpr std::uint64_t kTail = 20000;
    for (const char *mech :
         {"none", "SP,1", "sp(degree=4)", "sp(adaptive)", "ASP,256,D",
          "mp(rows=64,assoc=2w)", "DP,256,D", "dp(rows=64,slots=4)",
          "rp", "rp(reach=2)", "hybrid(dp+sp)",
          "hybrid(dp+rp+sp(adaptive))"}) {
        MechanismSpec spec = MechanismSpec::parse(mech);
        SimConfig config;
        config.contextSwitchInterval = 7000; // cross a flush boundary
        auto refs =
            collect(*buildApp("mcf", kPrefix + kTail), kPrefix + kTail);
        ASSERT_EQ(refs.size(), kPrefix + kTail);

        FunctionalSimulator full(config, spec);
        for (std::uint64_t i = 0; i < kPrefix; ++i)
            full.process(refs[i]);
        ASSERT_TRUE(full.checkpointable()) << mech;
        SimState snap = full.snapshot();

        FunctionalSimulator restored(config, spec);
        restored.restore(snap);
        EXPECT_EQ(restored.snapshot().bytes, snap.bytes)
            << mech << ": restore + re-snapshot changed the bytes";

        for (std::uint64_t i = kPrefix; i < refs.size(); ++i) {
            full.process(refs[i]);
            restored.process(refs[i]);
        }
        EXPECT_EQ(counters(full.result()),
                  counters(restored.result()))
            << mech << ": restored run diverged over the tail";
    }
}

TEST(Checkpoint, MismatchedRestoreThrows)
{
    SimConfig config;
    MechanismSpec dp = MechanismSpec::parse("dp");
    auto refs = collect(*buildApp("gcc", 5000), 5000);
    FunctionalSimulator sim(config, dp);
    for (const MemRef &ref : refs)
        sim.process(ref);
    SimState snap = sim.snapshot();

    // Wrong mechanism.
    FunctionalSimulator rp(config, MechanismSpec::parse("rp"));
    EXPECT_THROW(rp.restore(snap), std::invalid_argument);

    // Wrong geometry.
    SimConfig small;
    small.tlb.entries = 64;
    FunctionalSimulator other(small, dp);
    EXPECT_THROW(other.restore(snap), std::invalid_argument);

    // Truncated bytes.
    SimState cut{std::vector<std::uint8_t>(
        snap.bytes.begin(), snap.bytes.begin() +
                                static_cast<std::ptrdiff_t>(
                                    snap.bytes.size() / 2))};
    FunctionalSimulator third(config, dp);
    EXPECT_THROW(third.restore(cut), std::invalid_argument);

    // Not a checkpoint at all.
    EXPECT_THROW(third.restore(SimState{{1, 2, 3}}),
                 std::invalid_argument);
}

/**
 * A chain runs its shards on one simulator and snapshots it only for
 * the hook.  Every state a 4-shard checkpoint plan stores must be
 * byte-identical to the snapshot() of one uninterrupted simulator
 * stopped at the same position, so the states a chain persists warm
 * later explicit-shard requests exactly.
 */
TEST(Checkpoint, ChainStoresTheUninterruptedSimulatorsBytes)
{
    class RecordingHook : public CheckpointHook
    {
      public:
        bool load(const std::string &, SimState &) override { return false; }
        void
        store(const std::string &key, const SimState &state) override
        {
            std::lock_guard<std::mutex> lock(_mutex);
            stored[key] = state.bytes;
        }
        std::map<std::string, std::vector<std::uint8_t>> stored;

      private:
        std::mutex _mutex;
    };

    for (const char *mech : {"rp", "DP,256,D", "hybrid(dp+sp)"}) {
        SweepJob job = SweepJob::functional(
            WorkloadSpec::app("mcf"), MechanismSpec::parse(mech), kRefs);
        RecordingHook hook;
        SweepEngine engine(1);
        engine.setCheckpointHook(&hook);
        (void)engine.runSharded({job}, 4, ShardWarmup::Checkpoint);
        EXPECT_EQ(hook.stored.size(), 4u) << mech;

        auto refs = collect(*job.workload.build(kRefs), kRefs);
        FunctionalSimulator sim(job.config, job.spec);
        std::uint64_t pos = 0;
        for (std::uint32_t k = 0; k < 4; ++k) {
            std::uint64_t end =
                job.workload.withShard(k, 4).shardWindow(kRefs).second;
            for (; pos < end; ++pos)
                sim.process(refs[pos]);
            (void)sim.result(); // a snapshot records result()'s counters
            auto stored = hook.stored.find(checkpointKey(job, end));
            ASSERT_NE(stored, hook.stored.end()) << mech << " at " << end;
            EXPECT_EQ(stored->second, sim.snapshot().bytes)
                << mech << " at " << end;
        }
    }
}

/**
 * The 1-vs-8-shard CSV byte compare, in both warm-up modes: sharding
 * a batch must never change a single output byte, whether shards
 * replay their prefix or chain checkpoints, at any thread count.
 */
TEST(Checkpoint, ShardWarmupModesPreserveCsvBytes)
{
    MechanismSpec dp = MechanismSpec::parse("dp");
    std::vector<SweepJob> jobs = {
        SweepJob::functional(WorkloadSpec::app("mcf"), dp, kRefs),
        SweepJob::functional(WorkloadSpec::parse("mix:mcf+gcc@1k"),
                             MechanismSpec::parse("hybrid(dp+sp)"),
                             kRefs),
        SweepJob::functional(
            WorkloadSpec::trace(std::string(TLBPF_TEST_DATA_DIR) +
                                "/sample.tpf"),
            MechanismSpec::parse("rp"), kRefs),
        SweepJob::timed(WorkloadSpec::app("ammp"), dp, kRefs),
    };
    std::string plain = csvBytes(jobs, SweepEngine(1).run(jobs));
    EXPECT_FALSE(plain.empty());
    for (ShardWarmup warmup :
         {ShardWarmup::Replay, ShardWarmup::Checkpoint})
        for (unsigned threads : {1u, 4u})
            EXPECT_EQ(plain,
                      csvBytes(jobs, SweepEngine(threads).runSharded(
                                         jobs, 8, warmup)))
                << shardWarmupName(warmup) << " warm-up at "
                << threads << " threads";
}

/**
 * The scheduler-hostile shape: a couple of 8-shard checkpoint chains
 * (each a long serialized task) surrounded by trivial cells an order
 * of magnitude cheaper.  The LPT hand-out and whatever interleaving of
 * threads it meets must not change a single CSV byte across thread
 * counts, in either warm-up mode.  The plan is hand-built so only the
 * heavy cells fan out — expandShards() would shard the trivial cells
 * too and flatten the skew this test exists to cover.
 */
TEST(ParallelDeterminism, SkewedShardChainBatchIsThreadCountInvariant)
{
    MechanismSpec dp = MechanismSpec::parse("dp");
    MechanismSpec rp = MechanismSpec::parse("rp");
    ShardPlan plan;
    std::vector<SweepJob> display; // one pre-expansion job per group
    for (const char *heavy : {"mcf", "gcc"}) {
        SweepJob cell = SweepJob::functional(WorkloadSpec::app(heavy),
                                             dp, kRefs);
        display.push_back(cell);
        plan.groupSizes.push_back(8);
        for (std::uint32_t k = 0; k < 8; ++k) {
            SweepJob shard = cell;
            shard.workload =
                WorkloadSpec::app(heavy).withShard(k, 8);
            plan.jobs.push_back(shard);
        }
        for (const char *cheap : {"swim", "ammp", "galgel"}) {
            SweepJob tiny = SweepJob::functional(
                WorkloadSpec::app(cheap), rp, kRefs / 16);
            display.push_back(tiny);
            plan.groupSizes.push_back(1);
            plan.jobs.push_back(tiny);
        }
    }
    for (ShardWarmup warmup :
         {ShardWarmup::Replay, ShardWarmup::Checkpoint}) {
        Plan tasks = makePlan(plan, warmup, PassMode::PerMechanism);
        std::string serial =
            csvBytes(display, SweepEngine(1).run(tasks));
        EXPECT_FALSE(serial.empty());
        for (unsigned threads : {4u, 8u})
            EXPECT_EQ(serial,
                      csvBytes(display, SweepEngine(threads).run(tasks)))
                << shardWarmupName(warmup) << " warm-up at "
                << threads << " threads";
    }
}

/**
 * The same invariance for the other task-shape extreme: wide
 * single-pass groups (one stream pass feeding four simulators, so
 * one task carries 4x a cell's weight) interleaved with trivial
 * singleton cells and a timed cell that cannot batch.
 */
TEST(ParallelDeterminism, SkewedSinglePassBatchIsThreadCountInvariant)
{
    std::vector<SweepJob> jobs;
    for (const char *app : {"mcf", "gcc"}) {
        for (const char *spec :
             {"DP,256,D", "RP", "ASP,256,D", "MP,256,D"})
            jobs.push_back(
                SweepJob::functional(WorkloadSpec::app(app),
                                     MechanismSpec::parse(spec),
                                     kRefs));
        jobs.push_back(SweepJob::functional(
            WorkloadSpec::app("swim"), MechanismSpec::parse("rp"),
            kRefs / 16));
        jobs.push_back(SweepJob::timed(WorkloadSpec::app("ammp"),
                                       MechanismSpec::parse("dp"),
                                       kRefs / 16));
    }
    std::string serial =
        csvBytes(jobs, SweepEngine(1).run(jobs, PassMode::SinglePass));
    EXPECT_FALSE(serial.empty());
    // Single-pass must also match the per-mechanism path itself.
    EXPECT_EQ(serial, csvBytes(jobs, SweepEngine(1).run(
                                         jobs, PassMode::PerMechanism)));
    for (unsigned threads : {4u, 8u})
        EXPECT_EQ(serial,
                  csvBytes(jobs, SweepEngine(threads)
                                     .run(jobs, PassMode::SinglePass)))
            << threads << " threads";
}

TEST(Determinism, RebuiltAppModelsReplayIdentically)
{
    // The registry must hand out streams that regenerate the same
    // references on every build and after reset().
    auto a = buildApp("vortex", 5000);
    auto b = buildApp("vortex", 5000);
    MemRef ra, rb;
    std::uint64_t n = 0;
    while (a->next(ra)) {
        ASSERT_TRUE(b->next(rb)) << "stream b shorter at ref " << n;
        ASSERT_EQ(ra, rb) << "divergence at ref " << n;
        ++n;
    }
    EXPECT_FALSE(b->next(rb));

    a->reset();
    auto c = buildApp("vortex", 5000);
    MemRef rc;
    while (c->next(rc)) {
        ASSERT_TRUE(a->next(ra));
        ASSERT_EQ(ra, rc);
    }
}

} // namespace
} // namespace tlbpf
