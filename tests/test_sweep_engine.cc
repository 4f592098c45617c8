/**
 * @file
 * Unit tests for the parallel sweep engine and its thread pool:
 * submission-order results, empty/single batches, exception
 * propagation from failing jobs (including bad workloads surfacing
 * as a clean fatal at the bench boundary instead of an abort from a
 * worker), the lowering of a batch into a Plan of weighted tasks,
 * and the ResultSink renderers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "run/result_sink.hh"
#include "run/sweep_engine.hh"
#include "sim/experiment.hh"
#include "util/logging.hh"

namespace tlbpf
{
namespace
{

constexpr std::uint64_t kRefs = 20000;

std::vector<SweepJob>
mixedBatch()
{
    std::vector<SweepJob> jobs;
    for (const char *app : {"gcc", "mcf", "swim"})
        for (const MechanismSpec &spec : table2Specs())
            jobs.push_back(SweepJob::functional(WorkloadSpec::app(app),
                                                spec, kRefs));
    MechanismSpec rp = MechanismSpec::parse("rp");
    jobs.push_back(SweepJob::timed(WorkloadSpec::app("ammp"), rp,
                                   kRefs));
    return jobs;
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h = 0;
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    ThreadPool pool(3);
    for (int round = 0; round < 5; ++round) {
        std::atomic<std::size_t> sum{0};
        pool.parallelFor(100, [&](std::size_t i) { sum += i; });
        EXPECT_EQ(sum, 4950u) << "round " << round;
    }
}

TEST(ThreadPool, ZeroSelectsHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.threadCount(), 1u);
}

TEST(ThreadPool, LowestIndexExceptionWins)
{
    ThreadPool pool(4);
    for (int round = 0; round < 3; ++round) {
        try {
            pool.parallelFor(64, [&](std::size_t i) {
                if (i % 7 == 3) // lowest failing index is 3
                    throw std::runtime_error(
                        "index " + std::to_string(i));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "index 3");
        }
    }
    // The pool survives a failed batch.
    std::atomic<int> ran{0};
    pool.parallelFor(8, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran, 8);
}

/**
 * The skewed batch the LPT hand-out exists for: a few jobs dominate
 * the runtime.  Every worker must execute at least one of the 64 jobs
 * (the sleeps keep the batch alive long enough for every worker to
 * wake), every index must run exactly once, and the telemetry must
 * add up.
 */
TEST(ThreadPool, EveryWorkerParticipatesInUnevenWeightedBatch)
{
    ThreadPool pool(4);
    constexpr std::size_t kJobs = 64;
    std::vector<std::uint64_t> weights(kJobs);
    for (std::size_t i = 0; i < kJobs; ++i)
        weights[i] = (i % 9 == 0) ? 400 : 25; // ~16x cost skew
    std::vector<std::atomic<int>> hits(kJobs);
    for (auto &h : hits)
        h = 0;
    pool.parallelForWeighted(weights, [&](std::size_t i) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(weights[i] * 5));
        ++hits[i];
    });
    for (std::size_t i = 0; i < kJobs; ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;

    const ThreadPool::BatchStats &stats = pool.lastBatchStats();
    EXPECT_EQ(stats.jobs, kJobs);
    EXPECT_GT(stats.seconds, 0.0);
    ASSERT_EQ(stats.workers.size(), 4u);
    std::uint64_t executed = 0;
    for (std::size_t w = 0; w < stats.workers.size(); ++w) {
        EXPECT_GE(stats.workers[w].jobs, 1u)
            << "worker " << w << " sat out the batch";
        EXPECT_GE(stats.workers[w].busySeconds, 0.0);
        executed += stats.workers[w].jobs;
    }
    EXPECT_EQ(executed, kJobs);
    EXPECT_GE(stats.busyFractionMin(), 0.0);
    EXPECT_GE(stats.busyFractionMax(), stats.busyFractionMin());
}

TEST(ThreadPool, SerialPoolRunsWeightedBatchInline)
{
    ThreadPool pool(1);
    std::vector<std::uint64_t> weights = {50, 1, 1, 90, 1, 7};
    std::vector<std::atomic<int>> hits(weights.size());
    for (auto &h : hits)
        h = 0;
    pool.parallelForWeighted(weights,
                             [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
    const ThreadPool::BatchStats &stats = pool.lastBatchStats();
    ASSERT_EQ(stats.workers.size(), 1u);
    EXPECT_EQ(stats.workers[0].jobs, weights.size());
}

/**
 * The hand-out order is Graham's LPT list: heaviest first, ties in
 * index order (a zero weight sorts last).  A pool of 1 runs exactly
 * that order; an unweighted batch runs in index order.
 */
TEST(ThreadPool, SerialPoolRunsHeaviestFirstWithTiesInIndexOrder)
{
    ThreadPool pool(1);
    std::vector<std::uint64_t> weights = {50, 1, 1, 90, 1,
                                          7,  0, 90, 50, 3};
    std::vector<std::size_t> order;
    pool.parallelForWeighted(weights,
                             [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{3, 7, 0, 8, 5, 9, 1, 2,
                                               4, 6}));
    order.clear();
    pool.parallelFor(4, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
}

/**
 * On a multi-thread pool the heaviest index still goes out first, even
 * when it was submitted last: the tail-latency case a submission-order
 * cursor gets wrong.  The cursor's hand-out order is what the pool
 * promises; which body *starts* first is up to the OS scheduler (the
 * claim of index 0 can overtake the claim of 31 between fetch and
 * call), so the test reads the hand-out order the pool records.
 */
TEST(ThreadPool, HeaviestIndexIsHandedOutFirstOnAFourThreadPool)
{
    ThreadPool pool(4);
    constexpr std::size_t kJobs = 32;
    std::vector<std::uint64_t> weights(kJobs, 10);
    weights[kJobs - 1] = 1000;
    std::vector<std::atomic<int>> hits(kJobs);
    for (auto &h : hits)
        h = 0;
    pool.parallelForWeighted(weights, [&](std::size_t i) {
        ++hits[i];
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    });
    const std::vector<std::size_t> &order = pool.lastBatchStats().order;
    ASSERT_EQ(order.size(), kJobs);
    EXPECT_EQ(order.front(), kJobs - 1);
    // The rest follow in index order (equal weights keep their order).
    for (std::size_t k = 1; k < kJobs; ++k)
        EXPECT_EQ(order[k], k - 1) << "claim " << k;
    for (std::size_t i = 0; i < kJobs; ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

/**
 * Exception determinism under a weighted hand-out: no matter which
 * worker ends up with which index (the sleeps interleave the cursor's
 * claims across threads on multi-core hosts), the exception rethrown
 * to the caller must be the one from the lowest *submission* index,
 * and every other index must still have run.
 */
TEST(ThreadPool, LowestIndexExceptionWinsUnderWeightedStealing)
{
    ThreadPool pool(4);
    constexpr std::size_t kJobs = 64;
    std::vector<std::uint64_t> weights(kJobs);
    for (std::size_t i = 0; i < kJobs; ++i)
        weights[i] = kJobs - i; // descending: handed out in order
    for (int round = 0; round < 3; ++round) {
        std::vector<std::atomic<int>> hits(kJobs);
        for (auto &h : hits)
            h = 0;
        try {
            pool.parallelForWeighted(weights, [&](std::size_t i) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
                ++hits[i];
                if (i % 7 == 5) // lowest failing index is 5
                    throw std::runtime_error(
                        "index " + std::to_string(i));
            });
            FAIL() << "expected an exception in round " << round;
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "index 5") << "round " << round;
        }
        for (std::size_t i = 0; i < kJobs; ++i)
            EXPECT_EQ(hits[i], 1)
                << "index " << i << " skipped after a failure";
    }
}

TEST(SweepEngine, EmptyBatch)
{
    SweepEngine engine(4);
    EXPECT_TRUE(engine.run({}).empty());
}

TEST(SweepEngine, SingleJobMatchesDirectRun)
{
    MechanismSpec dp = MechanismSpec::parse("dp");
    SweepEngine engine(4);
    std::vector<SweepResult> results =
        engine.run({SweepJob::functional(WorkloadSpec::app("gcc"),
                                         dp, kRefs)});
    ASSERT_EQ(results.size(), 1u);
    SimResult direct = runFunctional("gcc", dp, kRefs);
    EXPECT_EQ(results[0].functional.misses, direct.misses);
    EXPECT_EQ(results[0].functional.pbHits, direct.pbHits);
    EXPECT_EQ(results[0].mode, JobMode::Functional);
}

TEST(SweepEngine, ResultsComeBackInSubmissionOrder)
{
    std::vector<SweepJob> jobs = mixedBatch();
    SweepEngine engine(4);
    std::vector<SweepResult> parallel = engine.run(jobs);
    ASSERT_EQ(parallel.size(), jobs.size());
    // Slot i must hold exactly job i's outcome: compare against each
    // job run standalone.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SweepResult direct = runSweepJob(jobs[i]);
        EXPECT_EQ(parallel[i].functional.misses,
                  direct.functional.misses)
            << "slot " << i;
        EXPECT_EQ(parallel[i].functional.pbHits,
                  direct.functional.pbHits)
            << "slot " << i;
        EXPECT_EQ(parallel[i].mode, jobs[i].mode) << "slot " << i;
        if (jobs[i].mode == JobMode::Timed) {
            EXPECT_EQ(parallel[i].timed.cycles, direct.timed.cycles)
                << "slot " << i;
        }
    }
}

/**
 * Single-pass mode must be an invisible optimization: every counter
 * of every cell equals the per-mechanism run, for batches that group
 * fully (one workload, N mechanisms), batches that cannot group at
 * all, and batches that group piecewise (workload changes mid-batch,
 * timed cells interleaved).
 */
TEST(SweepEngine, SinglePassMatchesPerMechanismCellForCell)
{
    std::vector<std::vector<SweepJob>> batches;

    // The canonical shape, widened: every Figure 7 mechanism plus SP,
    // the wider RP and a hybrid holding RP share one stream pass, under
    // each geometry and ablation that changes what the shared front
    // end hands its back ends.
    std::vector<MechanismSpec> specs = figure7Specs();
    for (const char *extra : {"SP", "RP,4", "hybrid(RP+DP,256,D)"})
        specs.push_back(MechanismSpec::parse(extra));
    std::vector<SimConfig> configs(6);
    configs[1].tlb = {64, 4}; // narrow sets: the scan path, no index
    configs[2].trainOnAllRefs = true;
    configs[3].contextSwitchInterval = 10000;
    configs[4].pbEntries = 4;
    configs[5].pbEntries = 64;
    std::vector<SweepJob> grouped;
    for (const WorkloadSpec &workload :
         {WorkloadSpec::app("mcf"),
          WorkloadSpec::trace(std::string(TLBPF_TEST_DATA_DIR) +
                              "/sample.tpf")})
        for (const SimConfig &config : configs)
            for (const MechanismSpec &spec : specs)
                grouped.push_back(SweepJob::functional(
                    workload, spec, 4 * kRefs, config));
    batches.push_back(grouped);

    // Piecewise: workload flips mid-batch, a timed cell splits a
    // group, and a tail cell stands alone.
    std::vector<SweepJob> piecewise;
    MechanismSpec dp = MechanismSpec::parse("dp");
    MechanismSpec rp = MechanismSpec::parse("rp");
    piecewise.push_back(
        SweepJob::functional(WorkloadSpec::app("mcf"), dp, kRefs));
    piecewise.push_back(
        SweepJob::functional(WorkloadSpec::app("mcf"), rp, kRefs));
    piecewise.push_back(
        SweepJob::functional(WorkloadSpec::app("gcc"), dp, kRefs));
    piecewise.push_back(
        SweepJob::timed(WorkloadSpec::app("gcc"), dp, kRefs));
    piecewise.push_back(
        SweepJob::functional(WorkloadSpec::app("gcc"), rp, kRefs));
    batches.push_back(piecewise);

    for (const std::vector<SweepJob> &jobs : batches) {
        SweepEngine engine(2);
        std::vector<SweepResult> per_mech =
            engine.run(jobs, PassMode::PerMechanism);
        std::vector<SweepResult> single_pass =
            engine.run(jobs, PassMode::SinglePass);
        ASSERT_EQ(per_mech.size(), jobs.size());
        ASSERT_EQ(single_pass.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            std::string cell = "slot " + std::to_string(i) + " (" +
                               per_mech[i].workload + ", " +
                               per_mech[i].mechanism + ")";
            EXPECT_EQ(per_mech[i].functional, single_pass[i].functional)
                << cell;
            EXPECT_EQ(per_mech[i].mode, single_pass[i].mode) << cell;
            EXPECT_EQ(per_mech[i].mechanism, single_pass[i].mechanism)
                << cell;
            EXPECT_EQ(per_mech[i].workload, single_pass[i].workload)
                << cell;
        }
    }
}

/** A task's (kind, first job, job count, emit group, weight). */
std::vector<std::tuple<TaskKind, std::size_t, std::uint32_t,
                       std::size_t, std::uint64_t>>
taskShapes(const Plan &plan)
{
    std::vector<std::tuple<TaskKind, std::size_t, std::uint32_t,
                           std::size_t, std::uint64_t>>
        shapes;
    for (const Task &task : plan.tasks())
        shapes.emplace_back(task.kind, task.first, task.count,
                            task.group, task.weight);
    return shapes;
}

/**
 * The lowering rules and the LPT weights every execution path
 * schedules by: a Cell weighs costWeight(), a single-pass group
 * costWeight() x width, a checkpoint chain its whole budget per cell.
 * Only adjacent same-stream cells of one mode share a Pass; a fan-out
 * is a Chain under checkpoint warm-up — one per stream in single-pass
 * mode, one per cell otherwise — and independent shard Cells under
 * replay; timed and explicit `spec#k/N` cells pass through.
 */
TEST(Plan, LowersABatchIntoWeightedTasks)
{
    auto cell = [](const char *workload, const char *mech) {
        return SweepJob::functional(WorkloadSpec::parse(workload),
                                    MechanismSpec::parse(mech), kRefs);
    };
    std::vector<SweepJob> jobs = {
        cell("gcc", "rp"), cell("gcc", "dp"), cell("gcc", "sp"),
        cell("mcf", "dp"),
        SweepJob::timed(WorkloadSpec::app("ammp"),
                        MechanismSpec::parse("dp"), kRefs),
        cell("gcc#1/4", "dp")};
    const std::uint64_t kTimed = jobs[4].costWeight();
    const std::uint64_t kShard = jobs[5].costWeight();
    using Shape = std::tuple<TaskKind, std::size_t, std::uint32_t,
                             std::size_t, std::uint64_t>;
    constexpr TaskKind kCell = TaskKind::Cell;

    Plan per = makePlan(jobs, 1, ShardWarmup::Checkpoint,
                        PassMode::PerMechanism);
    EXPECT_EQ(&per.jobs(), &jobs); // borrowed, not copied
    EXPECT_EQ(per.groupSizes(), std::vector<std::uint32_t>(6, 1));
    EXPECT_EQ(taskShapes(per),
              (std::vector<Shape>{{kCell, 0, 1, 0, kRefs},
                                  {kCell, 1, 1, 1, kRefs},
                                  {kCell, 2, 1, 2, kRefs},
                                  {kCell, 3, 1, 3, kRefs},
                                  {kCell, 4, 1, 4, kTimed},
                                  {kCell, 5, 1, 5, kShard}}));

    Plan pass = makePlan(jobs, 1, ShardWarmup::Checkpoint,
                         PassMode::SinglePass);
    EXPECT_EQ(taskShapes(pass),
              (std::vector<Shape>{{TaskKind::Pass, 0, 3, 0, 3 * kRefs},
                                  {kCell, 3, 1, 3, kRefs},
                                  {kCell, 4, 1, 4, kTimed},
                                  {kCell, 5, 1, 5, kShard}}));

    Plan chained = makePlan(jobs, 4, ShardWarmup::Checkpoint,
                            PassMode::SinglePass);
    ASSERT_EQ(chained.jobs().size(), 18u);
    EXPECT_EQ(chained.groupSizes(),
              (std::vector<std::uint32_t>{4, 4, 4, 4, 1, 1}));
    // gcc's three cells share one stream: one chain feeds its windows
    // once for all of them.
    EXPECT_EQ(taskShapes(chained),
              (std::vector<Shape>{{TaskKind::Chain, 0, 12, 0, 3 * kRefs},
                                  {TaskKind::Chain, 12, 4, 3, kRefs},
                                  {kCell, 16, 1, 4, kTimed},
                                  {kCell, 17, 1, 5, kShard}}));

    Plan per_cell = makePlan(jobs, 4, ShardWarmup::Checkpoint,
                             PassMode::PerMechanism);
    EXPECT_EQ(per_cell.groupSizes(), chained.groupSizes());
    std::vector<Shape> chains;
    for (std::size_t g = 0; g < 4; ++g)
        chains.emplace_back(TaskKind::Chain, 4 * g, 4, g, kRefs);
    chains.emplace_back(kCell, 16, 1, 4, kTimed);
    chains.emplace_back(kCell, 17, 1, 5, kShard);
    EXPECT_EQ(taskShapes(per_cell), chains);

    Plan replay = makePlan(jobs, 4, ShardWarmup::Replay,
                           PassMode::PerMechanism);
    ASSERT_EQ(replay.tasks().size(), 18u);
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_EQ(taskShapes(replay)[i],
                  Shape(kCell, i, 1, i / 4,
                        replay.jobs()[i].costWeight()));

    // A worker's chained lease: one Chain over the shards, each its
    // own emit group (the dispatcher that granted them folds).
    std::vector<SweepJob> shards(chained.jobs().begin(),
                                 chained.jobs().begin() + 4);
    EXPECT_EQ(taskShapes(makeChainPlan(shards)),
              (std::vector<Shape>{{TaskKind::Chain, 0, 4, 0, kRefs}}));
}

TEST(SweepEngine, LastBatchStatsReflectTheMostRecentRun)
{
    std::vector<SweepJob> jobs = mixedBatch();
    SweepEngine engine(2);
    (void)engine.run(jobs);
    const ThreadPool::BatchStats &stats = engine.lastBatchStats();
    EXPECT_EQ(stats.jobs, jobs.size());
    ASSERT_EQ(stats.workers.size(), 2u);
    std::uint64_t executed = 0;
    for (const ThreadPool::WorkerStats &w : stats.workers)
        executed += w.jobs;
    EXPECT_EQ(executed, jobs.size());
    EXPECT_GE(stats.busyFractionMax(), stats.busyFractionMin());
}

TEST(SweepEngine, PassModeNamesRoundTrip)
{
    EXPECT_STREQ(passModeName(PassMode::PerMechanism),
                 "per-mechanism");
    EXPECT_STREQ(passModeName(PassMode::SinglePass), "single-pass");
    EXPECT_EQ(parsePassMode("per-mechanism"), PassMode::PerMechanism);
    EXPECT_EQ(parsePassMode("single-pass"), PassMode::SinglePass);
    EXPECT_THROW(parsePassMode("both"), std::invalid_argument);
}

TEST(SweepEngine, ZeroRefJobThrowsFromWorker)
{
    MechanismSpec dp = MechanismSpec::parse("dp");
    std::vector<SweepJob> jobs = {
        SweepJob::functional(WorkloadSpec::app("gcc"), dp, kRefs),
        SweepJob::functional(WorkloadSpec::app("mcf"), dp,
                             0), // malformed
        SweepJob::functional(WorkloadSpec::app("swim"), dp, kRefs),
    };
    SweepEngine engine(4);
    EXPECT_THROW(engine.run(jobs), std::invalid_argument);
}

/**
 * A chain runs every shard on the lead shard's simulator and stream,
 * so a chained lease whose shards belong to different cells must be
 * rejected rather than answered with the lead cell's counters.
 */
TEST(SweepEngine, ChainOverShardsOfTwoCellsThrows)
{
    MechanismSpec dp = MechanismSpec::parse("dp");
    SweepJob lead = SweepJob::functional(
        WorkloadSpec::app("mcf").withShard(0, 2), dp, kRefs);
    for (const SweepJob &other :
         {SweepJob::functional(WorkloadSpec::app("gcc").withShard(1, 2),
                               dp, kRefs),
          SweepJob::functional(WorkloadSpec::app("mcf").withShard(1, 2),
                               MechanismSpec::parse("rp"), kRefs)}) {
        std::vector<SweepJob> shards = {lead, other};
        EXPECT_THROW(SweepEngine(1).run(makeChainPlan(shards)),
                     std::invalid_argument)
            << other.workload.label() << " " << other.spec.label();
    }
}

TEST(SweepEngine, UnknownAppThrowsFromWorker)
{
    MechanismSpec dp = MechanismSpec::parse("dp");
    SweepEngine engine(2);
    EXPECT_THROW(
        engine.run({SweepJob::functional(
            WorkloadSpec::app("no-such-app"), dp, kRefs)}),
        std::invalid_argument);
}

TEST(SweepEngine, BadWorkloadsInsideABatchThrowAfterTheBatchDrains)
{
    // Every flavour of bad workload must come back as the engine's
    // std::invalid_argument — never a process exit from a worker
    // thread — even when sandwiched between healthy cells.
    MechanismSpec dp = MechanismSpec::parse("dp");
    for (const char *bad :
         {"no-such-app", "trace:/nonexistent/trace.tpf",
          "mix:gcc+no-such-app@1k"}) {
        std::vector<SweepJob> jobs = {
            SweepJob::functional(WorkloadSpec::app("gcc"), dp, kRefs),
            SweepJob::functional(WorkloadSpec::parse(bad), dp, kRefs),
            SweepJob::functional(WorkloadSpec::app("swim"), dp, kRefs),
        };
        SweepEngine engine(4);
        EXPECT_THROW(engine.run(jobs), std::invalid_argument) << bad;
    }
}

/** The bench boundary: engine exception -> tlbpf_fatal. */
void
runBatchAtBenchBoundary()
{
    MechanismSpec dp = MechanismSpec::parse("dp");
    std::vector<SweepJob> jobs;
    jobs.push_back(
        SweepJob::functional(WorkloadSpec::app("gcc"), dp, kRefs));
    jobs.push_back(SweepJob::functional(
        WorkloadSpec::app("no-such-app"), dp, kRefs));
    SweepEngine engine(4);
    try {
        engine.run(jobs);
    } catch (const std::invalid_argument &e) {
        tlbpf_fatal(e.what());
    }
    std::exit(2); // not reached
}

TEST(SweepEngine, BenchBoundaryConvertsBatchFailureToCleanFatalExit)
{
    // The bench binaries catch the engine's exception and
    // tlbpf_fatal from the main thread — the documented clean
    // fatal exit (code 1 with the offending workload named), not an
    // abort mid-pool.
    EXPECT_EXIT(runBatchAtBenchBoundary(),
                ::testing::ExitedWithCode(1),
                "unknown application model");
}

TEST(ResultSink, CsvQuotingAndLayout)
{
    std::ostringstream os;
    CsvSink csv(os);
    csv.header({"app", "note"});
    csv.row({"gcc", "plain"});
    csv.row({"mcf", "has,comma"});
    csv.finish();
    EXPECT_EQ(os.str(),
              "app,note\ngcc,plain\nmcf,\"has,comma\"\n");
}

TEST(ResultSink, JsonTypesNumbersAndStrings)
{
    std::ostringstream os;
    JsonSink json(os);
    json.header({"app", "accuracy", "n"});
    json.row({"gcc", "0.500000", "42"});
    json.row({"say \"hi\"", "-0.25", "1e3"});
    json.finish();
    EXPECT_EQ(os.str(),
              "[\n"
              "  {\"app\": \"gcc\", \"accuracy\": 0.500000, "
              "\"n\": 42},\n"
              "  {\"app\": \"say \\\"hi\\\"\", \"accuracy\": -0.25, "
              "\"n\": 1e3}\n"
              "]\n");
}

TEST(ResultSink, JsonRejectsNonJsonNumbers)
{
    EXPECT_EQ(JsonSink::cellValue("nan"), "\"nan\"");
    EXPECT_EQ(JsonSink::cellValue("-nan"), "\"-nan\"");
    EXPECT_EQ(JsonSink::cellValue("inf"), "\"inf\"");
    EXPECT_EQ(JsonSink::cellValue("-infinity"), "\"-infinity\"");
    EXPECT_EQ(JsonSink::cellValue("0x10"), "\"0x10\"");
    EXPECT_EQ(JsonSink::cellValue("12abc"), "\"12abc\"");
    EXPECT_EQ(JsonSink::cellValue("007"), "\"007\"");
    EXPECT_EQ(JsonSink::cellValue("1."), "\"1.\"");
    EXPECT_EQ(JsonSink::cellValue(".5"), "\".5\"");
    EXPECT_EQ(JsonSink::cellValue("-"), "\"-\"");
    EXPECT_EQ(JsonSink::cellValue("1e"), "\"1e\"");
    EXPECT_EQ(JsonSink::cellValue(""), "\"\"");
    EXPECT_EQ(JsonSink::cellValue("-3.5"), "-3.5");
    EXPECT_EQ(JsonSink::cellValue("0.25"), "0.25");
    EXPECT_EQ(JsonSink::cellValue("2e-3"), "2e-3");
    EXPECT_EQ(JsonSink::cellValue("0"), "0");
}

TEST(ResultSink, MultiSinkFansOut)
{
    std::ostringstream csv_os;
    std::ostringstream json_os;
    MultiSink multi;
    EXPECT_TRUE(multi.empty());
    multi.add(std::make_unique<CsvSink>(csv_os));
    multi.add(std::make_unique<JsonSink>(json_os));
    EXPECT_FALSE(multi.empty());
    multi.header({"k"});
    multi.row({"v"});
    multi.finish();
    EXPECT_EQ(csv_os.str(), "k\nv\n");
    EXPECT_NE(json_os.str().find("\"k\": \"v\""), std::string::npos);
}

TEST(Experiment, ParallelAccuracySweepMatchesSerial)
{
    std::vector<AccuracyCell> serial =
        accuracySweep("galgel", table2Specs(), kRefs, SimConfig{}, 1);
    std::vector<AccuracyCell> parallel =
        accuracySweep("galgel", table2Specs(), kRefs, SimConfig{}, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].label, parallel[i].label);
        EXPECT_EQ(serial[i].accuracy, parallel[i].accuracy);
        EXPECT_EQ(serial[i].missRate, parallel[i].missRate);
    }
}

} // namespace
} // namespace tlbpf
