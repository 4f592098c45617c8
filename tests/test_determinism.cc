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

#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "../fuzz/snapshot_pairs.hh"
#include "prefetch/recency.hh"
#include "run/result_sink.hh"
#include "run/sweep_engine.hh"
#include "service/store_util.hh"
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

/** Offset of the flag byte: magic, version, TLB and buffer geometry. */
constexpr std::size_t kTrainOnAllRefsAt = 4 + 1 + 4 + 4 + 4 + 8;

/**
 * Restore reads only what snapshot() writes, so every accepted
 * checkpoint re-serializes to itself: a train_on_all_refs byte of 2 is
 * rejected, not read as true (and written back as 1).
 */
TEST(Checkpoint, RestoreRejectsAFlagByteOtherThanZeroAndOne)
{
    SimConfig config;
    config.trainOnAllRefs = true;
    MechanismSpec dp = MechanismSpec::parse("DP,256,D");
    auto refs = collect(*buildApp("mcf", 5000), 5000);
    FunctionalSimulator sim(config, dp);
    for (const MemRef &ref : refs)
        sim.process(ref);
    SimState snap = sim.snapshot();
    ASSERT_EQ(snap.bytes[kTrainOnAllRefsAt], 1);
    FunctionalSimulator restored(config, dp);
    EXPECT_NO_THROW(restored.restore(snap));
    snap.bytes[kTrainOnAllRefsAt] = 2;
    EXPECT_THROW(restored.restore(snap), std::invalid_argument);
}

/**
 * RP links only pages the TLB has evicted and pushes a page again when
 * the TLB next evicts it, so a page both TLB-resident and on the stack
 * is unreachable: at its eviction RecencyStack::push would panic.
 * Change one byte of a real RP checkpoint, the low byte of a resident
 * page's VPN in the TLB section, so the TLB holds a page that is on the
 * stack instead.  Restore must reject it.
 */
TEST(Checkpoint, RestoreRejectsATlbResidentPageOnTheRecencyStack)
{
    SimConfig config;
    MechanismSpec rp = MechanismSpec::parse("rp");
    auto refs = collect(*buildApp("mcf", 10000), 10000);
    FunctionalSimulator sim(config, rp);
    for (const MemRef &ref : refs)
        sim.process(ref);
    (void)sim.result();
    SimState snap = sim.snapshot();
    ASSERT_EQ(sim.tlb().residentCount(), config.tlb.entries);
    const auto *recency =
        dynamic_cast<const RecencyPrefetcher *>(sim.prefetcher());
    ASSERT_NE(recency, nullptr);

    // The TLB section follows the flag byte, the context-switch
    // interval, the label and ten counters: its clock, its slot count,
    // then per full slot a valid byte, the VPN and the use clock.
    const std::size_t slots =
        kTrainOnAllRefsAt + 1 + 8 + 8 + std::string("RP").size() + 10 * 8 +
        8 + 8;
    std::optional<std::size_t> at;
    std::uint8_t low = 0;
    for (std::size_t slot = 0; slot < config.tlb.entries && !at; ++slot) {
        std::size_t vpn_at = slots + 17 * slot + 1;
        ASSERT_EQ(snap.bytes[vpn_at - 1], 1) << "slot " << slot;
        Vpn vpn = 0;
        for (int b = 7; b >= 0; --b)
            vpn = vpn << 8 | snap.bytes[vpn_at + b];
        ASSERT_TRUE(sim.tlb().contains(vpn)) << "slot " << slot;
        for (unsigned flip = 1; flip < 256 && !at; ++flip) {
            Vpn other = vpn ^ flip;
            if (recency->stack().contains(other) &&
                !sim.tlb().contains(other)) {
                at = vpn_at;
                low = static_cast<std::uint8_t>(other);
            }
        }
    }
    ASSERT_TRUE(at.has_value());

    FunctionalSimulator restored(config, rp);
    EXPECT_NO_THROW(restored.restore(snap));
    snap.bytes[*at] = low;
    try {
        restored.restore(snap);
        ADD_FAILURE() << "restore accepted a resident page on the stack";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("recency stack"),
                  std::string::npos)
            << e.what();
    }
}

/**
 * A store written by an older build holds checkpoints of an older
 * format, which restore() rejects ("unsupported checkpoint version").
 * An explicit shard then replays its prefix: the result equals the
 * store-less run's, and the store ends up holding a current checkpoint
 * at that key which restores.
 */
TEST(Checkpoint, AnOlderVersionFallsBackToReplayAndIsReplaced)
{
    class MapHook : public CheckpointHook
    {
      public:
        bool
        load(const std::string &key, SimState &out) override
        {
            auto found = stored.find(key);
            if (found == stored.end())
                return false;
            out.bytes = found->second;
            return true;
        }
        void
        store(const std::string &key, const SimState &state) override
        {
            stored[key] = state.bytes;
        }
        std::map<std::string, std::vector<std::uint8_t>> stored;
    };

    SweepJob job = SweepJob::functional(WorkloadSpec::parse("mcf#2/4"),
                                        MechanismSpec::parse("DP,256,D"),
                                        20000);
    const std::uint64_t begin = job.workload.shardWindow(job.refs).first;
    FunctionalSimulator warm(job.config, job.spec);
    auto stream = job.workload.base().build(job.refs);
    (void)simulateWindow(warm, *stream, begin);
    SimState current = warm.snapshot();
    std::vector<std::uint8_t> old = current.bytes;
    old[4] = 1; // the version byte
    const std::string key = checkpointKey(job, begin);
    MapHook hook;
    hook.stored[key] = old;
    FunctionalSimulator probe(job.config, job.spec);
    EXPECT_THROW(probe.restore(SimState{old}), std::invalid_argument);

    SweepResult served = runSweepJob(job, &hook);
    SweepResult replayed = runSweepJob(job);
    EXPECT_EQ(counters(served.functional), counters(replayed.functional));
    ASSERT_EQ(hook.stored.count(key), 1u);
    EXPECT_EQ(hook.stored[key], current.bytes);
    FunctionalSimulator fresh(job.config, job.spec);
    EXPECT_NO_THROW(fresh.restore(SimState{hook.stored[key]}));
}

/**
 * fuzz_snapshot's committed seeds are current checkpoints, one per
 * (config, mechanism) pair; after a format change, regenerate them with
 * make_snapshot_seeds (fuzz/CMakeLists.txt).
 */
TEST(Checkpoint, FuzzSeedsAreCurrentCheckpoints)
{
    using namespace tlbpf::fuzz;
    for (std::size_t i = 0; i < kSnapshotPairs.size(); ++i) {
        const SnapshotPair &pair = kSnapshotPairs[i];
        std::ifstream file(std::string(TLBPF_TEST_DATA_DIR) +
                               "/../../fuzz/corpus/snapshot/" + pair.seed,
                           std::ios::binary);
        ASSERT_TRUE(file) << pair.seed;
        std::vector<std::uint8_t> seed(
            (std::istreambuf_iterator<char>(file)),
            std::istreambuf_iterator<char>());
        EXPECT_TRUE(seed == seedInput(i)) << pair.seed << " is stale";
        ASSERT_FALSE(seed.empty());
        FunctionalSimulator sim = pairSimulator(pair);
        EXPECT_NO_THROW(sim.restore(
            SimState{std::vector<std::uint8_t>(seed.begin() + 1, seed.end())}))
            << pair.seed;
    }
}

/**
 * A chain runs its shards on one simulator and snapshots it only for
 * the hook.  Every state a 4-shard checkpoint plan stores must be
 * byte-identical to the snapshot() of one uninterrupted per-mechanism
 * simulator stopped at the same position, so the states a chain
 * persists warm later explicit-shard requests exactly.  A single-pass
 * plan runs the whole batch as one chain over the shared front end,
 * yet must store exactly the per-mechanism chains' key->bytes map, in
 * every geometry a checkpoint records.  The digests pin the format
 * itself: they were taken from the per-cell simulator before the
 * shared front end took over.
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

    constexpr std::uint64_t kChainRefs = 20000;
    const std::vector<MechanismSpec> mechs = {
        MechanismSpec::parse("rp"),
        MechanismSpec::parse("rp(reach=2)"),
        MechanismSpec::parse("DP,256,D"),
        MechanismSpec::parse("MP,256,F"),
        MechanismSpec::parse("hybrid(dp+sp)"),
        MechanismSpec::parse("hybrid(RP+DP,256,D)"),
        MechanismSpec::parse("ASQ")};
    std::vector<SimConfig> configs(4);
    configs[1].contextSwitchInterval = 3000;
    configs[2].trainOnAllRefs = true;
    configs[3].pbEntries = 4;
    configs[3].tlb = TlbConfig{64, 4};
    auto refs = collect(*WorkloadSpec::app("mcf").build(kChainRefs),
                        kChainRefs);
    ASSERT_EQ(refs.size(), kChainRefs);

    std::map<std::string, std::vector<std::uint8_t>> defaults;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        std::vector<SweepJob> jobs;
        for (const MechanismSpec &spec : mechs)
            jobs.push_back(SweepJob::functional(
                WorkloadSpec::app("mcf"), spec, kChainRefs, configs[c]));
        std::map<PassMode, RecordingHook> hooks;
        for (PassMode mode : {PassMode::SinglePass, PassMode::PerMechanism}) {
            Plan plan = makePlan(jobs, 4, ShardWarmup::Checkpoint, mode);
            EXPECT_EQ(plan.tasks().size(),
                      mode == PassMode::SinglePass ? 1u : mechs.size())
                << "config " << c;
            SweepEngine engine(1);
            engine.setCheckpointHook(&hooks[mode]);
            (void)engine.run(plan);
        }
        const auto &stored = hooks[PassMode::SinglePass].stored;
        EXPECT_EQ(stored.size(), 4 * mechs.size()) << "config " << c;
        EXPECT_TRUE(stored == hooks[PassMode::PerMechanism].stored)
            << "config " << c
            << ": single-pass and per-mechanism chains store different "
               "checkpoints";

        for (const SweepJob &job : jobs) {
            const std::string mech = job.spec.label();
            FunctionalSimulator sim(job.config, job.spec);
            std::uint64_t pos = 0;
            for (std::uint32_t k = 0; k < 4; ++k) {
                std::uint64_t end = job.workload.withShard(k, 4)
                                        .shardWindow(kChainRefs)
                                        .second;
                for (; pos < end; ++pos)
                    sim.process(refs[pos]);
                (void)sim.result(); // a snapshot records result()'s counters
                auto found = stored.find(checkpointKey(job, end));
                ASSERT_NE(found, stored.end())
                    << mech << " at " << end << ", config " << c;
                EXPECT_EQ(found->second, sim.snapshot().bytes)
                    << mech << " at " << end << ", config " << c;
            }
        }
        if (c == 0)
            defaults = stored;
    }

    // The v2 format, pinned: size and contentAddress() of the bytes
    // stored at position 10000 (end of shard 2 of 4) under the default
    // geometry.
    struct Pin
    {
        const char *mech;
        std::size_t bytes;
        const char *digest;
    };
    for (const Pin &pin : {Pin{"rp", 6546, "5d380c31284bd995"},
                           Pin{"hybrid(RP+DP,256,D)", 6944,
                               "b6ace90fe33a625e"},
                           Pin{"DP,256,D", 3674, "84a3c7bee698ea05"},
                           Pin{"MP,256,F", 6610, "b6dcf4c07154c84c"}}) {
        SweepJob job = SweepJob::functional(
            WorkloadSpec::app("mcf"), MechanismSpec::parse(pin.mech),
            kChainRefs);
        auto found = defaults.find(checkpointKey(job, 10000));
        ASSERT_NE(found, defaults.end()) << pin.mech;
        EXPECT_EQ(found->second.size(), pin.bytes) << pin.mech;
        EXPECT_EQ(contentAddress(std::string(found->second.begin(),
                                             found->second.end())),
                  pin.digest)
            << pin.mech;
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
