/**
 * @file
 * Tests for the distributed dispatch subsystem: the worker wire verbs
 * (strict encode/decode), the Dispatcher's lease lifecycle under
 * failure (dead worker mid-lease, expired lease discarded without
 * double-counting, heartbeats keeping a slow-but-alive worker's work,
 * worker-side errors requeueing local-only, chains — a stream's
 * multi-cell chain included — and single-pass groups granted alone and
 * merged bit-identically), the worker's runner on hand-made chain
 * grants (per-shard answers, an error for cells that do not share a
 * stream), one byte-identity matrix over every lowering of a mixed
 * batch and every fleet size, the server's worker sessions (malformed cell_result drops only that
 * worker; --max-clients sheds with an error frame; concurrent clients
 * account a shared cache exactly; a worker fleet produces
 * byte-identical sweeps; no-wait leases never stall; a held lease is
 * granted when a sweep arrives, capped at half the lease timeout and
 * ended by a stop; a refused worker names the reason), and the
 * disk-store eviction sweep (TTL, LRU budget, touch-on-read recency).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fcntl.h>
#include <memory>
#include <netinet/in.h>
#include <sstream>
#include <stdexcept>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "dispatch/dispatch_protocol.hh"
#include "dispatch/dispatcher.hh"
#include "dispatch/worker.hh"
#include "run/result_sink.hh"
#include "run/sweep_engine.hh"
#include "service/client.hh"
#include "service/json.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "service/store_util.hh"
#include "util/check.hh"
#include "util/logging.hh"

namespace tlbpf
{
namespace
{

constexpr std::uint64_t kRefs = 20000;

/** A fresh empty directory under the test temp root. */
std::string
makeTempDir()
{
    std::string pattern = ::testing::TempDir() + "tlbpf_dsp_XXXXXX";
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    const char *dir = ::mkdtemp(buf.data());
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "";
}

/** Raw client socket, for tests that speak the wire by hand. */
OwnedFd
rawConnect(std::uint16_t port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    return OwnedFd(fd);
}

/** A grid of plain functional cells (one group per cell). */
std::vector<SweepJob>
functionalGrid(const std::vector<const char *> &apps,
               const std::vector<const char *> &mechs,
               std::uint64_t refs = kRefs)
{
    std::vector<SweepJob> jobs;
    for (const char *app : apps)
        for (const char *mech : mechs)
            jobs.push_back(SweepJob::functional(
                WorkloadSpec::app(app), MechanismSpec::parse(mech),
                refs));
    return jobs;
}

/** One Cell task per job; borrows @p jobs. */
Plan
singletonPlan(const std::vector<SweepJob> &jobs)
{
    return makePlan(jobs, 1, ShardWarmup::Replay, PassMode::PerMechanism);
}

/** Register + promote a raw socket to a worker session by hand. */
WorkerWelcome
rawWorkerHello(int fd, unsigned threads = 2)
{
    WorkerHello hello;
    hello.threads = threads;
    writeFrame(fd, hello.encode());
    JsonValue message;
    std::string type;
    EXPECT_TRUE(readMessage(fd, message, type));
    EXPECT_EQ(type, "worker_welcome");
    return WorkerWelcome::decode(message);
}

/** Seconds since @p start on the steady clock. */
double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Send one lease request by hand and read its answer's type. */
std::string
rawLease(int fd, std::uint64_t worker, bool wait, JsonValue &message)
{
    writeFrame(fd, encodeLeaseRequest(worker, wait));
    std::string type;
    EXPECT_TRUE(readMessage(fd, message, type));
    return type;
}

/** Set a file's mtime to @p seconds_ago before now. */
void
ageFile(const std::string &path, std::uint64_t seconds_ago)
{
    timespec times[2];
    ::clock_gettime(CLOCK_REALTIME, &times[0]);
    times[0].tv_sec -= static_cast<time_t>(seconds_ago);
    times[1] = times[0];
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
}

void
writeBytes(const std::string &path, std::size_t count)
{
    std::vector<std::uint8_t> bytes(count, 0x5a);
    ASSERT_TRUE(writeFileBytesAtomic(path, bytes.data(), count));
}

bool
fileExists(const std::string &path)
{
    struct stat info;
    return ::stat(path.c_str(), &info) == 0;
}

/**
 * Heavy enough that a batch is in flight for ~100ms — plenty for the
 * lease-acquisition spin below to win against the local drain loops.
 */
constexpr std::uint64_t kSlowRefs = 1000000;

/**
 * Spin for a lease while the batch is still running.  Returns false
 * (instead of hanging) if the batch drained before a grant landed —
 * callers ASSERT on it, so a scheduling fluke fails loudly and fast.
 */
bool
leaseSoon(Dispatcher &dispatcher, std::uint64_t worker,
          LeaseGrant &out, const std::atomic<bool> &batch_done)
{
    while (!batch_done.load()) {
        if (dispatcher.lease(worker, out))
            return true;
        std::this_thread::yield();
    }
    return false;
}

// --------------------------------------------------------- wire verbs

TEST(DispatchProtocol, VerbsRoundTripExactly)
{
    WorkerHello hello;
    hello.threads = 8;
    WorkerHello hello2 =
        WorkerHello::decode(JsonValue::parse(hello.encode()));
    EXPECT_EQ(hello2.protocol, kDispatchProtocolVersion);
    EXPECT_EQ(hello2.threads, 8u);

    WorkerWelcome welcome;
    welcome.worker = 7;
    welcome.heartbeatMs = 500;
    WorkerWelcome welcome2 =
        WorkerWelcome::decode(JsonValue::parse(welcome.encode()));
    EXPECT_EQ(welcome2.worker, 7u);
    EXPECT_EQ(welcome2.heartbeatMs, 500u);

    LeaseGrant grant;
    grant.lease = 42;
    grant.chain = true;
    grant.jobs = functionalGrid({"gcc"}, {"rp", "dp"});
    LeaseGrant grant2 =
        LeaseGrant::decode(JsonValue::parse(grant.encode()));
    EXPECT_EQ(grant2.lease, 42u);
    EXPECT_TRUE(grant2.chain);
    ASSERT_EQ(grant2.jobs.size(), 2u);
    EXPECT_EQ(grant2.jobs[0].workload.label(),
              grant.jobs[0].workload.label());
    EXPECT_EQ(grant2.jobs[1].spec.canonical(),
              grant.jobs[1].spec.canonical());
    EXPECT_EQ(grant2.jobs[0].refs, kRefs);

    LeaseRequest now =
        decodeLeaseRequest(JsonValue::parse(encodeLeaseRequest(3)));
    EXPECT_EQ(now.worker, 3u);
    EXPECT_FALSE(now.wait);
    // A no-wait lease keeps protocol 1's bytes.
    EXPECT_EQ(encodeLeaseRequest(3), "{\"type\":\"lease\",\"worker\":3}");
    LeaseRequest held = decodeLeaseRequest(
        JsonValue::parse(encodeLeaseRequest(3, true)));
    EXPECT_EQ(held.worker, 3u);
    EXPECT_TRUE(held.wait);
    EXPECT_FALSE(decodeLeaseRequest(
                     JsonValue::parse("{\"type\":\"lease\",\"worker\":3,"
                                      "\"wait\":false}"))
                     .wait);
    EXPECT_EQ(decodeHeartbeat(JsonValue::parse(encodeHeartbeat(9))),
              9u);
    EXPECT_EQ(JsonValue::parse(encodeLeaseIdle()).at("type").asString(),
              "lease_idle");
    EXPECT_TRUE(
        decodeResultAck(JsonValue::parse(encodeResultAck(true))));
    EXPECT_FALSE(
        decodeResultAck(JsonValue::parse(encodeResultAck(false))));

    // A completed lease's counters survive the wire bit-for-bit.
    CellResultMsg answer;
    answer.lease = 42;
    answer.results.push_back(runSweepJob(grant.jobs[0]));
    answer.results.push_back(runSweepJob(grant.jobs[1]));
    CellResultMsg answer2 =
        CellResultMsg::decode(JsonValue::parse(answer.encode()));
    EXPECT_FALSE(answer2.failed());
    ASSERT_EQ(answer2.results.size(), 2u);
    EXPECT_EQ(answer2.results[0].functional,
              answer.results[0].functional);
    EXPECT_EQ(answer2.results[1].functional,
              answer.results[1].functional);

    CellResultMsg failure;
    failure.lease = 42;
    failure.error = "no such trace";
    CellResultMsg failure2 =
        CellResultMsg::decode(JsonValue::parse(failure.encode()));
    EXPECT_TRUE(failure2.failed());
    EXPECT_EQ(failure2.error, "no such trace");
}

TEST(DispatchProtocol, RejectsMalformedVerbs)
{
    for (const char *bad : {
             // Protocol versions outside [1, 2].
             "{\"type\":\"worker_hello\",\"protocol\":0,"
             "\"threads\":1}",
             "{\"type\":\"worker_hello\",\"protocol\":3,"
             "\"threads\":1}",
             // Unknown key (strictness contract).
             "{\"type\":\"worker_hello\",\"protocol\":1,"
             "\"threads\":1,\"x\":1}",
             // Zero threads.
             "{\"type\":\"worker_hello\",\"protocol\":1,"
             "\"threads\":0}",
         })
        EXPECT_THROW(
            WorkerHello::decode(JsonValue::parse(bad)),
            std::invalid_argument)
            << "input: " << bad;

    // Both versions the server speaks register.
    for (std::uint32_t version : {1u, 2u})
        EXPECT_EQ(WorkerHello::decode(
                      JsonValue::parse(
                          "{\"type\":\"worker_hello\",\"protocol\":" +
                          std::to_string(version) + ",\"threads\":1}"))
                      .protocol,
                  version);

    // A lease's wait is a boolean, nothing else.
    for (const char *bad : {
             "{\"type\":\"lease\",\"worker\":1,\"wait\":1}",
             "{\"type\":\"lease\",\"worker\":1,\"wait\":\"true\"}",
             "{\"type\":\"lease\",\"worker\":1,\"wait\":null}",
             "{\"type\":\"lease\",\"worker\":1,\"wait_ms\":10}",
         })
        EXPECT_THROW(decodeLeaseRequest(JsonValue::parse(bad)),
                     std::invalid_argument)
            << "input: " << bad;

    // A grant must carry at least one job.
    EXPECT_THROW(LeaseGrant::decode(JsonValue::parse(
                     "{\"type\":\"lease_grant\",\"lease\":1,"
                     "\"chain\":false,\"jobs\":[]}")),
                 std::invalid_argument);

    // A grant whose geometry no simulator can build is rejected at
    // decode, as a sweep request's is: running it would kill the
    // worker.  The empty config is the control.
    auto grantWith = [](const std::string &config) {
        return JsonValue::parse(
            "{\"type\":\"lease_grant\",\"lease\":1,\"chain\":false,"
            "\"jobs\":[{\"workload\":\"mcf\",\"mechanism\":\"DP,256,D\","
            "\"refs\":1000,\"config\":" +
            config + "}]}");
    };
    EXPECT_NO_THROW(LeaseGrant::decode(grantWith("{}")));
    for (const char *config : {
             "{\"page_bytes\":0}",
             "{\"tlb_entries\":0}",
             "{\"pb_entries\":0}",
             "{\"tlb_entries\":128,\"tlb_assoc\":3}",
         })
        EXPECT_THROW(LeaseGrant::decode(grantWith(config)),
                     std::invalid_argument)
            << "config: " << config;

    // A cell_result is a success XOR an error, never both or neither.
    for (const char *bad : {
             "{\"type\":\"cell_result\",\"lease\":1}",
             "{\"type\":\"cell_result\",\"lease\":1,"
             "\"results\":[]}",
             "{\"type\":\"cell_result\",\"lease\":1,\"error\":\"\"}",
         })
        EXPECT_THROW(
            CellResultMsg::decode(JsonValue::parse(bad)),
            std::invalid_argument)
            << "input: " << bad;
}

// --------------------------------------------- dispatcher lease cycle

TEST(Dispatcher, DeadWorkerMidLeaseIsReclaimedAndBatchCompletes)
{
    SweepEngine engine(2);
    DispatcherOptions options;
    options.leaseTimeoutMs = 60000; // only the death path reclaims
    Dispatcher dispatcher(engine, options);

    std::vector<SweepJob> jobs = functionalGrid(
        {"gcc", "mcf", "swim", "art"}, {"rp", "dp"}, kSlowRefs);
    Plan plan = singletonPlan(jobs);

    std::uint64_t worker = dispatcher.registerWorker(2);
    std::atomic<bool> batch_done{false};
    std::vector<std::size_t> order;
    std::vector<SweepResult> results;
    std::thread batch([&] {
        results = dispatcher.runBatch(
            plan,
            [&](std::size_t i, const SweepResult &) {
                order.push_back(i);
            });
        batch_done.store(true);
    });

    // Take a lease, then die without answering it.
    LeaseGrant grant;
    ASSERT_TRUE(leaseSoon(dispatcher, worker, grant, batch_done));
    EXPECT_GT(grant.jobs.size(), 0u);
    dispatcher.unregisterWorker(worker);
    batch.join();

    // The batch completed locally, every cell exactly once, in
    // submission order, bit-identical to a plain engine run.
    ASSERT_EQ(order.size(), jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
    std::vector<SweepResult> direct = engine.run(jobs);
    ASSERT_EQ(results.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(results[i].functional, direct[i].functional)
            << "cell " << i;
    EXPECT_GE(dispatcher.counters().leaseReclaims, 1u);

    // A result for the dead worker's lease is discarded, not applied.
    EXPECT_FALSE(dispatcher.completeLease(grant.lease, {}));
    EXPECT_EQ(dispatcher.lastBatchStats().remoteCells, 0u);
}

TEST(Dispatcher, ExpiredLeaseResultIsDiscardedNotDoubleCounted)
{
    SweepEngine engine(2);
    DispatcherOptions options;
    options.leaseTimeoutMs = 150; // expire fast; never heartbeat
    Dispatcher dispatcher(engine, options);

    std::vector<SweepJob> jobs =
        functionalGrid({"gcc", "mcf"}, {"rp", "dp"}, kSlowRefs);
    Plan plan = singletonPlan(jobs);

    std::uint64_t worker = dispatcher.registerWorker(1);
    std::atomic<bool> batch_done{false};
    std::atomic<std::uint64_t> streamed{0};
    std::vector<SweepResult> results;
    std::thread batch([&] {
        results = dispatcher.runBatch(
            plan,
            [&](std::size_t, const SweepResult &) {
                streamed.fetch_add(1);
            });
        batch_done.store(true);
    });

    LeaseGrant grant;
    ASSERT_TRUE(leaseSoon(dispatcher, worker, grant, batch_done));
    // Sit on the lease past its deadline: a local drain loop reclaims
    // it and the batch finishes without us.
    batch.join();
    EXPECT_GE(dispatcher.counters().leaseReclaims, 1u);

    // The late result must be discarded — its cells were already
    // emitted once by the reclaim path.
    std::vector<SweepResult> late(grant.jobs.size());
    EXPECT_FALSE(dispatcher.completeLease(grant.lease,
                                          std::move(late)));
    EXPECT_EQ(streamed.load(), jobs.size()); // exactly once each

    std::vector<SweepResult> direct = engine.run(jobs);
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(results[i].functional, direct[i].functional);
    dispatcher.unregisterWorker(worker);
}

/**
 * The OrderedEmitter sits between the dispatcher and the caller's
 * callback: results may complete in any order, but delivery is
 * submission order, and the TLBPF_DCHECK layer guards the two ways
 * that contract can rot — double completion and range overrun.
 */
TEST(OrderedEmitter, DeliversSubmissionOrderAcrossAnyCompletionOrder)
{
    std::vector<SweepResult> results(4);
    std::vector<std::size_t> order;
    SweepEngine::ResultCallback cb =
        [&](std::size_t i, const SweepResult &) {
            order.push_back(i);
        };
    OrderedEmitter emitter(cb, results);
    emitter.complete(2, 1);
    emitter.complete(3, 1);
    EXPECT_TRUE(order.empty()); // slot 0 still pending
    emitter.complete(0, 1);
    ASSERT_EQ(order.size(), 1u);
    EXPECT_EQ(order[0], 0u);
    emitter.complete(1, 1); // releases the whole held-back tail
    ASSERT_EQ(order.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(OrderedEmitter, DoubleCompletionTripsTheInvariant)
{
    if (!dchecksEnabled())
        GTEST_SKIP() << "TLBPF_DCHECK is compiled out of this build";
    ScopedCheckFailThrow guard;
    std::vector<SweepResult> results(3);
    SweepEngine::ResultCallback cb;
    OrderedEmitter emitter(cb, results);
    emitter.complete(1, 1);
    // Completing the same slot again is the double-accounting the
    // dispatcher's lease-discard path exists to prevent.
    EXPECT_THROW(emitter.complete(1, 1), CheckFailure);
    // Overlap through a range hits the same wall.
    EXPECT_THROW(emitter.complete(0, 2), CheckFailure);
}

TEST(OrderedEmitter, CompletionBeyondTheBatchTripsTheInvariant)
{
    if (!dchecksEnabled())
        GTEST_SKIP() << "TLBPF_DCHECK is compiled out of this build";
    ScopedCheckFailThrow guard;
    std::vector<SweepResult> results(4);
    SweepEngine::ResultCallback cb;
    OrderedEmitter emitter(cb, results);
    EXPECT_THROW(emitter.complete(3, 2), CheckFailure);
    EXPECT_THROW(emitter.complete(5, 0), CheckFailure);
    emitter.complete(3, 1); // the in-range suffix is still fine
}

/**
 * A result for a reclaimed lease must take the graceful discard path
 * (completeLease == false) and never reach the emitter — whose
 * double-completion DCHECK stays armed throughout to prove it.  The
 * wrong-size payload on a live lease is the protocol-level rejection
 * (invalid_argument), not an invariant failure.
 */
TEST(Dispatcher, ReclaimedLeaseCompletionIsDiscardedNotDoubleEmitted)
{
    ScopedCheckFailThrow guard; // any stray DCHECK becomes a throw
    SweepEngine engine(2);
    DispatcherOptions options;
    options.leaseTimeoutMs = 150; // expire fast; never heartbeat
    Dispatcher dispatcher(engine, options);

    std::vector<SweepJob> jobs =
        functionalGrid({"gcc", "mcf"}, {"rp", "dp"}, kSlowRefs);
    Plan plan = singletonPlan(jobs);

    std::uint64_t worker = dispatcher.registerWorker(1);
    std::atomic<bool> batch_done{false};
    std::atomic<std::uint64_t> streamed{0};
    std::thread batch([&] {
        (void)dispatcher.runBatch(
            plan,
            [&](std::size_t, const SweepResult &) {
                streamed.fetch_add(1);
            });
        batch_done.store(true);
    });

    LeaseGrant grant;
    ASSERT_TRUE(leaseSoon(dispatcher, worker, grant, batch_done));
    batch.join(); // the deadline passes; the batch drains locally
    EXPECT_GE(dispatcher.counters().leaseReclaims, 1u);

    // A correctly-shaped payload for the reclaimed lease: discarded,
    // and the emitter (already fully completed once) never sees it.
    std::vector<SweepResult> late(grant.jobs.size());
    EXPECT_FALSE(
        dispatcher.completeLease(grant.lease, std::move(late)));
    EXPECT_EQ(streamed.load(), jobs.size());
    dispatcher.unregisterWorker(worker);
}

TEST(Dispatcher, WrongSizedPayloadOnALiveLeaseIsRejected)
{
    SweepEngine engine(2);
    DispatcherOptions options;
    options.leaseTimeoutMs = 60000; // stays live for the whole test
    Dispatcher dispatcher(engine, options);

    std::vector<SweepJob> jobs =
        functionalGrid({"gcc", "mcf"}, {"rp", "dp"}, kSlowRefs);
    Plan plan = singletonPlan(jobs);

    std::uint64_t worker = dispatcher.registerWorker(1);
    std::atomic<bool> batch_done{false};
    std::thread batch([&] {
        (void)dispatcher.runBatch(
            plan,
            SweepEngine::ResultCallback());
        batch_done.store(true);
    });

    LeaseGrant grant;
    ASSERT_TRUE(leaseSoon(dispatcher, worker, grant, batch_done));
    std::vector<SweepResult> short_payload(grant.jobs.size() - 1);
    EXPECT_THROW(
        dispatcher.completeLease(grant.lease,
                                 std::move(short_payload)),
        std::invalid_argument);
    // The lease is still live after the rejection; the real payload
    // completes it normally.
    std::vector<SweepResult> payload(grant.jobs.size());
    EXPECT_TRUE(
        dispatcher.completeLease(grant.lease, std::move(payload)));
    batch.join();
    dispatcher.unregisterWorker(worker);
}

TEST(Dispatcher, HeartbeatKeepsASlowButAliveWorkersLease)
{
    SweepEngine engine(1);
    DispatcherOptions options;
    options.leaseTimeoutMs = 250;
    Dispatcher dispatcher(engine, options);

    std::vector<SweepJob> jobs =
        functionalGrid({"gcc", "mcf"}, {"rp", "dp"}, kSlowRefs);
    Plan plan = singletonPlan(jobs);

    std::uint64_t worker = dispatcher.registerWorker(2);
    std::atomic<bool> batch_done{false};
    std::vector<SweepResult> results;
    std::thread batch([&] {
        results = dispatcher.runBatch(
            plan,
            [](std::size_t, const SweepResult &) {});
        batch_done.store(true);
    });

    LeaseGrant grant;
    ASSERT_TRUE(leaseSoon(dispatcher, worker, grant, batch_done));

    // Hold the lease well past two full timeout windows, heartbeating
    // the whole way: the dispatcher must NOT reclaim it.  The pulse
    // keeps running through the compute below, as a real worker's
    // heartbeat thread does (compute alone can outlast the timeout on
    // instrumented builds).
    std::atomic<bool> hold_done{false};
    std::thread pulse([&] {
        while (!hold_done.load()) {
            dispatcher.heartbeat(worker);
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    std::vector<SweepResult> computed;
    for (const SweepJob &job : grant.jobs)
        computed.push_back(runSweepJob(job));
    EXPECT_TRUE(
        dispatcher.completeLease(grant.lease, std::move(computed)));
    hold_done.store(true);
    pulse.join();
    batch.join();

    EXPECT_EQ(dispatcher.counters().leaseReclaims, 0u);
    Dispatcher::BatchStats stats = dispatcher.lastBatchStats();
    EXPECT_EQ(stats.remoteCells, grant.jobs.size());
    EXPECT_EQ(stats.cells, jobs.size());
    double busy = 0;
    for (const auto &entry : stats.workerBusy)
        if (entry.first == worker)
            busy = entry.second;
    EXPECT_GT(busy, 0.4); // it held the lease for >= 600ms

    std::vector<SweepResult> direct = engine.run(jobs);
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(results[i].functional, direct[i].functional);
    dispatcher.unregisterWorker(worker);
}

TEST(Dispatcher, FailedLeaseRerunsLocallyOnly)
{
    SweepEngine engine(2);
    DispatcherOptions options;
    options.leaseTimeoutMs = 60000;
    Dispatcher dispatcher(engine, options);

    std::vector<SweepJob> jobs =
        functionalGrid({"gcc", "mcf"}, {"rp", "dp"}, kSlowRefs);
    Plan plan = singletonPlan(jobs);

    std::uint64_t worker = dispatcher.registerWorker(1);
    std::atomic<bool> batch_done{false};
    std::vector<SweepResult> results;
    std::thread batch([&] {
        results = dispatcher.runBatch(
            plan,
            [](std::size_t, const SweepResult &) {});
        batch_done.store(true);
    });

    LeaseGrant grant;
    ASSERT_TRUE(leaseSoon(dispatcher, worker, grant, batch_done));
    dispatcher.failLease(grant.lease); // "I cannot run these cells"
    batch.join();

    EXPECT_EQ(dispatcher.counters().remoteFailures, 1u);
    EXPECT_EQ(dispatcher.lastBatchStats().remoteCells, 0u);
    std::vector<SweepResult> direct = engine.run(jobs);
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(results[i].functional, direct[i].functional);
    dispatcher.unregisterWorker(worker);
}

/**
 * A held lease() wakes when a batch queues work, not when its hold
 * runs out; close() ends a hold at once, and every lease() after it
 * answers idle without waiting.
 */
TEST(Dispatcher, HeldLeaseWakesOnBatchStartAndCloseEndsEveryHold)
{
    SweepEngine engine(1);
    DispatcherOptions options;
    options.leaseTimeoutMs = 60000; // holds last 15 s
    Dispatcher dispatcher(engine, options);
    std::uint64_t worker = dispatcher.registerWorker(1);

    std::vector<SweepJob> jobs =
        functionalGrid({"gcc", "mcf"}, {"rp", "dp"}, kSlowRefs / 5);
    Plan plan = singletonPlan(jobs);
    LeaseGrant grant;
    bool granted = false;
    double waited = 0;
    std::thread holder([&] {
        auto start = std::chrono::steady_clock::now();
        granted = dispatcher.lease(worker, grant, true);
        waited = secondsSince(start);
    });
    // Let the request settle into its hold before the batch starts.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::vector<SweepResult> results;
    std::thread batch([&] {
        results = dispatcher.runBatch(plan, {});
    });
    holder.join();
    EXPECT_TRUE(granted);
    EXPECT_LT(waited, 2.0);
    if (granted) {
        SweepEngine mine(1);
        CellResultMsg answer = runLease(mine, grant);
        ASSERT_FALSE(answer.failed()) << answer.error;
        dispatcher.completeLease(grant.lease,
                                 std::move(answer.results));
    }
    batch.join();
    std::vector<SweepResult> direct = engine.run(jobs);
    ASSERT_EQ(results.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(results[i].functional, direct[i].functional)
            << "cell " << i;

    // An idle hold, ended by close() long before its 15 s run out.
    std::thread idle([&] {
        auto start = std::chrono::steady_clock::now();
        granted = dispatcher.lease(worker, grant, true);
        waited = secondsSince(start);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    dispatcher.close();
    idle.join();
    EXPECT_FALSE(granted);
    EXPECT_LT(waited, 2.0);
    auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(dispatcher.lease(worker, grant, true));
    EXPECT_LT(secondsSince(start), 1.0);
    dispatcher.unregisterWorker(worker);
}

TEST(Dispatcher, ChainIsGrantedAloneAndMergesBitIdentically)
{
    SweepEngine engine(1);
    DispatcherOptions options;
    options.leaseTimeoutMs = 60000;
    Dispatcher dispatcher(engine, options);

    std::vector<SweepJob> jobs =
        functionalGrid({"gcc", "mcf"}, {"rp"}, kSlowRefs);
    Plan plan =
        makePlan(jobs, 4, ShardWarmup::Checkpoint, PassMode::PerMechanism);

    std::uint64_t worker = dispatcher.registerWorker(8);
    std::atomic<bool> batch_done{false};
    std::vector<SweepResult> results;
    std::thread batch([&] {
        results = dispatcher.runBatch(
            plan,
            [](std::size_t, const SweepResult &) {});
        batch_done.store(true);
    });

    LeaseGrant grant;
    ASSERT_TRUE(leaseSoon(dispatcher, worker, grant, batch_done));
    // However wide the worker claims to be, a chain travels alone:
    // its shards depend on each other's boundary state.
    EXPECT_TRUE(grant.chain);
    EXPECT_EQ(grant.jobs.size(), 4u);

    // Run the shards sequentially (replay warm-up), like the worker
    // binary does; the dispatcher folds the windows back into the
    // pre-expansion cell.
    std::vector<SweepResult> computed;
    for (const SweepJob &job : grant.jobs)
        computed.push_back(runSweepJob(job));
    EXPECT_TRUE(
        dispatcher.completeLease(grant.lease, std::move(computed)));
    batch.join();

    std::vector<SweepResult> direct = engine.run(jobs);
    ASSERT_EQ(results.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(results[i].functional, direct[i].functional)
            << "cell " << i;
    dispatcher.unregisterWorker(worker);
}

/**
 * Under single-pass lowering a stream's chains are one task: the
 * shards of every cell over that stream, cell-major.  It travels as
 * one chain:true lease, the worker's own runner answers it, and the
 * dispatcher folds every cell it covers.
 */
TEST(Dispatcher, MultiCellChainIsGrantedWholeAndFoldsEveryCell)
{
    SweepEngine engine(1);
    DispatcherOptions options;
    options.leaseTimeoutMs = 60000;
    Dispatcher dispatcher(engine, options);

    std::vector<SweepJob> jobs =
        functionalGrid({"gcc", "mcf"}, {"rp", "dp", "sp"}, kSlowRefs);
    Plan plan =
        makePlan(jobs, 4, ShardWarmup::Checkpoint, PassMode::SinglePass);
    ASSERT_EQ(plan.tasks().size(), 2u);

    std::uint64_t worker = dispatcher.registerWorker(1);
    std::atomic<bool> batch_done{false};
    std::vector<SweepResult> results;
    std::thread batch([&] {
        results = dispatcher.runBatch(
            plan, [](std::size_t, const SweepResult &) {});
        batch_done.store(true);
    });

    LeaseGrant grant;
    ASSERT_TRUE(leaseSoon(dispatcher, worker, grant, batch_done));
    EXPECT_TRUE(grant.chain);
    ASSERT_EQ(grant.jobs.size(), 12u);
    SweepEngine mine(1);
    CellResultMsg answer = runLease(mine, grant);
    ASSERT_FALSE(answer.failed()) << answer.error;
    EXPECT_TRUE(dispatcher.completeLease(grant.lease,
                                         std::move(answer.results)));
    batch.join();
    EXPECT_EQ(dispatcher.lastBatchStats().remoteCells, 12u);

    std::vector<SweepResult> direct = engine.run(jobs);
    ASSERT_EQ(results.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(results[i].functional, direct[i].functional)
            << "cell " << i;
    dispatcher.unregisterWorker(worker);
}

/**
 * The worker's runner on a hand-made chain grant of three cells x four
 * shards: one answer per job, in grant order, each equal to the
 * engine's result for that shard job run on its own.
 */
TEST(WorkerLease, MultiCellChainAnswersTheEnginesShardResults)
{
    LeaseGrant grant;
    grant.lease = 7;
    grant.chain = true;
    grant.jobs =
        expandShards(functionalGrid({"gcc"}, {"rp", "DP,256,D", "sp"}), 4)
            .jobs;
    ASSERT_EQ(grant.jobs.size(), 12u);

    SweepEngine engine(1);
    CellResultMsg answer = runLease(engine, grant);
    ASSERT_FALSE(answer.failed()) << answer.error;
    EXPECT_EQ(answer.lease, 7u);
    std::vector<SweepResult> shards = engine.run(grant.jobs);
    ASSERT_EQ(answer.results.size(), shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i) {
        EXPECT_EQ(answer.results[i].workload, shards[i].workload);
        EXPECT_EQ(answer.results[i].mechanism, shards[i].mechanism);
        EXPECT_EQ(answer.results[i].functional, shards[i].functional)
            << "job " << i;
    }
}

/**
 * Cells that differ in reference budget do not share a stream, so a
 * chain grant mixing them is answered with an error (the dispatcher
 * requeues it local-only), never with one cell's counters or a crash.
 */
TEST(WorkerLease, ChainWhoseCellsDifferInRefsIsAnErrorAnswer)
{
    LeaseGrant grant;
    grant.lease = 9;
    grant.chain = true;
    for (std::uint64_t refs : {kRefs, 2 * kRefs}) {
        std::vector<SweepJob> cell =
            expandShards(functionalGrid({"gcc"}, {"dp"}, refs), 4).jobs;
        grant.jobs.insert(grant.jobs.end(), cell.begin(), cell.end());
    }
    SweepEngine engine(1);
    CellResultMsg answer = runLease(engine, grant);
    EXPECT_TRUE(answer.failed());
    EXPECT_NE(answer.error.find("do not share a stream"),
              std::string::npos)
        << answer.error;
    EXPECT_TRUE(answer.results.empty());
    EXPECT_EQ(answer.lease, 9u);
}

/**
 * A single-pass group travels as one chain:false lease even to a
 * one-thread worker: it is one task, so the worker drains the stream
 * once for every mechanism instead of leasing a cell at a time.
 */
TEST(Dispatcher, SinglePassGroupIsGrantedWholeToAOneThreadWorker)
{
    SweepEngine engine(1);
    DispatcherOptions options;
    options.leaseTimeoutMs = 60000;
    Dispatcher dispatcher(engine, options);

    std::vector<SweepJob> jobs =
        functionalGrid({"gcc", "mcf", "swim"},
                       {"rp", "dp", "DP,256,D", "ASP,256,D"}, kSlowRefs);
    Plan plan = makePlan(jobs, 1, ShardWarmup::Checkpoint,
                         PassMode::SinglePass);

    std::uint64_t worker = dispatcher.registerWorker(1);
    std::atomic<bool> batch_done{false};
    std::vector<SweepResult> results;
    std::thread batch([&] {
        results = dispatcher.runBatch(
            plan, [](std::size_t, const SweepResult &) {});
        batch_done.store(true);
    });

    LeaseGrant grant;
    ASSERT_TRUE(leaseSoon(dispatcher, worker, grant, batch_done));
    EXPECT_FALSE(grant.chain);
    ASSERT_EQ(grant.jobs.size(), 4u);
    for (const SweepJob &job : grant.jobs)
        EXPECT_EQ(job.workload.label(), grant.jobs[0].workload.label());

    SweepEngine mine(1);
    CellResultMsg answer = runLease(mine, grant);
    ASSERT_FALSE(answer.failed()) << answer.error;
    EXPECT_TRUE(dispatcher.completeLease(grant.lease,
                                         std::move(answer.results)));
    batch.join();
    EXPECT_EQ(dispatcher.lastBatchStats().remoteCells, 4u);

    std::vector<SweepResult> direct = engine.run(jobs);
    ASSERT_EQ(results.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(results[i].functional, direct[i].functional)
            << "cell " << i;
    dispatcher.unregisterWorker(worker);
}

// ------------------------------------- one plan, every execution path

/**
 * An open-registry mechanism that never opts into checkpointing, so a
 * checkpoint-mode plan lowers its shards to replay Cells instead.
 */
class NextPagePrefetcher : public Prefetcher
{
  public:
    void
    onMiss(const TlbMiss &miss, PrefetchDecision &decision) override
    {
        decision.targets.push_back(miss.vpn + 1);
    }
    void reset() override {}
    std::string name() const override { return "NP"; }
    std::string label() const override { return "nextpage"; }
    HardwareProfile hardwareProfile() const override { return {}; }
};

void
registerNextPage()
{
    static const bool registered = [] {
        MechanismEntry entry;
        entry.name = "nextpage";
        entry.shortName = "NP";
        entry.summary = "next-page prefetch without checkpoint hooks";
        entry.build = [](const MechanismSpec &, PageTable &) {
            return std::unique_ptr<Prefetcher>(
                std::make_unique<NextPagePrefetcher>());
        };
        MechanismRegistry::instance().add(entry);
        return true;
    }();
    (void)registered;
}

/**
 * Every workload kind and task shape in one batch: same-stream app,
 * mix and trace runs (Pass tasks), the composite hybrid, the
 * uncheckpointable open-registry mechanism, a timed cell (never
 * leased) and explicit `spec#k/N` cells (never fanned out again).
 */
std::vector<SweepJob>
planMatrixBatch()
{
    registerNextPage();
    std::vector<SweepJob> jobs;
    auto add = [&](const std::string &workload, const char *mech) {
        jobs.push_back(SweepJob::functional(WorkloadSpec::parse(workload),
                                            MechanismSpec::parse(mech),
                                            kRefs));
    };
    for (const char *mech :
         {"DP,256,D", "rp", "hybrid(dp+sp)", "nextpage"})
        add("mcf", mech);
    add("mix:mcf+gcc@1k", "dp");
    add("mix:mcf+gcc@1k", "nextpage");
    jobs.push_back(SweepJob::timed(WorkloadSpec::app("ammp"),
                                   MechanismSpec::parse("dp"), kRefs));
    std::string trace =
        "trace:" + std::string(TLBPF_TEST_DATA_DIR) + "/sample.tpf";
    add(trace, "rp");
    add(trace, "ASP,256,D");
    add("gcc#1/4", "dp");
    add("gcc#2/4", "nextpage");
    add("swim", "sp");
    return jobs;
}

/** Every counter of every result, rendered as CSV. */
std::string
planMatrixCsv(const std::vector<SweepResult> &results)
{
    std::ostringstream os;
    CsvSink csv(os);
    csv.header({"workload", "mechanism", "refs", "misses", "pb_hits",
                "demand", "issued", "suppressed", "state_ops",
                "evicted_unused", "footprint", "switches", "cycles"});
    for (const SweepResult &r : results) {
        const SimResult &c = r.functional;
        std::vector<std::string> row = {r.workload, r.mechanism};
        for (std::uint64_t v :
             {c.refs, c.misses, c.pbHits, c.demandFetches,
              c.prefetchesIssued, c.prefetchesSuppressed, c.stateOps,
              c.pbEvictedUnused, c.footprintPages, c.contextSwitches,
              r.timed.cycles})
            row.push_back(std::to_string(v));
        csv.row(row);
    }
    csv.finish();
    return os.str();
}

/**
 * In-process workers: each registers, then leases and answers with
 * the worker binary's own runner (runLease) until destroyed.  Worker
 * k claims k + 1 threads, so the second one gets two-cell blocks.
 */
class Pullers
{
  public:
    Pullers(Dispatcher &dispatcher, unsigned count)
        : _dispatcher(dispatcher)
    {
        for (unsigned k = 0; k < count; ++k)
            _threads.emplace_back([this, k] { pull(k + 1); });
        while (_dispatcher.counters().workers != count)
            std::this_thread::yield();
    }

    ~Pullers()
    {
        _done.store(true);
        for (std::thread &thread : _threads)
            thread.join();
    }

  private:
    void
    pull(unsigned threads)
    {
        std::uint64_t id = _dispatcher.registerWorker(threads);
        SweepEngine engine(1);
        LeaseGrant grant;
        while (!_done.load()) {
            if (!_dispatcher.lease(id, grant)) {
                std::this_thread::yield();
                continue;
            }
            CellResultMsg answer = runLease(engine, grant);
            if (answer.failed())
                _dispatcher.failLease(grant.lease);
            else
                _dispatcher.completeLease(grant.lease,
                                          std::move(answer.results));
        }
        _dispatcher.unregisterWorker(id);
    }

    Dispatcher &_dispatcher;
    std::atomic<bool> _done{false};
    std::vector<std::thread> _threads;
};

/**
 * The byte-identity contract over plans: every PassMode x ShardWarmup
 * x shards {1, 4, 8} lowering of the mixed batch, on 1 and 4 engine
 * threads and through a dispatcher with 0, 1 and 2 pullers, gives the
 * CSV bytes of the serial, unsharded, per-mechanism run.
 */
TEST(PlanMatrix, EveryLoweringAndFleetGivesTheSameCsvBytes)
{
    std::vector<SweepJob> jobs = planMatrixBatch();
    std::string want =
        planMatrixCsv(SweepEngine(1).run(jobs, PassMode::PerMechanism));
    ASSERT_FALSE(want.empty());
    std::uint64_t remote = 0;

    for (PassMode mode : {PassMode::PerMechanism, PassMode::SinglePass})
        for (ShardWarmup warmup :
             {ShardWarmup::Replay, ShardWarmup::Checkpoint})
            for (std::uint32_t shards : {1u, 4u, 8u}) {
                Plan plan = makePlan(jobs, shards, warmup, mode);
                std::string variant =
                    std::string(passModeName(mode)) + " " +
                    shardWarmupName(warmup) + " x" +
                    std::to_string(shards);
                for (unsigned threads : {1u, 4u})
                    EXPECT_EQ(planMatrixCsv(SweepEngine(threads).run(plan)),
                              want)
                        << variant << " at " << threads << " threads";
                for (unsigned pullers : {0u, 1u, 2u}) {
                    SweepEngine local(1);
                    Dispatcher dispatcher(local);
                    Pullers fleet(dispatcher, pullers);
                    EXPECT_EQ(planMatrixCsv(dispatcher.runBatch(
                                  plan, SweepEngine::ResultCallback())),
                              want)
                        << variant << " with " << pullers << " pullers";
                    remote += dispatcher.lastBatchStats().remoteCells;
                }
            }
    EXPECT_GT(remote, 0u); // the pullers really carried work
}

// ------------------------------------------------ server worker verbs

TEST(DispatchServer, MalformedCellResultDropsOnlyThatWorker)
{
    ServerOptions options;
    options.port = 0;
    options.threads = 1;
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });

    OwnedFd sick = rawConnect(server.port());
    OwnedFd healthy = rawConnect(server.port());
    WorkerWelcome sick_id = rawWorkerHello(sick.fd());
    WorkerWelcome healthy_id = rawWorkerHello(healthy.fd());
    EXPECT_NE(sick_id.worker, healthy_id.worker);

    // An empty results array is a protocol violation: the server
    // answers with an error frame and drops that session.
    writeFrame(sick.fd(), "{\"type\":\"cell_result\",\"lease\":1,"
                          "\"results\":[]}");
    JsonValue message;
    std::string type;
    ASSERT_TRUE(readMessage(sick.fd(), message, type));
    EXPECT_EQ(type, "error");
    std::string payload;
    EXPECT_FALSE(readFrame(sick.fd(), payload)); // connection closed

    // The other worker's session is untouched; so are clients.
    writeFrame(healthy.fd(),
               encodeLeaseRequest(healthy_id.worker));
    ASSERT_TRUE(readMessage(healthy.fd(), message, type));
    EXPECT_EQ(type, "lease_idle");
    ServiceClient("127.0.0.1", server.port()).ping();

    // The sick worker was unregistered (poll: teardown is async).
    StatsReply stats;
    for (int i = 0; i < 200; ++i) {
        stats = ServiceClient("127.0.0.1", server.port()).stats();
        if (stats.workers == 1)
            break;
        ::usleep(10 * 1000);
    }
    EXPECT_EQ(stats.workers, 1u);

    healthy.close();
    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();
}

TEST(DispatchServer, MaxClientsShedsWithAnErrorFrame)
{
    ServerOptions options;
    options.port = 0;
    options.threads = 1;
    options.maxClients = 2;
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });

    // Two idle sessions fill the table; the third is shed with an
    // explanation instead of queueing silently in the backlog.
    OwnedFd first = rawConnect(server.port());
    OwnedFd second = rawConnect(server.port());
    writeFrame(first.fd(), "{\"type\":\"ping\"}");
    writeFrame(second.fd(), "{\"type\":\"ping\"}");
    JsonValue message;
    std::string type;
    ASSERT_TRUE(readMessage(first.fd(), message, type));
    ASSERT_TRUE(readMessage(second.fd(), message, type));

    OwnedFd third = rawConnect(server.port());
    ASSERT_TRUE(readMessage(third.fd(), message, type));
    EXPECT_EQ(type, "error");
    EXPECT_NE(message.at("message").asString().find("capacity"),
              std::string::npos);
    third.close();

    // Freeing a slot lets the next connection through (the accept
    // loop reaps finished sessions on its poll tick).
    first.close();
    second.close();
    for (int i = 0; i < 200; ++i) {
        try {
            ServiceClient("127.0.0.1", server.port()).ping();
            break;
        } catch (const std::exception &) {
            ::usleep(20 * 1000);
        }
    }
    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();
}

TEST(DispatchServer, ConcurrentClientsAccountASharedCacheExactly)
{
    ServerOptions options;
    options.port = 0;
    options.threads = 2;
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });

    // Overlapping grids, submitted concurrently: the batch mutex
    // makes lookup+run+fill atomic per batch, so whichever runs
    // second hits exactly the overlap (app:mcf x rp).
    SweepRequest one;
    one.workloads = {"app:gcc", "app:mcf"};
    one.mechanisms = {"rp"};
    one.refs = kRefs;
    SweepRequest two;
    two.workloads = {"app:mcf", "app:swim"};
    two.mechanisms = {"rp"};
    two.refs = kRefs;

    ServiceClient::SweepOutcome out1, out2;
    std::thread client1([&] {
        out1 = ServiceClient("127.0.0.1", server.port()).sweep(one);
    });
    std::thread client2([&] {
        out2 = ServiceClient("127.0.0.1", server.port()).sweep(two);
    });
    client1.join();
    client2.join();

    EXPECT_EQ(out1.done.cells, 2u);
    EXPECT_EQ(out2.done.cells, 2u);
    StatsReply stats =
        ServiceClient("127.0.0.1", server.port()).stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.cells, 4u);
    EXPECT_EQ(stats.cacheMisses, 3u); // the three unique cells
    EXPECT_EQ(stats.cacheHits, 1u);   // the shared one, second batch

    // Both clients' results are bit-identical to direct runs.
    SweepEngine local(2);
    std::vector<SweepResult> direct1 = local.run(
        SweepRequest::decode(JsonValue::parse(one.encode())).expand());
    std::vector<SweepResult> direct2 = local.run(
        SweepRequest::decode(JsonValue::parse(two.encode())).expand());
    for (std::size_t i = 0; i < direct1.size(); ++i)
        EXPECT_EQ(out1.results[i].functional, direct1[i].functional);
    for (std::size_t i = 0; i < direct2.size(); ++i)
        EXPECT_EQ(out2.results[i].functional, direct2[i].functional);

    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();
}

TEST(DispatchServer, WorkerFleetSweepIsByteIdenticalToLocal)
{
    SweepRequest request;
    request.workloads = {"app:gcc", "app:mcf", "app:art"};
    request.mechanisms = {"rp", "dp"};
    request.refs = kRefs;
    request.shards = 2;

    // Baseline: a 0-worker server.
    ServerOptions base_options;
    base_options.port = 0;
    base_options.threads = 2;
    base_options.cacheDir = makeTempDir();
    SweepServer base(base_options);
    std::thread base_serving([&] { base.serve(); });
    ServiceClient::SweepOutcome plain =
        ServiceClient("127.0.0.1", base.port()).sweep(request);
    ServiceClient("127.0.0.1", base.port()).shutdown();
    base_serving.join();

    // The same sweep through a server with a two-worker fleet.
    ServerOptions fleet_options = base_options;
    fleet_options.cacheDir = makeTempDir();
    SweepServer fleet(fleet_options);
    std::thread fleet_serving([&] { fleet.serve(); });

    DispatchWorkerOptions worker_options;
    worker_options.port = fleet.port();
    worker_options.threads = 2;
    worker_options.cacheDir = fleet_options.cacheDir;
    DispatchWorker worker1(worker_options), worker2(worker_options);
    std::thread pulling1([&] { worker1.run(); });
    std::thread pulling2([&] { worker2.run(); });
    StatsReply stats;
    for (int i = 0; i < 500 && stats.workers != 2; ++i) {
        stats = ServiceClient("127.0.0.1", fleet.port()).stats();
        ::usleep(5 * 1000);
    }
    ASSERT_EQ(stats.workers, 2u);

    ServiceClient::SweepOutcome fanned =
        ServiceClient("127.0.0.1", fleet.port()).sweep(request);

    worker1.requestStop();
    worker2.requestStop();
    pulling1.join();
    pulling2.join();
    ServiceClient("127.0.0.1", fleet.port()).shutdown();
    fleet_serving.join();

    // Byte-identity is the dispatch contract: same cells, same
    // counters, same order, whoever simulated them.
    ASSERT_EQ(fanned.results.size(), plain.results.size());
    for (std::size_t i = 0; i < plain.results.size(); ++i) {
        EXPECT_EQ(fanned.results[i].functional,
                  plain.results[i].functional)
            << "cell " << i;
        EXPECT_EQ(fanned.results[i].workload,
                  plain.results[i].workload);
        EXPECT_EQ(fanned.results[i].mechanism,
                  plain.results[i].mechanism);
    }
}

TEST(DispatchServer, WorkerVanishingMidLeaseNeverLosesTheBatch)
{
    ServerOptions options;
    options.port = 0;
    options.threads = 1; // slow server: the worker gets its grant
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });

    SweepRequest request;
    request.workloads = {"app:gcc", "app:mcf", "app:swim", "app:art"};
    request.mechanisms = {"rp", "dp"};
    request.refs = 60000;

    std::atomic<bool> sweep_done{false};
    std::atomic<bool> got_grant{false};
    // A worker that takes one lease and dies without answering it.
    std::thread deserter([&] {
        OwnedFd fd = rawConnect(server.port());
        WorkerWelcome welcome = rawWorkerHello(fd.fd());
        JsonValue message;
        std::string type;
        while (!sweep_done.load()) {
            writeFrame(fd.fd(), encodeLeaseRequest(welcome.worker));
            if (!readMessage(fd.fd(), message, type))
                return;
            if (type == "lease_grant") {
                got_grant.store(true);
                return; // vanish with the lease — an abrupt close
            }
            ::usleep(2 * 1000);
        }
    });

    ServiceClient::SweepOutcome out =
        ServiceClient("127.0.0.1", server.port()).sweep(request);
    sweep_done.store(true);
    deserter.join();

    EXPECT_EQ(out.done.cells, 8u);
    SweepEngine local(1);
    std::vector<SweepResult> direct = local.run(
        SweepRequest::decode(JsonValue::parse(request.encode()))
            .expand());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(out.results[i].functional, direct[i].functional)
            << "cell " << i;

    StatsReply stats =
        ServiceClient("127.0.0.1", server.port()).stats();
    if (got_grant.load()) {
        EXPECT_GE(stats.leaseReclaims, 1u);
    }
    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();
}

/**
 * Stall regression for the worker verbs: a lease without "wait" is
 * answered at once — under protocol 2 and for a protocol-1
 * worker, which never sends one — and never waits out a delayed ACK
 * (~88 ms per exchange with two writes per frame).
 */
TEST(DispatchServer, LeasesWithoutAWaitAreAnsweredAtOnce)
{
    ServerOptions options;
    options.port = 0;
    options.threads = 1;
    options.leaseTimeoutMs = 60000;
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });

    for (std::uint32_t version : {1u, kDispatchProtocolVersion}) {
        OwnedFd fd = rawConnect(server.port());
        WorkerHello hello;
        hello.protocol = version;
        writeFrame(fd.fd(), hello.encode());
        JsonValue message;
        std::string type;
        ASSERT_TRUE(readMessage(fd.fd(), message, type));
        ASSERT_EQ(type, "worker_welcome") << "protocol " << version;
        std::uint64_t id = WorkerWelcome::decode(message).worker;
        auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < 20; ++i)
            EXPECT_EQ(rawLease(fd.fd(), id, false, message),
                      "lease_idle");
        double ms = 1000 * secondsSince(start);
        EXPECT_LT(ms, 400.0)
            << "protocol " << version << ": 20 leases took " << ms
            << " ms";
    }
    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();
}

/**
 * A worker's held lease is granted as soon as a sweep queues work —
 * not at the end of its 15 s hold — and the leased cells merge into
 * the local engine's bytes.
 */
TEST(DispatchServer, HeldLeaseIsGrantedWhenASweepArrives)
{
    ServerOptions options;
    options.port = 0;
    options.threads = 1;
    options.leaseTimeoutMs = 60000; // holds last 15 s
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });

    OwnedFd fd = rawConnect(server.port());
    WorkerWelcome welcome = rawWorkerHello(fd.fd(), 1);
    writeFrame(fd.fd(), encodeLeaseRequest(welcome.worker, true));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    SweepRequest request;
    request.workloads = {"app:gcc", "app:mcf"};
    request.mechanisms = {"rp", "dp"};
    request.refs = kSlowRefs / 5;
    auto start = std::chrono::steady_clock::now();
    ServiceClient::SweepOutcome out;
    std::thread client([&] {
        out = ServiceClient("127.0.0.1", server.port()).sweep(request);
    });
    JsonValue message;
    std::string type;
    EXPECT_TRUE(readMessage(fd.fd(), message, type));
    double waited = secondsSince(start);
    EXPECT_EQ(type, "lease_grant");
    EXPECT_LT(waited, 2.0);
    if (type == "lease_grant") {
        SweepEngine mine(1);
        CellResultMsg answer =
            runLease(mine, LeaseGrant::decode(message));
        EXPECT_FALSE(answer.failed()) << answer.error;
        writeFrame(fd.fd(), answer.encode());
        EXPECT_TRUE(readMessage(fd.fd(), message, type));
        EXPECT_EQ(type, "result_ok");
    }
    client.join();

    SweepEngine local(1);
    std::vector<SweepResult> direct = local.run(
        SweepRequest::decode(JsonValue::parse(request.encode()))
            .expand());
    ASSERT_EQ(out.results.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(out.results[i].functional, direct[i].functional)
            << "cell " << i;
    EXPECT_GE(server.stats().cellsDispatched, 1u);
    fd.close();
    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();
}

/**
 * On an idle server a held lease ends in lease_idle after one
 * heartbeat interval, so the session hears from its worker again.
 */
TEST(DispatchServer, HeldLeaseEndsIdleAfterOneHeartbeat)
{
    ServerOptions options;
    options.port = 0;
    options.threads = 1;
    options.leaseTimeoutMs = 400; // heartbeat every 100 ms
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });

    OwnedFd fd = rawConnect(server.port());
    WorkerWelcome welcome = rawWorkerHello(fd.fd(), 1);
    EXPECT_EQ(welcome.heartbeatMs, 100u);
    JsonValue message;
    auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(rawLease(fd.fd(), welcome.worker, true, message),
              "lease_idle");
    double waited = secondsSince(start);
    EXPECT_GE(waited, 0.09);
    EXPECT_LT(waited, 5.0);
    fd.close();
    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();
}

/**
 * A worker whose connection closes while its lease is held leaves the
 * server's worker count within a few hang-up polls, not at the end of
 * its 15 s hold, so no batch starting meanwhile can grant it a task.
 */
TEST(DispatchServer, WorkerClosedDuringAHeldLeaseLeavesAtOnce)
{
    ServerOptions options;
    options.port = 0;
    options.threads = 1;
    options.leaseTimeoutMs = 60000; // holds last 15 s
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });

    OwnedFd fd = rawConnect(server.port());
    WorkerWelcome welcome = rawWorkerHello(fd.fd(), 1);
    writeFrame(fd.fd(), encodeLeaseRequest(welcome.worker, true));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_EQ(server.stats().workers, 1u);

    auto start = std::chrono::steady_clock::now();
    fd.close();
    while (server.stats().workers != 0 && secondsSince(start) < 5.0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    double left = secondsSince(start);
    EXPECT_EQ(server.stats().workers, 0u);
    EXPECT_LT(left, 0.2);
    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();
}

/** A stop wakes a held lease instead of waiting out its hold. */
TEST(DispatchServer, StopDoesNotWaitOutAHeldLease)
{
    ServerOptions options;
    options.port = 0;
    options.threads = 1;
    options.leaseTimeoutMs = 60000;
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });

    OwnedFd fd = rawConnect(server.port());
    WorkerWelcome welcome = rawWorkerHello(fd.fd(), 1);
    writeFrame(fd.fd(), encodeLeaseRequest(welcome.worker, true));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    auto start = std::chrono::steady_clock::now();
    server.requestStop();
    serving.join();
    EXPECT_LT(secondsSince(start), 1.0);
}

/**
 * A worker the server refuses (here every session is shed) learns
 * why: run() spends its retry budget on the refusals and throws the
 * server's reason, warning once per distinct reason on the way.
 */
TEST(DispatchWorker, RefusedRegistrationSaysWhyAndSpendsTheRetryBudget)
{
    ServerOptions options;
    options.port = 0;
    options.threads = 1;
    options.maxClients = 0;
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });

    DispatchWorkerOptions worker_options;
    worker_options.port = server.port();
    worker_options.reconnectMs = 10;
    worker_options.maxReconnectAttempts = 3;
    DispatchWorker worker(worker_options);
    std::uint64_t warnings = Logger::instance().warnCount();
    std::string what;
    std::atomic<bool> finished{false};
    std::thread running([&] {
        try {
            worker.run();
        } catch (const TransportError &e) {
            what = e.what();
        }
        finished.store(true);
    });
    for (int i = 0; i < 1000 && !finished.load(); ++i)
        ::usleep(10 * 1000);
    if (!finished.load()) {
        ADD_FAILURE() << "run() kept retrying past its budget";
        worker.requestStop();
    }
    running.join();
    EXPECT_NE(what.find("refused registration"), std::string::npos)
        << what;
    EXPECT_NE(what.find("capacity"), std::string::npos) << what;
    EXPECT_NE(what.find("3 attempts"), std::string::npos) << what;
    EXPECT_EQ(Logger::instance().warnCount() - warnings, 1u);
    EXPECT_EQ(worker.sessions(), 0u);
    server.requestStop();
    serving.join();
}

// ------------------------------------------------ disk-store eviction

TEST(StoreEviction, TtlSweepRemovesOnlyStaleFiles)
{
    std::string dir = makeTempDir();
    writeBytes(dir + "/old", 100);
    writeBytes(dir + "/fresh", 100);
    ageFile(dir + "/old", 3600);

    EvictStats swept = evictStaleStoreFiles({dir}, 0, 600);
    EXPECT_EQ(swept.files, 1u);
    EXPECT_EQ(swept.bytes, 100u);
    EXPECT_FALSE(fileExists(dir + "/old"));
    EXPECT_TRUE(fileExists(dir + "/fresh"));
}

TEST(StoreEviction, BudgetSweepIsOldestFirstAcrossDirsTogether)
{
    // The budget is shared across the cell and checkpoint stores, so
    // the sweep must interleave both by age, not clear one dir first.
    std::string cells = makeTempDir();
    std::string checkpoints = makeTempDir();
    writeBytes(cells + "/a", 400);
    writeBytes(checkpoints + "/b", 400);
    writeBytes(cells + "/c", 400);
    writeBytes(checkpoints + "/d", 400);
    ageFile(cells + "/a", 400);
    ageFile(checkpoints + "/b", 300);
    ageFile(cells + "/c", 200);
    ageFile(checkpoints + "/d", 100);

    EvictStats swept =
        evictStaleStoreFiles({cells, checkpoints}, 800, 0);
    EXPECT_EQ(swept.files, 2u);
    EXPECT_EQ(swept.bytes, 800u);
    EXPECT_FALSE(fileExists(cells + "/a"));      // oldest
    EXPECT_FALSE(fileExists(checkpoints + "/b")); // second oldest
    EXPECT_TRUE(fileExists(cells + "/c"));
    EXPECT_TRUE(fileExists(checkpoints + "/d"));
}

TEST(StoreEviction, SkipsInFlightTempFilesAndHonoursTouch)
{
    std::string dir = makeTempDir();
    // A writer's in-flight temp file must never be swept out from
    // under its rename.
    writeBytes(dir + "/.tmp.partial", 4096);
    ageFile(dir + "/.tmp.partial", 7200);
    // touchFile() is what the stores call on a disk read: it makes an
    // old entry young again, so the LRU keeps hot entries resident.
    writeBytes(dir + "/read-recently", 100);
    ageFile(dir + "/read-recently", 7200);
    touchFile(dir + "/read-recently");

    EvictStats swept = evictStaleStoreFiles({dir}, 0, 600);
    EXPECT_EQ(swept.files, 0u);
    EXPECT_TRUE(fileExists(dir + "/.tmp.partial"));
    EXPECT_TRUE(fileExists(dir + "/read-recently"));
}

TEST(StoreEviction, ServerEnforcesTheBudgetAroundSweeps)
{
    ServerOptions options;
    options.port = 0;
    options.threads = 2;
    options.cacheDir = makeTempDir();
    options.storeMaxBytes = 1; // evict (almost) everything, always
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });

    SweepRequest request;
    request.workloads = {"app:gcc"};
    request.mechanisms = {"rp", "dp"};
    request.refs = kRefs;
    ServiceClient("127.0.0.1", server.port()).sweep(request);

    StatsReply stats =
        ServiceClient("127.0.0.1", server.port()).stats();
    EXPECT_GT(stats.storeEvictedFiles, 0u);
    EXPECT_GT(stats.storeEvictedBytes, 0u);

    // In-memory entries still answer; only the disk copies went.
    ServiceClient::SweepOutcome again =
        ServiceClient("127.0.0.1", server.port()).sweep(request);
    EXPECT_EQ(again.done.cacheHits, 2u);

    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();
}

} // namespace
} // namespace tlbpf
