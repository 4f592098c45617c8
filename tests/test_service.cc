/**
 * @file
 * Tests for the sweep service stack: the strict JSON codec, the
 * length-prefixed framing (including hostile/truncated input), the
 * canonical cell keys, the result cache and checkpoint store (LRU,
 * persistence, corruption tolerance), the engine's streaming result
 * callback, and an end-to-end server/client exchange — repeat sweeps
 * served entirely from cache, alias spellings hitting the same
 * entries, mid-stream disconnects leaving the server serving, and no
 * leaked file descriptors.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <netinet/in.h>
#include <stdexcept>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "run/sweep_engine.hh"
#include "service/checkpoint_store.hh"
#include "service/client.hh"
#include "service/json.hh"
#include "service/protocol.hh"
#include "service/result_cache.hh"
#include "service/server.hh"
#include "service/store_util.hh"

namespace tlbpf
{
namespace
{

constexpr std::uint64_t kRefs = 20000;

/** A fresh empty directory under the test temp root. */
std::string
makeTempDir()
{
    std::string pattern = ::testing::TempDir() + "tlbpf_svc_XXXXXX";
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    const char *dir = ::mkdtemp(buf.data());
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "";
}

/** Open fds of this process (server + client live in-process). */
std::size_t
openFdCount()
{
    DIR *dir = ::opendir("/proc/self/fd");
    if (!dir)
        return 0;
    std::size_t count = 0;
    while (::readdir(dir))
        ++count;
    ::closedir(dir);
    return count;
}

/** Raw client socket, for tests that misbehave on purpose. */
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

// --------------------------------------------------------------- JSON

TEST(Json, ParsesAndRoundTripsTypedValues)
{
    JsonValue v = JsonValue::parse(
        "{\"s\":\"a\\nb\",\"n\":-2.5,\"u\":42,\"b\":true,"
        "\"z\":null,\"a\":[1,2,3]}");
    EXPECT_EQ(v.at("s").asString(), "a\nb");
    EXPECT_DOUBLE_EQ(v.at("n").asDouble(), -2.5);
    EXPECT_EQ(v.at("u").asU64(), 42u);
    EXPECT_TRUE(v.at("b").asBool());
    EXPECT_TRUE(v.at("z").isNull());
    EXPECT_EQ(v.at("a").asArray().size(), 3u);
    EXPECT_EQ(v.keys(),
              (std::vector<std::string>{"s", "n", "u", "b", "z",
                                        "a"}));
}

TEST(Json, U64RoundTripsExactlyPastDoublePrecision)
{
    // 2^53 + 1 is not representable as a double; the codec must keep
    // the digits, not the rounded double.
    JsonValue v = JsonValue::parse("{\"c\":9007199254740993}");
    EXPECT_EQ(v.at("c").asU64(), 9007199254740993ull);
    JsonObjectWriter out;
    out.u64("c", 9007199254740993ull);
    EXPECT_EQ(out.take(), "{\"c\":9007199254740993}");
}

TEST(Json, RejectsMalformedDocuments)
{
    for (const char *bad :
         {"", "{", "{\"a\":}", "{\"a\":1,}", "[1,]", "nul",
          "{\"a\":1}x", "{\"a\":1,\"a\":2}", "\"unterminated",
          "\"bad\\q\"", "01", "1.", "1e", "-", "{\"a\":\"\x01\"}",
          "{1:2}"}) {
        EXPECT_THROW(JsonValue::parse(bad), std::invalid_argument)
            << "input: " << bad;
    }
    // Nesting past the depth bound.
    std::string deep(JsonValue::kMaxDepth + 2, '[');
    EXPECT_THROW(JsonValue::parse(deep), std::invalid_argument);
    // A negative or fractional number is not a u64.
    EXPECT_THROW(JsonValue::parse("{\"c\":-1}").at("c").asU64(),
                 std::invalid_argument);
    EXPECT_THROW(JsonValue::parse("{\"c\":1.5}").at("c").asU64(),
                 std::invalid_argument);
}

// ------------------------------------------------------------ framing

TEST(Framing, RoundTripsAndSignalsCleanEof)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    OwnedFd reader(fds[0]), writer(fds[1]);
    writeFrame(writer.fd(), "{\"type\":\"ping\"}");
    writeFrame(writer.fd(), "");
    std::string payload;
    EXPECT_TRUE(readFrame(reader.fd(), payload));
    EXPECT_EQ(payload, "{\"type\":\"ping\"}");
    EXPECT_TRUE(readFrame(reader.fd(), payload));
    EXPECT_EQ(payload, "");
    writer.close();
    EXPECT_FALSE(readFrame(reader.fd(), payload)); // clean EOF
}

TEST(Framing, TruncatedFrameIsATransportError)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    OwnedFd reader(fds[0]), writer(fds[1]);
    // Header promises 10 bytes; only 3 arrive before EOF.
    const char header[4] = {10, 0, 0, 0};
    ASSERT_EQ(::write(writer.fd(), header, 4), 4);
    ASSERT_EQ(::write(writer.fd(), "abc", 3), 3);
    writer.close();
    std::string payload;
    EXPECT_THROW(readFrame(reader.fd(), payload), TransportError);
}

TEST(Framing, OversizedLengthPrefixIsRejected)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    OwnedFd reader(fds[0]), writer(fds[1]);
    std::uint32_t huge = kMaxFrameBytes + 1;
    char header[4];
    std::memcpy(header, &huge, 4); // test host is little-endian
    ASSERT_EQ(::write(writer.fd(), header, 4), 4);
    std::string payload;
    EXPECT_THROW(readFrame(reader.fd(), payload),
                 std::invalid_argument);
    EXPECT_THROW(writeFrame(writer.fd(),
                            std::string(kMaxFrameBytes + 1, 'x')),
                 std::invalid_argument);
}

/**
 * Fuzz-corpus regressions (tests/data/fuzz_regressions/): hostile
 * byte streams from the fuzz_frame corpus, replayed through the same
 * pipe transport.  Each must end in the documented rejection —
 * TransportError for a peer that vanished mid-frame,
 * invalid_argument for a hostile prefix — and never anything else.
 */
TEST(Framing, FuzzRegressionStreamsFailTheDocumentedWay)
{
    struct Case {
        const char *file;
        bool transport; // else invalid_argument
    };
    for (const Case &c :
         {Case{"frame_truncated_header.bin", true},
          Case{"frame_oversize_prefix.bin", false}}) {
        std::string bytes;
        {
            std::string path = std::string(TLBPF_TEST_DATA_DIR) +
                               "/fuzz_regressions/" + c.file;
            std::FILE *f = std::fopen(path.c_str(), "rb");
            ASSERT_NE(f, nullptr) << c.file;
            int ch;
            while ((ch = std::fgetc(f)) != EOF)
                bytes.push_back(static_cast<char>(ch));
            std::fclose(f);
        }
        ASSERT_FALSE(bytes.empty()) << c.file;
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        OwnedFd reader(fds[0]), writer(fds[1]);
        ASSERT_EQ(::write(writer.fd(), bytes.data(), bytes.size()),
                  static_cast<ssize_t>(bytes.size()));
        writer.close();
        JsonValue message;
        std::string type;
        auto drain = [&] {
            while (readMessage(reader.fd(), message, type)) {
            }
        };
        if (c.transport) {
            EXPECT_THROW(drain(), TransportError) << c.file;
        } else {
            EXPECT_THROW(drain(), std::invalid_argument) << c.file;
        }
    }
}

/** writeFrame() sends a 4-byte little-endian length, then the payload. */
TEST(Framing, WriteFrameSendsTheLengthPrefixThenThePayload)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    OwnedFd reader(fds[0]), writer(fds[1]);
    writeFrame(writer.fd(), "abc");
    char raw[8];
    ASSERT_EQ(::read(reader.fd(), raw, sizeof(raw)), 7);
    EXPECT_EQ(std::string(raw, 7),
              std::string("\x03\x00\x00\x00", 4) + "abc");
}

TEST(Framing, GarbageJsonIsRejectedByReadMessage)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    OwnedFd reader(fds[0]), writer(fds[1]);
    writeFrame(writer.fd(), "this is not json");
    JsonValue message;
    std::string type;
    EXPECT_THROW(readMessage(reader.fd(), message, type),
                 std::invalid_argument);
    writeFrame(writer.fd(), "[1,2,3]"); // valid JSON, not an object
    EXPECT_THROW(readMessage(reader.fd(), message, type),
                 std::invalid_argument);
    writeFrame(writer.fd(), "{\"notype\":1}");
    EXPECT_THROW(readMessage(reader.fd(), message, type),
                 std::invalid_argument);
}

// ----------------------------------------------------------- protocol

TEST(Protocol, SweepRequestRoundTripsAndValidates)
{
    SweepRequest request;
    request.workloads = {"app:gcc", "app:mcf"};
    request.mechanisms = {"rp", "sp(adaptive)"};
    request.refs = 123456789;
    request.shards = 8;
    request.shardWarmup = ShardWarmup::Replay;
    request.passMode = PassMode::PerMechanism;
    SweepRequest back =
        SweepRequest::decode(JsonValue::parse(request.encode()));
    EXPECT_EQ(back.workloads, request.workloads);
    EXPECT_EQ(back.mechanisms, request.mechanisms);
    EXPECT_EQ(back.refs, request.refs);
    EXPECT_EQ(back.shards, 8u);
    EXPECT_EQ(back.shardWarmup, ShardWarmup::Replay);
    EXPECT_EQ(back.passMode, PassMode::PerMechanism);
    EXPECT_EQ(back.expand().size(), 4u);

    auto reject = [](const std::string &json) {
        EXPECT_THROW(
            SweepRequest::decode(JsonValue::parse(json)),
            std::invalid_argument)
            << "input: " << json;
    };
    reject("{\"type\":\"sweep\",\"workloads\":[\"app:gcc\"],"
           "\"mechanisms\":[\"rp\"],\"refs\":1,\"bogus\":1}");
    reject("{\"type\":\"sweep\",\"workloads\":[],"
           "\"mechanisms\":[\"rp\"],\"refs\":1}");
    reject("{\"type\":\"sweep\",\"workloads\":[\"app:gcc\"],"
           "\"mechanisms\":[\"rp\"],\"refs\":0}");
    reject("{\"type\":\"sweep\",\"workloads\":[\"app:gcc\"],"
           "\"mechanisms\":[\"rp\"],\"refs\":1,\"shards\":0}");
    reject("{\"type\":\"sweep\",\"workloads\":[\"app:gcc\"],"
           "\"mechanisms\":[\"rp\"],\"refs\":1,\"shards\":5000}");
}

TEST(Protocol, CellReplyRoundTripsExactCounters)
{
    CellReply reply;
    reply.index = 7;
    reply.workload = "gcc";
    reply.mechanism = "RP";
    reply.mode = JobMode::Timed;
    reply.cached = true;
    reply.counters.refs = 9007199254740993ull; // > 2^53
    reply.counters.misses = 3;
    reply.timed.cycles = 18014398509481985ull; // > 2^54
    CellReply back = CellReply::decode(JsonValue::parse(reply.encode()));
    EXPECT_EQ(back.index, 7u);
    EXPECT_EQ(back.counters.refs, 9007199254740993ull);
    EXPECT_EQ(back.timed.cycles, 18014398509481985ull);
    EXPECT_TRUE(back.cached);
    EXPECT_EQ(back.timed.functional.refs, back.counters.refs);

    // A functional cell must not carry a timing member.
    CellReply functional;
    functional.workload = "gcc";
    functional.mechanism = "RP";
    std::string json = functional.encode();
    json.insert(json.size() - 1, ",\"timing\":{\"cycles\":1,"
                                 "\"stall_cycles\":0,"
                                 "\"compute_cycles\":0,"
                                 "\"memory_ops\":0,"
                                 "\"prefetches_skipped_busy\":0,"
                                 "\"in_flight_hits\":0}");
    EXPECT_THROW(CellReply::decode(JsonValue::parse(json)),
                 std::invalid_argument);
}

// ----------------------------------------------------- canonical keys

TEST(CellKey, AliasSpellingsShareOneCacheKey)
{
    WorkloadSpec gcc = WorkloadSpec::app("gcc");
    SweepJob a = SweepJob::functional(
        gcc, MechanismSpec::parse("ASQ"), kRefs);
    SweepJob b = SweepJob::functional(
        gcc, MechanismSpec::parse("sp(adaptive)"), kRefs);
    EXPECT_EQ(cellKey(a), cellKey(b));

    SweepJob c = SweepJob::functional(
        gcc, MechanismSpec::parse("RP"), kRefs);
    SweepJob d = SweepJob::functional(
        gcc, MechanismSpec::parse("rp"), kRefs);
    EXPECT_EQ(cellKey(c), cellKey(d));
    EXPECT_NE(cellKey(a), cellKey(c));

    // Budget, geometry and mode all separate keys.
    SweepJob e = SweepJob::functional(
        gcc, MechanismSpec::parse("rp"), kRefs + 1);
    EXPECT_NE(cellKey(c), cellKey(e));
    SimConfig big;
    big.tlb.entries *= 2;
    SweepJob f = SweepJob::functional(
        gcc, MechanismSpec::parse("rp"), kRefs, big);
    EXPECT_NE(cellKey(c), cellKey(f));
    SweepJob g =
        SweepJob::timed(gcc, MechanismSpec::parse("rp"), kRefs);
    EXPECT_NE(cellKey(c), cellKey(g));
}

TEST(CellKey, CheckpointKeyIgnoresBudgetAndShardSuffix)
{
    WorkloadSpec base = WorkloadSpec::app("gcc");
    SweepJob quarter = SweepJob::functional(
        base.withShard(1, 4), MechanismSpec::parse("rp"), kRefs);
    SweepJob half = SweepJob::functional(
        base.withShard(1, 2), MechanismSpec::parse("rp"),
        2 * kRefs);
    // Same stream position => same state identity, whatever fan-out
    // or budget produced it.
    EXPECT_EQ(checkpointKey(quarter, kRefs / 2),
              checkpointKey(half, kRefs / 2));
    EXPECT_NE(checkpointKey(quarter, kRefs / 2),
              checkpointKey(quarter, kRefs / 4));
}

// ------------------------------------------------------- result cache

SweepResult
fakeResult(std::uint64_t misses)
{
    SweepResult result;
    result.workload = "gcc";
    result.mechanism = "RP";
    result.functional.refs = kRefs;
    result.functional.misses = misses;
    return result;
}

TEST(ResultCache, LruEvictsOldestAndCountsEverything)
{
    ResultCache cache(2);
    SweepResult out;
    EXPECT_FALSE(cache.lookup("a", out));
    cache.insert("a", fakeResult(1));
    cache.insert("b", fakeResult(2));
    EXPECT_TRUE(cache.lookup("a", out)); // refreshes a
    cache.insert("c", fakeResult(3));    // evicts b, the LRU entry
    EXPECT_FALSE(cache.lookup("b", out));
    EXPECT_TRUE(cache.lookup("a", out));
    EXPECT_EQ(out.functional.misses, 1u);
    EXPECT_TRUE(cache.lookup("c", out));
    ResultCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.capacity, 2u);
}

TEST(ResultCache, PersistsAcrossInstances)
{
    std::string dir = makeTempDir();
    {
        ResultCache cache(8, dir);
        SweepResult timed = fakeResult(9);
        timed.mode = JobMode::Timed;
        timed.timed.cycles = 12345;
        timed.timed.functional = timed.functional;
        cache.insert("k1", fakeResult(7));
        cache.insert("k2", timed);
    }
    ResultCache reborn(8, dir);
    SweepResult out;
    EXPECT_TRUE(reborn.lookup("k1", out));
    EXPECT_EQ(out.functional.misses, 7u);
    EXPECT_TRUE(reborn.lookup("k2", out));
    EXPECT_EQ(out.mode, JobMode::Timed);
    EXPECT_EQ(out.timed.cycles, 12345u);
    EXPECT_FALSE(reborn.lookup("k3", out));

    // A corrupt entry file degrades to a miss, not a failure.
    std::string path = dir + "/" + contentAddress("k1") + ".cell";
    std::string junk = "not a cache entry";
    ASSERT_TRUE(writeFileBytesAtomic(
        path, reinterpret_cast<const std::uint8_t *>(junk.data()),
        junk.size()));
    ResultCache corrupted(8, dir);
    EXPECT_FALSE(corrupted.lookup("k1", out));
}

TEST(ResultCache, EntryCodecRejectsForeignKeys)
{
    std::string text = encodeCacheEntry("right", fakeResult(1));
    EXPECT_NO_THROW(decodeCacheEntry(text, "right"));
    EXPECT_THROW(decodeCacheEntry(text, "wrong"),
                 std::invalid_argument);
}

// --------------------------------------------------- checkpoint store

TEST(CheckpointStore, RoundTripsMemoryAndDisk)
{
    std::string dir = makeTempDir();
    SimState state;
    state.bytes = {1, 2, 3, 4, 5};
    {
        CheckpointStore store(dir, 4);
        store.store("pos", state);
        EXPECT_EQ(store.stored(), 1u);
        SimState out;
        EXPECT_TRUE(store.load("pos", out));
        EXPECT_EQ(out.bytes, state.bytes);
        EXPECT_FALSE(store.load("other", out));
    }
    CheckpointStore reborn(dir, 4);
    SimState out;
    EXPECT_TRUE(reborn.load("pos", out)); // from disk
    EXPECT_EQ(out.bytes, state.bytes);
    EXPECT_EQ(reborn.loaded(), 1u);

    // Corrupt file: a miss, never an error.
    std::string path = dir + "/" + contentAddress("pos") + ".ckpt";
    std::uint8_t junk[3] = {9, 9, 9};
    ASSERT_TRUE(writeFileBytesAtomic(path, junk, sizeof(junk)));
    CheckpointStore corrupted(dir, 4);
    EXPECT_FALSE(corrupted.load("pos", out));
}

TEST(CheckpointStore, WarmsExplicitShardCellsBitIdentically)
{
    WorkloadSpec base = WorkloadSpec::app("gcc");
    MechanismSpec rp = MechanismSpec::parse("rp");
    CheckpointStore store("", 16);

    SweepJob shard1 =
        SweepJob::functional(base.withShard(1, 4), rp, kRefs);
    SweepResult cold = runSweepJob(shard1); // no hook: pure replay
    SweepResult first = runSweepJob(shard1, &store);
    EXPECT_EQ(first.functional, cold.functional);
    EXPECT_GE(store.stored(), 2u); // window start + window end

    // The second run warms from the stored prefix state.
    std::uint64_t loaded_before = store.loaded();
    SweepResult warm = runSweepJob(shard1, &store);
    EXPECT_EQ(warm.functional, cold.functional);
    EXPECT_GT(store.loaded(), loaded_before);

    // Shard 2 warms from shard 1's end-of-window state.
    SweepJob shard2 =
        SweepJob::functional(base.withShard(2, 4), rp, kRefs);
    SweepResult chained = runSweepJob(shard2, &store);
    EXPECT_EQ(chained.functional, runSweepJob(shard2).functional);
}

TEST(CheckpointStore, LyingHookFallsBackToReplay)
{
    /** Serves a syntactically-valid state for the wrong mechanism. */
    class LyingHook : public CheckpointHook
    {
      public:
        explicit LyingHook(SimState state) : _state(std::move(state))
        {
        }
        bool
        load(const std::string &, SimState &out) override
        {
            out = _state;
            return true;
        }
        void store(const std::string &, const SimState &) override {}

      private:
        SimState _state;
    };

    WorkloadSpec base = WorkloadSpec::app("gcc");
    // Capture a genuine state under a *different* mechanism, then
    // serve it for every key: restore must throw inside the engine
    // and the job must fall back to replay, bit-identically.
    CheckpointStore donor("", 4);
    SweepJob foreign = SweepJob::functional(
        base.withShard(1, 4), MechanismSpec::parse("dp"), kRefs);
    runSweepJob(foreign, &donor);
    SimState wrong;
    ASSERT_TRUE(donor.load(checkpointKey(foreign, kRefs / 4), wrong));

    LyingHook liar(wrong);
    SweepJob job = SweepJob::functional(
        base.withShard(1, 4), MechanismSpec::parse("rp"), kRefs);
    SweepResult result = runSweepJob(job, &liar);
    EXPECT_EQ(result.functional, runSweepJob(job).functional);
}

// -------------------------------------------------- streaming results

TEST(Streaming, CallbackDeliversEveryResultInSubmissionOrder)
{
    std::vector<SweepJob> jobs;
    for (const char *app : {"gcc", "mcf"})
        for (const char *mech : {"rp", "dp", "sp"})
            jobs.push_back(SweepJob::functional(
                WorkloadSpec::app(app), MechanismSpec::parse(mech),
                kRefs));
    SweepEngine engine(4);
    std::vector<std::size_t> order;
    std::vector<SweepResult> streamed(jobs.size());
    std::vector<SweepResult> results = engine.run(
        jobs, PassMode::SinglePass,
        [&](std::size_t i, const SweepResult &r) {
            order.push_back(i);
            streamed[i] = r;
        });
    ASSERT_EQ(order.size(), jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(streamed[i].functional, results[i].functional)
            << "cell " << i;
}

TEST(Streaming, ShardedRunStreamsMergedResultsInOrder)
{
    std::vector<SweepJob> jobs;
    for (const char *mech : {"rp", "dp"})
        jobs.push_back(SweepJob::functional(WorkloadSpec::app("gcc"),
                                            MechanismSpec::parse(mech),
                                            kRefs));
    SweepEngine engine(4);
    Plan plan =
        makePlan(jobs, 4, ShardWarmup::Replay, PassMode::PerMechanism);
    std::vector<std::size_t> order;
    std::vector<SweepResult> merged = engine.run(
        plan,
        [&](std::size_t i, const SweepResult &r) {
            order.push_back(i);
            EXPECT_EQ(r.workload, "gcc");
        });
    ASSERT_EQ(merged.size(), jobs.size());
    ASSERT_EQ(order.size(), jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
    // Merged streaming results match the plain unsharded run.
    std::vector<SweepResult> direct = engine.run(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(merged[i].functional, direct[i].functional);
}

TEST(Streaming, DeliveryStopsBeforeAFailingCell)
{
    std::vector<SweepJob> jobs;
    jobs.push_back(SweepJob::functional(WorkloadSpec::app("gcc"),
                                        MechanismSpec::parse("rp"),
                                        kRefs));
    jobs.push_back(SweepJob::functional(
        WorkloadSpec::parse("trace:/nonexistent.tpf"),
        MechanismSpec::parse("rp"), kRefs));
    jobs.push_back(SweepJob::functional(WorkloadSpec::app("mcf"),
                                        MechanismSpec::parse("rp"),
                                        kRefs));
    SweepEngine engine(2);
    std::vector<std::size_t> order;
    EXPECT_THROW(
        engine.run(jobs, PassMode::PerMechanism,
                   [&](std::size_t i, const SweepResult &) {
                       order.push_back(i);
                   }),
        std::invalid_argument);
    // Only the cell before the failing index may have streamed.
    ASSERT_LE(order.size(), 1u);
    if (!order.empty()) {
        EXPECT_EQ(order[0], 0u);
    }
}

// ------------------------------------------------------------- server

TEST(Server, EndToEndSweepCacheAndResilience)
{
    ServerOptions options;
    options.port = 0; // ephemeral
    options.threads = 2;
    options.cacheDir = makeTempDir();
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });

    SweepRequest request;
    request.workloads = {"app:gcc", "app:mcf"};
    request.mechanisms = {"RP", "ASQ"};
    request.refs = kRefs;

    // First sweep simulates everything; results match a local run.
    // The server serves one connection at a time, so every client
    // below is scoped to its exchange.
    ServiceClient::SweepOutcome cold =
        ServiceClient("127.0.0.1", server.port()).sweep(request);
    EXPECT_EQ(cold.done.cells, 4u);
    EXPECT_EQ(cold.done.simulated, 4u);
    EXPECT_EQ(cold.done.cacheHits, 0u);
    EXPECT_EQ(cold.cachedCells, 0u);
    SweepEngine local(2);
    std::vector<SweepResult> direct = local.run(
        SweepRequest::decode(JsonValue::parse(request.encode()))
            .expand());
    ASSERT_EQ(cold.results.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
        EXPECT_EQ(cold.results[i].functional, direct[i].functional)
            << "cell " << i;
        EXPECT_EQ(cold.results[i].workload, direct[i].workload);
        EXPECT_EQ(cold.results[i].mechanism, direct[i].mechanism);
    }

    // The identical resubmit is served entirely from the cache.
    ServiceClient::SweepOutcome hot =
        ServiceClient("127.0.0.1", server.port()).sweep(request);
    EXPECT_EQ(hot.done.simulated, 0u);
    EXPECT_EQ(hot.done.cacheHits, 4u);
    EXPECT_EQ(hot.cachedCells, 4u);
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(hot.results[i].functional, direct[i].functional);

    // Alias spellings of the same mechanisms also hit.
    SweepRequest aliased = request;
    aliased.mechanisms = {"rp", "sp(adaptive)"};
    ServiceClient::SweepOutcome alias_hit =
        ServiceClient("127.0.0.1", server.port()).sweep(aliased);
    EXPECT_EQ(alias_hit.done.simulated, 0u);
    EXPECT_EQ(alias_hit.done.cacheHits, 4u);

    // A malformed request gets an error frame; the connection dies
    // but the server keeps serving.
    {
        OwnedFd bad = rawConnect(server.port());
        writeFrame(bad.fd(), "{\"type\":\"gibberish\"}");
        JsonValue message;
        std::string type;
        ASSERT_TRUE(readMessage(bad.fd(), message, type));
        EXPECT_EQ(type, "error");
    }

    // A client that vanishes mid-stream doesn't stop the batch: the
    // cells it abandoned are in the cache for the next client.
    {
        SweepRequest abandoned = request;
        abandoned.workloads = {"app:swim"};
        abandoned.mechanisms = {"RP"};
        std::uint64_t entries = server.stats().cacheEntries;
        OwnedFd quitter = rawConnect(server.port());
        writeFrame(quitter.fd(), abandoned.encode());
        std::string payload;
        ASSERT_TRUE(readFrame(quitter.fd(), payload)); // batch header
        quitter.close();                               // vanish

        // The header goes out before the abandoned batch takes the
        // batch lock, so the retry could otherwise win the lock and
        // simulate the cell itself.  Wait until the abandoned batch
        // has filled the cache.
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (server.stats().cacheEntries == entries &&
               std::chrono::steady_clock::now() < deadline)
            ::usleep(1000);

        ServiceClient::SweepOutcome retry =
            ServiceClient("127.0.0.1", server.port()).sweep(abandoned);
        EXPECT_EQ(retry.done.simulated, 0u);
        EXPECT_EQ(retry.done.cacheHits, 1u);
    }

    // Stats reflect everything above: 5 sweep requests answered
    // 4+4+4+1+1 = 14 cells; the 4 cold cells and the abandoned cell
    // missed, everything else hit.
    StatsReply stats =
        ServiceClient("127.0.0.1", server.port()).stats();
    EXPECT_EQ(stats.requests, 5u);
    EXPECT_EQ(stats.cells, 14u);
    EXPECT_EQ(stats.cacheMisses, 5u);
    EXPECT_EQ(stats.cacheHits, 9u);

    // Connections don't leak fds: a burst of pings returns the
    // process to its steady-state count.  A finished session's fd is
    // only released by the serve loop's reap pass (every 200ms poll
    // tick), so "stable" must mean unchanged across a full reap
    // cycle, not just two adjacent samples.
    auto stableFdCount = [] {
        std::size_t count = openFdCount();
        int held = 0;
        for (int i = 0; i < 400 && held < 30; ++i) {
            ::usleep(10 * 1000);
            std::size_t next = openFdCount();
            if (next == count) {
                ++held;
            } else {
                held = 0;
                count = next;
            }
        }
        return count;
    };
    std::size_t baseline = stableFdCount();
    for (int i = 0; i < 10; ++i)
        ServiceClient("127.0.0.1", server.port()).ping();
    EXPECT_EQ(stableFdCount(), baseline);

    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();

    // A fresh server over the same cache directory answers from disk.
    ServerOptions reopened = options;
    SweepServer server2(reopened);
    std::thread serving2([&] { server2.serve(); });
    ServiceClient::SweepOutcome from_disk =
        ServiceClient("127.0.0.1", server2.port()).sweep(request);
    EXPECT_EQ(from_disk.done.simulated, 0u);
    EXPECT_EQ(from_disk.done.cacheHits, 4u);
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(from_disk.results[i].functional,
                  direct[i].functional);
    ServiceClient("127.0.0.1", server2.port()).shutdown();
    serving2.join();
}

TEST(Server, ShardedRequestsShareCheckpointsAcrossRequests)
{
    ServerOptions options;
    options.port = 0;
    options.threads = 2;
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });

    // One explicit shard cell simulates and deposits its window
    // boundaries; the *next* shard of the same cell warms from them.
    SweepRequest head;
    head.workloads = {"app:gcc#0/4", "app:gcc#1/4"};
    head.mechanisms = {"RP"};
    head.refs = kRefs;
    ServiceClient("127.0.0.1", server.port()).sweep(head);
    StatsReply after_head =
        ServiceClient("127.0.0.1", server.port()).stats();
    EXPECT_GT(after_head.checkpointsStored, 0u);

    SweepRequest tail = head;
    tail.workloads = {"app:gcc#2/4"};
    ServiceClient::SweepOutcome out =
        ServiceClient("127.0.0.1", server.port()).sweep(tail);
    StatsReply after_tail =
        ServiceClient("127.0.0.1", server.port()).stats();
    EXPECT_GT(after_tail.checkpointsLoaded,
              after_head.checkpointsLoaded);

    // Bit-identical to the direct path despite the warm start.
    SweepJob job = SweepJob::functional(
        WorkloadSpec::parse("app:gcc#2/4"),
        MechanismSpec::parse("RP"), kRefs);
    EXPECT_EQ(out.results[0].functional,
              runSweepJob(job).functional);

    // A full sharded sweep request also round-trips bit-identically.
    SweepRequest fanned;
    fanned.workloads = {"app:mcf"};
    fanned.mechanisms = {"RP", "dp"};
    fanned.refs = kRefs;
    fanned.shards = 4;
    ServiceClient::SweepOutcome sharded =
        ServiceClient("127.0.0.1", server.port()).sweep(fanned);
    SweepEngine local(2);
    std::vector<SweepResult> direct =
        local.run(SweepRequest::decode(
                      JsonValue::parse(fanned.encode()))
                      .expand());
    ASSERT_EQ(sharded.results.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(sharded.results[i].functional,
                  direct[i].functional);

    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();
}

/**
 * Stall regression: a frame whose prefix and payload leave as two
 * writes makes every exchange on a reused connection wait out the
 * peer's delayed ACK under Nagle (~40-90 ms each).  With one write
 * per frame, twenty round trips take milliseconds.
 */
TEST(Server, TwentyPingsOnOneConnectionDoNotStall)
{
    ServerOptions options;
    options.port = 0;
    options.threads = 1;
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });
    {
        ServiceClient client("127.0.0.1", server.port());
        client.ping(); // connection set up outside the timing
        auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < 20; ++i)
            client.ping();
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
        EXPECT_LT(ms, 400.0) << "20 pings took " << ms << " ms";
    }
    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();
}

/**
 * A mechanism that parses but fails validation, such as a hybrid with
 * two RP stacks, costs the client an error frame and never the
 * server: the same server answers the next request.
 */
TEST(Server, InvalidMechanismGetsAnErrorFrameAndTheServerLives)
{
    ServerOptions options;
    options.port = 0;
    options.threads = 1;
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });

    SweepRequest request;
    request.workloads = {"app:gcc"};
    request.mechanisms = {"hybrid(RP+RP,4)"};
    request.refs = kRefs;
    try {
        ServiceClient("127.0.0.1", server.port()).sweep(request);
        ADD_FAILURE() << "the server ran a hybrid with two RP stacks";
    } catch (const std::runtime_error &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("server error"), std::string::npos) << what;
        EXPECT_NE(what.find("more than one RP"), std::string::npos)
            << what;
    }
    ServiceClient("127.0.0.1", server.port()).ping();

    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();
}

/**
 * A geometry the simulator cannot build (page size 0, no TLB entries,
 * no buffer entries, ways that do not split the TLB into a power-of-two
 * number of sets) costs the client an error frame, never the server:
 * the same server answers the next valid request.
 */
TEST(Server, UnbuildableGeometryGetsAnErrorFrameAndTheServerLives)
{
    ServerOptions options;
    options.port = 0;
    options.threads = 1;
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });

    SimConfig zero_page;
    zero_page.pageBytes = 0;
    SimConfig no_tlb;
    no_tlb.tlb.entries = 0;
    SimConfig no_buffer;
    no_buffer.pbEntries = 0;
    SimConfig three_way;
    three_way.tlb = TlbConfig{128, 3};
    for (const SimConfig &config :
         {zero_page, no_tlb, no_buffer, three_way}) {
        SweepRequest request;
        request.workloads = {"app:gcc"};
        request.mechanisms = {"DP,256,D"};
        request.refs = kRefs;
        request.config = config;
        SCOPED_TRACE(encodeConfig(config));
        try {
            ServiceClient("127.0.0.1", server.port()).sweep(request);
            ADD_FAILURE() << "the server ran an unbuildable geometry";
        } catch (const std::runtime_error &e) {
            std::string what = e.what();
            EXPECT_NE(what.find("server error"), std::string::npos)
                << what;
            EXPECT_NE(what.find("config: "), std::string::npos) << what;
        }
        request.config = SimConfig{};
        ServiceClient::SweepOutcome outcome =
            ServiceClient("127.0.0.1", server.port()).sweep(request);
        ASSERT_EQ(outcome.results.size(), 1u);
        EXPECT_EQ(outcome.results[0].functional.refs, kRefs);
    }

    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();
}

/**
 * The cycle model does not simulate context switches, so a timed
 * request that sets context_switch_interval gets an error frame
 * instead of the unflushed answer; the same server then answers the
 * functional request with that interval.
 */
TEST(Server, TimedContextSwitchRequestGetsAnErrorFrame)
{
    ServerOptions options;
    options.port = 0;
    options.threads = 1;
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });

    SweepRequest request;
    request.workloads = {"app:mcf"};
    request.mechanisms = {"DP,256,D"};
    request.refs = kRefs;
    request.mode = JobMode::Timed;
    request.config.contextSwitchInterval = 1000;
    try {
        ServiceClient("127.0.0.1", server.port()).sweep(request);
        ADD_FAILURE() << "the server answered a timed cell with "
                         "context switches";
    } catch (const std::runtime_error &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("server error"), std::string::npos) << what;
        EXPECT_NE(what.find("context_switch_interval"),
                  std::string::npos)
            << what;
    }

    request.mode = JobMode::Functional;
    ServiceClient::SweepOutcome functional =
        ServiceClient("127.0.0.1", server.port()).sweep(request);
    ASSERT_EQ(functional.results.size(), 1u);
    EXPECT_GT(functional.results[0].functional.contextSwitches, 0u);

    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();
}

} // namespace
} // namespace tlbpf
