/**
 * @file
 * Unit tests for the reference-stream substrate: records, vector
 * streams, adaptors and the binary trace file format.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "trace/adaptors.hh"
#include "trace/ref_stream.hh"
#include "trace/trace_file.hh"
#include "trace_oracle.hh"
#include "util/bits.hh"
#include "workload/app_registry.hh"

namespace tlbpf
{
namespace
{

MemRef
ref(Addr vaddr, Addr pc = 0x400000, bool write = false,
    std::uint64_t icount = 0)
{
    return MemRef{vaddr, pc, write, icount};
}

std::unique_ptr<VectorStream>
stream(std::initializer_list<Addr> addrs)
{
    std::vector<MemRef> refs;
    for (Addr a : addrs)
        refs.push_back(ref(a));
    return std::make_unique<VectorStream>(std::move(refs));
}

TEST(MemRef, VpnUsesPageSize)
{
    MemRef r = ref(4096 * 7 + 123);
    EXPECT_EQ(r.vpn(), 7u);
    EXPECT_EQ(r.vpn(8192), 3u);
}

TEST(VectorStream, YieldsAllThenEnds)
{
    auto s = stream({1, 2, 3});
    MemRef r;
    EXPECT_TRUE(s->next(r));
    EXPECT_EQ(r.vaddr, 1u);
    EXPECT_TRUE(s->next(r));
    EXPECT_TRUE(s->next(r));
    EXPECT_FALSE(s->next(r));
    EXPECT_FALSE(s->next(r)); // stays ended
}

TEST(VectorStream, ResetRewinds)
{
    auto s = stream({10, 20});
    collect(*s);
    s->reset();
    auto again = collect(*s);
    ASSERT_EQ(again.size(), 2u);
    EXPECT_EQ(again[0].vaddr, 10u);
}

TEST(Collect, RespectsLimit)
{
    auto s = stream({1, 2, 3, 4});
    auto v = collect(*s, 2);
    EXPECT_EQ(v.size(), 2u);
}

TEST(DistinctPages, CountsPages)
{
    auto s = stream({0, 100, 4096, 8192, 8200});
    EXPECT_EQ(distinctPages(*s), 3u);
}

TEST(TakeStream, TruncatesAndResets)
{
    auto t = TakeStream(stream({1, 2, 3, 4, 5}), 3);
    EXPECT_EQ(collect(t).size(), 3u);
    t.reset();
    EXPECT_EQ(collect(t).size(), 3u);
}

TEST(TakeStream, ShortInnerEndsEarly)
{
    auto t = TakeStream(stream({1, 2}), 10);
    EXPECT_EQ(collect(t).size(), 2u);
}

TEST(SkipStream, DropsPrefix)
{
    auto s = SkipStream(stream({1, 2, 3, 4}), 2);
    auto v = collect(s);
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[0].vaddr, 3u);
    s.reset();
    EXPECT_EQ(collect(s).size(), 2u);
}

TEST(SkipStream, SkipBeyondEndYieldsNothing)
{
    auto s = SkipStream(stream({1, 2}), 5);
    EXPECT_TRUE(collect(s).empty());
}

TEST(InterleaveStream, RoundRobinWithWeights)
{
    std::vector<std::unique_ptr<RefStream>> inners;
    inners.push_back(stream({1, 2, 3, 4}));
    inners.push_back(stream({100, 200}));
    InterleaveStream s(std::move(inners), {2, 1});
    auto v = collect(s);
    ASSERT_EQ(v.size(), 6u);
    EXPECT_EQ(v[0].vaddr, 1u);
    EXPECT_EQ(v[1].vaddr, 2u);
    EXPECT_EQ(v[2].vaddr, 100u);
    EXPECT_EQ(v[3].vaddr, 3u);
    EXPECT_EQ(v[4].vaddr, 4u);
    EXPECT_EQ(v[5].vaddr, 200u);
}

TEST(InterleaveStream, DrainsLongerStreamAfterShortEnds)
{
    std::vector<std::unique_ptr<RefStream>> inners;
    inners.push_back(stream({1}));
    inners.push_back(stream({100, 200, 300}));
    InterleaveStream s(std::move(inners), {1, 1});
    auto v = collect(s);
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v.back().vaddr, 300u);
}

TEST(InterleaveStream, ResetReplaysIdentically)
{
    std::vector<std::unique_ptr<RefStream>> inners;
    inners.push_back(stream({1, 2, 3}));
    inners.push_back(stream({4, 5}));
    InterleaveStream s(std::move(inners), {1, 2});
    auto first = collect(s);
    s.reset();
    auto second = collect(s);
    EXPECT_EQ(first, second);
}

TEST(ConcatStream, PlaysInOrder)
{
    std::vector<std::unique_ptr<RefStream>> inners;
    inners.push_back(stream({1, 2}));
    inners.push_back(stream({3}));
    ConcatStream s(std::move(inners));
    auto v = collect(s);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[2].vaddr, 3u);
    s.reset();
    EXPECT_EQ(collect(s).size(), 3u);
}

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _path = ::testing::TempDir() + "trace_test.tpft";
    }

    void TearDown() override { std::remove(_path.c_str()); }

    std::string _path;
};

TEST_F(TraceFileTest, RoundTripPreservesRecords)
{
    std::vector<MemRef> refs = {
        ref(4096, 0x1000, false, 0),
        ref(8192, 0x1004, true, 3),
        ref(100, 0x999, false, 10),          // backward jump
        ref(1ull << 44, 0x1000, true, 1000), // large forward jump
    };
    {
        TraceWriter writer(_path);
        for (const MemRef &r : refs)
            writer.write(r);
        writer.close();
        EXPECT_EQ(writer.written(), refs.size());
    }
    TraceReader reader(_path);
    EXPECT_EQ(reader.count(), refs.size());
    auto out = collect(reader);
    EXPECT_EQ(out, refs);
}

TEST_F(TraceFileTest, ResetReplays)
{
    {
        TraceWriter writer(_path);
        writer.write(ref(1));
        writer.write(ref(2));
    }
    TraceReader reader(_path);
    auto a = collect(reader);
    reader.reset();
    auto b = collect(reader);
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), 2u);
}

TEST_F(TraceFileTest, DumpTraceCopiesWholeStream)
{
    auto s = stream({5, 6, 7});
    EXPECT_EQ(dumpTrace(*s, _path), 3u);
    TraceReader reader(_path);
    EXPECT_EQ(collect(reader).size(), 3u);
}

TEST_F(TraceFileTest, ProbeReportsProblemsWithoutExiting)
{
    EXPECT_NE(probeTraceFile("/nonexistent/trace.tpft"), "");
    {
        std::FILE *f = std::fopen(_path.c_str(), "wb");
        std::fputs("NOT A TRACE FILE AT ALL BUT LONG ENOUGH....", f);
        std::fclose(f);
    }
    EXPECT_NE(probeTraceFile(_path), "");
    {
        TraceWriter writer(_path);
        writer.write(ref(1));
    }
    EXPECT_EQ(probeTraceFile(_path), "");
}

/**
 * The committed sample trace (tests/data/sample.tpf) that CI uses for
 * trace-backed WorkloadSpecs: it must decode, and re-encoding its
 * records must reproduce the committed bytes exactly (the writer
 * round-trip guard for the on-disk format).
 */
class SampleTraceTest : public ::testing::Test
{
  protected:
    static std::string samplePath()
    {
        return std::string(TLBPF_TEST_DATA_DIR) + "/sample.tpf";
    }

    static std::string
    fileBytes(const std::string &path)
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        EXPECT_NE(f, nullptr) << path;
        std::string bytes;
        int c;
        while ((c = std::fgetc(f)) != EOF)
            bytes.push_back(static_cast<char>(c));
        std::fclose(f);
        return bytes;
    }
};

TEST_F(SampleTraceTest, DecodesAFewHundredRefs)
{
    ASSERT_EQ(probeTraceFile(samplePath()), "");
    TraceReader reader(samplePath());
    auto refs = collect(reader);
    EXPECT_EQ(refs.size(), reader.count());
    EXPECT_GE(refs.size(), 200u);
    EXPECT_LE(refs.size(), 2000u);
    // icounts are monotone, as the simulators assume.
    for (std::size_t i = 1; i < refs.size(); ++i)
        ASSERT_GE(refs[i].icount, refs[i - 1].icount) << i;
}

TEST_F(SampleTraceTest, WriterRoundTripReproducesCommittedBytes)
{
    TraceReader reader(samplePath());
    auto refs = collect(reader);
    std::string rewritten = ::testing::TempDir() + "sample_rt.tpf";
    {
        TraceWriter writer(rewritten);
        for (const MemRef &r : refs)
            writer.write(r);
    }
    EXPECT_EQ(fileBytes(rewritten), fileBytes(samplePath()));
    std::remove(rewritten.c_str());
}

/**
 * The on-disk header is an explicit little-endian byte layout, not a
 * host-endian struct image: bytes 0-3 magic "TPFT", 4-7 version as a
 * LE u32, 8-15 record count as a LE u64.  This is what makes traces
 * portable across hosts, so it is pinned byte-by-byte.
 */
TEST_F(TraceFileTest, HeaderBytesAreExplicitLittleEndian)
{
    {
        TraceWriter writer(_path);
        for (int i = 0; i < 300; ++i) // count >= 256 exercises byte 9
            writer.write(ref(4096u * (i + 1)));
    }
    std::FILE *f = std::fopen(_path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    unsigned char hdr[kTraceHeaderBytes];
    ASSERT_EQ(std::fread(hdr, 1, sizeof(hdr), f), sizeof(hdr));
    std::fclose(f);
    EXPECT_EQ(hdr[0], 'T');
    EXPECT_EQ(hdr[1], 'P');
    EXPECT_EQ(hdr[2], 'F');
    EXPECT_EQ(hdr[3], 'T');
    // Version 1 as a little-endian u32.
    EXPECT_EQ(hdr[4], 1u);
    EXPECT_EQ(hdr[5], 0u);
    EXPECT_EQ(hdr[6], 0u);
    EXPECT_EQ(hdr[7], 0u);
    // Record count 300 = 0x12c as a little-endian u64.
    EXPECT_EQ(hdr[8], 0x2cu);
    EXPECT_EQ(hdr[9], 0x01u);
    for (int i = 10; i < 16; ++i)
        EXPECT_EQ(hdr[i], 0u) << "header byte " << i;
}

/**
 * A dump onto a full disk must die naming the path, not leave a
 * truncated trace behind a valid-looking header.  /dev/full fails
 * every flush, so the error surfaces at close() at the latest.
 */
TEST_F(TraceFileTest, WriteErrorIsFatalAndNamesThePath)
{
    std::FILE *probe = std::fopen("/dev/full", "wb");
    if (!probe)
        GTEST_SKIP() << "/dev/full not available on this host";
    std::fclose(probe);
    EXPECT_EXIT(
        {
            TraceWriter writer("/dev/full");
            for (int i = 0; i < 100000; ++i)
                writer.write(ref(4096u * (i + 1)));
            writer.close();
        },
        ::testing::ExitedWithCode(1), "/dev/full");
}

TEST_F(TraceFileTest, ResetAfterPartialReadRewindsDeltaState)
{
    std::vector<MemRef> refs = {
        ref(1ull << 40, 0x1000, false, 0),
        ref(4096, 0x2000, true, 10),
        ref(1ull << 33, 0x3000, false, 20),
        ref(8192, 0x1000, true, 30),
    };
    {
        TraceWriter writer(_path);
        for (const MemRef &r : refs)
            writer.write(r);
    }
    TraceReader reader(_path);
    // Stop mid-stream: the reader's delta state (_prev) and progress
    // counter now sit at record 2.
    MemRef r;
    ASSERT_TRUE(reader.next(r));
    ASSERT_TRUE(reader.next(r));
    reader.reset();
    // A rewound reader must replay from scratch; stale delta state
    // would corrupt the very first record.
    EXPECT_EQ(collect(reader), refs);
}

TEST_F(TraceFileTest, MalformedVarintThrowsUnderThrowPolicy)
{
    {
        TraceWriter writer(_path);
        writer.write(ref(4096));
    }
    {
        // Append a record whose varint never terminates (11 bytes of
        // 0xff exceeds the 64-bit continuation limit) and patch the
        // header count so the reader expects it.
        std::FILE *f = std::fopen(_path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        std::fputc(0x00, f); // flags byte
        for (int i = 0; i < 12; ++i)
            std::fputc(0xff, f);
        std::fseek(f, 8, SEEK_SET);
        std::fputc(2, f); // LE count low byte: now 2 records
        std::fclose(f);
    }
    TraceReader reader(_path, TraceReader::ErrorPolicy::Throw);
    MemRef r;
    EXPECT_TRUE(reader.next(r));
    EXPECT_THROW(reader.next(r), std::invalid_argument);
}

TEST_F(TraceFileTest, TruncatedRecordThrowsUnderThrowPolicy)
{
    {
        TraceWriter writer(_path);
        writer.write(ref(4096));
        writer.write(ref(1ull << 44)); // multi-byte varint delta
    }
    {
        // Chop the tail of the last record; the header still promises
        // two records.
        std::FILE *f = std::fopen(_path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::string bytes;
        int c;
        while ((c = std::fgetc(f)) != EOF)
            bytes.push_back(static_cast<char>(c));
        std::fclose(f);
        ASSERT_GT(bytes.size(), kTraceHeaderBytes + 4);
        f = std::fopen(_path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(bytes.data(), 1, bytes.size() - 2, f);
        std::fclose(f);
    }
    TraceReader reader(_path, TraceReader::ErrorPolicy::Throw);
    MemRef r;
    EXPECT_TRUE(reader.next(r));
    EXPECT_THROW(reader.next(r), std::invalid_argument);
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        ADD_FAILURE() << "cannot read " << path;
        return bytes;
    }
    for (int c; (c = std::fgetc(f)) != EOF;)
        bytes.push_back(static_cast<std::uint8_t>(c));
    std::fclose(f);
    return bytes;
}

void
writeFile(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
}

/** The records a throwing reader returned, and the error that ended it. */
struct Drained
{
    std::vector<MemRef> refs;
    std::string error;
};

/** Drain @p path with nextBatch() at @p batch, or with next() at 0. */
Drained
drain(const std::string &path, std::size_t batch)
{
    Drained out;
    try {
        TraceReader reader(path, TraceReader::ErrorPolicy::Throw);
        MemRef one;
        std::vector<MemRef> buf(batch);
        if (batch == 0) {
            while (reader.next(one))
                out.refs.push_back(one);
        } else {
            while (std::size_t got = reader.nextBatch(buf.data(), batch))
                out.refs.insert(out.refs.end(), buf.begin(),
                                buf.begin() +
                                    static_cast<std::ptrdiff_t>(got));
        }
    } catch (const std::invalid_argument &e) {
        out.error = e.what();
    }
    return out;
}

/**
 * TraceReader must agree with the naive oracle on @p path: the same
 * records and the same error through next() and through nextBatch()
 * at batch sizes around the fast path's 31-byte window and the
 * 4096-reference simulate block.  A batch that meets an error throws,
 * so only the whole batches before the bad record come back.
 */
void
expectMatchesOracle(const std::string &path)
{
    OracleDecode want = oracleDecode(readFile(path), path);
    for (std::size_t batch : {0u, 1u, 31u, 4096u, 4097u}) {
        Drained got = drain(path, batch);
        std::size_t returned = want.refs.size();
        if (batch > 0 && !want.error.empty())
            returned = returned / batch * batch;
        EXPECT_EQ(got.error, want.error) << "batch " << batch;
        EXPECT_EQ(got.refs,
                  std::vector<MemRef>(want.refs.begin(),
                                      want.refs.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              returned)))
            << "batch " << batch;
    }
}

TEST_F(TraceFileTest, EveryRegistryModelDecodesLikeTheOracle)
{
    for (const AppModel &app : appRegistry()) {
        SCOPED_TRACE(app.name);
        std::unique_ptr<RefStream> stream = buildApp(app, 2000);
        std::vector<MemRef> refs = collect(*stream);
        stream->reset();
        ASSERT_EQ(dumpTrace(*stream, _path), refs.size());
        OracleDecode want = oracleDecode(readFile(_path), _path);
        EXPECT_EQ(want.error, "");
        EXPECT_EQ(want.refs, refs);
        expectMatchesOracle(_path);
    }
}

/**
 * Deltas of 2^63 and 2^64-1 take the longest legal varint (ten bytes,
 * the last carrying one bit), so each record here is exactly
 * kTraceMaxRecordBytes long, and the last one ends at the last byte
 * the unchecked decode may read.
 */
TEST_F(TraceFileTest, LongestRecordsRoundTrip)
{
    const Addr top = Addr{1} << 63;
    const std::uint64_t last = ~std::uint64_t{0};
    std::vector<MemRef> refs = {ref(top, top, true, last),
                                ref(0, 0, false, last - 1),
                                ref(top, top, true, last - 2)};
    {
        TraceWriter writer(_path);
        for (const MemRef &r : refs)
            writer.write(r);
    }
    ASSERT_EQ(readFile(_path).size(),
              kTraceHeaderBytes + refs.size() * kTraceMaxRecordBytes);
    EXPECT_EQ(oracleDecode(readFile(_path), _path).refs, refs);
    expectMatchesOracle(_path);
}

/** The smallest (@p top false) or largest value whose varint is @p len bytes. */
std::uint64_t
varintOfLength(unsigned len, bool top)
{
    if (!top)
        return len == 1 ? 0 : std::uint64_t{1} << (7 * (len - 1));
    return len == 10 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << (7 * len)) - 1;
}

/**
 * Every field takes every varint length from 1 to 10, at both ends of
 * that length's range, next to other fields of other lengths.  Each
 * record decodes mid-buffer (the unchecked path, which reads one- and
 * two-byte varints without its loop) and as the file's last record
 * (the checked tail).
 */
TEST_F(TraceFileTest, EveryVarintLengthInEveryFieldDecodes)
{
    std::vector<MemRef> refs;
    std::size_t body_bytes = 0;
    MemRef prev;
    for (unsigned field = 0; field < 3; ++field) {
        for (unsigned len = 1; len <= 10; ++len) {
            for (bool top : {false, true}) {
                // Field `field` is len bytes; the others cycle through
                // the remaining lengths.
                std::uint64_t coded[3];
                for (unsigned f = 0; f < 3; ++f) {
                    unsigned flen =
                        f == field ? len : 1 + (len + 3 * f + field) % 10;
                    coded[f] = varintOfLength(flen, top);
                    body_bytes += flen;
                }
                ++body_bytes; // the flag byte
                MemRef r;
                r.vaddr = prev.vaddr + static_cast<Addr>(
                                           zigZagDecode(coded[0]));
                r.pc = prev.pc + static_cast<Addr>(zigZagDecode(coded[1]));
                r.isWrite = refs.size() % 2 == 1;
                r.icount = prev.icount + coded[2];
                refs.push_back(r);
                prev = r;
            }
        }
    }
    auto write = [&](std::size_t count, std::size_t padding) {
        TraceWriter writer(_path);
        for (std::size_t i = 0; i < count; ++i)
            writer.write(refs[i]);
        // Five-byte records after the last: the ones above sit at
        // least kTraceMaxRecordBytes before the end of the file.
        MemRef pad = count ? refs[count - 1] : MemRef{};
        for (std::size_t i = 0; i < padding; ++i) {
            pad.vaddr += 64;
            writer.write(pad);
        }
    };

    write(refs.size(), 8);
    ASSERT_EQ(readFile(_path).size(),
              kTraceHeaderBytes + body_bytes + 8 * 5);
    OracleDecode whole = oracleDecode(readFile(_path), _path);
    EXPECT_EQ(whole.error, "");
    EXPECT_EQ(std::vector<MemRef>(whole.refs.begin(),
                                  whole.refs.begin() +
                                      static_cast<std::ptrdiff_t>(
                                          refs.size())),
              refs);
    expectMatchesOracle(_path);

    for (std::size_t last = 1; last <= refs.size(); ++last) {
        SCOPED_TRACE("record " + std::to_string(last - 1) + " last");
        write(last, 0);
        OracleDecode want = oracleDecode(readFile(_path), _path);
        EXPECT_EQ(want.refs,
                  std::vector<MemRef>(refs.begin(),
                                      refs.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              last)));
        expectMatchesOracle(_path);
    }
}

TEST_F(TraceFileTest, LongTraceDecodesAcrossBufferRefills)
{
    std::unique_ptr<RefStream> stream = buildApp("mcf", 60000);
    std::vector<MemRef> refs = collect(*stream);
    stream->reset();
    dumpTrace(*stream, _path);
    // Past three 64 KiB read buffers, so records straddle refills.
    ASSERT_GE(readFile(_path).size(), 200000u);
    EXPECT_EQ(oracleDecode(readFile(_path), _path).refs, refs);
    expectMatchesOracle(_path);

    // next() and nextBatch() alternate across every refill boundary.
    TraceReader reader(_path);
    std::vector<MemRef> out;
    std::vector<MemRef> buf(1000);
    MemRef one;
    while (reader.next(one)) {
        out.push_back(one);
        std::size_t got = reader.nextBatch(buf.data(), buf.size());
        out.insert(out.end(), buf.begin(),
                   buf.begin() + static_cast<std::ptrdiff_t>(got));
    }
    EXPECT_EQ(out, refs);
}

/**
 * Error paths through nextBatch().  The records are five bytes each
 * (flag, +64 vaddr, zero pc and icount deltas), so record k starts at
 * byte 16 + 5k, and the reader's first 64 KiB fill (bytes 16 to
 * 65551) ends one byte into record kStraddle.
 */
class TraceErrorTest : public TraceFileTest
{
  protected:
    static constexpr std::size_t kStraddle = 65536 / 5;

    std::vector<MemRef> _refs;

    static std::size_t start(std::size_t k) { return 16 + 5 * k; }

    /** The trace image of @p n five-byte records. */
    std::vector<std::uint8_t>
    image(std::size_t n)
    {
        _refs.clear();
        for (std::size_t i = 0; i < n; ++i)
            _refs.push_back(ref(64 * (i + 1), 0));
        {
            TraceWriter writer(_path);
            for (const MemRef &r : _refs)
                writer.write(r);
        }
        std::vector<std::uint8_t> bytes = readFile(_path);
        EXPECT_EQ(bytes.size(), start(n));
        return bytes;
    }

    static void
    setCount(std::vector<std::uint8_t> &bytes, std::uint64_t count)
    {
        for (int i = 0; i < 8; ++i)
            bytes[8 + i] = static_cast<std::uint8_t>(count >> (8 * i));
    }

    /** @p n records and a never-ending varint before record @p k. */
    void
    writeMalformed(std::size_t n, std::size_t k)
    {
        std::vector<std::uint8_t> bytes = image(n);
        std::vector<std::uint8_t> bad(1 + 10, 0xff);
        bad[0] = 0; // flag byte, then ten continuation bytes
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(start(k)),
                     bad.begin(), bad.end());
        setCount(bytes, n + 1);
        writeFile(_path, bytes);
    }

    /**
     * The oracle fails after @p good records with @p why, and the
     * reader agrees with it.
     */
    void
    expectError(std::size_t good, const std::string &why)
    {
        OracleDecode want = oracleDecode(readFile(_path), _path);
        EXPECT_EQ(want.error, "trace file '" + _path + "' " + why);
        EXPECT_EQ(want.refs, std::vector<MemRef>(
                                 _refs.begin(),
                                 _refs.begin() +
                                     static_cast<std::ptrdiff_t>(good)));
        expectMatchesOracle(_path);
    }
};

TEST_F(TraceErrorTest, MalformedVarintInTheFinalBytes)
{
    writeMalformed(3, 3);
    expectError(3, "has malformed varint");
}

TEST_F(TraceErrorTest, MalformedVarintMidBuffer)
{
    writeMalformed(40, 20); // 100 valid bytes follow the bad record
    expectError(20, "has malformed varint");
}

TEST_F(TraceErrorTest, MalformedVarintAcrossTheFirstRefill)
{
    writeMalformed(kStraddle + 100, kStraddle);
    expectError(kStraddle, "has malformed varint");
}

TEST_F(TraceErrorTest, TruncatedRecordInTheFinalBytes)
{
    std::vector<std::uint8_t> bytes = image(5);
    bytes.erase(bytes.end() - 2, bytes.end());
    writeFile(_path, bytes);
    expectError(4, "truncated at record 4");
}

TEST_F(TraceErrorTest, TruncatedRecordAtEveryCutAroundTheFirstRefill)
{
    // A file ends only once, so a truncated record is always in its
    // last bytes.  Cutting at every byte around the first fill's end
    // covers a file ending inside that fill, exactly at its end, and
    // inside the record whose head a refill carries forward.
    std::vector<std::uint8_t> whole = image(kStraddle + 3);
    for (std::size_t cut = start(kStraddle - 2); cut < whole.size(); ++cut) {
        writeFile(_path,
                  std::vector<std::uint8_t>(
                      whole.begin(),
                      whole.begin() + static_cast<std::ptrdiff_t>(cut)));
        std::size_t good = (cut - 16) / 5;
        SCOPED_TRACE(cut);
        expectError(good, "truncated at record " + std::to_string(good));
    }
}

TEST_F(TraceErrorTest, HeaderCountAboveTheRecordsPresent)
{
    std::vector<std::uint8_t> bytes = image(40);
    setCount(bytes, 43);
    writeFile(_path, bytes);
    expectError(40, "truncated at record 40");
}

TEST_F(TraceErrorTest, HeaderCountBelowTheRecordsPresentStopsAtCount)
{
    std::vector<std::uint8_t> bytes = image(40);
    setCount(bytes, 25);
    writeFile(_path, bytes);
    OracleDecode want = oracleDecode(readFile(_path), _path);
    EXPECT_EQ(want.error, "");
    EXPECT_EQ(want.refs, std::vector<MemRef>(_refs.begin(),
                                             _refs.begin() + 25));
    expectMatchesOracle(_path);
}

/**
 * A reader that has thrown stays failed: reset(), next() and
 * nextBatch() rethrow the first error instead of touching the file
 * handle the failure released.
 */
TEST_F(TraceErrorTest, ErrorIsStickyAcrossResetNextAndNextBatch)
{
    writeMalformed(kStraddle + 100, 20);
    TraceReader reader(_path, TraceReader::ErrorPolicy::Throw);
    std::vector<MemRef> buf(64);
    std::string first;
    try {
        while (reader.nextBatch(buf.data(), buf.size()) > 0) {
        }
    } catch (const std::invalid_argument &e) {
        first = e.what();
    }
    ASSERT_NE(first.find("malformed varint"), std::string::npos) << first;
    auto rethrown = [&](auto &&call) {
        try {
            call();
        } catch (const std::invalid_argument &e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    MemRef one;
    EXPECT_EQ(rethrown([&] { reader.reset(); }), first);
    EXPECT_EQ(rethrown([&] { reader.next(one); }), first);
    EXPECT_EQ(rethrown([&] { reader.nextBatch(buf.data(), buf.size()); }),
              first);
    EXPECT_EQ(rethrown([&] { reader.reset(); }), first);
}

/**
 * Fuzz-corpus regressions (tests/data/fuzz_regressions/): hostile
 * .tpf files from the fuzz_trace corpus must keep failing the same
 * way the harness demands — the cheap probe and the throwing reader
 * agree, and a decode attempt raises invalid_argument rather than
 * crashing or returning silent garbage.
 */
TEST(TraceFuzzRegressions, HostileFilesAreRejectedNotDecoded)
{
    for (const char *name :
         {"trace_truncated.tpf", "trace_magic_only.tpf"}) {
        std::string path = std::string(TLBPF_TEST_DATA_DIR) +
                           "/fuzz_regressions/" + name;
        std::string probe = probeTraceFile(path);
        bool rejected = false;
        try {
            TraceReader reader(path,
                               TraceReader::ErrorPolicy::Throw);
            EXPECT_EQ(probe, "")
                << name
                << ": the probe rejected what the reader accepted";
            MemRef r;
            while (reader.next(r)) {
            }
        } catch (const std::invalid_argument &) {
            rejected = true;
        }
        EXPECT_TRUE(rejected) << name << " decoded without an error";
    }
}

TEST_F(TraceFileTest, NextBatchMatchesNextAndInterleaves)
{
    std::vector<MemRef> refs;
    for (int i = 0; i < 500; ++i) {
        // Mixed deltas, directions, flags and icount gaps so every
        // varint width shows up.
        Addr page = (i % 7 == 0) ? (1ull << 35) + i * 4096u
                                 : 4096u * ((i * 37) % 97);
        refs.push_back(ref(page + i, 0x400000 + (i % 3) * 8, i % 2,
                           static_cast<std::uint64_t>(i) * 5));
    }
    {
        TraceWriter writer(_path);
        for (const MemRef &r : refs)
            writer.write(r);
    }
    // Pure batch drain, at several batch sizes.
    for (std::size_t batch : {1u, 3u, 7u, 64u}) {
        TraceReader reader(_path);
        std::vector<MemRef> out;
        std::vector<MemRef> buf(batch);
        std::size_t got;
        while ((got = reader.nextBatch(buf.data(), batch)) > 0) {
            out.insert(out.end(), buf.begin(),
                       buf.begin() + static_cast<std::ptrdiff_t>(got));
            if (got < batch)
                break;
        }
        EXPECT_EQ(out, refs) << "batch size " << batch;
    }
    // next() and nextBatch() interleaved mid-stream are equivalent.
    TraceReader reader(_path);
    std::vector<MemRef> out;
    MemRef one;
    std::vector<MemRef> buf(13);
    for (;;) {
        if (out.size() % 2 == 0) {
            if (!reader.next(one))
                break;
            out.push_back(one);
        } else {
            std::size_t got = reader.nextBatch(buf.data(), buf.size());
            out.insert(out.end(), buf.begin(),
                       buf.begin() + static_cast<std::ptrdiff_t>(got));
            if (got < buf.size())
                break;
        }
    }
    EXPECT_EQ(out, refs);
}

TEST_F(TraceFileTest, MissingFileIsFatal)
{
    EXPECT_EXIT({ TraceReader reader("/nonexistent/trace.tpft"); },
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST_F(TraceFileTest, BadMagicIsFatal)
{
    {
        std::FILE *f = std::fopen(_path.c_str(), "wb");
        std::fputs("NOT A TRACE FILE AT ALL", f);
        std::fclose(f);
    }
    EXPECT_EXIT({ TraceReader reader(_path); },
                ::testing::ExitedWithCode(1), "bad magic");
}

} // namespace
} // namespace tlbpf
