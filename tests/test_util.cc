/**
 * @file
 * Unit tests for the utility substrate: logging, RNG, bit helpers,
 * CLI parsing, CSV quoting, the ASCII table printer, and the
 * TLBPF_DCHECK invariant layer.
 */

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <sstream>
#include <vector>

#include "util/bits.hh"
#include "util/check.hh"
#include "util/cli.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/snapshot.hh"
#include "util/table_printer.hh"

namespace tlbpf
{
namespace
{

TEST(Logging, WarnIncrementsCounter)
{
    auto before = Logger::instance().warnCount();
    tlbpf_warn("test warning ", 42);
    EXPECT_EQ(Logger::instance().warnCount(), before + 1);
}

TEST(Logging, FormatConcatenatesArguments)
{
    EXPECT_EQ(detail::format("a", 1, "-", 2.5), "a1-2.5");
    EXPECT_EQ(detail::format(), "");
}

TEST(Logging, AssertFiresOnFalse)
{
    EXPECT_DEATH({ tlbpf_assert(1 == 2, "math broke"); }, "math broke");
}

TEST(Logging, FatalExitsWithCodeOne)
{
    EXPECT_EXIT({ tlbpf_fatal("bad config"); },
                ::testing::ExitedWithCode(1), "bad config");
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 100ull, 1ull << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowCoversSmallRange)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(rng.nextBelow(4));
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(13);
    bool hit_lo = false;
    bool hit_hi = false;
    for (int i = 0; i < 500; ++i) {
        std::int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        hit_lo = hit_lo || v == -3;
        hit_hi = hit_hi || v == 3;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(17);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(19);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(23);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(29);
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    std::vector<int> orig = v;
    rng.shuffle(v);
    std::multiset<int> a(v.begin(), v.end());
    std::multiset<int> b(orig.begin(), orig.end());
    EXPECT_EQ(a, b);
}

TEST(Zipf, SamplesInRange)
{
    Rng rng(31);
    ZipfSampler zipf(100, 0.9);
    for (int i = 0; i < 2000; ++i)
        EXPECT_LT(zipf.sample(rng), 100u);
}

TEST(Zipf, LowRanksMorePopular)
{
    Rng rng(37);
    ZipfSampler zipf(1000, 0.9);
    std::uint64_t low = 0;
    std::uint64_t high = 0;
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t r = zipf.sample(rng);
        low += r < 10;
        high += r >= 500;
    }
    EXPECT_GT(low, high);
}

TEST(Bits, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1ull << 40));
    EXPECT_FALSE(isPowerOfTwo((1ull << 40) + 1));
}

TEST(Bits, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
}

TEST(Bits, ZigZagRoundTrip)
{
    for (std::int64_t v :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
          std::int64_t{2}, std::int64_t{-2}, std::int64_t{1000000},
          std::int64_t{-1000000}, std::int64_t{INT64_MAX / 2},
          std::int64_t{INT64_MIN / 2}})
        EXPECT_EQ(zigZagDecode(zigZagEncode(v)), v);
}

TEST(Bits, ZigZagSmallMagnitudesGetSmallCodes)
{
    EXPECT_EQ(zigZagEncode(0), 0u);
    EXPECT_EQ(zigZagEncode(-1), 1u);
    EXPECT_EQ(zigZagEncode(1), 2u);
    EXPECT_EQ(zigZagEncode(-2), 3u);
    EXPECT_EQ(zigZagEncode(2), 4u);
}

TEST(Cli, ParsesEqualsAndSpaceForms)
{
    const char *argv[] = {"prog", "--refs=100", "--app", "mcf", "pos"};
    CliArgs args(5, argv, {"refs", "app"});
    EXPECT_EQ(args.getInt("refs", 0), 100);
    EXPECT_EQ(args.get("app"), "mcf");
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "pos");
}

TEST(Cli, DefaultsWhenAbsent)
{
    const char *argv[] = {"prog"};
    CliArgs args(1, argv, {"refs"});
    EXPECT_FALSE(args.has("refs"));
    EXPECT_EQ(args.getInt("refs", 42), 42);
    EXPECT_DOUBLE_EQ(args.getDouble("refs", 2.5), 2.5);
    EXPECT_EQ(args.get("refs", "x"), "x");
}

TEST(Cli, UnknownOptionIsFatal)
{
    const char *argv[] = {"prog", "--bogus=1"};
    EXPECT_EXIT({ CliArgs args(2, argv, {"refs"}); },
                ::testing::ExitedWithCode(1), "unknown option");
}

TEST(Cli, BadIntegerIsFatal)
{
    const char *argv[] = {"prog", "--refs=abc"};
    EXPECT_EXIT(
        {
            CliArgs args(2, argv, {"refs"});
            args.getInt("refs", 0);
        },
        ::testing::ExitedWithCode(1), "expects an integer");
}

TEST(Cli, ParseIntList)
{
    auto v = parseIntList("32,64,128");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], 32);
    EXPECT_EQ(v[2], 128);
    EXPECT_TRUE(parseIntList("").empty());
}

TEST(Cli, ParseStringList)
{
    auto v = parseStringList("a,b,,c");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[1], "b");
}

TEST(Csv, QuotesOnlyWhenNeeded)
{
    EXPECT_EQ(CsvWriter::quote("plain"), "plain");
    EXPECT_EQ(CsvWriter::quote("a,b"), "\"a,b\"");
    EXPECT_EQ(CsvWriter::quote("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter table({"name", "value"});
    table.addRow({"x", "1"});
    table.addRow({"longer", "22"});
    std::ostringstream oss;
    table.print(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("| name   | value |"), std::string::npos);
    EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
    EXPECT_EQ(table.rows(), 2u);
}

TEST(TablePrinter, NumFormatting)
{
    EXPECT_EQ(TablePrinter::num(0.1234, 2), "0.12");
    EXPECT_EQ(TablePrinter::num(static_cast<std::int64_t>(-7)), "-7");
}

TEST(TablePrinter, ArityMismatchPanics)
{
    TablePrinter table({"a", "b"});
    EXPECT_DEATH(table.addRow({"only-one"}), "row arity");
}

// ------------------------------------- TLBPF_DCHECK invariant layer

TEST(Check, PassingChecksAreSilent)
{
    ScopedCheckFailThrow guard;
    TLBPF_DCHECK(1 + 1 == 2);
    TLBPF_DCHECK_MSG(true, "never formatted");
}

/**
 * The compiled-out form must not evaluate its condition (so a DCHECK
 * can never perturb Release behavior); the compiled-in form must.
 */
TEST(Check, ConditionEvaluationMatchesBuildFlavor)
{
    int evaluations = 0;
    TLBPF_DCHECK((++evaluations, true));
    EXPECT_EQ(evaluations, dchecksEnabled() ? 1 : 0);
}

TEST(Check, FailureCarriesExpressionMessageAndLocation)
{
    if (!dchecksEnabled())
        GTEST_SKIP() << "TLBPF_DCHECK is compiled out of this build";
    ScopedCheckFailThrow guard;
    try {
        TLBPF_DCHECK_MSG(2 + 2 == 5, "math is ", "broken");
        FAIL() << "the check never fired";
    } catch (const CheckFailure &failure) {
        std::string what = failure.what();
        EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos) << what;
        EXPECT_NE(what.find("math is broken"), std::string::npos)
            << what;
        EXPECT_NE(what.find("test_util.cc"), std::string::npos) << what;
    }
}

TEST(Check, ScopedThrowRestoresThePreviousHandlerOnExit)
{
    if (!dchecksEnabled())
        GTEST_SKIP() << "TLBPF_DCHECK is compiled out of this build";
    {
        ScopedCheckFailThrow outer;
        {
            ScopedCheckFailThrow inner;
            EXPECT_THROW(TLBPF_DCHECK(false), CheckFailure);
        }
        // The outer scope's throwing handler is back in place.
        EXPECT_THROW(TLBPF_DCHECK(false), CheckFailure);
    }
}


/** Every varint reads back as written, in its shortest form. */
TEST(Snapshot, VarintsRoundTripInTheirShortestForm)
{
    for (std::uint64_t value : std::vector<std::uint64_t>{
             0, 1, 127, 128, 300, 1ull << 56, 1ull << 63, UINT64_MAX}) {
        SnapshotWriter out;
        out.varint(value);
        std::size_t bits = value == 0 ? 1 : 64 - std::countl_zero(value);
        EXPECT_EQ(out.bytes().size(), (bits + 6) / 7) << value;
        SnapshotReader in(out.bytes());
        EXPECT_EQ(in.varint(), value);
        EXPECT_TRUE(in.atEnd());
    }
    for (std::int64_t value : std::vector<std::int64_t>{
             0, -1, 1, -64, 64, INT64_MIN, INT64_MAX}) {
        SnapshotWriter out;
        out.svarint(value);
        SnapshotReader in(out.bytes());
        EXPECT_EQ(in.svarint(), value);
        EXPECT_TRUE(in.atEnd());
    }
}

/** A longer spelling of a shorter varint would not re-serialize. */
TEST(Snapshot, ReaderRejectsOverlongVarints)
{
    for (const std::vector<std::uint8_t> &bytes :
         {std::vector<std::uint8_t>{0x80, 0x00},
          std::vector<std::uint8_t>{0xff, 0x00},
          std::vector<std::uint8_t>{0x81, 0x80, 0x00}}) {
        SnapshotReader in(bytes);
        EXPECT_THROW(in.varint(), std::invalid_argument);
    }
}

TEST(Snapshot, ReaderRejectsVarintsPast64Bits)
{
    std::vector<std::uint8_t> max(9, 0xff);
    max.push_back(0x01);
    SnapshotReader fits(max);
    EXPECT_EQ(fits.varint(), UINT64_MAX);
    for (std::uint8_t last : {0x02, 0x81}) {
        std::vector<std::uint8_t> bytes(9, 0xff);
        bytes.push_back(last);
        bytes.push_back(0x01);
        SnapshotReader in(bytes);
        EXPECT_THROW(in.varint(), std::invalid_argument) << int(last);
    }
}

TEST(Snapshot, ReaderRejectsBooleansOtherThanZeroAndOne)
{
    std::vector<std::uint8_t> bytes = {0, 1, 2, 0xff};
    SnapshotReader in(bytes);
    EXPECT_FALSE(in.boolean());
    EXPECT_TRUE(in.boolean());
    EXPECT_THROW(in.boolean(), std::invalid_argument);
    EXPECT_THROW(in.boolean(), std::invalid_argument);
}

} // namespace
} // namespace tlbpf
