/**
 * @file
 * Unit tests for the TLB and the prefetch buffer.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "tlb/prefetch_buffer.hh"
#include "tlb/tlb.hh"

namespace tlbpf
{
namespace
{

TEST(Tlb, MissThenHitAfterInsert)
{
    Tlb tlb({4, 0});
    EXPECT_FALSE(tlb.access(1));
    EXPECT_EQ(tlb.insert(1), std::nullopt);
    EXPECT_TRUE(tlb.access(1));
    EXPECT_TRUE(tlb.contains(1));
    EXPECT_EQ(tlb.residentCount(), 1u);
}

TEST(Tlb, FullyAssociativeEvictsTrueLru)
{
    Tlb tlb({3, 0});
    tlb.insert(1);
    tlb.insert(2);
    tlb.insert(3);
    tlb.access(1); // 2 is now LRU
    auto evicted = tlb.insert(4);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 2u);
    EXPECT_TRUE(tlb.contains(1));
    EXPECT_FALSE(tlb.contains(2));
}

TEST(Tlb, SetAssociativeConflictsWithinSet)
{
    // 4 entries, 2-way: 2 sets; even pages -> set 0, odd -> set 1.
    Tlb tlb({4, 2});
    tlb.insert(0);
    tlb.insert(2);
    tlb.insert(1); // odd set untouched by the evens
    auto evicted = tlb.insert(4); // third even page: evicts LRU even
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 0u);
    EXPECT_TRUE(tlb.contains(1));
    EXPECT_TRUE(tlb.contains(2));
}

TEST(Tlb, InsertIntoFreeWayEvictsNothing)
{
    Tlb tlb({4, 2});
    EXPECT_EQ(tlb.insert(0), std::nullopt);
    EXPECT_EQ(tlb.insert(2), std::nullopt);
    EXPECT_EQ(tlb.insert(1), std::nullopt);
    EXPECT_EQ(tlb.insert(3), std::nullopt);
}

TEST(Tlb, AccessRefreshesLru)
{
    Tlb tlb({2, 0});
    tlb.insert(1);
    tlb.insert(2);
    tlb.access(1);
    EXPECT_EQ(*tlb.insert(3), 2u);
}

TEST(Tlb, FlushEmptiesEverything)
{
    Tlb tlb({4, 0});
    tlb.insert(1);
    tlb.insert(2);
    tlb.flush();
    EXPECT_EQ(tlb.residentCount(), 0u);
    EXPECT_FALSE(tlb.contains(1));
    EXPECT_EQ(tlb.insert(1), std::nullopt);
}

TEST(Tlb, DoubleInsertPanics)
{
    Tlb tlb({4, 0});
    tlb.insert(1);
    EXPECT_DEATH(tlb.insert(1), "double insert");
}

TEST(Tlb, BadGeometryIsRejected)
{
    EXPECT_DEATH(Tlb({100, 3}), "multiple of associativity");
    EXPECT_DEATH(Tlb({96, 2}), "power of two");
}

/**
 * The recency index ranks entries by the order they were used, so a
 * checkpoint must not hold an entry used after the TLB's own clock:
 * the next fill would rank older than it by clock but newer by order.
 */
TEST(Tlb, RestoreRejectsAnEntryUsedAfterTheClock)
{
    Tlb tlb({128, 0});
    tlb.insert(1);
    tlb.insert(2); // clock 2, the entry for page 2 last used at 2
    SnapshotWriter out;
    tlb.snapshotState(out);
    std::vector<std::uint8_t> bytes = out.take();

    Tlb restored({128, 0});
    SnapshotReader in(bytes);
    restored.restoreState(in);
    EXPECT_TRUE(restored.contains(1));
    EXPECT_TRUE(restored.contains(2));

    bytes[0] = 1; // the clock is the first little-endian word
    SnapshotReader behind(bytes);
    Tlb rejecting({128, 0});
    EXPECT_THROW(rejecting.restoreState(behind), std::invalid_argument);
}

TEST(Tlb, PaperConfigurationsConstruct)
{
    for (std::uint32_t entries : {64u, 128u, 256u}) {
        for (std::uint32_t assoc : {0u, 2u, 4u}) {
            Tlb tlb({entries, assoc});
            EXPECT_EQ(tlb.config().entries, entries);
        }
    }
}

TEST(PrefetchBuffer, HitRemovesEntry)
{
    PrefetchBuffer pb(4);
    pb.insert(10, 123);
    EXPECT_TRUE(pb.contains(10));
    Tick ready = 0;
    EXPECT_TRUE(pb.hitAndPromote(10, ready));
    EXPECT_EQ(ready, 123u);
    EXPECT_FALSE(pb.contains(10));
    EXPECT_FALSE(pb.hitAndPromote(10, ready));
    EXPECT_EQ(pb.hits(), 1u);
}

TEST(PrefetchBuffer, EvictsLruWhenFull)
{
    PrefetchBuffer pb(2);
    pb.insert(1);
    pb.insert(2);
    pb.insert(3); // evicts 1
    EXPECT_FALSE(pb.contains(1));
    EXPECT_TRUE(pb.contains(2));
    EXPECT_TRUE(pb.contains(3));
    EXPECT_EQ(pb.evictedUnused(), 1u);
    EXPECT_EQ(pb.size(), 2u);
}

TEST(PrefetchBuffer, ReinsertRefreshesRecencyAndKeepsEarlierReadyTime)
{
    PrefetchBuffer pb(2);
    pb.insert(1, 100);
    pb.insert(2, 200);
    pb.insert(1, 500); // refresh: 2 becomes LRU, ready stays 100
    pb.insert(3, 300); // evicts 2
    EXPECT_TRUE(pb.contains(1));
    EXPECT_FALSE(pb.contains(2));
    Tick ready = 0;
    pb.hitAndPromote(1, ready);
    EXPECT_EQ(ready, 100u);
    // Refresh does not double-count inserts.
    EXPECT_EQ(pb.inserts(), 3u);
}

TEST(PrefetchBuffer, FlushDropsAll)
{
    PrefetchBuffer pb(4);
    pb.insert(1);
    pb.insert(2);
    pb.flush();
    EXPECT_EQ(pb.size(), 0u);
    EXPECT_FALSE(pb.contains(1));
}

TEST(PrefetchBuffer, CapacityNeverExceeded)
{
    PrefetchBuffer pb(3);
    for (Vpn v = 0; v < 100; ++v) {
        pb.insert(v);
        EXPECT_LE(pb.size(), 3u);
    }
    EXPECT_EQ(pb.evictedUnused(), 97u);
}

} // namespace
} // namespace tlbpf
