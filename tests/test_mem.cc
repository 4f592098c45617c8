/**
 * @file
 * Unit tests for the memory substrate: page table, the RP recency
 * stack threaded through it, and the prefetch channel timing model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

#include "mem/page_table.hh"
#include "mem/prefetch_channel.hh"
#include "util/bits.hh"

namespace tlbpf
{
namespace
{

TEST(PageTable, AllocatesOnFirstTouch)
{
    PageTable pt;
    EXPECT_EQ(pt.find(42), nullptr);
    PageTableEntry &pte = pt.lookup(42);
    EXPECT_EQ(pt.size(), 1u);
    EXPECT_EQ(pt.find(42), &pte);
    EXPECT_FALSE(pte.inStack);
}

TEST(PageTable, LookupIsIdempotent)
{
    PageTable pt;
    Pfn pfn = pt.lookup(7).pfn;
    EXPECT_EQ(pt.lookup(7).pfn, pfn);
    EXPECT_EQ(pt.size(), 1u);
}

TEST(PageTable, DistinctPagesGetDistinctFrames)
{
    PageTable pt;
    EXPECT_NE(pt.lookup(1).pfn, pt.lookup(2).pfn);
}

TEST(PageTable, RecencyOverheadCountsTwoWordsPerPte)
{
    PageTable pt;
    pt.lookup(1);
    pt.lookup(2);
    EXPECT_EQ(pt.recencyOverheadBytes(), 32u);
}

TEST(PageTable, ClearDropsEverything)
{
    PageTable pt;
    pt.lookup(1);
    pt.clear();
    EXPECT_EQ(pt.size(), 0u);
    EXPECT_EQ(pt.find(1), nullptr);
}

class RecencyStackTest : public ::testing::Test
{
  protected:
    PageTable pt;
    RecencyStack stack{pt};
};

TEST_F(RecencyStackTest, StartsEmpty)
{
    EXPECT_EQ(stack.top(), kNoPage);
    EXPECT_EQ(stack.linkedCount(), 0u);
}

TEST_F(RecencyStackTest, PushOnEvictionOnly)
{
    // Miss to page 1 with no TLB eviction: nothing enters the stack.
    auto res = stack.onMiss(1, kNoPage);
    EXPECT_EQ(res.numNeighbors, 0u);
    EXPECT_EQ(res.pointerOps, 0u);
    EXPECT_EQ(stack.linkedCount(), 0u);

    // Miss to page 2 evicting page 1: page 1 goes on top.
    res = stack.onMiss(2, 1);
    EXPECT_EQ(stack.top(), 1u);
    EXPECT_EQ(stack.linkedCount(), 1u);
    EXPECT_TRUE(stack.contains(1));
    EXPECT_GE(res.pointerOps, 1u);
}

TEST_F(RecencyStackTest, NeighborsReportedOnUnlink)
{
    // Build stack: evictions 1, 2, 3 (3 on top).
    stack.onMiss(100, 1);
    stack.onMiss(101, 2);
    stack.onMiss(102, 3);
    EXPECT_EQ(stack.linkedCount(), 3u);
    EXPECT_EQ(stack.top(), 3u);

    // Miss to 2 (middle of stack): neighbours are 3 (prev) and 1
    // (next); 2 leaves the stack, and evicted 102 is pushed.
    auto res = stack.onMiss(2, 102);
    ASSERT_EQ(res.numNeighbors, 2u);
    EXPECT_EQ(res.neighbors[0], 3u);
    EXPECT_EQ(res.neighbors[1], 1u);
    EXPECT_FALSE(stack.contains(2));
    EXPECT_TRUE(stack.contains(102));
    EXPECT_EQ(stack.top(), 102u);
    // Middle unlink (2 writes) + push onto non-empty stack (2 writes).
    EXPECT_EQ(res.pointerOps, 4u);
}

TEST_F(RecencyStackTest, UnlinkHeadHasOneNeighbor)
{
    stack.onMiss(100, 1);
    stack.onMiss(101, 2); // stack: 2, 1
    auto res = stack.onMiss(2, kNoPage);
    ASSERT_EQ(res.numNeighbors, 1u);
    EXPECT_EQ(res.neighbors[0], 1u);
    EXPECT_EQ(stack.top(), 1u);
}

TEST_F(RecencyStackTest, UnlinkTailHasOneNeighbor)
{
    stack.onMiss(100, 1);
    stack.onMiss(101, 2); // stack: 2, 1
    auto res = stack.onMiss(1, kNoPage);
    ASSERT_EQ(res.numNeighbors, 1u);
    EXPECT_EQ(res.neighbors[0], 2u);
}

TEST_F(RecencyStackTest, TemporalNeighborhoodPredictsRepeatedOrder)
{
    // Evict pages in the order 10, 11, 12, 13 (a scan), then miss on
    // 11: its stack neighbours are exactly its eviction-time
    // neighbours 12 and 10 — the mechanism's core bet.
    stack.onMiss(100, 10);
    stack.onMiss(101, 11);
    stack.onMiss(102, 12);
    stack.onMiss(103, 13);
    auto res = stack.onMiss(11, kNoPage);
    ASSERT_EQ(res.numNeighbors, 2u);
    EXPECT_EQ(res.neighbors[0], 12u);
    EXPECT_EQ(res.neighbors[1], 10u);
}

TEST_F(RecencyStackTest, ResetUnlinksAll)
{
    stack.onMiss(100, 1);
    stack.onMiss(101, 2);
    stack.reset();
    EXPECT_EQ(stack.top(), kNoPage);
    EXPECT_EQ(stack.linkedCount(), 0u);
    EXPECT_FALSE(stack.contains(1));
    EXPECT_FALSE(stack.contains(2));
    // Stack is usable again after reset.
    stack.onMiss(102, 3);
    EXPECT_EQ(stack.top(), 3u);
}

TEST_F(RecencyStackTest, DoublePushPanics)
{
    stack.onMiss(100, 1);
    EXPECT_DEATH(stack.onMiss(101, 1), "already in recency stack");
}

/** RP's link words for one page: {vpn, next, prev, inStack}. */
using Link = std::array<Vpn, 4>;

/**
 * A checkpoint's page-table section, written by hand: translations
 * @p pages and the link entries @p links in the given order (as
 * PageTable writes them when that order ascends), then RP's stack head
 * @p top and count @p linked.
 */
std::vector<std::uint8_t>
pageSection(const std::vector<Vpn> &pages, const std::vector<Link> &links,
            Vpn top = kNoPage, std::uint64_t linked = 0)
{
    auto code = [](Vpn word, Vpn vpn) {
        return word == kNoPage
                   ? 0
                   : zigZagEncode(static_cast<std::int64_t>(word - vpn));
    };
    SnapshotWriter out;
    out.varint(pages.size());
    Vpn prev = 0;
    for (Vpn vpn : pages) {
        out.varint(vpn - prev);
        prev = vpn;
    }
    out.varint(links.size());
    prev = 0;
    for (const Link &link : links) {
        out.varint(link[0] - prev);
        prev = link[0];
        out.varint(code(link[1], link[0]));
        out.varint(code(link[2], link[0]));
        out.boolean(link[3] != 0);
    }
    out.u64(top);
    out.u64(linked);
    return out.take();
}

/** Restore @p bytes as a page-table section plus RP's stack state. */
void
restoreSection(const std::vector<std::uint8_t> &bytes)
{
    PageTable pt;
    PageTable links;
    RecencyStack stack(links);
    SnapshotReader in(bytes);
    pt.restoreState(in, links);
    stack.restoreState(in);
    EXPECT_TRUE(in.atEnd());
}

TEST(PageTable, CheckpointSectionRoundTrips)
{
    // Pages 3, 5 and 9 evicted in that order: the stack is 9 -> 5 -> 3.
    PageTable pt;
    PageTable links;
    RecencyStack stack(links);
    for (Vpn vpn : {1, 3, 5, 9})
        pt.lookup(vpn);
    for (Vpn vpn : {3, 5, 9})
        stack.onMiss(1, vpn);
    std::vector<Vpn> pages = pt.sortedPages();
    EXPECT_EQ(pages, (std::vector<Vpn>{1, 3, 5, 9}));
    SnapshotWriter out;
    PageTable::snapshotPages(out, pages);
    links.snapshotLinks(out, pages);
    stack.snapshotState(out);
    // Translations 1, +2, +2, +4.  Page 3's prev is 5, +2 from it, so
    // zigzag 4; page 5's next is -2 (zigzag 3) and prev +4 (8); page
    // 9's next is -4 (7).
    EXPECT_EQ(out.bytes(), pageSection({1, 3, 5, 9},
                                       {{3, kNoPage, 5, 1},
                                        {5, 3, 9, 1},
                                        {9, 5, kNoPage, 1}},
                                       9, 3));
    const std::vector<std::uint8_t> links_part = {3, 3, 0, 4, 1,
                                                  2, 3, 8, 1,
                                                  4, 7, 0, 1};
    EXPECT_TRUE(std::search(out.bytes().begin(), out.bytes().end(),
                            links_part.begin(),
                            links_part.end()) != out.bytes().end());

    PageTable restored;
    PageTable restored_links;
    RecencyStack restored_stack(restored_links);
    SnapshotReader in(out.bytes());
    restored.restoreState(in, restored_links);
    restored_stack.restoreState(in);
    EXPECT_TRUE(in.atEnd());
    for (Vpn vpn : pages)
        EXPECT_EQ(restored.find(vpn)->pfn, pt.find(vpn)->pfn) << vpn;
    EXPECT_EQ(restored_stack.top(), 9u);
    EXPECT_EQ(restored_stack.onMiss(5, kNoPage).neighbors[0], 9u);
}

TEST(PageTable, RestoreRejectsZeroVpnDeltas)
{
    EXPECT_NO_THROW(restoreSection(pageSection({0, 4}, {})));
    EXPECT_THROW(restoreSection(pageSection({4, 4}, {})),
                 std::invalid_argument);
}

TEST(PageTable, RestoreRejectsVpnsPast64Bits)
{
    std::vector<std::uint8_t> bytes = pageSection({kNoPage - 1, kNoPage}, {});
    EXPECT_NO_THROW(restoreSection(bytes));
    bytes[11] = 2; // the second delta
    EXPECT_THROW(restoreSection(bytes), std::invalid_argument);
}

TEST(PageTable, RestoreRejectsLinksOutOfOrder)
{
    EXPECT_THROW(restoreSection(pageSection(
                     {1, 2, 3}, {{2, kNoPage, kNoPage, 1},
                                 {2, kNoPage, kNoPage, 1}},
                     2, 2)),
                 std::invalid_argument);
}

TEST(PageTable, RestoreRejectsLinkEntriesOfDefaultWords)
{
    EXPECT_THROW(restoreSection(pageSection(
                     {1, 2}, {{2, kNoPage, kNoPage, 0}})),
                 std::invalid_argument);
}

TEST(PageTable, RestoreRejectsLinksOfUntranslatedPages)
{
    EXPECT_THROW(restoreSection(pageSection(
                     {1, 2}, {{3, kNoPage, kNoPage, 1}}, 3, 1)),
                 std::invalid_argument);
}

/** The stack's links must form the one list its head and count name. */
TEST(RecencyStackRestore, AcceptsTheListItsHeadNames)
{
    // The stack is 3 -> 1.
    EXPECT_NO_THROW(restoreSection(pageSection(
        {1, 2, 3}, {{1, kNoPage, 3, 1}, {3, 1, kNoPage, 1}}, 3, 2)));
    EXPECT_NO_THROW(restoreSection(pageSection({1, 2, 3}, {}, kNoPage, 0)));
}

TEST(RecencyStackRestore, RejectsAHeadThatIsNotLinked)
{
    EXPECT_THROW(restoreSection(pageSection(
                     {1, 2, 3}, {{1, kNoPage, 3, 1}, {3, 1, kNoPage, 1}},
                     2, 2)),
                 std::invalid_argument);
    EXPECT_THROW(restoreSection(pageSection({1, 2, 3}, {}, 3, 0)),
                 std::invalid_argument);
}

TEST(RecencyStackRestore, RejectsAWrongLinkCount)
{
    for (std::uint64_t linked : {1, 3})
        EXPECT_THROW(restoreSection(pageSection(
                         {1, 2, 3}, {{1, kNoPage, 3, 1}, {3, 1, kNoPage, 1}},
                         3, linked)),
                     std::invalid_argument)
            << linked;
}

TEST(RecencyStackRestore, RejectsAPrevWordThatDoesNotLinkBack)
{
    // 3 -> 1, but page 1's prev names page 2.
    EXPECT_THROW(restoreSection(pageSection(
                     {1, 2, 3}, {{1, kNoPage, 2, 1}, {3, 1, kNoPage, 1}},
                     3, 2)),
                 std::invalid_argument);
}

TEST(RecencyStackRestore, RejectsALinkedPageTheHeadDoesNotReach)
{
    // 3 -> 1, plus page 2 marked as on the stack.
    EXPECT_THROW(restoreSection(pageSection(
                     {1, 2, 3},
                     {{1, kNoPage, 3, 1},
                      {2, kNoPage, kNoPage, 1},
                      {3, 1, kNoPage, 1}},
                     3, 2)),
                 std::invalid_argument);
}

TEST(RecencyStackRestore, RejectsACycle)
{
    // 3 -> 1 -> 3: page 3's prev would have to be both none and 1.
    EXPECT_THROW(restoreSection(pageSection(
                     {1, 2, 3}, {{1, 3, 3, 1}, {3, 1, kNoPage, 1}}, 3, 2)),
                 std::invalid_argument);
}

TEST(RecencyStackRestore, RejectsALinkToAnUnlistedPage)
{
    // 3 -> 1 -> 7, where page 7 is neither translated nor linked.
    EXPECT_THROW(restoreSection(pageSection(
                     {1, 2, 3}, {{1, 7, 3, 1}, {3, 1, kNoPage, 1}}, 3, 2)),
                 std::invalid_argument);
}

TEST(PrefetchChannel, OpsSerialise)
{
    PrefetchChannel ch(50);
    auto first = ch.issue(0, 2);
    EXPECT_EQ(first.start, 0u);
    EXPECT_EQ(first.done, 100u);
    auto second = ch.issue(10, 1); // queued behind the first batch
    EXPECT_EQ(second.start, 100u);
    EXPECT_EQ(second.done, 150u);
    EXPECT_EQ(ch.totalOps(), 3u);
}

TEST(PrefetchChannel, IdleChannelStartsImmediately)
{
    PrefetchChannel ch(50);
    ch.issue(0, 1);
    auto late = ch.issue(500, 1);
    EXPECT_EQ(late.start, 500u);
    EXPECT_EQ(late.done, 550u);
}

TEST(PrefetchChannel, BusyAt)
{
    PrefetchChannel ch(50);
    EXPECT_FALSE(ch.busyAt(0));
    ch.issue(0, 1);
    EXPECT_TRUE(ch.busyAt(0));
    EXPECT_TRUE(ch.busyAt(49));
    EXPECT_FALSE(ch.busyAt(50));
}

TEST(PrefetchChannel, ZeroOpsIsFree)
{
    PrefetchChannel ch(50);
    auto res = ch.issue(7, 0);
    EXPECT_EQ(res.start, res.done);
    EXPECT_FALSE(ch.busyAt(7));
}

} // namespace
} // namespace tlbpf
