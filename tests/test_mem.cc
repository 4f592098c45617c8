/**
 * @file
 * Unit tests for the memory substrate: page table, the RP recency
 * stack threaded through it, and the prefetch channel timing model.
 */

#include <gtest/gtest.h>

#include "mem/page_table.hh"
#include "mem/prefetch_channel.hh"

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
