/**
 * @file
 * Demand-populated page table plus the recency-stack links that the RP
 * mechanism stores inside the page table entries (Saulsbury et al.).
 *
 * RP is the only mechanism whose prediction state lives in memory: each
 * PTE carries two extra words (next/prev) threading an LRU stack of
 * pages evicted from the TLB.  The stack operations and their memory
 * cost accounting live in RecencyStack; the prefetcher in
 * prefetch/recency.cc is a thin client.
 */

#ifndef TLBPF_MEM_PAGE_TABLE_HH
#define TLBPF_MEM_PAGE_TABLE_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "trace/ref_stream.hh"
#include "util/snapshot.hh"

namespace tlbpf
{

/** Physical frame number. */
using Pfn = std::uint64_t;

/** Sentinel meaning "no page". */
constexpr Vpn kNoPage = UINT64_MAX;

/** One page table entry: translation plus RP's stack link words. */
struct PageTableEntry
{
    Pfn pfn = 0;
    /** RP recency-stack links; kNoPage when unlinked. */
    Vpn next = kNoPage;
    Vpn prev = kNoPage;
    bool inStack = false;

    /** Whether any link word differs from its default. */
    bool
    linked() const
    {
        return next != kNoPage || prev != kNoPage || inStack;
    }
};

/**
 * Single-address-space page table.  Translations are allocated on first
 * touch with a deterministic VPN->PFN mapping (identity permuted by a
 * mix function, which is irrelevant to prefetching behaviour but keeps
 * the model honest about translation existence).
 */
class PageTable
{
  public:
    PageTable();

    /** Translate, allocating the PTE on first touch. */
    PageTableEntry &lookup(Vpn vpn);

    /** Translation without allocation; nullptr if never touched. */
    const PageTableEntry *find(Vpn vpn) const;
    PageTableEntry *find(Vpn vpn);

    /** Number of PTEs materialised (the footprint in pages). */
    std::size_t size() const { return _pool.size(); }

    /**
     * Bytes of extra page-table storage RP's two link words cost,
     * assuming 8-byte words (used by the Table 1 bench).
     */
    std::uint64_t recencyOverheadBytes() const { return size() * 16; }

    void clear();

    /** Entries whose link words are not all default (see linked()). */
    std::size_t linkedEntries() const;

    /**
     * Every translated page in ascending order: the canonical order a
     * checkpoint lists them in, though the backing container is
     * unordered.
     */
    std::vector<Vpn> sortedPages() const;

    /**
     * A checkpoint's page-table section comes in two parts.  The first
     * lists the translations @p pages (sortedPages()): a varint count,
     * then each VPN as a varint delta from the one before it (the
     * first from zero).  No frame numbers: restore recomputes them
     * through lookup().
     */
    static void snapshotPages(SnapshotWriter &out,
                              const std::vector<Vpn> &pages);

    /**
     * The second part is a sparse list of this table's linked entries
     * (a simulator keeps RP's links in a table of their own, which only
     * ever holds pages of @p pages): a varint count, then per entry in
     * ascending order its VPN as a varint delta from the entry before
     * (the first from zero), its next and prev words as varints (zero
     * for kNoPage, else the zigzag code of the word minus the VPN), and
     * inStack.
     */
    void snapshotLinks(SnapshotWriter &out,
                       const std::vector<Vpn> &pages) const;

    /**
     * Restore both parts: every translation into this table, every
     * linked entry into @p links.  Throws std::invalid_argument on any
     * form snapshotPages()/snapshotLinks() would not write: a zero or
     * overflowing VPN delta, links out of order or on an untranslated
     * page, or a listed entry whose words are all default.
     */
    void restoreState(SnapshotReader &in, PageTable &links);

  private:
    struct Slot
    {
        Vpn vpn = kNoPage;
        PageTableEntry pte;
    };

    /** Map bucket holding @p vpn, or the empty bucket it would use. */
    std::size_t probe(Vpn vpn) const;
    /** Double the bucket array and rehome every pool index. */
    void grow();

    /**
     * Entry pool plus an open-addressing vpn -> pool-index map (linear
     * probing, load kept under 50%).  A deque grows without relocating
     * elements, so the PageTableEntry references lookup()/find() hand
     * out stay valid for the table's lifetime — RecencyStack holds one
     * across further lookups.  Replaces unordered_map: translation is
     * on the per-miss path, and RP's stack maintenance does several
     * translations per miss, so the node-chasing bucket lists showed
     * up hard in the simulate-loop profile.
     */
    std::deque<Slot> _pool;
    std::vector<std::uint32_t> _map;
};

/**
 * The LRU stack of TLB-evicted pages used by Recency Prefetching,
 * threaded through the page table.  Tracks the number of memory word
 * operations performed so the timing model can charge them.
 *
 * Per the paper (Section 3.2): unlinking the missing page costs 2
 * references, pushing the evicted TLB entry costs 2, and fetching the
 * two stack neighbours for prefetching costs 2 more — up to 6 per miss.
 */
class RecencyStack
{
  public:
    explicit RecencyStack(PageTable &pt) : _pt(pt) {}

    /** Widest neighbourhood the 3-entry RP variant may request. */
    static constexpr unsigned kMaxNeighbors = 4;

    /** Result of a miss-time stack update. */
    struct UpdateResult
    {
        /** Stack neighbours of the missed page (prefetch candidates). */
        Vpn neighbors[kMaxNeighbors] = {kNoPage, kNoPage, kNoPage,
                                        kNoPage};
        unsigned numNeighbors = 0;
        /** Pointer-word memory operations performed (excl. prefetch). */
        unsigned pointerOps = 0;
    };

    /**
     * Handle a TLB miss to @p missed while the TLB evicted
     * @p evicted (kNoPage if the TLB had a free slot).
     *
     * Removes @p missed from the stack (recording its neighbours as
     * prefetch candidates) and pushes @p evicted on top.
     *
     * @param reach neighbours to record per side (1 = the paper's
     *              default two-entry RP; 2 enables the wider variant
     *              Saulsbury et al. discuss).  Closest first.
     */
    UpdateResult onMiss(Vpn missed, Vpn evicted, unsigned reach = 1);

    /** Stack top (most recently evicted page), kNoPage if empty. */
    Vpn top() const { return _top; }

    /** Number of pages currently linked in the stack. */
    std::size_t linkedCount() const { return _linked; }

    /** True if @p vpn is currently linked. */
    bool contains(Vpn vpn) const;

    void reset();

    /**
     * Serialize the stack head and link count.  The links themselves
     * live in the page table entries, so a full checkpoint must pair
     * this with PageTable::snapshotLinks().
     */
    void snapshotState(SnapshotWriter &out) const;

    /**
     * Restore state written by snapshotState(), after the page table's
     * links.  Throws std::invalid_argument unless the links form the
     * one list this stack can reach: from the head, following next,
     * every linked entry is reached exactly once, each with inStack
     * set and prev naming the page before it, and their number is the
     * link count.  (That no linked page is TLB-resident is the
     * simulator's check: only it sees the TLB.)
     */
    void restoreState(SnapshotReader &in);

  private:
    void unlink(Vpn vpn, UpdateResult &res);
    void push(Vpn vpn, UpdateResult &res);

    PageTable &_pt;
    Vpn _top = kNoPage;
    std::size_t _linked = 0;
};

} // namespace tlbpf

#endif // TLBPF_MEM_PAGE_TABLE_HH
