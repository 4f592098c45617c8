/**
 * @file
 * Lookup and replacement acceleration for wide associative sets,
 * shared by the TLB and the prediction tables.
 *
 * Both structures store `sets x ways` slots row-major by set, tag each
 * slot with a full key and replace the least recently used slot of a
 * full set.  Scanning a set costs O(ways) per lookup and per victim
 * choice, which dominates once sets are wide (the paper's default
 * 128-entry fully-associative TLB, MP's 256-row fully-associative
 * table).  A WideSetIndex mirrors the owner's resident keys in two
 * derived structures:
 *
 *   - an open-addressing key -> slot map (linear probing,
 *     backward-shift deletion, load under 25%) that replaces the
 *     lookup scan;
 *   - per-set recency lists in last-use order, whose tail is the
 *     victim a scan for the minimum use clock would pick.
 *
 * Both are pure acceleration.  The owner's per-slot valid flag, key
 * and use clock stay authoritative, so replacement decisions and
 * snapshot bytes are the same as with the scan, and a restored owner
 * rebuilds the index from its state.  The index is inactive for sets
 * narrower than kMinWays, where the scan is cheaper than the
 * bookkeeping.
 */

#ifndef TLBPF_UTIL_WIDE_SET_INDEX_HH
#define TLBPF_UTIL_WIDE_SET_INDEX_HH

#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace tlbpf
{

class WideSetIndex
{
  public:
    /** Slot sentinel: "no slot" (absent key, list end, empty set). */
    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    /** Sets narrower than this are cheaper to scan than to index. */
    static constexpr std::uint32_t kMinWays = 16;

    /** One valid owner slot, as rebuild() consumes it. */
    struct Resident
    {
        std::uint32_t slot;
        std::uint64_t key;
        std::uint64_t lastUse;
    };

    /** An inactive index. */
    WideSetIndex() = default;

    /** An index over @p sets sets of @p ways slots each. */
    WideSetIndex(std::uint32_t sets, std::uint32_t ways);

    /** False when the sets are narrow: the owner scans instead. */
    bool active() const { return !_map.empty(); }

    /** Slot holding @p key, or kNoSlot. */
    std::uint32_t
    find(std::uint64_t key) const
    {
        std::size_t mask = _map.size() - 1;
        for (std::size_t b = hash(key) & mask; _map[b] != kNoSlot;
             b = (b + 1) & mask) {
            if (_slots[_map[b]].key == key)
                return _map[b];
        }
        return kNoSlot;
    }

    /** Fill free slot @p slot with @p key as its set's MRU entry. */
    void
    insert(std::uint32_t slot, std::uint64_t key)
    {
        std::size_t mask = _map.size() - 1;
        std::size_t b = hash(key) & mask;
        while (_map[b] != kNoSlot)
            b = (b + 1) & mask;
        _map[b] = slot;
        _slots[slot].key = key;
        pushFront(slot);
        ++_sets[slot / _ways].resident;
    }

    /** Free resident slot @p slot. */
    void
    erase(std::uint32_t slot)
    {
        std::size_t mask = _map.size() - 1;
        std::size_t b = hash(_slots[slot].key) & mask;
        while (_map[b] != slot) {
            tlbpf_assert(_map[b] != kNoSlot, "wide-set index missing slot ",
                         slot, " on erase");
            b = (b + 1) & mask;
        }
        // Backward-shift deletion: walk the probe chain after the hole
        // and rehome any element whose probe path crossed it, so
        // lookups never need tombstones.
        std::size_t hole = b;
        for (std::size_t i = (b + 1) & mask; _map[i] != kNoSlot;
             i = (i + 1) & mask) {
            std::size_t home = hash(_slots[_map[i]].key) & mask;
            if (((i - home) & mask) >= ((i - hole) & mask)) {
                _map[hole] = _map[i];
                hole = i;
            }
        }
        _map[hole] = kNoSlot;
        unlink(slot);
        --_sets[slot / _ways].resident;
    }

    /** Make resident slot @p slot its set's MRU entry. */
    void
    touch(std::uint32_t slot)
    {
        unlink(slot);
        pushFront(slot);
    }

    /** Number of resident slots in @p set. */
    std::uint32_t
    resident(std::uint32_t set) const
    {
        return _sets[set].resident;
    }

    /**
     * Least recently used resident slot of @p set (kNoSlot if empty):
     * the slot a scan for the minimum use clock would evict.
     */
    std::uint32_t
    lruSlot(std::uint32_t set) const
    {
        return _sets[set].tail;
    }

    /** Forget every resident slot. */
    void clear();

    /**
     * Re-derive the index from the owner's state: @p resident lists
     * every valid slot, in any order.  Slots with equal use clocks
     * (only a hand-made checkpoint has them) order by slot, lowest
     * first out, like the scan.  Returns false, leaving the index
     * unusable until the next clear() or rebuild(), if a key appears
     * twice.
     */
    bool rebuild(std::vector<Resident> resident);

  private:
    /** splitmix64 finalizer: strong enough that probes stay short. */
    static std::uint64_t
    hash(std::uint64_t key)
    {
        std::uint64_t x = key + 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }

    void
    unlink(std::uint32_t slot)
    {
        Set &set = _sets[slot / _ways];
        Slot &s = _slots[slot];
        if (s.prev != kNoSlot)
            _slots[s.prev].next = s.next;
        else
            set.head = s.next;
        if (s.next != kNoSlot)
            _slots[s.next].prev = s.prev;
        else
            set.tail = s.prev;
        s.prev = kNoSlot;
        s.next = kNoSlot;
    }

    void
    pushFront(std::uint32_t slot)
    {
        Set &set = _sets[slot / _ways];
        Slot &s = _slots[slot];
        s.prev = kNoSlot;
        s.next = set.head;
        if (set.head != kNoSlot)
            _slots[set.head].prev = slot;
        set.head = slot;
        if (set.tail == kNoSlot)
            set.tail = slot;
    }

    /** A slot's key copy and its recency-list links. */
    struct Slot
    {
        std::uint64_t key = 0;
        std::uint32_t prev = kNoSlot;
        std::uint32_t next = kNoSlot;
    };

    /** Recency list endpoints and fill level of one set. */
    struct Set
    {
        std::uint32_t head = kNoSlot; ///< most recently used
        std::uint32_t tail = kNoSlot; ///< least recently used
        std::uint32_t resident = 0;
    };

    std::uint32_t _ways = 0;
    std::vector<std::uint32_t> _map; ///< bucket -> slot, kNoSlot empty
    std::vector<Slot> _slots;
    std::vector<Set> _sets;
};

} // namespace tlbpf

#endif // TLBPF_UTIL_WIDE_SET_INDEX_HH
