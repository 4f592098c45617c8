/**
 * @file
 * Set-associative / fully-associative data TLB with true-LRU
 * replacement, matching the configurations evaluated in the paper
 * (64/128/256 entries; 2-way, 4-way and fully associative).
 */

#ifndef TLBPF_TLB_TLB_HH
#define TLBPF_TLB_TLB_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace/ref_stream.hh"
#include "util/check.hh"
#include "util/snapshot.hh"
#include "util/wide_set_index.hh"

namespace tlbpf
{

/** TLB geometry. */
struct TlbConfig
{
    std::uint32_t entries = 128; ///< total entries
    /** Ways per set; 0 means fully associative. */
    std::uint32_t assoc = 0;

    /** Number of sets implied by the geometry. */
    std::uint32_t
    numSets() const
    {
        return assoc == 0 ? 1 : entries / assoc;
    }

    /**
     * Why a Tlb cannot be built with this geometry, or "" if it can:
     * it needs at least one entry, and the ways must split the entries
     * into a power-of-two number of sets.  The Tlb constructor and the
     * service's config decoder both apply this one rule set.
     */
    std::string invalidReason() const;

    bool operator==(const TlbConfig &other) const = default;
};

/**
 * The TLB proper.  Tracks only which translations are resident — the
 * translation payload lives in the page table.
 */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config);

    /**
     * Probe for @p vpn; updates recency on a hit.
     * @return true on hit.
     */
    bool access(Vpn vpn);

    /**
     * @p count more accesses to @p vpn, which must be the page the
     * last access() or insert() left resident: exactly what @p count
     * calls of access(vpn) would do.  Each would take the last-hit
     * fast path and only stamp the entry with the next clock value, so
     * the clock advances by @p count and the entry keeps the last
     * stamp.  The entry stays its set's most recently used, so the
     * recency index needs no touch.
     */
    void
    repeatLastHit(Vpn vpn, std::uint64_t count)
    {
        TLBPF_DCHECK_MSG(_lastHit != WideSetIndex::kNoSlot &&
                             _entries[_lastHit].valid &&
                             _entries[_lastHit].vpn == vpn,
                         "repeatLastHit(", vpn,
                         ") is not a repeat of the last hit");
        _clock += count;
        _entries[_lastHit].lastUse = _clock;
    }

    /** Probe without touching replacement state. */
    bool contains(Vpn vpn) const;

    /**
     * Install @p vpn, evicting the set's LRU victim if full.
     * @return the evicted VPN, or std::nullopt if a free slot existed.
     *
     * Installing a VPN that is already resident is a caller bug.
     */
    std::optional<Vpn> insert(Vpn vpn);

    /**
     * Drop one entry if resident (back-invalidation from an outer
     * level).
     * @return true if the entry was present.
     */
    bool invalidate(Vpn vpn);

    /** Drop every entry (context-switch flush). */
    void flush();

    const TlbConfig &config() const { return _config; }
    std::uint32_t residentCount() const { return _resident; }

    /** Call @p visit(vpn) for every resident page, in slot order. */
    template <typename Visit>
    void
    forEachResident(Visit &&visit) const
    {
        for (const Entry &e : _entries)
            if (e.valid)
                visit(e.vpn);
    }

    /** Serialize entries (set order) and the recency clock. */
    void snapshotState(SnapshotWriter &out) const;

    /**
     * Restore state written by snapshotState() into a TLB of the same
     * geometry; throws std::invalid_argument on a mismatch.
     */
    void restoreState(SnapshotReader &in);

  private:
    struct Entry
    {
        Vpn vpn = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::size_t setIndex(Vpn vpn) const;
    Entry *findEntry(Vpn vpn);
    const Entry *findEntry(Vpn vpn) const;
    void rebuildIndex();

    TlbConfig _config;
    std::uint32_t _ways;
    std::vector<Entry> _entries; // sets * ways, row-major by set
    std::uint64_t _clock = 0;
    std::uint32_t _resident = 0;
    /**
     * Lookup and victim acceleration for wide sets (the paper's
     * fully-associative default would otherwise scan 128 ways per
     * reference and per miss).  _entries stays authoritative, so
     * replacement semantics and the snapshot byte format are the same
     * as the scan's.  Inactive when the sets are narrow enough to scan.
     */
    WideSetIndex _index;
    /**
     * Slot of the most recent hit or fill: consecutive references to
     * the same page short-circuit the probe entirely.  The cached
     * entry is by construction its set's most recently used, so only
     * its use clock needs touching.
     */
    std::uint32_t _lastHit = WideSetIndex::kNoSlot;
};

} // namespace tlbpf

#endif // TLBPF_TLB_TLB_HH
