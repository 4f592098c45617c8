#include "tlb/tlb.hh"

#include <unordered_set>

#include "util/bits.hh"
#include "util/logging.hh"

namespace tlbpf
{

namespace
{

constexpr std::uint32_t kNoSlot = WideSetIndex::kNoSlot;

} // namespace

std::string
TlbConfig::invalidReason() const
{
    if (entries == 0)
        return "TLB needs at least one entry";
    if (assoc != 0 && entries % assoc != 0)
        return "TLB entries (" + std::to_string(entries) +
               ") must be a multiple of associativity (" +
               std::to_string(assoc) + ")";
    if (!isPowerOfTwo(numSets()))
        return "number of TLB sets must be a power of two";
    return "";
}

Tlb::Tlb(const TlbConfig &config)
    : _config(config)
{
    if (std::string why = config.invalidReason(); !why.empty())
        tlbpf_fatal(why);
    _ways = config.assoc == 0 ? config.entries : config.assoc;
    _entries.resize(static_cast<std::size_t>(_config.numSets()) * _ways);
    _index = WideSetIndex(_config.numSets(), _ways);
}

void
Tlb::rebuildIndex()
{
    std::vector<WideSetIndex::Resident> resident;
    resident.reserve(_resident);
    for (std::uint32_t i = 0; i < _entries.size(); ++i) {
        if (_entries[i].valid)
            resident.push_back({i, _entries[i].vpn, _entries[i].lastUse});
    }
    // restoreState() has already rejected duplicate VPNs.
    _index.rebuild(std::move(resident));
}

std::size_t
Tlb::setIndex(Vpn vpn) const
{
    return (vpn & (_config.numSets() - 1)) * _ways;
}

Tlb::Entry *
Tlb::findEntry(Vpn vpn)
{
    if (_index.active()) {
        std::uint32_t slot = _index.find(vpn);
        return slot == kNoSlot ? nullptr : &_entries[slot];
    }
    std::size_t base = setIndex(vpn);
    for (std::size_t w = 0; w < _ways; ++w) {
        Entry &e = _entries[base + w];
        if (e.valid && e.vpn == vpn)
            return &e;
    }
    return nullptr;
}

const Tlb::Entry *
Tlb::findEntry(Vpn vpn) const
{
    return const_cast<Tlb *>(this)->findEntry(vpn);
}

bool
Tlb::access(Vpn vpn)
{
    // Last-hit fast path: back-to-back references to the same page
    // are the overwhelmingly common case, and the cached entry is
    // already at the head of its recency list.
    if (_lastHit != kNoSlot) {
        Entry &cached = _entries[_lastHit];
        if (cached.valid && cached.vpn == vpn) {
            cached.lastUse = ++_clock;
            return true;
        }
    }
    Entry *e = findEntry(vpn);
    if (!e)
        return false;
    e->lastUse = ++_clock;
    std::uint32_t idx =
        static_cast<std::uint32_t>(e - _entries.data());
    if (_index.active())
        _index.touch(idx);
    _lastHit = idx;
    return true;
}

bool
Tlb::contains(Vpn vpn) const
{
    return findEntry(vpn) != nullptr;
}

std::optional<Vpn>
Tlb::insert(Vpn vpn)
{
    tlbpf_assert(!contains(vpn), "double insert of VPN ", vpn);
    std::size_t base = setIndex(vpn);
    auto set = static_cast<std::uint32_t>(base / _ways);
    Entry *victim = nullptr;
    if (_index.active() && _index.resident(set) == _ways) {
        // A full set's least recently used slot is its unique
        // minimum-clock entry: the victim the scan below would pick.
        victim = &_entries[_index.lruSlot(set)];
    } else {
        for (std::size_t w = 0; w < _ways; ++w) {
            Entry &e = _entries[base + w];
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (!victim || e.lastUse < victim->lastUse)
                victim = &e;
        }
    }
    std::uint32_t idx =
        static_cast<std::uint32_t>(victim - _entries.data());
    std::optional<Vpn> evicted;
    if (victim->valid) {
        evicted = victim->vpn;
        if (_index.active())
            _index.erase(idx);
    } else {
        ++_resident;
    }
    victim->vpn = vpn;
    victim->valid = true;
    victim->lastUse = ++_clock;
    if (_index.active())
        _index.insert(idx, vpn);
    _lastHit = idx;
    return evicted;
}

bool
Tlb::invalidate(Vpn vpn)
{
    Entry *e = findEntry(vpn);
    if (!e)
        return false;
    if (_index.active())
        _index.erase(static_cast<std::uint32_t>(e - _entries.data()));
    e->valid = false;
    --_resident;
    return true;
}

void
Tlb::snapshotState(SnapshotWriter &out) const
{
    // _resident is not serialized: it is derivable from the valid
    // flags, and recomputing it on restore closes a corruption hole.
    out.u64(_clock);
    out.u64(_entries.size());
    for (const Entry &e : _entries) {
        out.boolean(e.valid);
        if (!e.valid)
            continue;
        out.u64(e.vpn);
        out.u64(e.lastUse);
    }
}

void
Tlb::restoreState(SnapshotReader &in)
{
    _clock = in.u64();
    std::uint64_t count = in.u64();
    if (count != _entries.size())
        SnapshotReader::fail(
            "TLB has " + std::to_string(count) +
            " entry slots, expected " +
            std::to_string(_entries.size()));
    _resident = 0;
    std::unordered_set<Vpn> seen;
    seen.reserve(_entries.size());
    for (std::size_t i = 0; i < _entries.size(); ++i) {
        Entry &e = _entries[i];
        e.valid = in.boolean();
        if (!e.valid) {
            e.vpn = 0;
            e.lastUse = 0;
            continue;
        }
        e.vpn = in.u64();
        e.lastUse = in.u64();
        // A use clock ahead of the TLB's would let a later fill rank
        // older than this entry, which the recency index cannot model.
        if (e.lastUse > _clock)
            SnapshotReader::fail("TLB checkpoint entry was used after "
                                 "the checkpoint's clock");
        if (setIndex(e.vpn) != (i / _ways) * _ways)
            SnapshotReader::fail(
                "TLB checkpoint places VPN " + std::to_string(e.vpn) +
                " in the wrong set");
        if (!seen.insert(e.vpn).second)
            SnapshotReader::fail("duplicate TLB entry in checkpoint");
        ++_resident;
    }
    rebuildIndex();
    _lastHit = kNoSlot;
}

void
Tlb::flush()
{
    for (Entry &e : _entries)
        e.valid = false;
    _resident = 0;
    _lastHit = kNoSlot;
    _index.clear();
}

} // namespace tlbpf
