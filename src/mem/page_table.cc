#include "mem/page_table.hh"

#include <algorithm>
#include <vector>

#include "util/bits.hh"
#include "util/check.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace tlbpf
{

namespace
{

/** Map bucket sentinel for "no entry hashed here". */
constexpr std::uint32_t kEmptySlot = UINT32_MAX;

/** Initial bucket count; grown by doubling to keep load under 50%. */
constexpr std::size_t kInitialBuckets = 1024;

/** splitmix64 finalizer: strong enough that probes stay short. */
inline std::uint64_t
hashVpn(Vpn vpn)
{
    std::uint64_t x = vpn + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

PageTable::PageTable()
    : _map(kInitialBuckets, kEmptySlot)
{
}

std::size_t
PageTable::probe(Vpn vpn) const
{
    std::size_t mask = _map.size() - 1;
    std::size_t b = hashVpn(vpn) & mask;
    while (_map[b] != kEmptySlot && _pool[_map[b]].vpn != vpn)
        b = (b + 1) & mask;
    return b;
}

void
PageTable::grow()
{
    std::vector<std::uint32_t> bigger(_map.size() * 2, kEmptySlot);
    std::size_t mask = bigger.size() - 1;
    for (std::size_t idx = 0; idx < _pool.size(); ++idx) {
        std::size_t b = hashVpn(_pool[idx].vpn) & mask;
        while (bigger[b] != kEmptySlot)
            b = (b + 1) & mask;
        bigger[b] = static_cast<std::uint32_t>(idx);
    }
    _map.swap(bigger);
}

PageTableEntry &
PageTable::lookup(Vpn vpn)
{
    std::size_t b = probe(vpn);
    if (_map[b] != kEmptySlot)
        return _pool[_map[b]].pte;
    if ((_pool.size() + 1) * 2 > _map.size()) {
        grow();
        b = probe(vpn);
    }
    if (_pool.size() >= kEmptySlot)
        tlbpf_fatal("page table footprint exceeds 2^32 - 1 pages");
    _map[b] = static_cast<std::uint32_t>(_pool.size());
    Slot &slot = _pool.emplace_back();
    slot.vpn = vpn;
    // Deterministic pseudo-random frame assignment; the frame value
    // itself never feeds back into prefetching decisions.
    slot.pte.pfn = mix64(vpn) & ((1ull << 40) - 1);
    return slot.pte;
}

const PageTableEntry *
PageTable::find(Vpn vpn) const
{
    std::size_t b = probe(vpn);
    return _map[b] == kEmptySlot ? nullptr : &_pool[_map[b]].pte;
}

PageTableEntry *
PageTable::find(Vpn vpn)
{
    std::size_t b = probe(vpn);
    return _map[b] == kEmptySlot ? nullptr : &_pool[_map[b]].pte;
}

void
PageTable::clear()
{
    _pool.clear();
    _map.assign(kInitialBuckets, kEmptySlot);
}

std::size_t
PageTable::linkedEntries() const
{
    return static_cast<std::size_t>(
        std::count_if(_pool.begin(), _pool.end(),
                      [](const Slot &slot) { return slot.pte.linked(); }));
}

std::vector<Vpn>
PageTable::sortedPages() const
{
    std::vector<Vpn> pages;
    pages.reserve(_pool.size());
    for (const Slot &slot : _pool)
        pages.push_back(slot.vpn);
    std::sort(pages.begin(), pages.end());
    return pages;
}

void
PageTable::snapshotPages(SnapshotWriter &out, const std::vector<Vpn> &pages)
{
    out.varint(pages.size());
    Vpn prev = 0;
    for (Vpn vpn : pages) {
        out.varint(vpn - prev);
        prev = vpn;
    }
}

namespace
{

/**
 * A link word of page @p vpn as a varint: 0 for kNoPage, else the
 * zigzag code of its distance from @p vpn, never 0 since no page links
 * to itself.
 */
std::uint64_t
linkCode(Vpn link, Vpn vpn)
{
    return link == kNoPage
               ? 0
               : zigZagEncode(static_cast<std::int64_t>(link - vpn));
}

/** Inverse of linkCode(). */
Vpn
linkWord(std::uint64_t code, Vpn vpn)
{
    return code == 0 ? kNoPage
                     : vpn + static_cast<Vpn>(zigZagDecode(code));
}

} // namespace

void
PageTable::snapshotLinks(SnapshotWriter &out,
                         const std::vector<Vpn> &pages) const
{
    TLBPF_DCHECK_MSG(size() <= pages.size(), "link table holds ", size(),
                     " pages, the translations only ", pages.size());
    std::vector<std::pair<Vpn, const PageTableEntry *>> linked;
    if (!_pool.empty()) {
        for (Vpn vpn : pages)
            if (const PageTableEntry *pte = find(vpn); pte && pte->linked())
                linked.emplace_back(vpn, pte);
    }
    out.varint(linked.size());
    Vpn prev = 0;
    for (const auto &[vpn, pte] : linked) {
        out.varint(vpn - prev);
        prev = vpn;
        out.varint(linkCode(pte->next, vpn));
        out.varint(linkCode(pte->prev, vpn));
        out.boolean(pte->inStack);
    }
}

void
PageTable::restoreState(SnapshotReader &in, PageTable &links)
{
    clear();
    links.clear();
    // Every listed page takes at least one byte: a corrupt count must
    // fail with the clean checkpoint error, not a length_error or
    // bad_alloc from an oversized allocation.
    std::uint64_t count = in.varint();
    if (count > in.remaining())
        SnapshotReader::fail(
            "page table entry count " + std::to_string(count) +
            " exceeds the checkpoint's remaining bytes");
    Vpn vpn = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t delta = in.varint();
        if (delta == 0 && i > 0)
            SnapshotReader::fail("page table VPNs repeat or are out of "
                                 "order in checkpoint");
        if (delta > kNoPage - vpn)
            SnapshotReader::fail("page table VPN overflows 64 bits");
        vpn += delta;
        lookup(vpn);
    }

    std::uint64_t linked = in.varint();
    if (linked > count)
        SnapshotReader::fail("page table lists more links than pages");
    vpn = 0;
    for (std::uint64_t i = 0; i < linked; ++i) {
        std::uint64_t delta = in.varint();
        if (delta == 0 && i > 0)
            SnapshotReader::fail("page table links repeat or are out of "
                                 "order in checkpoint");
        if (delta > kNoPage - vpn)
            SnapshotReader::fail("page table link VPN overflows 64 bits");
        vpn += delta;
        if (!find(vpn))
            SnapshotReader::fail("page table links page " +
                                 std::to_string(vpn) +
                                 ", which it does not translate");
        PageTableEntry &link = links.lookup(vpn);
        link.next = linkWord(in.varint(), vpn);
        link.prev = linkWord(in.varint(), vpn);
        link.inStack = in.boolean();
        if (!link.linked())
            SnapshotReader::fail("page table link entry carries only "
                                 "default words");
    }
}

bool
RecencyStack::contains(Vpn vpn) const
{
    const PageTableEntry *pte = _pt.find(vpn);
    return pte && pte->inStack;
}

void
RecencyStack::unlink(Vpn vpn, UpdateResult &res)
{
    PageTableEntry &pte = _pt.lookup(vpn);
    tlbpf_assert(pte.inStack, "unlink of page not in recency stack");

    if (pte.prev != kNoPage) {
        res.neighbors[res.numNeighbors++] = pte.prev;
        _pt.lookup(pte.prev).next = pte.next;
        ++res.pointerOps;
    } else {
        tlbpf_assert(_top == vpn, "stack head corrupted");
        _top = pte.next;
        ++res.pointerOps;
    }
    if (pte.next != kNoPage) {
        res.neighbors[res.numNeighbors++] = pte.next;
        _pt.lookup(pte.next).prev = pte.prev;
        ++res.pointerOps;
    }

    pte.next = kNoPage;
    pte.prev = kNoPage;
    pte.inStack = false;
    --_linked;
}

void
RecencyStack::push(Vpn vpn, UpdateResult &res)
{
    PageTableEntry &pte = _pt.lookup(vpn);
    tlbpf_assert(!pte.inStack,
                 "push of page already in recency stack: ", vpn);

    pte.prev = kNoPage;
    pte.next = _top;
    ++res.pointerOps;
    if (_top != kNoPage) {
        _pt.lookup(_top).prev = vpn;
        ++res.pointerOps;
    }
    _top = vpn;
    pte.inStack = true;
    ++_linked;
}

RecencyStack::UpdateResult
RecencyStack::onMiss(Vpn missed, Vpn evicted, unsigned reach)
{
    tlbpf_assert(reach >= 1 && 2 * reach <= kMaxNeighbors,
                 "unsupported recency reach ", reach);
    UpdateResult res;
    PageTableEntry &pte = _pt.lookup(missed);
    if (pte.inStack && reach > 1) {
        // Record the wider neighbourhood (closest first per side)
        // before unlink() rewires and reports the immediate pair.
        Vpn up = pte.prev;
        Vpn down = pte.next;
        for (unsigned step = 1; step < reach; ++step) {
            if (up != kNoPage)
                up = _pt.lookup(up).prev;
            if (down != kNoPage)
                down = _pt.lookup(down).next;
        }
        unlink(missed, res);
        if (up != kNoPage)
            res.neighbors[res.numNeighbors++] = up;
        if (down != kNoPage)
            res.neighbors[res.numNeighbors++] = down;
    } else if (pte.inStack) {
        unlink(missed, res);
    }
    if (evicted != kNoPage) {
        // A page evicted from the TLB cannot already be linked: it left
        // the stack when it last missed into the TLB.
        push(evicted, res);
    }
    return res;
}

void
RecencyStack::snapshotState(SnapshotWriter &out) const
{
    out.u64(_top);
    out.u64(_linked);
}

void
RecencyStack::restoreState(SnapshotReader &in)
{
    _top = in.u64();
    _linked = static_cast<std::size_t>(in.u64());
    // Walk the list from the head: a corrupt link must fail here, not
    // as a panic at the next push or unlink that trusts it.
    const std::size_t entries = _pt.linkedEntries();
    std::size_t reached = 0;
    Vpn before = kNoPage;
    for (Vpn cur = _top; cur != kNoPage; ++reached) {
        const PageTableEntry *pte = _pt.find(cur);
        if (reached == entries || !pte || !pte->inStack)
            SnapshotReader::fail("recency stack reaches page " +
                                 std::to_string(cur) +
                                 ", which is not linked in the stack");
        if (pte->prev != before)
            SnapshotReader::fail("recency stack page " +
                                 std::to_string(cur) +
                                 " does not link back to its predecessor");
        before = cur;
        cur = pte->next;
    }
    if (reached != entries || reached != _linked)
        SnapshotReader::fail(
            "recency stack links " + std::to_string(reached) +
            " pages from its head, but the checkpoint holds " +
            std::to_string(entries) + " linked entries and a count of " +
            std::to_string(_linked));
}

void
RecencyStack::reset()
{
    // Walk the stack unlinking everything.
    Vpn cur = _top;
    while (cur != kNoPage) {
        PageTableEntry &pte = _pt.lookup(cur);
        Vpn next = pte.next;
        pte.next = kNoPage;
        pte.prev = kNoPage;
        pte.inStack = false;
        cur = next;
    }
    _top = kNoPage;
    _linked = 0;
}

} // namespace tlbpf
