#include "util/wide_set_index.hh"

#include <algorithm>

namespace tlbpf
{

WideSetIndex::WideSetIndex(std::uint32_t sets, std::uint32_t ways)
    : _ways(ways)
{
    if (ways < kMinWays)
        return;
    std::size_t slots = static_cast<std::size_t>(sets) * ways;
    // Power-of-two capacity at least 4x the slot count keeps the load
    // factor under 25%, so linear probes terminate quickly.
    std::size_t cap = 64;
    while (cap < slots * 4)
        cap *= 2;
    _map.assign(cap, kNoSlot);
    _slots.assign(slots, Slot{});
    _sets.assign(sets, Set{});
}

void
WideSetIndex::clear()
{
    std::fill(_map.begin(), _map.end(), kNoSlot);
    std::fill(_slots.begin(), _slots.end(), Slot{});
    std::fill(_sets.begin(), _sets.end(), Set{});
}

bool
WideSetIndex::rebuild(std::vector<Resident> resident)
{
    if (!active())
        return true;
    clear();
    // Insert in ascending use-clock order: each insert becomes its
    // set's head, so the head ends up most recently used and, among
    // equal clocks, the lowest slot ends up nearest the tail.
    std::sort(resident.begin(), resident.end(),
              [](const Resident &a, const Resident &b) {
                  return a.lastUse != b.lastUse ? a.lastUse < b.lastUse
                                                : a.slot < b.slot;
              });
    for (const Resident &r : resident) {
        if (find(r.key) != kNoSlot)
            return false;
        insert(r.slot, r.key);
    }
    return true;
}

} // namespace tlbpf
