#include "tlb/prefetch_buffer.hh"

#include <algorithm>

#include "util/logging.hh"

namespace tlbpf
{

PrefetchBuffer::PrefetchBuffer(std::uint32_t entries)
    : _capacity(entries)
{
    if (std::string why = invalidReason(entries); !why.empty())
        tlbpf_fatal(why);
    _nodes.reserve(entries);
}

std::string
PrefetchBuffer::invalidReason(std::uint32_t entries)
{
    return entries == 0 ? "prefetch buffer needs at least one entry" : "";
}

bool
PrefetchBuffer::hitAndPromote(Vpn vpn, Tick &ready_at)
{
    for (std::size_t i = 0; i < _nodes.size(); ++i) {
        if (_nodes[i].vpn == vpn) {
            ready_at = _nodes[i].readyAt;
            _nodes.erase(_nodes.begin() +
                         static_cast<std::ptrdiff_t>(i));
            ++_hits;
            return true;
        }
    }
    return false;
}

bool
PrefetchBuffer::contains(Vpn vpn) const
{
    for (const Node &node : _nodes)
        if (node.vpn == vpn)
            return true;
    return false;
}

void
PrefetchBuffer::insert(Vpn vpn, Tick ready_at)
{
    for (std::size_t i = 0; i < _nodes.size(); ++i) {
        if (_nodes[i].vpn == vpn) {
            // Refresh: move to MRU and keep the earlier ready time (the
            // data is already on its way).
            Node node = _nodes[i];
            node.readyAt = std::min(node.readyAt, ready_at);
            _nodes.erase(_nodes.begin() +
                         static_cast<std::ptrdiff_t>(i));
            _nodes.insert(_nodes.begin(), node);
            return;
        }
    }
    if (_nodes.size() >= _capacity) {
        _nodes.pop_back();
        ++_evictedUnused;
    }
    _nodes.insert(_nodes.begin(), Node{vpn, ready_at});
    ++_inserts;
}

void
PrefetchBuffer::flush()
{
    _nodes.clear();
}

void
PrefetchBuffer::snapshotState(SnapshotWriter &out) const
{
    out.u32(_capacity);
    out.u64(_inserts);
    out.u64(_hits);
    out.u64(_evictedUnused);
    out.u64(_nodes.size());
    for (const Node &node : _nodes) { // front (MRU) first
        out.u64(node.vpn);
        out.u64(node.readyAt);
    }
}

void
PrefetchBuffer::restoreState(SnapshotReader &in)
{
    std::uint32_t capacity = in.u32();
    if (capacity != _capacity)
        SnapshotReader::fail(
            "prefetch buffer capacity " + std::to_string(capacity) +
            ", expected " + std::to_string(_capacity));
    _inserts = in.u64();
    _hits = in.u64();
    _evictedUnused = in.u64();
    std::uint64_t count = in.u64();
    if (count > _capacity)
        SnapshotReader::fail("prefetch buffer overfull in checkpoint");
    _nodes.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
        Vpn vpn = in.u64();
        Tick ready_at = in.u64();
        if (contains(vpn))
            SnapshotReader::fail(
                "duplicate prefetch buffer entry in checkpoint");
        _nodes.push_back(Node{vpn, ready_at});
    }
}

} // namespace tlbpf
