#include "mem/prefetch_channel.hh"

#include "util/logging.hh"

namespace tlbpf
{

PrefetchChannel::Issue
PrefetchChannel::issue(Tick now, unsigned num_ops)
{
    Issue res;
    res.start = std::max(now, _busyUntil);
    res.done = res.start + static_cast<Tick>(num_ops) * _opCost;
    _busyUntil = res.done;
    _totalOps += num_ops;
    return res;
}

} // namespace tlbpf
