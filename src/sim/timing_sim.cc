#include "sim/timing_sim.hh"

#include <cmath>
#include <stdexcept>

namespace tlbpf
{

TimingSimulator::TimingSimulator(const SimConfig &config,
                                 const TimingConfig &timing,
                                 const MechanismSpec &spec)
    : _config(config),
      _timing(timing),
      _tlb(config.tlb),
      _buffer(config.pbEntries),
      _channel(timing.memOpCost),
      _prefetcher(spec.build(_pt))
{
    // The cycle model neither flushes nor trains on hits; running such
    // a cell would answer (and cache) the unflushed, miss-trained one.
    if (config.contextSwitchInterval != 0)
        throw std::invalid_argument(
            "timed cells do not model context switches: "
            "context_switch_interval must be 0");
    if (config.trainOnAllRefs)
        throw std::invalid_argument(
            "timed cells train on TLB misses only: "
            "train_on_all_refs must be false");
}

void
TimingSimulator::process(const MemRef &ref)
{
    ++_result.functional.refs;
    _lastIcount = ref.icount;
    Vpn vpn = ref.vpn(_config.pageBytes);

    if (_tlb.access(vpn))
        return;

    ++_result.functional.misses;
    _pt.lookup(vpn);

    // Current time: compute progress plus every stall so far.
    Tick now = static_cast<Tick>(std::llround(
                   static_cast<double>(ref.icount) * _timing.baseCpi)) +
               _result.stallCycles;

    Tick ready_at = 0;
    bool pb_hit = _buffer.hitAndPromote(vpn, ready_at);
    if (pb_hit) {
        ++_result.functional.pbHits;
        if (ready_at > now) {
            // Prefetch still in flight: stall until it lands.
            _result.stallCycles += ready_at - now;
            ++_result.inFlightHits;
        }
    } else {
        ++_result.functional.demandFetches;
        // The demand fetch is delayed by in-flight prefetch traffic.
        Tick start = std::max(now, _channel.busyUntil());
        Tick done = start + _timing.missPenalty;
        _result.stallCycles += done - now;
    }

    std::optional<Vpn> evicted = _tlb.insert(vpn);

    if (!_prefetcher)
        return;

    // The RP benefit-of-the-doubt rule keys off whether earlier
    // prefetch traffic is still outstanding when this miss arrives.
    bool busy_at_miss = _channel.busyAt(now);

    _decision.clear();
    TlbMiss miss{vpn, ref.pc, pb_hit, evicted.value_or(kNoPage)};
    _prefetcher->onMiss(miss, _decision);

    if (_decision.stateOps > 0) {
        _channel.issue(now, _decision.stateOps);
        _result.functional.stateOps += _decision.stateOps;
        _result.memoryOps += _decision.stateOps;
    }

    if (busy_at_miss && _prefetcher->dropPrefetchesWhenBusy()) {
        _result.prefetchesSkippedBusy += _decision.targets.size();
        return;
    }

    for (Vpn target : _decision.targets) {
        if (target == vpn || _tlb.contains(target) ||
            _buffer.contains(target)) {
            ++_result.functional.prefetchesSuppressed;
            continue;
        }
        PrefetchChannel::Issue issue = _channel.issue(now, 1);
        _buffer.insert(target, issue.done);
        ++_result.functional.prefetchesIssued;
        ++_result.memoryOps;
    }
}

const TimingResult &
TimingSimulator::result()
{
    _result.functional.footprintPages = _pt.size();
    _result.functional.pbEvictedUnused = _buffer.evictedUnused();
    _result.computeCycles = static_cast<Tick>(std::llround(
        static_cast<double>(_lastIcount) * _timing.baseCpi));
    _result.cycles = _result.computeCycles + _result.stallCycles;
    return _result;
}

TimingResult
simulateTimed(const SimConfig &config, const TimingConfig &timing,
              const MechanismSpec &spec, RefStream &stream)
{
    TimingSimulator sim(config, timing, spec);
    MemRef ref;
    while (stream.next(ref))
        sim.process(ref);
    return sim.result();
}

} // namespace tlbpf
