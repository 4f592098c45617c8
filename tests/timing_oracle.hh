/**
 * @file
 * A stand-alone stepping simulator of the paper's Table 3 cycle model:
 * the oracle the timed MechanismBackEnd is checked against in
 * tests/test_timing_sim.cc.
 *
 * It keeps its own TLB, page table (shared by the TLB fill and the
 * mechanism), prefetch buffer, prefetch channel and per-reference
 * loop, and shares no code with SimFrontEnd or MechanismBackEnd beyond
 * those components.  The cycle model is the one the file comment of
 * sim/functional_sim.hh describes.
 */

#ifndef TLBPF_TESTS_TIMING_ORACLE_HH
#define TLBPF_TESTS_TIMING_ORACLE_HH

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "mem/page_table.hh"
#include "mem/prefetch_channel.hh"
#include "prefetch/mech_spec.hh"
#include "sim/functional_sim.hh"
#include "tlb/prefetch_buffer.hh"
#include "tlb/tlb.hh"
#include "trace/ref_stream.hh"

namespace tlbpf
{

/** The stepping timing simulator, with its own TLB and reference loop. */
class TimingSimulator
{
  public:
    /**
     * Throws std::invalid_argument for a @p config the cycle model
     * does not simulate: a nonzero contextSwitchInterval or
     * trainOnAllRefs.
     */
    TimingSimulator(const SimConfig &config, const TimingConfig &timing,
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
    process(const MemRef &ref)
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

    /** Counters so far. */
    const TimingResult &
    result()
    {
        _result.functional.footprintPages = _pt.size();
        _result.functional.pbEvictedUnused = _buffer.evictedUnused();
        _result.computeCycles = static_cast<Tick>(std::llround(
            static_cast<double>(_lastIcount) * _timing.baseCpi));
        _result.cycles = _result.computeCycles + _result.stallCycles;
        return _result;
    }

    const PrefetchChannel &channel() const { return _channel; }

  private:
    SimConfig _config;
    TimingConfig _timing;
    PageTable _pt;
    Tlb _tlb;
    PrefetchBuffer _buffer;
    PrefetchChannel _channel;
    std::unique_ptr<Prefetcher> _prefetcher;
    PrefetchDecision _decision;
    TimingResult _result;
    std::uint64_t _lastIcount = 0;
};

/** Run @p stream to exhaustion under the oracle. */
inline TimingResult
oracleTimed(const SimConfig &config, const TimingConfig &timing,
            const MechanismSpec &spec, RefStream &stream)
{
    TimingSimulator sim(config, timing, spec);
    MemRef ref;
    while (stream.next(ref))
        sim.process(ref);
    return sim.result();
}

} // namespace tlbpf

#endif // TLBPF_TESTS_TIMING_ORACLE_HH
