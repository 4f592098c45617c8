/**
 * @file
 * Timing simulator — the sim-outorder analogue behind the paper's
 * Table 3 (normalised execution cycles, RP vs DP).
 *
 * Cycle model, following Section 3.2 exactly:
 *  - the CPU retires instructions at a base CPI; time advances with the
 *    reference stream's instruction counts plus accumulated stalls;
 *  - a TLB miss that hits the prefetch buffer stalls only until the
 *    in-flight prefetch completes (zero if it already has);
 *  - a full miss pays a constant 100-cycle penalty, and its demand
 *    fetch is delayed further if previously issued prefetch traffic is
 *    still in flight;
 *  - every prefetch memory operation (RP's pointer manipulations, and
 *    PTE fetches for all schemes) costs 50 cycles on a serialising
 *    channel that contends only with other prefetch traffic — the
 *    paper's deliberately RP-favouring bias;
 *  - RP's benefit of the doubt: if earlier prefetch traffic is still in
 *    flight at miss time, RP performs only its (up to) 4 pointer
 *    updates and skips the 2 neighbour fetches.
 */

#ifndef TLBPF_SIM_TIMING_SIM_HH
#define TLBPF_SIM_TIMING_SIM_HH

#include <memory>

#include "mem/page_table.hh"
#include "mem/prefetch_channel.hh"
#include "prefetch/mech_spec.hh"
#include "sim/functional_sim.hh"
#include "tlb/prefetch_buffer.hh"
#include "tlb/tlb.hh"
#include "trace/ref_stream.hh"

namespace tlbpf
{

/** Cycle-model parameters (paper defaults). */
struct TimingConfig
{
    double baseCpi = 1.0;     ///< cycles per instruction, no TLB stalls
    Tick missPenalty = 100;   ///< constant TLB miss penalty
    Tick memOpCost = 50;      ///< per prefetch/state memory operation
};

/** Timing counters. */
struct TimingResult
{
    SimResult functional;       ///< the same counters as the fast sim
    Tick cycles = 0;            ///< total execution cycles
    Tick stallCycles = 0;       ///< cycles lost to TLB handling
    Tick computeCycles = 0;     ///< icount * baseCpi
    std::uint64_t memoryOps = 0;///< prefetch-channel operations
    std::uint64_t prefetchesSkippedBusy = 0; ///< RP benefit-of-doubt
    std::uint64_t inFlightHits = 0; ///< buffer hits that still stalled

    /** Counter-for-counter equality (bit-identity assertions). */
    bool operator==(const TimingResult &other) const = default;
};

/** Stepping timing simulator. */
class TimingSimulator
{
  public:
    /**
     * Throws std::invalid_argument for a @p config the cycle model
     * does not simulate: a nonzero contextSwitchInterval or
     * trainOnAllRefs.
     */
    TimingSimulator(const SimConfig &config, const TimingConfig &timing,
                    const MechanismSpec &spec);

    void process(const MemRef &ref);

    /** Counters so far. */
    const TimingResult &result();

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

/** Run a stream to exhaustion under the timing model. */
TimingResult simulateTimed(const SimConfig &config,
                           const TimingConfig &timing,
                           const MechanismSpec &spec,
                           RefStream &stream);

} // namespace tlbpf

#endif // TLBPF_SIM_TIMING_SIM_HH
