/**
 * @file
 * Serialising memory port for prefetch and prefetch-state traffic.
 *
 * Models the paper's Table 3 experiment: prefetch memory operations
 * (PTE fetches and RP's pointer updates) cost a fixed latency each and
 * serialise with one another, but — per the paper's deliberately
 * RP-favouring bias — do not contend with normal data traffic.
 */

#ifndef TLBPF_MEM_PREFETCH_CHANNEL_HH
#define TLBPF_MEM_PREFETCH_CHANNEL_HH

#include <cstdint>

namespace tlbpf
{

/** Simulation time in CPU cycles. */
using Tick = std::uint64_t;

/** A busy-until serialising channel with fixed per-operation cost. */
class PrefetchChannel
{
  public:
    /** @param op_cost cycles per memory operation (paper: 50). */
    explicit PrefetchChannel(Tick op_cost = 50) : _opCost(op_cost) {}

    /** Completion times of an issued batch. */
    struct Issue
    {
        Tick start = 0; ///< when the first op begins service
        Tick done = 0;  ///< when the last op completes
    };

    /**
     * Enqueue @p num_ops operations at time @p now.  Operations start
     * when the channel frees up and serialise.
     */
    Issue issue(Tick now, unsigned num_ops);

    /** True if the channel is still servicing earlier ops at @p now. */
    bool busyAt(Tick now) const { return _busyUntil > now; }

    Tick busyUntil() const { return _busyUntil; }

    /** Total operations ever issued (memory traffic metric). */
    std::uint64_t totalOps() const { return _totalOps; }

  private:
    Tick _opCost;
    Tick _busyUntil = 0;
    std::uint64_t _totalOps = 0;
};

} // namespace tlbpf

#endif // TLBPF_MEM_PREFETCH_CHANNEL_HH
