/**
 * @file
 * Functional TLB-prefetching simulator — the sim-cache analogue the
 * paper uses for its prediction-accuracy results (Figures 7-9,
 * Table 2).
 *
 * Per-reference flow (paper Section 2):
 *   1. probe the TLB (and, conceptually in parallel, the prefetch
 *      buffer);
 *   2. on a TLB miss that hits the buffer, promote the entry into the
 *      TLB and count a successful prediction;
 *   3. on a full miss, demand-fetch the translation;
 *   4. either way, hand the miss to the prefetching mechanism, which
 *      may queue prefetches into the buffer (duplicates against the
 *      TLB and buffer suppressed).
 *
 * Prediction accuracy = buffer hits / TLB misses.
 *
 * Steps 1 and 3 do not depend on the mechanism, so they live in a
 * SimFrontEnd and the rest in a MechanismBackEnd: a FunctionalSimulator
 * is one of each, and a single-pass sweep (simulateMany) drives N back
 * ends from one front end.
 */

#ifndef TLBPF_SIM_FUNCTIONAL_SIM_HH
#define TLBPF_SIM_FUNCTIONAL_SIM_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mem/page_table.hh"
#include "prefetch/mech_spec.hh"
#include "prefetch/prefetcher.hh"
#include "tlb/prefetch_buffer.hh"
#include "tlb/tlb.hh"
#include "trace/ref_stream.hh"
#include "util/snapshot.hh"

namespace tlbpf
{

/** Geometry shared by the functional and timing simulators. */
struct SimConfig
{
    TlbConfig tlb{128, 0};        ///< paper default: 128-entry FA
    std::uint32_t pbEntries = 16; ///< paper default: b = 16
    std::uint64_t pageBytes = kDefaultPageBytes;
    /**
     * Ablation switch: feed the prefetcher the *full reference
     * stream* instead of only the TLB miss stream.  The paper places
     * every mechanism after the TLB (miss stream only) and remarks
     * that this "does not seem to penalize DP in any significant
     * way"; this flag lets the ablation bench quantify that.  Only
     * meaningful for the on-chip schemes (RP's stack semantics are
     * tied to TLB evictions, so it ignores the flag).
     */
    bool trainOnAllRefs = false;
    /**
     * Multiprogramming model (the paper's "ongoing work" on flushing
     * or switching the prefetch tables): every this many references a
     * context switch flushes the TLB, the prefetch buffer and the
     * prefetcher's on-chip prediction state.  0 disables switching.
     * RP's in-memory stack survives a flush in reality; the reset
     * here conservatively clears it too, modelling a different
     * process's page table becoming active.
     */
    std::uint64_t contextSwitchInterval = 0;

    bool operator==(const SimConfig &other) const = default;
};

/** Counters produced by a simulation run. */
struct SimResult
{
    std::uint64_t refs = 0;
    std::uint64_t misses = 0;       ///< TLB misses (incl. buffer hits)
    std::uint64_t pbHits = 0;       ///< misses satisfied by the buffer
    std::uint64_t demandFetches = 0;
    std::uint64_t prefetchesIssued = 0;
    std::uint64_t prefetchesSuppressed = 0; ///< duplicate targets
    std::uint64_t stateOps = 0;     ///< RP pointer-word traffic
    std::uint64_t pbEvictedUnused = 0;
    std::uint64_t footprintPages = 0;
    std::uint64_t contextSwitches = 0;

    /** Counter-for-counter equality (bit-identity assertions). */
    bool operator==(const SimResult &other) const = default;

    /** TLB miss rate per reference. */
    double
    missRate() const
    {
        return refs ? static_cast<double>(misses) /
                          static_cast<double>(refs)
                    : 0.0;
    }

    /** The paper's prediction accuracy metric. */
    double
    accuracy() const
    {
        return misses ? static_cast<double>(pbHits) /
                            static_cast<double>(misses)
                      : 0.0;
    }

    /** Memory operations per miss (state + prefetch fetches). */
    double
    memOpsPerMiss() const
    {
        return misses ? static_cast<double>(stateOps +
                                            prefetchesIssued) /
                            static_cast<double>(misses)
                      : 0.0;
    }
};

/**
 * A serialized simulator-state checkpoint: everything process() can
 * observe — counters, TLB, prefetch buffer, page table and mechanism
 * prediction state — as one stable byte string.  Produced by
 * FunctionalSimulator::snapshot() and consumed by restore() on a
 * simulator built from the same SimConfig and MechanismSpec, so a
 * run can be split at any reference boundary and continued
 * bit-identically (the persistent shard checkpoints a CheckpointHook
 * stores and serves).
 */
struct SimState
{
    std::vector<std::uint8_t> bytes;

    bool empty() const { return bytes.empty(); }
};

class MechanismBackEnd;

/**
 * The mechanism-independent half of the functional simulator: the TLB,
 * the page table its misses fill, and the counters every mechanism
 * shares (refs, misses, contextSwitches; footprintPages is the page
 * table's size).  Mechanisms sit after the TLB and fill their own
 * prefetch buffers, never the TLB, so nothing a mechanism does changes
 * this half: one front end can drive any number of back ends.
 */
class SimFrontEnd
{
  public:
    explicit SimFrontEnd(const SimConfig &config);

    /**
     * Feed one reference through the TLB and hand the outcome to every
     * back end in @p backs, in order: a context switch flushes them, a
     * miss reaches them after the TLB fill, and a hit reaches them only
     * under trainOnAllRefs.
     */
    void process(const MemRef &ref, std::span<MechanismBackEnd> backs);

    const SimConfig &config() const { return _config; }
    const Tlb &tlb() const { return _tlb; }
    Tlb &tlb() { return _tlb; }
    const PageTable &pageTable() const { return _pt; }
    PageTable &pageTable() { return _pt; }

    /** refs, misses and contextSwitches; every other field is 0. */
    const SimResult &counters() const { return _counters; }
    SimResult &counters() { return _counters; }

  private:
    Vpn pageOf(const MemRef &ref) const;

    SimConfig _config;
    /** log2(pageBytes) when it is a power of two, else UINT32_MAX. */
    std::uint32_t _pageShift = UINT32_MAX;
    PageTable _pt;
    Tlb _tlb;
    SimResult _counters;
};

/**
 * The per-mechanism half of the functional simulator: the prefetch
 * buffer, the prefetcher, and the counters only they move (pbHits,
 * demandFetches, prefetchesIssued/Suppressed and stateOps;
 * pbEvictedUnused is the buffer's).
 */
class MechanismBackEnd
{
  public:
    /** Build @p spec's prefetcher over @p pt, which must outlive it. */
    MechanismBackEnd(const SimConfig &config, const MechanismSpec &spec,
                     PageTable &pt);

    /** Context switch: empty the buffer, reset the prediction state. */
    void flush();

    /** A TLB hit on @p vpn under trainOnAllRefs. */
    void onHit(Vpn vpn, Addr pc, const Tlb &tlb);

    /**
     * A TLB miss on @p vpn after the front end's fill, which evicted
     * @p evicted (kNoPage if the set had room): probe the buffer, train
     * the mechanism and queue its prefetches.
     */
    void onMiss(Vpn vpn, Addr pc, Vpn evicted, const Tlb &tlb);

    const PrefetchBuffer &buffer() const { return _buffer; }
    PrefetchBuffer &buffer() { return _buffer; }
    const Prefetcher *prefetcher() const { return _prefetcher.get(); }
    Prefetcher *prefetcher() { return _prefetcher.get(); }

    /** The back end's counter fields; every other field is 0. */
    const SimResult &counters() const { return _counters; }
    SimResult &counters() { return _counters; }

  private:
    /**
     * Queue the decision's targets into the buffer, suppressing the
     * missed page itself and pages already in the TLB or the buffer.
     */
    void queuePrefetches(Vpn vpn, const Tlb &tlb);

    PrefetchBuffer _buffer;
    std::unique_ptr<Prefetcher> _prefetcher;
    PrefetchDecision _decision;
    /**
     * Whether TLB hits train the mechanism: under trainOnAllRefs, for
     * every mechanism but RP, whose stack is defined by TLB evictions.
     * A hybrid with an RP child still trains on hits.
     */
    bool _trainOnHits;
    SimResult _counters;
};

/** Stepping functional simulator: one front end, one back end. */
class FunctionalSimulator
{
  public:
    FunctionalSimulator(const SimConfig &config,
                        const MechanismSpec &spec);

    /** Feed one reference. */
    void
    process(const MemRef &ref)
    {
        _front.process(ref, std::span<MechanismBackEnd>(&_back, 1));
    }

    /** Counters so far (footprint refreshed on each call). */
    const SimResult &result();

    /**
     * True if the whole simulator state can round-trip through
     * snapshot()/restore(): always, unless the mechanism is an
     * open-registry entry that has not opted into checkpointing
     * (Prefetcher::checkpointable()).
     */
    bool checkpointable() const;

    /**
     * Serialize the exact simulator state.  Continuing a restored
     * simulator over the same remaining reference stream reproduces
     * the uninterrupted run's counters bit-for-bit.  Throws
     * std::invalid_argument if !checkpointable().
     */
    SimState snapshot() const;

    /**
     * Restore state captured by snapshot() on a simulator with the
     * same configuration and mechanism; throws std::invalid_argument
     * on a truncated/foreign checkpoint or a config/mechanism
     * mismatch.
     */
    void restore(const SimState &state);

    const Tlb &tlb() const { return _front.tlb(); }
    const PrefetchBuffer &buffer() const { return _back.buffer(); }
    const PageTable &pageTable() const { return _front.pageTable(); }
    Prefetcher *prefetcher() { return _back.prefetcher(); }

  private:
    std::string _mechLabel;
    SimFrontEnd _front;
    /** Built over _front's page table, which RP's links live in. */
    MechanismBackEnd _back;
    /**
     * The counters as last returned by result().  A checkpoint records
     * the derived footprintPages and pbEvictedUnused from here rather
     * than live, which keeps its bytes identical to the checkpoints
     * already in on-disk stores.
     */
    SimResult _result;
};

/**
 * References pulled per nextBatch call by the batched simulate loops:
 * large enough to amortise the virtual dispatch, small enough that the
 * block stays cache-resident.
 */
constexpr std::size_t kSimBatchRefs = 4096;

/** Run @p stream to exhaustion under @p spec and return the counters. */
SimResult simulate(const SimConfig &config, const MechanismSpec &spec,
                   RefStream &stream);

/**
 * Run @p stream to exhaustion once under every mechanism in @p specs:
 * the single-pass multi-mechanism mode.  One SimFrontEnd runs the TLB
 * and page table for all of them and hands each reference's outcome to
 * one MechanismBackEnd per spec, in order.  Result i is bit-identical
 * to simulate(config, specs[i], stream) over a fresh stream, because
 * sharing the front end is exact:
 *   - prefetches land in each mechanism's own buffer and never enter
 *     the TLB, so the TLB's hit/miss/eviction sequence is the same
 *     under every mechanism;
 *   - the page-table entries simulate() creates are exactly the
 *     missed pages, so the shared table's size is every cell's
 *     footprint.
 * Each prefetcher is built over a private page table rather than the
 * shared one.  Only RP writes page-table entries, and its stack creates
 * every entry it touches.  The stream is generated or decoded once and
 * the TLB and page table are simulated once, instead of specs.size()
 * times.
 */
std::vector<SimResult> simulateMany(const SimConfig &config,
                                    const std::vector<MechanismSpec> &specs,
                                    RefStream &stream);

/**
 * Add every counter of @p from into @p into — the reduce step that
 * merges sharded cells.  All SimResult fields are monotone counters
 * (footprintPages and pbEvictedUnused included), so summing the
 * per-window deltas of a partition of [0, refs) reproduces the
 * unsharded run's counters bit-for-bit.
 */
void addCounters(SimResult &into, const SimResult &from);

/**
 * Feed @p sim the next @p take references of @p stream (fewer if the
 * stream ends) and return the counter delta over them: one *window*
 * of a sharded cell.  Shard k of N records window
 * [k*refs/N, (k+1)*refs/N) of a simulator warmed to the window start,
 * by replaying the prefix through this same call or by restoring the
 * snapshot() taken there, so the merged windows equal the unsharded
 * run exactly.  Leaves @p sim's result() current, so a snapshot()
 * taken right after records the end-of-window state.
 */
SimResult simulateWindow(FunctionalSimulator &sim, RefStream &stream,
                         std::uint64_t take);

} // namespace tlbpf

#endif // TLBPF_SIM_FUNCTIONAL_SIM_HH
