#include "sim/functional_sim.hh"

#include <algorithm>
#include <stdexcept>

#include "util/bits.hh"
#include "util/check.hh"

namespace tlbpf
{

SimFrontEnd::SimFrontEnd(const SimConfig &config)
    : _config(config), _tlb(config.tlb)
{
    if (isPowerOfTwo(_config.pageBytes))
        _pageShift = floorLog2(_config.pageBytes);
}

Vpn
SimFrontEnd::pageOf(const MemRef &ref) const
{
    // The paper's page sizes are powers of two, so the hot path is a
    // shift; the division is kept for exotic configs.
    return _pageShift != UINT32_MAX ? ref.vaddr >> _pageShift
                                    : ref.vpn(_config.pageBytes);
}

void
SimFrontEnd::process(const MemRef &ref, std::span<MechanismBackEnd> backs)
{
    if (_config.contextSwitchInterval &&
        _counters.refs > 0 &&
        _counters.refs % _config.contextSwitchInterval == 0) {
        _tlb.flush();
        for (MechanismBackEnd &back : backs)
            back.flush();
        ++_counters.contextSwitches;
    }
    ++_counters.refs;
    Vpn vpn = pageOf(ref);

    if (_tlb.access(vpn)) {
        // Ablation mode: the prefetchers observe hits as well (they sit
        // on the reference stream rather than the miss stream).
        if (_config.trainOnAllRefs)
            for (MechanismBackEnd &back : backs)
                back.onHit(vpn, ref.pc, _tlb);
        return;
    }

    ++_counters.misses;
    _pt.lookup(vpn); // materialise the translation
    Vpn evicted = _tlb.insert(vpn).value_or(kNoPage);
    for (MechanismBackEnd &back : backs)
        back.onMiss(vpn, ref.pc, evicted, _tlb);
}

MechanismBackEnd::MechanismBackEnd(const SimConfig &config,
                                   const MechanismSpec &spec,
                                   PageTable &pt)
    : _buffer(config.pbEntries),
      _prefetcher(spec.build(pt)),
      _trainOnHits(config.trainOnAllRefs && _prefetcher &&
                   _prefetcher->name() != "RP")
{
}

void
MechanismBackEnd::flush()
{
    _buffer.flush();
    if (_prefetcher)
        _prefetcher->reset();
}

void
MechanismBackEnd::onHit(Vpn vpn, Addr pc, const Tlb &tlb)
{
    if (!_trainOnHits)
        return;
    _decision.clear();
    _prefetcher->onMiss(TlbMiss{vpn, pc, false, kNoPage}, _decision);
    queuePrefetches(vpn, tlb);
}

void
MechanismBackEnd::onMiss(Vpn vpn, Addr pc, Vpn evicted, const Tlb &tlb)
{
    // The buffer is probed alongside the TLB; the front end's fill has
    // already happened, which the buffer never consults.
    Tick ready_at = 0;
    bool pb_hit = _buffer.hitAndPromote(vpn, ready_at);
    if (pb_hit)
        ++_counters.pbHits;
    else
        ++_counters.demandFetches;

    if (!_prefetcher)
        return;
    _decision.clear();
    _prefetcher->onMiss(TlbMiss{vpn, pc, pb_hit, evicted}, _decision);
    _counters.stateOps += _decision.stateOps;
    queuePrefetches(vpn, tlb);
}

void
MechanismBackEnd::queuePrefetches(Vpn vpn, const Tlb &tlb)
{
    for (Vpn target : _decision.targets) {
        if (target == vpn || tlb.contains(target) ||
            _buffer.contains(target)) {
            ++_counters.prefetchesSuppressed;
            continue;
        }
        _buffer.insert(target, 0);
        ++_counters.prefetchesIssued;
    }
}

namespace
{

/** One cell's counters: @p front's plus @p back's, derived ones fresh. */
SimResult
cellResult(const SimFrontEnd &front, const MechanismBackEnd &back)
{
    SimResult r = front.counters();
    addCounters(r, back.counters());
    r.footprintPages = front.pageTable().size();
    r.pbEvictedUnused = back.buffer().evictedUnused();
    return r;
}

} // namespace

FunctionalSimulator::FunctionalSimulator(const SimConfig &config,
                                         const MechanismSpec &spec)
    : _mechLabel(spec.label()),
      _front(config),
      _back(config, spec, _front.pageTable())
{
}

const SimResult &
FunctionalSimulator::result()
{
    _result = cellResult(_front, _back);
    return _result;
}

namespace
{

/** Leading bytes of every checkpoint: "TPFS" + format version. */
constexpr std::uint32_t kSnapshotMagic = 0x53465054; // 'T','P','F','S'
constexpr std::uint8_t kSnapshotVersion = 1;

void
writeCounters(SnapshotWriter &out, const SimResult &r)
{
    out.u64(r.refs);
    out.u64(r.misses);
    out.u64(r.pbHits);
    out.u64(r.demandFetches);
    out.u64(r.prefetchesIssued);
    out.u64(r.prefetchesSuppressed);
    out.u64(r.stateOps);
    out.u64(r.pbEvictedUnused);
    out.u64(r.footprintPages);
    out.u64(r.contextSwitches);
}

void
readCounters(SnapshotReader &in, SimResult &r)
{
    r.refs = in.u64();
    r.misses = in.u64();
    r.pbHits = in.u64();
    r.demandFetches = in.u64();
    r.prefetchesIssued = in.u64();
    r.prefetchesSuppressed = in.u64();
    r.stateOps = in.u64();
    r.pbEvictedUnused = in.u64();
    r.footprintPages = in.u64();
    r.contextSwitches = in.u64();
}

} // namespace

bool
FunctionalSimulator::checkpointable() const
{
    return !_back.prefetcher() || _back.prefetcher()->checkpointable();
}

SimState
FunctionalSimulator::snapshot() const
{
    if (!checkpointable())
        throw std::invalid_argument(
            "mechanism '" + _mechLabel +
            "' does not support checkpointing; use replay warm-up");
    const SimConfig &config = _front.config();
    const Prefetcher *prefetcher = _back.prefetcher();
    SnapshotWriter out;
    // Rough upper bound on the serialized size: page table entries
    // dominate (33 bytes each), then TLB slots and buffer nodes.
    out.reserve(512 + 40 * _front.pageTable().size() +
                17 * static_cast<std::size_t>(config.tlb.entries) +
                16 * static_cast<std::size_t>(config.pbEntries));
    out.u32(kSnapshotMagic);
    out.u8(kSnapshotVersion);

    // Configuration signature: a checkpoint only restores into a
    // simulator that would have produced it.
    out.u32(config.tlb.entries);
    out.u32(config.tlb.assoc);
    out.u32(config.pbEntries);
    out.u64(config.pageBytes);
    out.boolean(config.trainOnAllRefs);
    out.u64(config.contextSwitchInterval);
    out.str(_mechLabel);

    SimResult counters = cellResult(_front, _back);
    counters.footprintPages = _result.footprintPages;
    counters.pbEvictedUnused = _result.pbEvictedUnused;
    writeCounters(out, counters);
    _front.tlb().snapshotState(out);
    _back.buffer().snapshotState(out);
    _front.pageTable().snapshotState(out);
    out.boolean(prefetcher != nullptr);
    if (prefetcher)
        prefetcher->snapshotState(out);
    return SimState{out.take()};
}

void
FunctionalSimulator::restore(const SimState &state)
{
    SnapshotReader in(state.bytes);
    if (in.u32() != kSnapshotMagic)
        SnapshotReader::fail("bad magic (not a simulator checkpoint)");
    if (std::uint8_t version = in.u8(); version != kSnapshotVersion)
        SnapshotReader::fail("unsupported checkpoint version " +
                             std::to_string(version));

    const SimConfig &config = _front.config();
    if (in.u32() != config.tlb.entries ||
        in.u32() != config.tlb.assoc ||
        in.u32() != config.pbEntries ||
        in.u64() != config.pageBytes ||
        in.boolean() != config.trainOnAllRefs ||
        in.u64() != config.contextSwitchInterval)
        SnapshotReader::fail(
            "simulator configuration does not match the checkpoint");
    if (std::string mech = in.str(); mech != _mechLabel)
        SnapshotReader::fail("checkpoint was taken under mechanism '" +
                             mech + "', this simulator runs '" +
                             _mechLabel + "'");

    readCounters(in, _result);
    const SimResult &r = _result;
    _front.counters() = SimResult{.refs = r.refs,
                                  .misses = r.misses,
                                  .contextSwitches = r.contextSwitches};
    _back.counters() =
        SimResult{.pbHits = r.pbHits,
                  .demandFetches = r.demandFetches,
                  .prefetchesIssued = r.prefetchesIssued,
                  .prefetchesSuppressed = r.prefetchesSuppressed,
                  .stateOps = r.stateOps};
    _front.tlb().restoreState(in);
    _back.buffer().restoreState(in);
    // Before the mechanism: RP's links live in the page table.
    _front.pageTable().restoreState(in);
    Prefetcher *prefetcher = _back.prefetcher();
    bool has_prefetcher = in.boolean();
    if (has_prefetcher != (prefetcher != nullptr))
        SnapshotReader::fail(
            "checkpoint and simulator disagree on mechanism presence");
    if (prefetcher)
        prefetcher->restoreState(in);
    if (!in.atEnd())
        SnapshotReader::fail("trailing bytes after checkpoint");
    // The whole checkpoint design rests on restore() being the exact
    // inverse of snapshot(): shard chains and the persistent store
    // both assume a restored simulator re-serializes to the same
    // bytes.  A component whose restoreState() loses state (a rebuilt
    // index that reorders, an LRU clock that resets) would silently
    // skew every downstream window; catch it at the boundary.
    TLBPF_DCHECK_MSG(snapshot().bytes == state.bytes,
                     "restore() is not the inverse of snapshot() for "
                     "mechanism '", _mechLabel, "'");
}

SimResult
simulate(const SimConfig &config, const MechanismSpec &spec,
         RefStream &stream)
{
    FunctionalSimulator sim(config, spec);
    std::vector<MemRef> block(kSimBatchRefs);
    std::size_t got;
    while ((got = stream.nextBatch(block.data(), block.size())) > 0) {
        for (std::size_t i = 0; i < got; ++i)
            sim.process(block[i]);
    }
    return sim.result();
}

std::vector<SimResult>
simulateMany(const SimConfig &config,
             const std::vector<MechanismSpec> &specs, RefStream &stream)
{
    SimFrontEnd front(config);
    // One private page table per mechanism, sized up front so none
    // relocates: a prefetcher holds a reference to its table.
    std::vector<PageTable> tables(specs.size());
    std::vector<MechanismBackEnd> backs;
    backs.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        backs.emplace_back(config, specs[i], tables[i]);
    std::vector<MemRef> block(kSimBatchRefs);
    std::size_t got;
    while ((got = stream.nextBatch(block.data(), block.size())) > 0) {
        for (std::size_t i = 0; i < got; ++i)
            front.process(block[i], backs);
    }
    std::vector<SimResult> results;
    results.reserve(backs.size());
    for (const MechanismBackEnd &back : backs)
        results.push_back(cellResult(front, back));
    return results;
}

void
addCounters(SimResult &into, const SimResult &from)
{
    into.refs += from.refs;
    into.misses += from.misses;
    into.pbHits += from.pbHits;
    into.demandFetches += from.demandFetches;
    into.prefetchesIssued += from.prefetchesIssued;
    into.prefetchesSuppressed += from.prefetchesSuppressed;
    into.stateOps += from.stateOps;
    into.pbEvictedUnused += from.pbEvictedUnused;
    into.footprintPages += from.footprintPages;
    into.contextSwitches += from.contextSwitches;
}

namespace
{

/** Field-wise @p end - @p start; valid because every field is monotone. */
SimResult
counterDelta(const SimResult &end, const SimResult &start)
{
    SimResult delta;
    delta.refs = end.refs - start.refs;
    delta.misses = end.misses - start.misses;
    delta.pbHits = end.pbHits - start.pbHits;
    delta.demandFetches = end.demandFetches - start.demandFetches;
    delta.prefetchesIssued =
        end.prefetchesIssued - start.prefetchesIssued;
    delta.prefetchesSuppressed =
        end.prefetchesSuppressed - start.prefetchesSuppressed;
    delta.stateOps = end.stateOps - start.stateOps;
    delta.pbEvictedUnused = end.pbEvictedUnused - start.pbEvictedUnused;
    delta.footprintPages = end.footprintPages - start.footprintPages;
    delta.contextSwitches = end.contextSwitches - start.contextSwitches;
    return delta;
}

} // namespace

SimResult
simulateWindow(FunctionalSimulator &sim, RefStream &stream,
               std::uint64_t take)
{
    SimResult start = sim.result();
    std::vector<MemRef> block(kSimBatchRefs);
    std::uint64_t processed = 0;
    while (processed < take) {
        std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(take - processed, block.size()));
        std::size_t got = stream.nextBatch(block.data(), want);
        for (std::size_t i = 0; i < got; ++i)
            sim.process(block[i]);
        processed += got;
        if (got < want)
            break;
    }
    SimResult delta = counterDelta(sim.result(), start);
    // Window attribution: every reference fed in this window — and
    // none from the warm-up before it — lands in the delta, or sharded
    // merges would drift from the unsharded run.
    TLBPF_DCHECK_MSG(delta.refs == processed,
                     "window of ", processed, " refs recorded ",
                     delta.refs, " in its counter delta");
    return delta;
}

} // namespace tlbpf
