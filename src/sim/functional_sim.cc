#include "sim/functional_sim.hh"

#include <algorithm>
#include <stdexcept>

#include "util/bits.hh"
#include "util/check.hh"
#include "util/logging.hh"

namespace tlbpf
{

std::string
SimConfig::invalidReason() const
{
    if (pageBytes == 0)
        return "page size must be at least one byte";
    if (std::string why = tlb.invalidReason(); !why.empty())
        return why;
    return PrefetchBuffer::invalidReason(pbEntries);
}

SimFrontEnd::SimFrontEnd(const SimConfig &config)
    : _config(config), _tlb(config.tlb)
{
    if (std::string why = config.invalidReason(); !why.empty())
        tlbpf_fatal(why);
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

void
SimFrontEnd::processBlock(const MemRef *refs, std::size_t n,
                          std::span<MechanismBackEnd> backs)
{
    const std::uint64_t interval = _config.contextSwitchInterval;
    std::size_t i = 0;
    while (i < n) {
        process(refs[i], backs);
        Vpn vpn = pageOf(refs[i]);
        ++i;
        // How many of the following references may skip process():
        // none when hits train the back ends, and none past the next
        // context switch.
        std::size_t cap = _config.trainOnAllRefs ? 0 : n - i;
        if (interval && cap) {
            std::uint64_t since = _counters.refs % interval;
            cap = since == 0 ? 0
                             : static_cast<std::size_t>(std::min<
                                   std::uint64_t>(cap, interval - since));
        }
        std::size_t end = i;
        while (end < i + cap && pageOf(refs[end]) == vpn)
            ++end;
        if (end == i)
            continue;
        _tlb.repeatLastHit(vpn, end - i);
        _counters.refs += end - i;
        i = end;
    }
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
    : FunctionalSimulator(config, std::vector<MechanismSpec>{spec})
{
}

FunctionalSimulator::FunctionalSimulator(
    const SimConfig &config, const std::vector<MechanismSpec> &specs)
    : _front(config), _tables(specs.size()), _results(specs.size())
{
    _backs.reserve(specs.size());
    _labels.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        _backs.emplace_back(config, specs[i], _tables[i]);
        _labels.push_back(specs[i].label());
    }
}

const SimResult &
FunctionalSimulator::result(std::size_t i)
{
    _results[i] = cellResult(_front, _backs[i]);
    return _results[i];
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
FunctionalSimulator::checkpointable(std::size_t i) const
{
    const Prefetcher *prefetcher = _backs[i].prefetcher();
    return !prefetcher || prefetcher->checkpointable();
}

SimState
FunctionalSimulator::snapshot(std::size_t i) const
{
    if (!checkpointable(i))
        throw std::invalid_argument(
            "mechanism '" + _labels[i] +
            "' does not support checkpointing; use replay warm-up");
    const SimConfig &config = _front.config();
    const MechanismBackEnd &back = _backs[i];
    const Prefetcher *prefetcher = back.prefetcher();
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
    out.str(_labels[i]);

    SimResult counters = cellResult(_front, back);
    counters.footprintPages = _results[i].footprintPages;
    counters.pbEvictedUnused = _results[i].pbEvictedUnused;
    writeCounters(out, counters);
    _front.tlb().snapshotState(out);
    back.buffer().snapshotState(out);
    _front.pageTable().snapshotState(out, _tables[i]);
    out.boolean(prefetcher != nullptr);
    if (prefetcher)
        prefetcher->snapshotState(out);
    return SimState{out.take()};
}

void
FunctionalSimulator::restore(const SimState &state)
{
    if (_backs.size() != 1)
        throw std::invalid_argument(
            "restore() needs a one-mechanism simulator, this one runs " +
            std::to_string(_backs.size()));
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
    const std::string &label = _labels.front();
    if (std::string mech = in.str(); mech != label)
        SnapshotReader::fail("checkpoint was taken under mechanism '" +
                             mech + "', this simulator runs '" + label +
                             "'");

    MechanismBackEnd &back = _backs.front();
    readCounters(in, _results.front());
    const SimResult &r = _results.front();
    _front.counters() = SimResult{.refs = r.refs,
                                  .misses = r.misses,
                                  .contextSwitches = r.contextSwitches};
    back.counters() =
        SimResult{.pbHits = r.pbHits,
                  .demandFetches = r.demandFetches,
                  .prefetchesIssued = r.prefetchesIssued,
                  .prefetchesSuppressed = r.prefetchesSuppressed,
                  .stateOps = r.stateOps};
    _front.tlb().restoreState(in);
    back.buffer().restoreState(in);
    // Before the mechanism: RP's links live in the back end's table.
    _front.pageTable().restoreState(in, _tables.front());
    Prefetcher *prefetcher = back.prefetcher();
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
                     "mechanism '", label, "'");
}

SimResult
simulate(const SimConfig &config, const MechanismSpec &spec,
         RefStream &stream)
{
    FunctionalSimulator sim(config, spec);
    return simulateWindow(sim, stream, UINT64_MAX).front();
}

std::vector<SimResult>
simulateMany(const SimConfig &config,
             const std::vector<MechanismSpec> &specs, RefStream &stream)
{
    FunctionalSimulator sim(config, specs);
    return simulateWindow(sim, stream, UINT64_MAX);
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

std::vector<SimResult>
simulateWindow(FunctionalSimulator &sim, RefStream &stream,
               std::uint64_t take)
{
    std::vector<SimResult> deltas(sim.mechanisms());
    for (std::size_t i = 0; i < deltas.size(); ++i)
        deltas[i] = sim.result(i);
    std::vector<MemRef> block(kSimBatchRefs);
    std::uint64_t processed = 0;
    while (processed < take) {
        std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(take - processed, block.size()));
        std::size_t got = stream.nextBatch(block.data(), want);
        sim.processBlock(block.data(), got);
        processed += got;
        if (got < want)
            break;
    }
    for (std::size_t i = 0; i < deltas.size(); ++i) {
        deltas[i] = counterDelta(sim.result(i), deltas[i]);
        // Window attribution: every reference fed in this window — and
        // none from the warm-up before it — lands in the delta, or
        // sharded merges would drift from the unsharded run.
        TLBPF_DCHECK_MSG(deltas[i].refs == processed,
                         "window of ", processed, " refs recorded ",
                         deltas[i].refs, " in its counter delta");
    }
    return deltas;
}

} // namespace tlbpf
