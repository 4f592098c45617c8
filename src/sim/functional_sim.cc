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
    _lastIcount = ref.icount;
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
        back.onMiss(ref, vpn, evicted, _tlb);
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
        _lastIcount = refs[end - 1].icount;
        i = end;
    }
}

MechanismBackEnd::MechanismBackEnd(const SimConfig &config,
                                   const MechanismSpec &spec,
                                   PageTable &pt,
                                   const TimingConfig *timing)
    : _buffer(config.pbEntries),
      _prefetcher(spec.build(pt)),
      _trainOnHits(config.trainOnAllRefs && _prefetcher &&
                   _prefetcher->name() != "RP")
{
    if (timing)
        _cycles = std::make_unique<CycleModel>(
            *timing, PrefetchChannel(timing->memOpCost), TimingResult{});
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
MechanismBackEnd::onMiss(const MemRef &ref, Vpn vpn, Vpn evicted,
                         const Tlb &tlb)
{
    // The buffer is probed alongside the TLB; the front end's fill has
    // already happened, which the buffer never consults.
    Tick ready_at = 0;
    bool pb_hit = _buffer.hitAndPromote(vpn, ready_at);
    if (pb_hit)
        ++_counters.pbHits;
    else
        ++_counters.demandFetches;
    if (_cycles) [[unlikely]] {
        timedMiss(ref, vpn, pb_hit, ready_at, evicted, tlb);
        return;
    }

    if (!_prefetcher)
        return;
    _decision.clear();
    _prefetcher->onMiss(TlbMiss{vpn, ref.pc, pb_hit, evicted}, _decision);
    _counters.stateOps += _decision.stateOps;
    queuePrefetches(vpn, tlb);
}

void
MechanismBackEnd::timedMiss(const MemRef &ref, Vpn vpn, bool pb_hit,
                            Tick ready_at, Vpn evicted, const Tlb &tlb)
{
    CycleModel &cycles = *_cycles;
    TimingResult &timed = cycles.counters;
    // Current time: compute progress plus every stall so far.
    Tick now = cycles.computeCycles(ref.icount) + timed.stallCycles;
    if (pb_hit) {
        if (ready_at > now) {
            // Prefetch still in flight: stall until it lands.
            timed.stallCycles += ready_at - now;
            ++timed.inFlightHits;
        }
    } else {
        // The demand fetch is delayed by in-flight prefetch traffic.
        Tick start = std::max(now, cycles.channel.busyUntil());
        timed.stallCycles += start + cycles.config.missPenalty - now;
    }

    if (!_prefetcher)
        return;
    // The RP benefit-of-the-doubt rule keys off whether earlier
    // prefetch traffic is still outstanding when this miss arrives.
    bool busy_at_miss = cycles.channel.busyAt(now);
    _decision.clear();
    _prefetcher->onMiss(TlbMiss{vpn, ref.pc, pb_hit, evicted}, _decision);
    _counters.stateOps += _decision.stateOps;
    if (_decision.stateOps > 0)
        cycles.channel.issue(now, _decision.stateOps);
    if (busy_at_miss && _prefetcher->dropPrefetchesWhenBusy()) {
        timed.prefetchesSkippedBusy += _decision.targets.size();
        return;
    }
    queuePrefetches(vpn, tlb, &cycles.channel, now);
}

void
MechanismBackEnd::queuePrefetches(Vpn vpn, const Tlb &tlb,
                                  PrefetchChannel *channel, Tick now)
{
    for (Vpn target : _decision.targets) {
        // The buffer is a few cache lines; the TLB probe costs more.
        if (target == vpn || _buffer.contains(target) ||
            tlb.contains(target)) {
            ++_counters.prefetchesSuppressed;
            continue;
        }
        _buffer.insertAbsent(target,
                             channel ? channel->issue(now, 1).done : 0);
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
    const SimConfig &config, const std::vector<MechanismSpec> &specs,
    std::optional<TimingConfig> timing)
    : _front(config), _tables(specs.size()), _results(specs.size())
{
    // The cycle model neither flushes nor trains on hits; running such
    // a cell would answer (and cache) the unflushed, miss-trained one.
    if (timing && config.contextSwitchInterval != 0)
        throw std::invalid_argument(
            "timed cells do not model context switches: "
            "context_switch_interval must be 0");
    if (timing && config.trainOnAllRefs)
        throw std::invalid_argument(
            "timed cells train on TLB misses only: "
            "train_on_all_refs must be false");
    _backs.reserve(specs.size());
    _labels.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        _backs.emplace_back(config, specs[i], _tables[i],
                            timing ? &*timing : nullptr);
        _labels.push_back(specs[i].label());
    }
}

const SimResult &
FunctionalSimulator::result(std::size_t i)
{
    _results[i] = cellResult(_front, _backs[i]);
    return _results[i];
}

TimingResult
FunctionalSimulator::timing(std::size_t i)
{
    const CycleModel *cycles = _backs[i].cycles();
    tlbpf_assert(cycles != nullptr, "timing() of an untimed simulator");
    TimingResult r = cycles->counters;
    r.functional = result(i);
    r.computeCycles = cycles->computeCycles(_front.lastIcount());
    r.cycles = r.computeCycles + r.stallCycles;
    r.memoryOps = cycles->channel.totalOps();
    return r;
}

namespace
{

/**
 * Leading bytes of every checkpoint: "TPFS" + format version.  Version
 * 2 lists translations as VPN deltas with no frame numbers, link words
 * sparsely and prediction-table rows as varints.  No older version is
 * read: the checkpoint store is a cache, and a shard whose stored state
 * fails to restore replays its prefix and stores it anew.
 */
constexpr std::uint32_t kSnapshotMagic = 0x53465054; // 'T','P','F','S'
constexpr std::uint8_t kSnapshotVersion = 2;

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
    return !_backs[i].cycles() &&
           (!prefetcher || prefetcher->checkpointable());
}

FunctionalSimulator::FrontSections
FunctionalSimulator::frontSections() const
{
    FrontSections front;
    SnapshotWriter tlb;
    _front.tlb().snapshotState(tlb);
    front.tlb = tlb.take();
    front.pages = _front.pageTable().sortedPages();
    SnapshotWriter translations;
    PageTable::snapshotPages(translations, front.pages);
    front.translations = translations.take();
    front.refs = _front.counters().refs;
    return front;
}

SimState
FunctionalSimulator::snapshot(std::size_t i, const FrontSections &front) const
{
    if (!checkpointable(i))
        throw std::invalid_argument(
            _backs[i].cycles()
                ? "timed cells have no checkpoint"
                : "mechanism '" + _labels[i] +
                      "' does not support checkpointing; use replay warm-up");
    TLBPF_DCHECK_MSG(front.refs == _front.counters().refs &&
                         front.pages.size() == _front.pageTable().size(),
                     "front-end sections taken at ", front.refs,
                     " refs, the simulator is at ", _front.counters().refs);
    const SimConfig &config = _front.config();
    const MechanismBackEnd &back = _backs[i];
    const Prefetcher *prefetcher = back.prefetcher();
    SnapshotWriter out;
    // Rough upper bound on the serialized size: the shared sections,
    // buffer nodes, RP's link entries (a few bytes each) and a
    // prediction table.
    out.reserve(1024 + front.tlb.size() + front.translations.size() +
                16 * static_cast<std::size_t>(config.pbEntries) +
                8 * _tables[i].size());
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
    out.raw(front.tlb);
    back.buffer().snapshotState(out);
    out.raw(front.translations);
    _tables[i].snapshotLinks(out, front.pages);
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
    if (_backs.front().cycles())
        throw std::invalid_argument("restore() needs an untimed simulator");
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
    // A resident page was missed, so the front end translates it.  RP
    // links only pages the TLB has evicted and pushes a page when the
    // TLB evicts it: a resident page on its stack would be pushed twice.
    const PageTable &links = _tables.front();
    _front.tlb().forEachResident([&](Vpn vpn) {
        if (!_front.pageTable().find(vpn))
            SnapshotReader::fail("TLB-resident page " + std::to_string(vpn) +
                                 " has no translation");
        if (const PageTableEntry *link = links.find(vpn);
            link && link->linked())
            SnapshotReader::fail("TLB-resident page " + std::to_string(vpn) +
                                 " is linked in the recency stack");
    });
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

TimingResult
simulateTimed(const SimConfig &config, const TimingConfig &timing,
              const MechanismSpec &spec, RefStream &stream)
{
    FunctionalSimulator sim(config, {spec}, timing);
    simulateWindow(sim, stream, UINT64_MAX);
    return sim.timing();
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
