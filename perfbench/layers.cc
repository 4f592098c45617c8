/**
 * @file
 * The traced run's layer probes: each times one layer's public calls,
 * from the benchmark's code, on the workload's own models and cells,
 * and every per-layer metric is derived from the spans' self times.
 */

#include <algorithm>
#include <arpa/inet.h>
#include <filesystem>
#include <netinet/in.h>
#include <sys/socket.h>
#include <thread>

#include "bench.hh"
#include "dispatch/dispatch_protocol.hh"
#include "mem/page_table.hh"
#include "run/sweep_engine.hh"
#include "service/client.hh"
#include "service/result_cache.hh"
#include "service/server.hh"
#include "sim/experiment.hh"
#include "tlb/prefetch_buffer.hh"
#include "tlb/tlb.hh"
#include "trace/trace_file.hh"

namespace perfbench
{

using namespace tlbpf;

namespace
{

/** Paired passes per mechanism in the simulate and onMiss probes. */
constexpr int kProbeRepeats = 3;

/** Feed @p refs to @p sim in kSimBatchRefs blocks, one span each. */
void
simulateTraced(FunctionalSimulator &sim, const std::vector<MemRef> &refs,
               Tracer &tracer, const char *span, std::size_t from = 0,
               std::size_t to = SIZE_MAX)
{
    to = std::min(to, refs.size());
    for (std::size_t i = from; i < to; i += kSimBatchRefs) {
        std::size_t end = std::min(to, i + kSimBatchRefs);
        Scope s(tracer, span);
        for (std::size_t r = i; r < end; ++r)
            sim.process(refs[r]);
        s.setCount(end - i);
    }
}

/**
 * FunctionalSimulator::process under DP,256,D, transcribed from the
 * simulator's public per-reference flow so each layer call on the miss
 * path is its own span.  Its counters must equal the simulator's, and
 * it records the miss stream.
 */
SimResult
missPathReplica(const std::vector<MemRef> &refs, Tracer &tracer,
                std::vector<TlbMiss> &misses)
{
    SimConfig config;
    Tlb tlb(config.tlb);
    PrefetchBuffer buffer(config.pbEntries);
    PageTable pt;
    std::unique_ptr<Prefetcher> prefetcher =
        MechanismSpec::parse("DP,256,D").build(pt);
    PrefetchDecision decision;
    SimResult r;
    Scope pass(tracer, "probe.replica");
    for (const MemRef &ref : refs) {
        ++r.refs;
        Vpn vpn = ref.vaddr / config.pageBytes;
        if (tlb.access(vpn))
            continue;
        ++r.misses;
        {
            Scope s(tracer, "mem.pt_lookup");
            pt.lookup(vpn);
            s.setCount(1);
        }
        bool pb_hit = false;
        {
            Scope s(tracer, "tlb.pb");
            Tick ready = 0;
            pb_hit = buffer.hitAndPromote(vpn, ready);
            s.setCount(1);
        }
        ++(pb_hit ? r.pbHits : r.demandFetches);
        std::optional<Vpn> evicted;
        {
            Scope s(tracer, "tlb.insert");
            evicted = tlb.insert(vpn);
            s.setCount(1);
        }
        TlbMiss miss{vpn, ref.pc, pb_hit, evicted.value_or(kNoPage)};
        misses.push_back(miss);
        decision.clear();
        {
            Scope s(tracer, "probe.replica.onmiss");
            prefetcher->onMiss(miss, decision);
        }
        r.stateOps += decision.stateOps;
        Scope s(tracer, "tlb.pb");
        for (Vpn target : decision.targets) {
            if (target == vpn || tlb.contains(target) ||
                buffer.contains(target)) {
                ++r.prefetchesSuppressed;
                continue;
            }
            buffer.insert(target, 0);
            ++r.prefetchesIssued;
        }
    }
    pass.setCount(refs.size());
    r.footprintPages = pt.size();
    r.pbEvictedUnused = buffer.evictedUnused();
    return r;
}

/** Spans named @p name, wall ms each (clock pair taken off). */
std::vector<double>
spanMs(const Tracer &tracer, const char *name, std::size_t from)
{
    std::vector<double> out;
    const auto &spans = tracer.spans();
    for (std::size_t i = from; i < spans.size(); ++i)
        if (std::string(spans[i].name) == name)
            out.push_back(
                (static_cast<double>(spans[i].endNs - spans[i].startNs) -
                 tracer.clockPairNs()) /
                1e6);
    return out;
}

/** Connect a raw TCP socket to the loopback server. */
OwnedFd
connectRaw(std::uint16_t port)
{
    OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (!fd.valid() ||
        ::connect(fd.fd(), reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        throw TransportError("cannot connect to the probe server");
    return fd;
}

/**
 * The service and dispatch probes: a fresh in-process server, one
 * persistent client connection (pings, one cold then repeated cached
 * Table-2 requests), and a raw worker session's lease exchanges.
 */
void
probeService(const ProbeInput &in, const Options &options, Tracer &tracer,
             Report &report)
{
    std::string dir = options.scratch + "/probe-server";
    std::filesystem::remove_all(dir);
    ServerOptions so;
    so.port = 0;
    so.threads = 1;
    so.cacheDir = dir;
    SweepServer server(so);
    std::thread serving([&server] { server.serve(); });
    try {
        ServiceClient client("127.0.0.1", server.port());
        for (int i = 0; i < 12; ++i) {
            Scope s(tracer, "service.ping");
            client.ping();
        }
        SweepRequest request;
        request.workloads = {in.models[0]};
        for (const MechanismSpec &spec : table2Specs())
            request.mechanisms.push_back(spec.label());
        request.refs = kMixRefs;
        std::vector<SweepResult> first = client.sweep(request).results;
        for (int i = 0; i < 12; ++i) {
            ServiceClient::SweepOutcome outcome;
            {
                Scope s(tracer, "service.cached");
                outcome = client.sweep(request);
            }
            report.check(outcome.cachedCells == first.size(),
                         "probe: repeated request was not fully cached");
        }

        OwnedFd worker = connectRaw(server.port());
        writeFrame(worker.fd(), WorkerHello{}.encode());
        JsonValue message;
        std::string type;
        report.check(readMessage(worker.fd(), message, type) &&
                         type == "worker_welcome",
                     "probe: worker_hello not welcomed");
        std::uint64_t id = WorkerWelcome::decode(message).worker;
        for (int i = 0; i < 12; ++i) {
            Scope s(tracer, "dispatch.lease");
            writeFrame(worker.fd(), encodeLeaseRequest(id));
            report.check(readMessage(worker.fd(), message, type) &&
                             type == "lease_idle",
                         "probe: lease on an idle server was granted");
        }
    } catch (const std::exception &e) {
        report.check(false, std::string("service probe: ") + e.what());
    }
    server.requestStop();
    serving.join();
    std::filesystem::remove_all(dir);
}

/** JSON codec, request expansion, cell keys and the result cache. */
void
probeCodecAndCache(const ProbeInput &in, const Options &options,
                   Tracer &tracer, Report &report)
{
    for (int rep = 0; rep < 4; ++rep)
        for (std::size_t i = 0; i < in.cells.size(); ++i) {
            CellReply reply;
            reply.index = i;
            reply.workload = in.cells[i].workload;
            reply.mechanism = in.cells[i].mechanism;
            reply.counters = in.cells[i].functional;
            std::string text;
            {
                Scope s(tracer, "service.cell_encode");
                text = reply.encode();
            }
            CellReply back;
            {
                Scope s(tracer, "service.cell_decode");
                back = CellReply::decode(JsonValue::parse(text));
            }
            report.check(back.counters == reply.counters,
                         "probe: cell reply did not round-trip");
        }

    SweepRequest request;
    for (std::size_t i = 0; i < in.grid.size(); ++i) {
        std::string w = in.grid[i].workload.label();
        std::string m = in.grid[i].spec.label();
        if (std::find(request.workloads.begin(), request.workloads.end(),
                      w) == request.workloads.end())
            request.workloads.push_back(w);
        if (std::find(request.mechanisms.begin(), request.mechanisms.end(),
                      m) == request.mechanisms.end())
            request.mechanisms.push_back(m);
    }
    request.refs = in.grid.front().refs;
    JsonValue parsed = JsonValue::parse(request.encode());
    for (int rep = 0; rep < 20; ++rep) {
        Scope s(tracer, "service.request_expand");
        std::vector<SweepJob> jobs = SweepRequest::decode(parsed).expand();
        s.setCount(jobs.size());
    }

    std::vector<std::string> keys;
    for (int rep = 0; rep < 4; ++rep)
        for (const SweepJob &job : in.grid) {
            Scope s(tracer, "service.cell_key");
            std::string key = cellKey(job);
            if (rep == 0)
                keys.push_back(key);
        }

    std::string dir = options.scratch + "/probe-cache";
    std::filesystem::remove_all(dir);
    {
        ResultCache cache(4096, dir);
        for (std::size_t i = 0; i < keys.size(); ++i) {
            Scope s(tracer, "service.cache_insert");
            cache.insert(keys[i], in.cells[i]);
        }
        for (int rep = 0; rep < 4; ++rep)
            for (std::size_t i = 0; i < keys.size(); ++i) {
                SweepResult out;
                bool hit = false;
                {
                    Scope s(tracer, "service.cache_lookup");
                    hit = cache.lookup(keys[i], out);
                }
                report.check(hit && out.functional == in.cells[i].functional,
                             "probe: cache lookup missed a stored cell");
            }
    }
    std::filesystem::remove_all(dir);
}

/** SweepEngine::run against direct simulateMany on the same groups. */
void
probeEngine(const ProbeInput &in, Tracer &tracer)
{
    std::size_t width = 1;
    while (width < in.grid.size() &&
           in.grid[width].workload == in.grid[0].workload)
        ++width;
    std::vector<MechanismSpec> specs;
    for (std::size_t i = 0; i < width; ++i)
        specs.push_back(in.grid[i].spec);
    for (int rep = 0; rep < 3; ++rep) {
        {
            Scope s(tracer, "run.engine");
            SweepEngine engine(1);
            engine.run(in.grid, PassMode::SinglePass);
        }
        Scope s(tracer, "run.direct");
        for (std::size_t g = 0; g < in.grid.size(); g += width) {
            std::unique_ptr<RefStream> stream =
                in.grid[g].workload.build(in.grid[g].refs);
            simulateMany(in.grid[g].config, specs, *stream);
        }
    }
}

double
perUnit(const Tracer::Totals &t, double scale = 1.0)
{
    return t.count ? t.selfNs / static_cast<double>(t.count) / scale : 0.0;
}

double
perSpan(const Tracer::Totals &t, double scale = 1.0)
{
    return t.spans ? t.selfNs / static_cast<double>(t.spans) / scale : 0.0;
}

} // namespace

void
runLayerProbes(const ProbeInput &in, const Options &options,
               Tracer &tracer, Report &report)
{
    std::size_t first_span = tracer.spans().size();
    std::vector<MechanismSpec> fig7 = figure7Specs();
    const Family &none = familyOf(MechanismSpec::none());
    std::map<std::string, double> specs_per_family;
    for (const MechanismSpec &spec : fig7)
        specs_per_family[familyOf(spec).name] += 1.0;
    double misses_total = 0.0, trace_bytes = 0.0, trace_refs = 0.0;
    {
        Scope root(tracer, "probe");
        for (std::size_t m = 0; m < in.models.size(); ++m) {
            const std::string &model = in.models[m];
            // Stream generation into memory, then .tpf write and decode.
            std::vector<MemRef> refs;
            std::unique_ptr<RefStream> stream;
            {
                Scope s(tracer, "workload.build");
                stream = WorkloadSpec::app(model).build(in.refs);
            }
            std::vector<MemRef> block(kSimBatchRefs);
            while (true) {
                std::size_t got = 0;
                {
                    Scope s(tracer, "workload.gen");
                    got = stream->nextBatch(block.data(), block.size());
                    s.setCount(got);
                }
                if (got == 0)
                    break;
                refs.insert(refs.end(), block.begin(),
                            block.begin() + static_cast<std::ptrdiff_t>(got));
            }
            std::string path = options.scratch + "/probe-" + model + ".tpf";
            {
                VectorStream source(refs);
                Scope s(tracer, "trace.write");
                dumpTrace(source, path);
                s.setCount(refs.size());
            }
            trace_bytes += static_cast<double>(std::filesystem::file_size(path));
            trace_refs += static_cast<double>(refs.size());
            {
                TraceReader reader(path, TraceReader::ErrorPolicy::Throw);
                std::vector<MemRef> decoded;
                decoded.reserve(refs.size());
                while (true) {
                    std::size_t got = 0;
                    {
                        Scope s(tracer, "trace.decode");
                        got = reader.nextBatch(block.data(), block.size());
                        s.setCount(got);
                    }
                    if (got == 0)
                        break;
                    decoded.insert(decoded.end(), block.begin(),
                                   block.begin() +
                                       static_cast<std::ptrdiff_t>(got));
                }
                report.check(decoded == refs,
                             "probe: trace of " + model +
                                 " did not replay its stream");
            }
            std::filesystem::remove(path);

            // The simulator under every Figure-7 spec, each pass paired
            // with a pass under none over the same references, so the
            // difference is the mechanism's cost and drift cancels.
            SimConfig config;
            std::vector<SimResult> full;
            SimResult none_result;
            for (const MechanismSpec &spec : fig7)
                for (int rep = 0; rep < kProbeRepeats; ++rep) {
                    FunctionalSimulator base(config, MechanismSpec::none());
                    simulateTraced(base, refs, tracer, none.process);
                    none_result = base.result();
                    FunctionalSimulator sim(config, spec);
                    simulateTraced(sim, refs, tracer,
                                   familyOf(spec).process);
                    if (rep == 0)
                        full.push_back(sim.result());
                }

            // The miss path call by call, and the miss stream.
            std::vector<TlbMiss> misses;
            misses.reserve(none_result.misses);
            SimResult replica = missPathReplica(refs, tracer, misses);
            std::size_t dp = static_cast<std::size_t>(
                std::find(fig7.begin(), fig7.end(),
                          MechanismSpec::parse("DP,256,D")) -
                fig7.begin());
            report.check(replica == full.at(dp),
                         "probe: miss-path replica of " + model +
                             " disagrees with the simulator");
            report.check(misses.size() == none_result.misses,
                         "probe: miss stream length differs under none");
            misses_total += static_cast<double>(misses.size());

            // The TLB alone over the page stream: probe, fill on miss.
            {
                Tlb tlb(config.tlb);
                Scope s(tracer, "tlb.access");
                for (const MemRef &ref : refs) {
                    Vpn vpn = ref.vaddr / config.pageBytes;
                    if (!tlb.access(vpn))
                        tlb.insert(vpn);
                }
                s.setCount(refs.size());
            }

            // Prediction alone: each mechanism's onMiss on the recorded
            // miss stream, after the page-table lookup, paired with the
            // lookups alone.
            for (const MechanismSpec &spec : fig7)
                for (int rep = 0; rep < kProbeRepeats; ++rep) {
                    {
                        PageTable pt;
                        Scope s(tracer, none.replay);
                        for (const TlbMiss &miss : misses)
                            pt.lookup(miss.vpn);
                        s.setCount(misses.size());
                    }
                    PageTable pt;
                    std::unique_ptr<Prefetcher> prefetcher = spec.build(pt);
                    PrefetchDecision decision;
                    Scope s(tracer, familyOf(spec).replay);
                    for (const TlbMiss &miss : misses) {
                        pt.lookup(miss.vpn);
                        decision.clear();
                        prefetcher->onMiss(miss, decision);
                    }
                    s.setCount(misses.size());
                }

            // Snapshot/restore at shards:4 boundaries, as a chain.
            if (m == 0)
                for (std::size_t i = 0; i < fig7.size(); ++i) {
                    auto sim = std::make_unique<FunctionalSimulator>(
                        config, fig7[i]);
                    std::size_t quarter = refs.size() / 4;
                    for (std::size_t k = 0; k < 4; ++k) {
                        simulateTraced(*sim, refs, Tracer::disabled(), "",
                                       k * quarter,
                                       k == 3 ? refs.size()
                                              : (k + 1) * quarter);
                        if (k == 3)
                            break;
                        SimState state;
                        {
                            Scope s(tracer, "sim.snapshot");
                            state = sim->snapshot();
                            s.setCount(state.bytes.size());
                        }
                        auto next = std::make_unique<FunctionalSimulator>(
                            config, fig7[i]);
                        {
                            Scope s(tracer, "sim.restore");
                            next->restore(state);
                            s.setCount(state.bytes.size());
                        }
                        sim = std::move(next);
                    }
                    report.check(sim->result() == full[i],
                                 "probe: snapshot chain of " +
                                     fig7[i].label() + " diverged");
                }
        }
        probeEngine(in, tracer);
        probeCodecAndCache(in, options, tracer, report);
        probeService(in, options, tracer, report);
    }

    auto t = tracer.totals(first_span, tracer.spans().size());
    report.set("workload.gen_ns_per_ref", perUnit(t["workload.gen"]), "ns");
    report.set("trace.decode_ns_per_ref", perUnit(t["trace.decode"]), "ns");
    report.set("trace.write_ns_per_ref", perUnit(t["trace.write"]), "ns");
    report.set("trace.bytes_per_ref", trace_bytes / trace_refs, "B");
    report.set("sim.none_ns_per_ref", perUnit(t[none.process]), "ns");
    report.set("tlb.access_ns_per_ref", perUnit(t["tlb.access"]), "ns");
    report.set("tlb.insert_ns_per_miss", perUnit(t["tlb.insert"]), "ns");
    report.set("tlb.pb_ns_per_miss", perUnit(t["tlb.pb"]), "ns");
    report.set("mem.pt_lookup_ns_per_miss", perUnit(t["mem.pt_lookup"]),
               "ns");
    // Per mechanism pass: its spans' self time over the passes made.
    double passes = kProbeRepeats * misses_total;
    double none_ns = t[none.process].selfNs / static_cast<double>(fig7.size());
    double base_ns = t[none.replay].selfNs / static_cast<double>(fig7.size());
    for (const Family &family : families()) {
        if (&family == &none)
            continue;
        double specs = specs_per_family[family.name];
        std::string prefix = std::string("prefetch.") + family.name;
        report.set(prefix + ".miss_ns",
                   (t[family.process].selfNs / specs - none_ns) / passes,
                   "ns");
        report.set(prefix + ".onmiss_ns",
                   (t[family.replay].selfNs / specs - base_ns) / passes,
                   "ns");
    }
    const Tracer::Totals &snap = t["sim.snapshot"];
    const Tracer::Totals &rest = t["sim.restore"];
    report.set("sim.snapshot_mb_per_s",
               static_cast<double>(snap.count) / 1e6 / (snap.selfNs / 1e9),
               "MB/s");
    report.set("sim.restore_mb_per_s",
               static_cast<double>(rest.count) / 1e6 / (rest.selfNs / 1e9),
               "MB/s");
    report.set("sim.snapshot_kb",
               static_cast<double>(snap.count) /
                   static_cast<double>(snap.spans) / 1024.0,
               "KiB");
    report.set("run.engine_overhead",
               t["run.engine"].selfNs / t["run.direct"].selfNs - 1.0,
               "ratio");

    double encode = perSpan(t["service.cell_encode"], 1e3);
    double decode = perSpan(t["service.cell_decode"], 1e3);
    double expand = perSpan(t["service.request_expand"], 1e3);
    double key = perSpan(t["service.cell_key"], 1e3);
    double lookup = perSpan(t["service.cache_lookup"], 1e3);
    report.set("service.cell_encode_us", encode, "us");
    report.set("service.cell_decode_us", decode, "us");
    report.set("service.request_expand_us", expand, "us");
    report.set("service.cell_key_us", key, "us");
    report.set("service.cache_lookup_us", lookup, "us");
    report.set("service.cache_insert_us",
               perSpan(t["service.cache_insert"], 1e3), "us");

    // The first two exchanges of a connection run before the delayed-
    // ACK interplay sets in; the steady state is what a session sees.
    auto steady = [&](const char *name) {
        std::vector<double> ms = spanMs(tracer, name, first_span);
        if (ms.size() > 2)
            ms.erase(ms.begin(), ms.begin() + 2);
        return median(ms);
    };
    double cached = steady("service.cached");
    report.set("service.ping_rtt_ms", steady("service.ping"), "ms");
    report.set("service.cached_p50_ms", cached, "ms");
    report.set("dispatch.lease_rtt_ms", steady("dispatch.lease"), "ms");
    // What a cached Table-2 request's cells cost in codec, key and
    // cache work on both ends; the rest of its latency is transport.
    double work_ms = (4.0 * (encode + decode + key + lookup) + expand) / 1e3;
    report.set("service.transport_frac",
               cached > 0 ? 1.0 - work_ms / cached : 0.0, "ratio");
}

void
addModelCounters(const std::vector<SweepResult> &cells, Report &report)
{
    SimResult sum;
    for (const SweepResult &cell : cells)
        addCounters(sum, cell.functional);
    auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    report.set("sim.miss_rate", ratio(sum.misses, sum.refs), "ratio");
    report.set("prefetch.accuracy", ratio(sum.pbHits, sum.misses), "ratio");
    report.set("prefetch.useful_frac",
               ratio(sum.pbHits, sum.prefetchesIssued), "ratio");
    report.set("prefetch.issued_per_miss",
               ratio(sum.prefetchesIssued, sum.misses), "ratio");
    report.set("prefetch.suppressed_per_miss",
               ratio(sum.prefetchesSuppressed, sum.misses), "ratio");
}

} // namespace perfbench
