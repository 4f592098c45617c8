#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "dispatch/worker.hh"
#include "run/result_sink.hh"
#include "run/sweep_engine.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "sim/experiment.hh"
#include "trace/trace_file.hh"
#include "util/random.hh"
#include "util/table_printer.hh"
#include "workload/app_registry.hh"

namespace perfbench
{

using namespace tlbpf;

namespace
{

/** trace_replay's seed-0 models (low miss rate under none). */
const std::vector<std::string> kSeed0TraceModels = {
    "eon", "g721-enc", "g721-dec", "pgp-dec", "bc", "ks", "ammp", "twolf"};

/**
 * service_mix's first grid, its set-up's warm-up: fixed (the golden
 * models), so set-up costs the same for every seed.
 */
const std::vector<std::string> kMixWarmupModels = {"mcf", "gcc"};

/** Miss-rate pools the non-zero seeds draw from. */
constexpr double kFig7MinMissRate = 0.01;
constexpr double kTraceMaxMissRate = 0.015;
/**
 * Draws match the seed-0 list's summed miss rate and footprint within
 * this share.  trace_replay's host cost is mostly decode, so its draws
 * are held only loosely to the low-miss mix.
 */
constexpr double kFig7DrawTolerance = 0.05;
constexpr double kTraceDrawTolerance = 0.25;

/** The trace grid's mechanisms: the baseline and the paper's DP. */
std::vector<MechanismSpec>
traceSpecs()
{
    return {MechanismSpec::none(), MechanismSpec::parse("DP,256,D")};
}

std::vector<std::string>
labels(const std::vector<MechanismSpec> &specs)
{
    std::vector<std::string> out;
    for (const MechanismSpec &spec : specs)
        out.push_back(spec.label());
    return out;
}

std::vector<SweepJob>
gridJobs(const std::vector<WorkloadSpec> &workloads,
         const std::vector<MechanismSpec> &specs, std::uint64_t refs)
{
    std::vector<SweepJob> jobs;
    for (const WorkloadSpec &workload : workloads)
        for (const MechanismSpec &spec : specs)
            jobs.push_back(SweepJob::functional(workload, spec, refs));
    return jobs;
}

std::vector<WorkloadSpec>
appSpecs(const std::vector<std::string> &models)
{
    std::vector<WorkloadSpec> out;
    for (const std::string &m : models)
        out.push_back(WorkloadSpec::app(m));
    return out;
}

/** Cells [row * width, (row + 1) * width) of @p cells; empty if short. */
std::vector<SweepResult>
rowOf(const std::vector<SweepResult> &cells, std::size_t row,
      std::size_t width)
{
    if ((row + 1) * width > cells.size())
        return {};
    return {cells.begin() + static_cast<std::ptrdiff_t>(row * width),
            cells.begin() + static_cast<std::ptrdiff_t>((row + 1) * width)};
}

double
msSince(Clock::time_point start)
{
    return secondsSince(start) * 1e3;
}

// ------------------------------------------------------------ goldens

/**
 * Regenerate tests/data/golden_fig7.csv and golden_table2.csv (mcf
 * and gcc at 200k references) through the engine call the benchmark
 * times, rendered exactly as fig7_spec and table2_averages write them.
 */
void
checkGoldens(const Options &options, Report &report)
{
    const std::vector<WorkloadSpec> workloads = appSpecs({"mcf", "gcc"});
    const std::uint64_t refs = 200'000;
    SweepEngine engine(1);

    std::vector<MechanismSpec> fig7 = figure7Specs();
    std::vector<SweepResult> cells =
        engine.run(gridJobs(workloads, fig7, refs), PassMode::SinglePass);
    std::ostringstream fig7_csv;
    {
        CsvSink sink(fig7_csv);
        sink.header({"workload", "mechanism", "accuracy", "miss_rate"});
        std::size_t cell = 0;
        for (std::size_t w = 0; w < workloads.size(); ++w)
            for (const MechanismSpec &spec : fig7) {
                const SweepResult &r = cells[cell++];
                sink.row({r.workload, spec.label(),
                          TablePrinter::num(r.accuracy(), 6),
                          TablePrinter::num(r.missRate(), 6)});
            }
        sink.finish();
    }
    report.check(fig7_csv.str() ==
                     readFile(options.root + "/tests/data/golden_fig7.csv"),
                 "golden_fig7.csv bytes differ");

    std::vector<MechanismSpec> t2 = table2Specs();
    cells = engine.run(gridJobs(workloads, t2, refs), PassMode::SinglePass);
    std::ostringstream t2_csv;
    {
        CsvSink sink(t2_csv);
        std::vector<std::string> header = {"workload", "miss_rate"};
        for (const MechanismSpec &spec : t2)
            header.push_back(spec.shortName());
        sink.header(header);
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            std::vector<SweepResult> row = rowOf(cells, w, t2.size());
            std::vector<std::string> line = {
                row.back().workload,
                TablePrinter::num(row.back().missRate(), 6)};
            for (const SweepResult &r : row)
                line.push_back(TablePrinter::num(r.accuracy(), 6));
            sink.row(line);
        }
        sink.finish();
    }
    report.check(t2_csv.str() ==
                     readFile(options.root +
                              "/tests/data/golden_table2.csv"),
                 "golden_table2.csv bytes differ");
}

/**
 * The @p n models of @p candidates with the highest miss rate under
 * none: per-miss probe costs are differences over whole streams, so
 * they need streams with misses in them.
 */
std::vector<std::string>
probeModels(std::vector<std::string> candidates,
            const ExpectedTable &expected, std::size_t n = 2)
{
    auto rate = [&](const std::string &m) {
        return expected.models.at(m).at("fig7").noneMissRate;
    };
    std::sort(candidates.begin(), candidates.end(),
              [&](const std::string &a, const std::string &b) {
                  return rate(a) != rate(b) ? rate(a) > rate(b) : a < b;
              });
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    candidates.resize(std::min(n, candidates.size()));
    return candidates;
}

/** Counter-for-counter comparison of two answers to one grid. */
void
checkSame(const std::vector<SweepResult> &got,
          const std::vector<SweepResult> &want, const std::string &what,
          Report &report)
{
    if (got.size() != want.size()) {
        report.check(false, what + ": " + std::to_string(got.size()) +
                                " cells, expected " +
                                std::to_string(want.size()));
        return;
    }
    for (std::size_t i = 0; i < got.size(); ++i)
        report.check(got[i].functional == want[i].functional &&
                         got[i].mechanism == want[i].mechanism,
                     what + ": cell " + std::to_string(i) + " (" +
                         want[i].workload + ", " + want[i].mechanism +
                         ") differs");
}

// ------------------------------------------------------------ workloads

/** One timed request. */
struct Sample
{
    bool failed = false;       ///< threw; counted in failed, not timed
    bool cold = true;          ///< simulated at least one cell
    double latencyMs = 0.0;    ///< send to done
    double firstCellMs = 0.0;  ///< send to the first cell
    double pairs = 0.0;        ///< (reference x mechanism) simulated
    double cells = 0.0;        ///< cells simulated
    double cpuS = 0.0;         ///< process CPU seconds while it ran
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Run request @p seq, check its cells, and time it.  With an
     * enabled tracer the request records spans around the layer
     * calls the benchmark can see from outside the library.
     */
    virtual Sample request(std::size_t seq, Report &report,
                           Tracer &tracer) = 0;

    /** Inputs for the layer probes. */
    virtual ProbeInput probeInput() const = 0;

    /** Post-timing checks (outside every timed phase). */
    virtual void verify(Report &) {}

    /** Cells answered by the traced requests, for exact ratios. */
    std::vector<SweepResult> tracedCells;

    /**
     * Set by the traced run: every request takes the path that can
     * record spans, traced or not, so the two differ only by the spans.
     */
    bool tracedPath = false;

    /** Set-up time spent in deliberate pauses, not set-up work. */
    double setupPauseS = 0.0;

    /** Workload-level per-layer counters (cache, fleet). */
    virtual void layerCounters(Report &report)
    {
        report.set("service.cache_hit_frac", 0.0, "ratio");
        report.set("dispatch.remote_cell_frac", 0.0, "ratio");
        report.set("dispatch.cells_per_lease", 0.0, "count");
        report.set("dispatch.lease_reclaims", 0.0, "count");
    }
};

/**
 * fig7_sweep and trace_replay: one request is the whole grid through
 * SweepEngine::run(jobs, SinglePass) on one thread.  The traced
 * variant runs the same single pass (one stream, one simulator per
 * mechanism, kSimBatchRefs blocks) from the benchmark's code so every
 * stream batch and every simulator's share of it is a span.
 */
class EngineGrid : public Workload
{
  public:
    EngineGrid(std::vector<std::string> models,
               std::vector<WorkloadSpec> workloads,
               std::vector<MechanismSpec> specs, std::uint64_t refs,
               std::string grid, const ExpectedTable &expected,
               Report &report)
        : _models(std::move(models)), _specs(std::move(specs)),
          _grid(std::move(grid)), _refs(refs),
          _jobs(gridJobs(workloads, _specs, refs)), _engine(1),
          _probeModels(probeModels(_models, expected))
    {
        for (const MechanismSpec &spec : _specs)
            _spans.push_back(familyOf(spec).request);
        // Warm-up, and the output check against committed values.
        _reference = _engine.run(_jobs, PassMode::SinglePass);
        for (std::size_t m = 0; m < _models.size(); ++m)
            report.check(expected.matches(_models[m], _grid,
                                          rowOf(_reference, m,
                                                _specs.size())),
                         _grid + " row of " + _models[m] +
                             " differs from expected.tsv");
    }

    Sample
    request(std::size_t seq, Report &report, Tracer &tracer) override
    {
        Sample sample;
        sample.pairs = static_cast<double>(_jobs.size() * _refs);
        sample.cells = static_cast<double>(_jobs.size());
        auto start = Clock::now();
        std::vector<SweepResult> cells;
        try {
            if (tracedPath) {
                Scope request(tracer, "bench.request",
                              static_cast<std::int64_t>(seq));
                cells = decomposed(tracer, start, sample);
            } else {
                bool first = true;
                cells = _engine.run(
                    _jobs, PassMode::SinglePass,
                    [&](std::size_t, const SweepResult &) {
                        if (first)
                            sample.firstCellMs = msSince(start);
                        first = false;
                    });
            }
        } catch (const std::exception &e) {
            report.check(false, _grid + " request: " + e.what());
            sample.failed = true;
            return sample;
        }
        sample.latencyMs = msSince(start);
        checkSame(cells, _reference, _grid + " request", report);
        if (tracer.enabled())
            tracedCells.insert(tracedCells.end(), cells.begin(),
                               cells.end());
        return sample;
    }

    ProbeInput
    probeInput() const override
    {
        ProbeInput in;
        in.models = _probeModels;
        in.refs = kGridRefs;
        in.grid = _jobs;
        in.cells = _reference;
        return in;
    }

  private:
    std::vector<SweepResult>
    decomposed(Tracer &tracer, Clock::time_point start, Sample &sample)
    {
        std::vector<SweepResult> cells;
        std::vector<MemRef> block(kSimBatchRefs);
        for (std::size_t g = 0; g < _jobs.size(); g += _specs.size()) {
            Scope group(tracer, "run.group");
            const SweepJob &job = _jobs[g];
            bool trace = job.workload.kind == WorkloadSpec::Kind::Trace;
            std::unique_ptr<RefStream> stream;
            {
                Scope s(tracer, trace ? "trace.open" : "workload.build");
                stream = job.workload.build(job.refs);
            }
            std::vector<std::unique_ptr<FunctionalSimulator>> sims;
            {
                Scope s(tracer, "sim.build");
                for (const MechanismSpec &spec : _specs)
                    sims.push_back(std::make_unique<FunctionalSimulator>(
                        job.config, spec));
            }
            while (true) {
                std::size_t got = 0;
                {
                    Scope s(tracer,
                            trace ? "trace.decode" : "workload.gen");
                    got = stream->nextBatch(block.data(), block.size());
                    s.setCount(got);
                }
                if (got == 0)
                    break;
                for (std::size_t i = 0; i < sims.size(); ++i) {
                    Scope s(tracer, _spans[i]);
                    FunctionalSimulator &sim = *sims[i];
                    for (std::size_t r = 0; r < got; ++r)
                        sim.process(block[r]);
                    s.setCount(got);
                }
            }
            for (std::size_t i = 0; i < sims.size(); ++i) {
                SweepResult r;
                r.workload = job.workload.label();
                r.mechanism = _specs[i].label();
                r.functional = sims[i]->result();
                cells.push_back(r);
            }
            if (g == 0)
                sample.firstCellMs = msSince(start);
        }
        return cells;
    }

    std::vector<std::string> _models;
    std::vector<MechanismSpec> _specs;
    std::vector<const char *> _spans; ///< per spec: its family's span
    std::string _grid;
    std::uint64_t _refs;
    std::vector<SweepJob> _jobs;
    SweepEngine _engine;
    std::vector<std::string> _probeModels;
    std::vector<SweepResult> _reference;
};

/** A fresh private directory under the run's scratch root. */
std::string
freshDir(const Options &options, const std::string &name)
{
    static int counter = 0;
    std::string dir =
        options.scratch + "/" + name + "-" + std::to_string(counter++);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** An in-process SweepServer serving on its own thread. */
class ServerThread
{
  public:
    explicit ServerThread(const ServerOptions &options)
        : _server(options), _thread([this] { _server.serve(); })
    {
    }
    ~ServerThread()
    {
        _server.requestStop();
        _thread.join();
    }
    ServerThread(const ServerThread &) = delete;
    ServerThread &operator=(const ServerThread &) = delete;

    SweepServer &server() { return _server; }
    std::uint16_t port() const { return _server.port(); }

  private:
    SweepServer _server;
    std::thread _thread;
};

ServerOptions
serverOptions(const std::string &cache_dir)
{
    ServerOptions options;
    options.port = 0;
    options.threads = 1;
    options.cacheDir = cache_dir;
    return options;
}

SweepRequest
sweepRequest(const std::vector<std::string> &models,
             const std::vector<MechanismSpec> &specs, std::uint64_t refs,
             std::uint32_t shards = 1)
{
    SweepRequest request;
    request.workloads = models;
    request.mechanisms = labels(specs);
    request.refs = refs;
    request.shards = shards;
    request.shardWarmup = ShardWarmup::Checkpoint;
    request.passMode = PassMode::SinglePass;
    return request;
}

/**
 * service_mix: one persistent ServiceClient connection drives an
 * in-process server (one engine thread, write-through cache directory)
 * with the seeded closed-loop sequence of cached and cold requests.
 */
class ServiceMix : public Workload
{
  public:
    ServiceMix(const Options &options, const ExpectedTable &expected,
               Report &report)
        : _sequence(options.seed), _cacheDir(freshDir(options, "mix-cache")),
          _server(std::make_unique<ServerThread>(serverOptions(_cacheDir))),
          _client(std::make_unique<ServiceClient>("127.0.0.1",
                                                  _server->port()))
    {
        std::vector<std::string> early;
        for (std::size_t i = 0; i < 16; ++i) {
            MixRequest r = _sequence.at(i);
            early.insert(early.end(), r.models.begin(), r.models.end());
        }
        _probeModels = probeModels(early, expected);
        // Warm-up: request 0 is cold at exactly kMixRefs, so its rows
        // check against the committed Table-2 digests.
        send(0, report, Tracer::disabled());
        auto answer = _answers.find(0);
        if (answer == _answers.end())
            throw std::runtime_error("service_mix warm-up request failed");
        for (std::size_t m = 0; m < kMixWarmupModels.size(); ++m)
            report.check(expected.matches(kMixWarmupModels[m], "table2",
                                          rowOf(answer->second, m, 4)),
                         "table2 row of " + kMixWarmupModels[m] +
                             " differs from expected.tsv");
    }

    ~ServiceMix() override
    {
        _client.reset();
        _server.reset();
        std::filesystem::remove_all(_cacheDir);
    }

    Sample
    request(std::size_t seq, Report &report, Tracer &tracer) override
    {
        // Request 0 was the warm-up.
        return send(seq + 1, report, tracer);
    }

    ProbeInput
    probeInput() const override
    {
        ProbeInput in;
        in.models = _probeModels;
        in.refs = kGridRefs;
        in.grid = gridJobs(appSpecs(kMixWarmupModels), table2Specs(),
                           kMixRefs);
        in.cells = _answers.at(0);
        return in;
    }

    void
    verify(Report &report) override
    {
        // Every cold answer against the direct engine's counters.
        SweepEngine engine(1);
        for (const auto &[grid, cells] : _answers) {
            const MixRequest &r = _colds.at(grid);
            checkSame(cells,
                      engine.run(gridJobs(appSpecs(r.models),
                                          table2Specs(), r.refs),
                                 PassMode::SinglePass),
                      "service_mix grid " + std::to_string(grid), report);
        }
    }

    void
    layerCounters(Report &report) override
    {
        Workload::layerCounters(report);
        StatsReply stats = _server->server().stats();
        report.set("service.cache_hit_frac",
                   stats.cells ? static_cast<double>(stats.cacheHits) /
                                     static_cast<double>(stats.cells)
                               : 0.0,
                   "ratio");
    }

  private:
    Sample
    send(std::size_t index, Report &report, Tracer &tracer)
    {
        const MixRequest r = _sequence.at(index);
        Sample sample;
        sample.cold = !r.cached;
        SweepRequest request = sweepRequest(r.models, table2Specs(), r.refs);
        ServiceClient::SweepOutcome outcome;
        auto start = Clock::now();
        bool first = true;
        try {
            Scope span(tracer, "bench.request",
                       static_cast<std::int64_t>(index));
            Scope call(tracer, r.cached ? "service.cached" : "service.cold");
            outcome = _client->sweep(request, [&](const CellReply &) {
                if (first)
                    sample.firstCellMs = msSince(start);
                first = false;
            });
        } catch (const std::exception &e) {
            report.check(false, std::string("service_mix request: ") +
                                    e.what());
            sample.failed = true;
            return sample;
        }
        sample.latencyMs = msSince(start);
        std::size_t cells = r.models.size() * 4;
        if (r.cached) {
            report.check(outcome.done.cacheHits == cells,
                         "cached request simulated cells");
            auto answer = _answers.find(r.grid);
            if (answer == _answers.end())
                report.check(false, "service_mix grid " +
                                        std::to_string(r.grid) +
                                        " has no cold answer to repeat");
            else
                checkSame(outcome.results, answer->second,
                          "service_mix cached grid", report);
        } else {
            report.check(outcome.done.simulated == cells,
                         "cold request served cached cells");
            sample.pairs = static_cast<double>(cells * r.refs);
            sample.cells = static_cast<double>(cells);
            _answers[r.grid] = outcome.results;
            _colds[r.grid] = r;
        }
        if (tracer.enabled())
            tracedCells.insert(tracedCells.end(), outcome.results.begin(),
                               outcome.results.end());
        return sample;
    }

    MixSequence _sequence;
    std::string _cacheDir;
    std::unique_ptr<ServerThread> _server;
    std::unique_ptr<ServiceClient> _client;
    std::vector<std::string> _probeModels;
    /** Per grid answered cold: its answer, and the request. */
    std::map<std::size_t, std::vector<SweepResult>> _answers;
    std::map<std::size_t, MixRequest> _colds;
};

/**
 * A server with one local engine thread plus two in-process
 * DispatchWorkers (one thread each) on loopback, ready once both
 * workers have registered.
 */
class Fleet
{
  public:
    Fleet() : _server(serverOptions(""))
    {
        for (int i = 0; i < 2; ++i) {
            DispatchWorkerOptions options;
            options.port = _server.port();
            options.threads = 1;
            _workers.push_back(std::make_unique<DispatchWorker>(options));
        }
        for (auto &worker : _workers)
            _threads.emplace_back([&worker] { worker->run(); });
        auto deadline = Clock::now() + std::chrono::seconds(10);
        while (_server.server().stats().workers < 2) {
            if (Clock::now() > deadline) {
                stopWorkers();
                throw std::runtime_error("fleet workers never registered");
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    ~Fleet() { stopWorkers(); }
    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    ServerThread &server() { return _server; }

  private:
    void
    stopWorkers()
    {
        for (auto &worker : _workers)
            worker->requestStop();
        for (std::thread &t : _threads)
            if (t.joinable())
                t.join();
    }

    ServerThread _server;
    std::vector<std::unique_ptr<DispatchWorker>> _workers;
    std::vector<std::thread> _threads;
};

/**
 * fleet_sharded: the Figure-7 grid with shards:4 (checkpoint warm-up)
 * from a fresh client connection to a fresh fleet per request, so
 * every request is cold in the result cache and checkpoint stores.
 *
 * Idle workers poll for leases in a cycle the transport stretches to
 * ~110 ms.  A request sent the moment they register meets them in
 * lock step, and which side of a cycle the grid's last lease then
 * lands on flips with host speed: whole runs moved between latency
 * modes ~130 ms apart.  So each request waits a seeded pause of up to
 * two cycles first, outside the timings, and meets the workers at a
 * random point of their cycle, as an unsynchronised client would.
 */
class FleetSharded : public Workload
{
  public:
    FleetSharded(std::vector<std::string> models, std::uint64_t seed,
                 const ExpectedTable &expected, Report &report)
        : _models(std::move(models)),
          _probeModels(probeModels(_models, expected)),
          _request(sweepRequest(_models, figure7Specs(), kGridRefs, 4)),
          _pauses(mix64(seed ^ 0x666c656574ull))
    {
        SweepEngine engine(1);
        _direct = engine.run(figure7Jobs(_models), PassMode::SinglePass);
        for (std::size_t m = 0; m < _models.size(); ++m)
            report.check(expected.matches(_models[m], "fig7",
                                          rowOf(_direct, m, 21)),
                         "fig7 row of " + _models[m] +
                             " differs from expected.tsv");
        if (request(0, report, Tracer::disabled()).failed) // warm-up
            throw std::runtime_error("fleet_sharded warm-up request failed");
        setupPauseS = _lastPauseS;
    }

    Sample
    request(std::size_t seq, Report &report, Tracer &tracer) override
    {
        Sample sample;
        sample.pairs = static_cast<double>(_direct.size() * kGridRefs);
        sample.cells = static_cast<double>(_direct.size());
        // The last request's fleet holds this grid in its result cache
        // and checkpoint store.  It goes down here, outside the timings:
        // stopping a server waits out its 200 ms poll tick.
        _fleet.reset();
        try {
            _fleet = std::make_unique<Fleet>();
        } catch (const std::exception &e) {
            report.check(false, std::string("fleet_sharded fleet: ") +
                                    e.what());
            sample.failed = true;
            return sample;
        }
        auto pause = Clock::now();
        std::this_thread::sleep_for(
            std::chrono::microseconds(_pauses.nextBelow(kMaxPauseUs)));
        _lastPauseS = secondsSince(pause);
        auto start = Clock::now();
        bool first = true;
        try {
            Scope span(tracer, "bench.request",
                       static_cast<std::int64_t>(seq));
            Scope call(tracer, "dispatch.sweep");
            ServiceClient client("127.0.0.1", _fleet->server().port());
            ServiceClient::SweepOutcome outcome =
                client.sweep(_request, [&](const CellReply &) {
                    if (first)
                        sample.firstCellMs = msSince(start);
                    first = false;
                });
            sample.latencyMs = msSince(start);
            checkSame(outcome.results, _direct, "fleet_sharded grid",
                      report);
            if (tracer.enabled()) {
                tracedCells.insert(tracedCells.end(),
                                   outcome.results.begin(),
                                   outcome.results.end());
                StatsReply stats = _fleet->server().server().stats();
                _cells += stats.cells;
                _dispatched += stats.cellsDispatched;
                _leases += stats.leasesGranted;
                _reclaims += stats.leaseReclaims;
            }
        } catch (const std::exception &e) {
            report.check(false, std::string("fleet_sharded request: ") +
                                    e.what());
            sample.failed = true;
        }
        return sample;
    }

    ProbeInput
    probeInput() const override
    {
        ProbeInput in;
        in.models = _probeModels;
        in.refs = kGridRefs;
        in.grid = figure7Jobs(_models);
        in.cells = _direct;
        return in;
    }

    void
    layerCounters(Report &report) override
    {
        Workload::layerCounters(report);
        auto ratio = [](std::uint64_t a, std::uint64_t b) {
            return b ? static_cast<double>(a) / static_cast<double>(b)
                     : 0.0;
        };
        report.set("dispatch.remote_cell_frac", ratio(_dispatched, _cells),
                   "ratio");
        report.set("dispatch.cells_per_lease", ratio(_dispatched, _leases),
                   "count");
        report.set("dispatch.lease_reclaims",
                   static_cast<double>(_reclaims), "count");
    }

  private:
    /** Two worker poll cycles. */
    static constexpr std::uint64_t kMaxPauseUs = 220'000;

    std::vector<std::string> _models;
    std::vector<std::string> _probeModels;
    SweepRequest _request;
    Rng _pauses;
    double _lastPauseS = 0.0;
    std::vector<SweepResult> _direct;
    std::unique_ptr<Fleet> _fleet;
    std::uint64_t _cells = 0, _dispatched = 0, _leases = 0, _reclaims = 0;
};

/** Build the workload (its set-up, minus the golden check). */
std::unique_ptr<Workload>
makeWorkload(const Options &options, const ExpectedTable &expected,
             Report &report)
{
    std::vector<std::string> models =
        drawModels(options.workload, options.seed, expected);
    if (options.workload == "fig7_sweep")
        return std::make_unique<EngineGrid>(
            models, appSpecs(models), figure7Specs(), kGridRefs, "fig7",
            expected, report);
    if (options.workload == "trace_replay") {
        // The traces are dumped once per set-up, into its own directory.
        std::string dir = freshDir(options, "traces");
        std::vector<WorkloadSpec> traces;
        for (const std::string &m : models) {
            std::string path = dir + "/" + m + ".tpf";
            std::unique_ptr<RefStream> stream =
                WorkloadSpec::app(m).build(kTraceRefs);
            dumpTrace(*stream, path);
            traces.push_back(WorkloadSpec::trace(path));
        }
        return std::make_unique<EngineGrid>(models, traces, traceSpecs(),
                                            kTraceRefs, "trace", expected,
                                            report);
    }
    if (options.workload == "service_mix")
        return std::make_unique<ServiceMix>(options, expected, report);
    if (options.workload == "fleet_sharded")
        return std::make_unique<FleetSharded>(models, options.seed, expected,
                                              report);
    throw std::invalid_argument("unknown workload '" + options.workload +
                                "'");
}

/**
 * The end-to-end metrics of one timed phase.  Timings are the fast
 * decile of the cold requests (their 10th percentile; the 90th for
 * rates):
 * this host alternates between full speed and phases ~1.6x slower
 * that last seconds, and a median over one run's window lands in
 * whichever phase dominates it.  Medians and tails are printed too.
 */
void
addEndToEnd(const std::vector<Sample> &samples, double wall_s,
            Report &report)
{
    std::vector<double> cold, cached, first, rates, cpu;
    for (const Sample &s : samples) {
        if (s.failed)
            continue;
        (s.cold ? cold : cached).push_back(s.latencyMs);
        if (s.cold) {
            first.push_back(s.firstCellMs);
            rates.push_back(s.pairs / (s.latencyMs / 1e3));
            cpu.push_back(s.cpuS / s.cells);
        }
    }
    report.set("cold_p10_ms", percentile(cold, 10.0), "ms");
    report.set("first_cell_p10_ms", percentile(first, 10.0), "ms");
    report.set("refs_per_s", percentile(rates, 90.0), "1/s");

    auto describe = [&](const char *cls, std::vector<double> v) {
        if (v.empty())
            return;
        char line[200];
        double tail = tailPercentile(v.size());
        std::size_t count = v.size();
        double p10 = percentile(v, 10.0);
        double p50 = percentile(v, 50.0);
        if (tail > 50)
            std::snprintf(line, sizeof(line),
                          "%s requests: n=%zu p10=%.3f p50=%.3f p%g=%.3f ms",
                          cls, count, p10, p50, tail, percentile(v, tail));
        else
            std::snprintf(line, sizeof(line),
                          "%s requests: n=%zu p10=%.3f p50=%.3f ms", cls,
                          count, p10, p50);
        report.notes.push_back(line);
    };
    describe("cold", cold);
    describe("cached", cached);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "cpu: p10=%.6f p50=%.6f s per cold cell (all threads)",
                  percentile(cpu, 10.0), percentile(cpu, 50.0));
    report.notes.push_back(line);
    report.notes.push_back(
        "closed loop: " +
        TablePrinter::num(static_cast<double>(samples.size()) / wall_s, 3) +
        " requests/s over " + TablePrinter::num(wall_s, 1) + " s");
}

/**
 * The timed phase: requests until @p seconds pass, then the end-to-end
 * metrics, peak_rss_mb being the phase's own peak.
 */
void
timedPhase(Workload &workload, double seconds, Report &report)
{
    std::vector<Sample> samples;
    resetPeakRss();
    auto start = Clock::now();
    for (std::size_t seq = 0; secondsSince(start) < seconds; ++seq) {
        double cpu0 = processCpuSeconds();
        Sample sample = workload.request(seq, report, Tracer::disabled());
        sample.cpuS = processCpuSeconds() - cpu0;
        samples.push_back(sample);
    }
    double wall_s = secondsSince(start);
    report.set("peak_rss_mb", peakRssMb(), "MiB");
    addEndToEnd(samples, wall_s, report);
}

/** Requests per traced batch: enough spans, bounded time. */
std::size_t
tracedRequests(const std::string &workload)
{
    if (workload == "service_mix")
        return 20;
    if (workload == "fleet_sharded")
        return 4;
    return 10;
}

void
tracedRun(Workload &workload, const Options &options, Report &report)
{
    std::size_t k = tracedRequests(options.workload);
    std::size_t seq = 0;
    Tracer tracer(true);
    // Untraced and traced requests interleave in pairs (service_mix's
    // sequence pairs one cold with one cached request), so both see
    // the same host phases.
    std::vector<double> untraced, traced;
    workload.tracedPath = true;
    for (std::size_t i = 0; i < 2 * k; ++i) {
        bool trace = (i / 2) % 2 == 1;
        Sample sample = workload.request(
            seq++, report, trace ? tracer : Tracer::disabled());
        if (!sample.failed)
            (trace ? traced : untraced).push_back(sample.latencyMs);
    }
    std::size_t request_spans = tracer.spans().size();

    runLayerProbes(workload.probeInput(), options, tracer, report);
    addModelCounters(workload.tracedCells, report);
    workload.layerCounters(report);
    // Fast decile on both sides, like the end-to-end timings.
    report.set("bench.tracing_overhead",
               percentile(traced, 10.0) / percentile(untraced, 10.0) - 1.0,
               "ratio");

    // Self-time accounting of the traced requests' wall time.
    auto totals = tracer.totals(0, request_spans);
    double wall = totals["bench.request"].wallNs;
    report.set("bench.unattributed_frac",
               wall > 0 ? totals["bench.request"].selfNs / wall : 0.0,
               "ratio");
    report.notes.push_back("self time of " + std::to_string(traced.size()) +
                           " traced requests (" +
                           TablePrinter::num(wall / 1e6, 1) + " ms):");
    std::vector<std::pair<double, std::string>> rows;
    for (const auto &[name, t] : totals)
        rows.emplace_back(t.selfNs, name);
    std::sort(rows.rbegin(), rows.rend());
    for (const auto &[self, name] : rows)
        report.notes.push_back("  " + name + " " +
                               TablePrinter::num(100.0 * self / wall, 1) +
                               "%");
    std::filesystem::create_directories(options.root + "/.bench_build/spans");
    tracer.write(options.root + "/.bench_build/spans/" + options.workload +
                 "-" + std::to_string(options.seed) + ".jsonl");
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig7_sweep", "trace_replay", "service_mix", "fleet_sharded"};
    return names;
}

std::vector<std::string>
drawModels(const std::string &workload, std::uint64_t seed,
           const ExpectedTable &expected)
{
    // The fleet's latency depends on which chains its workers lease
    // first, so a draw moves it with the seed (p10 spread 0.22 over five
    // seeds, against 0.07 on one grid).  It sweeps the Figure-9 set for
    // every seed; the seed varies its pauses.
    if (workload == "fleet_sharded")
        return highMissRateApps();
    bool trace = workload == "trace_replay";
    if (!trace && workload != "fig7_sweep")
        return {};
    const std::vector<std::string> &named =
        trace ? kSeed0TraceModels : highMissRateApps();
    const char *grid = trace ? "trace" : "fig7";
    auto cell = [&](const std::string &m) -> const ExpectedTable::Cell & {
        return expected.models.at(m).at(grid);
    };
    std::vector<std::string> models = named;
    if (seed != 0) {
        PoolModel target;
        for (const std::string &m : named) {
            target.noneMissRate += cell(m).noneMissRate;
            target.footprintPages += cell(m).footprintPages;
        }
        std::vector<PoolModel> pool =
            trace ? expected.pool(grid,
                                  [](double r) {
                                      return r < kTraceMaxMissRate;
                                  })
                  : expected.pool(grid, [](double r) {
                        return r >= kFig7MinMissRate;
                    });
        models = balancedDraw(pool, kGridModels, seed, target,
                              trace ? kTraceDrawTolerance
                                    : kFig7DrawTolerance);
    }
    // The first row decides first_cell.  Draws come in ascending miss
    // rate, so every trace draw leads with its near-zero-miss model;
    // fig7_sweep leads with its largest footprint instead, which the
    // footprint balance all but makes mcf for every seed.
    if (workload == "fig7_sweep")
        std::stable_sort(models.begin(), models.end(),
                         [&](const std::string &a, const std::string &b) {
                             return cell(a).footprintPages >
                                    cell(b).footprintPages;
                         });
    return models;
}

MixSequence::MixSequence(std::uint64_t seed)
    : _rng(mix64(seed + 0x6d6978ull))
{
}

MixRequest
MixSequence::at(std::size_t index)
{
    const std::vector<AppModel> &registry = appRegistry();
    while (_requests.size() <= index) {
        MixRequest fresh;
        fresh.grid = _colds.size();
        fresh.refs = kMixRefs + fresh.grid;
        if (_colds.empty()) {
            fresh.models = kMixWarmupModels;
        } else {
            std::vector<std::size_t> picks(registry.size());
            std::iota(picks.begin(), picks.end(), 0);
            _rng.shuffle(picks);
            std::size_t n = 1 + _rng.nextBelow(4);
            for (std::size_t i = 0; i < n; ++i)
                fresh.models.push_back(registry[picks[i]].name);
        }
        _colds.push_back(fresh);

        bool cold_first = _requests.empty() || _rng.chance(0.5);
        std::size_t answered =
            cold_first ? _colds.size() : _colds.size() - 1;
        MixRequest repeat = _colds[_rng.nextBelow(answered)];
        repeat.cached = true;
        _requests.push_back(cold_first ? fresh : repeat);
        _requests.push_back(cold_first ? repeat : fresh);
    }
    return _requests[index];
}

std::vector<SweepJob>
figure7Jobs(const std::vector<std::string> &models)
{
    return gridJobs(appSpecs(models), figure7Specs(), kGridRefs);
}

const std::vector<Family> &
families()
{
    static const std::vector<Family> table = {
        {"none", "sim.process.none", "sim.none", "probe.replay.base"},
        {"rp", "sim.process.rp", "probe.process.rp", "probe.replay.rp"},
        {"mp", "sim.process.mp", "probe.process.mp", "probe.replay.mp"},
        {"dp", "sim.process.dp", "probe.process.dp", "probe.replay.dp"},
        {"asp", "sim.process.asp", "probe.process.asp", "probe.replay.asp"},
    };
    return table;
}

const Family &
familyOf(const MechanismSpec &spec)
{
    std::string name = spec.shortName();
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    for (const Family &family : families())
        if (name == family.name)
            return family;
    throw std::invalid_argument("no span family for mechanism '" +
                                spec.label() + "'");
}

Report
runWorkload(const Options &options)
{
    Report report;
    ExpectedTable expected = ExpectedTable::parse(
        readFile(options.root + "/perfbench/expected.tsv"));
    checkGoldens(options, report);

    // Each set-up is timed from its start to ready-to-time; tearing
    // one down is not part of it.
    std::vector<double> setups;
    auto setUp = [&] {
        auto begin = Clock::now();
        std::unique_ptr<Workload> made =
            makeWorkload(options, expected, report);
        setups.push_back(secondsSince(begin) - made->setupPauseS);
        return made;
    };
    std::unique_ptr<Workload> workload;
    int repeats = options.trace ? 1 : kSetupRepeats;
    for (int rep = 0; rep < repeats; ++rep) {
        workload.reset();
        workload = setUp();
    }

    if (options.trace) {
        tracedRun(*workload, options, report);
    } else {
        timedPhase(*workload, options.seconds, report);
    }
    workload->verify(report);
    workload.reset();

    if (!options.trace)
        // As many set-ups again after the timed phase: host phases last
        // seconds here, and set-ups made back to back all fall in one.
        for (int rep = 0; rep < kSetupRepeats; ++rep)
            setUp();
    std::string line = "set-ups (s):";
    for (double s : setups) {
        line += ' ';
        line += TablePrinter::num(s, 4);
    }
    report.notes.push_back(line);
    if (!options.trace)
        report.set("setup_s", percentile(setups, 10.0), "s");
    report.notes.push_back(
        "failed_frac = " +
        TablePrinter::num(static_cast<double>(report.failed) /
                              static_cast<double>(report.attempted),
                          6) +
        " (" + std::to_string(report.failed) + " of " +
        std::to_string(report.attempted) + " checked operations)");
    return report;
}

std::string
writeExpected()
{
    struct Grid
    {
        const char *name;
        std::vector<MechanismSpec> specs;
        std::uint64_t refs;
    };
    const std::vector<Grid> grids = {
        {"fig7", figure7Specs(), kGridRefs},
        {"trace", traceSpecs(), kTraceRefs},
        {"table2", table2Specs(), kMixRefs},
    };
    std::string out =
        "# Committed expected values of the tlbpf benchmark: per model,\n"
        "# for each grid below, the miss rate and footprint (pages) under\n"
        "# none at the grid's budget and the digest of the model's row.\n"
        "# Regenerate with: perfbench --write-expected\n";
    for (const Grid &grid : grids)
        out += "grid " + std::string(grid.name) + " " +
               std::to_string(grid.refs) + "\n";
    SweepEngine engine(1);
    for (const AppModel &app : appRegistry()) {
        out += app.name;
        for (const Grid &grid : grids) {
            std::vector<MechanismSpec> specs = grid.specs;
            specs.push_back(MechanismSpec::none());
            std::vector<SweepResult> cells = engine.run(
                gridJobs(appSpecs({app.name}), specs, grid.refs),
                PassMode::SinglePass);
            const SimResult none = cells.back().functional;
            cells.pop_back();
            char field[96];
            std::snprintf(field, sizeof(field), " %.6f %llu %016llx",
                          none.missRate(),
                          static_cast<unsigned long long>(none.footprintPages),
                          static_cast<unsigned long long>(rowDigest(cells)));
            out += field;
        }
        out += "\n";
    }
    return out;
}

} // namespace perfbench
