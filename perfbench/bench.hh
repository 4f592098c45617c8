/**
 * @file
 * The four benchmark workloads and the traced run's layer probes.
 *
 * Workloads (see README.md for why each exists):
 *   fig7_sweep     Figure 7's grid through SweepEngine::run, single pass
 *   trace_replay   .tpf replays of low-miss models under none and DP
 *   service_mix    a closed loop of cached and cold Table-2 requests on
 *                  one persistent ServiceClient connection
 *   fleet_sharded  Figure 7's grid with shards:4 through a server with
 *                  two in-process DispatchWorkers
 */

#ifndef TLBPF_PERFBENCH_BENCH_HH
#define TLBPF_PERFBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hh"
#include "prefetch/mech_spec.hh"
#include "run/job.hh"
#include "util/random.hh"

namespace perfbench
{

/** Reference budget of every Figure-7 cell (fig7_sweep, fleet_sharded). */
constexpr std::uint64_t kGridRefs = 50'000;
/** Reference budget of each replayed trace. */
constexpr std::uint64_t kTraceRefs = 200'000;
/** Base reference budget of service_mix's Table-2 requests. */
constexpr std::uint64_t kMixRefs = 20'000;
/** Models per Figure-7 and trace grid. */
constexpr std::size_t kGridModels = 8;
/**
 * Set-ups per untraced run before the timed phase, and again after
 * it; setup_s is the fastest of them all.
 */
constexpr int kSetupRepeats = 3;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string root = ".";  ///< checkout root (tests/data, perfbench/)
    std::string scratch;     ///< private temp directory inside the root
};

/** The workload names, in README order. */
const std::vector<std::string> &workloadNames();

/**
 * Models a workload sweeps for @p seed: seed 0 gives the named lists,
 * and fleet_sharded sweeps the Figure-9 set for every seed.
 */
std::vector<std::string> drawModels(const std::string &workload,
                                    std::uint64_t seed,
                                    const ExpectedTable &expected);

/** One service_mix request of the seeded sequence. */
struct MixRequest
{
    bool cached = false;              ///< repeats an answered grid
    std::size_t grid = 0;             ///< index of its grid
    std::vector<std::string> models;  ///< 1..4 distinct models
    std::uint64_t refs = 0;           ///< kMixRefs + grid index
};

/**
 * service_mix's request sequence for one seed: pairs of one cold
 * request (a new grid at a fresh budget, so no cell is cached) and one
 * cached request (a uniformly drawn earlier grid), in seeded order
 * within each pair.  Request 0 is always cold, on the same grid (mcf
 * and gcc) for every seed: it is the set-up's warm-up.  Requests are
 * drawn as they are asked for, so the sequence never runs out.
 */
class MixSequence
{
  public:
    explicit MixSequence(std::uint64_t seed);

    /** Request @p index of the sequence. */
    MixRequest at(std::size_t index);

  private:
    tlbpf::Rng _rng;
    std::vector<MixRequest> _requests;
    std::vector<MixRequest> _colds; ///< indexed by grid
};

/** Figure-7 grid jobs: @p models x figure7Specs() at kGridRefs. */
std::vector<tlbpf::SweepJob> figure7Jobs(
    const std::vector<std::string> &models);

/**
 * A mechanism family and the span names the traced run files its
 * simulator work under.  For none, the probe spans are the baselines
 * the families' probe spans are paired with.
 */
struct Family
{
    const char *name;    ///< "none", "rp", "mp", "dp" or "asp"
    const char *request; ///< a traced request's share of a stream batch
    const char *process; ///< the simulate probe
    const char *replay;  ///< the onMiss replay probe
};

/** Every family of the Figure-7 and trace grids, none first. */
const std::vector<Family> &families();

/** The family of @p spec; throws std::invalid_argument if it has none. */
const Family &familyOf(const tlbpf::MechanismSpec &spec);

/** Run one workload and fill its report (end-to-end or per-layer). */
Report runWorkload(const Options &options);

/**
 * Regenerate expected.tsv: per registry model, its miss rate under
 * none and its row digest for each benchmark grid.
 */
std::string writeExpected();

/** What the layer probes run over, drawn from the workload. */
struct ProbeInput
{
    std::vector<std::string> models;   ///< its two highest-miss models
    std::uint64_t refs = 0;            ///< probe budget per model
    std::vector<tlbpf::SweepJob> grid; ///< one workload request's cells
    std::vector<tlbpf::SweepResult> cells; ///< its answers
};

/**
 * Run every per-layer probe under a "probe" root span and add the
 * per-layer metrics they measure to @p report.  Checks (replica
 * counters, snapshot continuation) count in the report.
 */
void runLayerProbes(const ProbeInput &input, const Options &options,
                    Tracer &tracer, Report &report);

/** Exact simulated ratios over @p cells (sim.miss_rate and friends). */
void addModelCounters(const std::vector<tlbpf::SweepResult> &cells,
                      Report &report);

} // namespace perfbench

#endif // TLBPF_PERFBENCH_BENCH_HH
