/**
 * @file
 * Measurement plumbing of the tlbpf benchmark: clocks and process
 * counters, the percentile rule, seeded model draws, the output check
 * (counter digests against committed expected values), and the span
 * tracer the traced run derives its per-layer metrics from.
 *
 * Nothing here links against a layer's internals: every timed call is
 * a public libtlbpf entry point made from the benchmark's own code.
 */

#ifndef TLBPF_PERFBENCH_HARNESS_HH
#define TLBPF_PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "run/job.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Process user + system CPU seconds so far (all threads). */
double processCpuSeconds();

/**
 * Reset the process's peak resident set to its current size (writes
 * "5" to /proc/self/clear_refs); throws std::runtime_error if the
 * kernel refuses.
 */
void resetPeakRss();

/** Peak resident set of the process since the last reset, MiB. */
double peakRssMb();

// ---------------------------------------------------------------- stats

/**
 * Nearest-rank percentile of @p samples (sorted in place); 0 for an
 * empty set.  @p pct in (0, 100].
 */
double percentile(std::vector<double> &samples, double pct);

/**
 * The percentile rule: the highest percentile of {50, 75, 90, 95, 99,
 * 99.9} that leaves at least ten of @p n samples strictly beyond its
 * nearest-rank position, or 0 when not even the median does (n < 20).
 */
double tailPercentile(std::size_t n);

/** Median of @p values (nearest rank); 0 when empty. */
double median(std::vector<double> values);

// ---------------------------------------------------------------- draws

/** One named model with its miss rate and footprint under `none`. */
struct PoolModel
{
    std::string name;
    double noneMissRate = 0.0;
    double footprintPages = 0.0;
};

/**
 * Draw @p count distinct models from @p pool, seeded, repeating the
 * draw until the models' summed miss rate and summed footprint are
 * each within @p tolerance (a share) of @p target's: a grid's host
 * cost grows with its models' miss rates (the miss path) and
 * footprints (page tables and snapshots), so every seed then sweeps a
 * mix of about the same cost.  The closest draw wins if none gets
 * within tolerance.  The result is in ascending miss-rate order.
 * Throws std::invalid_argument when the pool holds fewer than
 * @p count models.
 */
std::vector<std::string> balancedDraw(std::vector<PoolModel> pool,
                                      std::size_t count,
                                      std::uint64_t seed,
                                      const PoolModel &target,
                                      double tolerance);

// ---------------------------------------------------------------- check

/**
 * FNV-1a digest of one row of cells: each cell's mechanism label and
 * every SimResult counter.  Workload labels are left out, so a trace
 * replay of a model digests like the model itself would.
 */
std::uint64_t rowDigest(const std::vector<tlbpf::SweepResult> &row);

/**
 * Committed expected values (expected.tsv): for every registry model
 * and every benchmark grid, the model's miss rate and footprint under
 * `none` at the grid's budget and the digest of its row of cells.
 */
struct ExpectedTable
{
    struct Cell
    {
        double noneMissRate = 0.0;
        double footprintPages = 0.0;
        std::uint64_t digest = 0;
    };
    std::vector<std::string> grids;
    /** model -> grid -> cell */
    std::map<std::string, std::map<std::string, Cell>> models;

    /** Parse expected.tsv text; throws std::invalid_argument. */
    static ExpectedTable parse(const std::string &text);

    /** Models whose miss rate on @p grid satisfies @p keep. */
    template <typename Pred>
    std::vector<PoolModel>
    pool(const std::string &grid, Pred keep) const
    {
        std::vector<PoolModel> out;
        for (const auto &[name, cells] : models) {
            const Cell &cell = cells.at(grid);
            if (keep(cell.noneMissRate))
                out.push_back({name, cell.noneMissRate, cell.footprintPages});
        }
        return out;
    }

    /**
     * True when @p row (one model's cells of grid @p grid) digests to
     * the committed value; false on a mismatch or a missing entry.
     */
    bool matches(const std::string &model, const std::string &grid,
                 const std::vector<tlbpf::SweepResult> &row) const;
};

/** Read a whole file; throws std::runtime_error naming it. */
std::string readFile(const std::string &path);

// ---------------------------------------------------------------- trace

/**
 * In-memory span recorder for the traced run.  Spans nest on one
 * thread (the benchmark's); each carries a name (a string literal), a
 * start and end, its parent, an optional request sequence number, and
 * a work count (references, misses, calls) so ratios are measured
 * where the work happens.  A disabled tracer records nothing.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name = "";
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        std::int32_t parent = -1;
        std::int64_t seq = -1;
        std::uint64_t count = 0;
    };

    /** Per-name totals over every span of that name. */
    struct Totals
    {
        double selfNs = 0.0;
        double wallNs = 0.0;
        std::uint64_t count = 0;
        std::uint64_t spans = 0;
    };

    explicit Tracer(bool enabled);

    /** A shared tracer that records nothing. */
    static Tracer &disabled();

    bool enabled() const { return _enabled; }

    /** Open a span under the innermost open one; returns its id. */
    int open(const char *name, std::int64_t seq = -1);

    /** Close span @p id (must be the innermost) with @p count. */
    void close(int id, std::uint64_t count = 0);

    /**
     * Self time per name: a span's duration minus its children's.
     * The calibrated cost of one clock read pair is charged to no
     * layer: it is taken off every span's duration first.
     */
    std::map<std::string, Totals> totals() const
    {
        return totals(0, _spans.size());
    }

    /** totals() over the spans recorded in [@p begin, @p end) only. */
    std::map<std::string, Totals> totals(std::size_t begin,
                                         std::size_t end) const;

    /** Write one JSON object per span to @p path. */
    void write(const std::string &path) const;

    const std::vector<Span> &spans() const { return _spans; }

    /** Cost of the two clock reads that bracket a span, ns. */
    double clockPairNs() const { return _clockPairNs; }

  private:
    bool _enabled;
    double _clockPairNs = 0.0;
    Clock::time_point _epoch;
    std::vector<Span> _spans;
    std::vector<int> _stack;
};

/** RAII span; a no-op on a disabled tracer. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name, std::int64_t seq = -1)
        : _tracer(tracer),
          _id(tracer.enabled() ? tracer.open(name, seq) : -1)
    {
    }
    ~Scope()
    {
        if (_id >= 0)
            _tracer.close(_id, _count);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void setCount(std::uint64_t count) { _count = count; }

  private:
    Tracer &_tracer;
    int _id;
    std::uint64_t _count = 0;
};

// ---------------------------------------------------------------- report

/** One metric as printed: value and unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What one benchmark run reports. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few, for stderr
    std::map<std::string, Metric> metrics;
    std::vector<std::string> notes; ///< human-readable lines

    /** Count one checked operation; false records a failure. */
    void check(bool ok, const std::string &what);

    void set(const std::string &name, double value,
             const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** The contract's last line: correct/attempted/failed/metrics. */
    std::string json() const;
};

} // namespace perfbench

#endif // TLBPF_PERFBENCH_HARNESS_HH
