/**
 * @file
 * Deterministic multi-threaded executor for batches of SweepJobs.
 *
 * The engine's contract: results come back in *submission order* and
 * are bit-identical to a serial run regardless of thread count.  That
 * holds because every job owns its entire simulation state (stream,
 * TLB, buffer, prefetcher, RNG) and writes only to its own result
 * slot; threads share nothing mutable.  `--threads 1` constructs a
 * pool with no workers and runs the whole batch inline.
 *
 * Scheduling: cells are submitted to the pool's work-stealing
 * scheduler (per-worker deques, randomized stealing) with a
 * per-task cost estimate — SweepJob::costWeight() scaled by the
 * task's shape (a checkpoint chain covers its whole cell once, a
 * single-pass group multiplies by its width) — so a batch that mixes
 * 50x shard chains with trivial cells starts from a balanced
 * longest-processing-time placement and stealing mops up the
 * estimate's error.  Neither the placement nor any steal
 * interleaving can change a result byte: workers still write only
 * their pre-assigned result slots and the lowest-submission-index
 * exception still wins.  lastBatchStats() exposes the pool's
 * per-worker utilization telemetry for the most recent batch.
 *
 * A job that cannot run (zero reference budget, unknown application
 * model, unreadable trace file, malformed mix, a sharded timing cell)
 * throws std::invalid_argument; the engine propagates the
 * lowest-submission-index exception to the caller of run() after the
 * batch drains.  Workload resolution inside a worker never calls the
 * fatal-exit registry path, so a bad workload surfaces as a clean
 * batch failure, not a process exit from mid-pool.
 *
 * Sharding: expandShards() splits each functional cell into N
 * per-shard jobs (shard k records only its window of the counters),
 * and mergeShardResults() is the reduce step that folds the per-shard
 * counter deltas back into one result per original cell —
 * bit-identical to the unsharded run.  How a shard reconstructs the
 * simulator state at its window start is the warm-up mode:
 *
 *   ShardWarmup::Replay      every shard simulates the whole prefix
 *                            [0, begin_k) itself.  Shards are fully
 *                            independent (best wall-clock on many
 *                            cores) but total CPU grows ~(N+1)/2x.
 *   ShardWarmup::Checkpoint  shard k restores shard k-1's
 *                            end-of-window SimState snapshot, so the
 *                            chain does ~1x total work plus snapshot
 *                            cost.  The chain serialises the shards
 *                            of one cell (different cells still run
 *                            concurrently); counters are bit-identical
 *                            to replay mode and to the unsharded run.
 *
 * A mechanism that has not opted into checkpointing
 * (Prefetcher::checkpointable() == false) silently falls back to
 * replay warm-up for its cells, preserving correctness for
 * open-registry mechanisms that never implemented the hooks.
 */

#ifndef TLBPF_RUN_SWEEP_ENGINE_HH
#define TLBPF_RUN_SWEEP_ENGINE_HH

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "run/job.hh"
#include "util/check.hh"
#include "util/thread_pool.hh"

namespace tlbpf
{

/**
 * Load/store interface for *persistent* shard checkpoints — the
 * bridge between the engine and a durable SimState store (the sweep
 * service's on-disk CheckpointStore).  A key names the exact
 * simulator state of one cell identity at one stream position
 * (checkpointKey()); load() fills @p out and returns true when the
 * store holds that state.  Implementations must be thread-safe: the
 * engine calls the hook from its worker threads concurrently.  The
 * hook is an accelerator, never an oracle — a state it serves must
 * be byte-exact for its key, and the engine still verifies geometry
 * and mechanism identity on restore, so a stale or foreign entry
 * surfaces as a clean batch failure.
 */
class CheckpointHook
{
  public:
    virtual ~CheckpointHook() = default;

    /** Fetch the state for @p key; false when the store lacks it. */
    virtual bool load(const std::string &key, SimState &out) = 0;

    /** Persist @p state under @p key (best-effort). */
    virtual void store(const std::string &key,
                       const SimState &state) = 0;
};

/**
 * Compact textual signature of a cell's geometry, stable across
 * processes — one segment of the canonical cache identity of a cell.
 */
std::string configSignature(const SimConfig &config);

/**
 * Canonical cache identity of a cell: the
 * (workload, mechanism, geometry, refs, mode) tuple rendered through
 * WorkloadSpec::label() and MechanismSpec::canonical(), so every
 * alias spelling of the same experiment ("ASQ" vs "sp(adaptive)",
 * legend vs canonical mechanism forms) maps to the same key.
 */
std::string cellKey(const SweepJob &job);

/**
 * Identity of @p job's simulator state at stream position @p pos.
 * Deliberately excludes the reference budget and the shard suffix:
 * the state after [0, pos) depends only on the stream content, the
 * geometry and the mechanism, so a checkpoint taken by an 8-shard
 * run warms the matching boundary of a 4-shard (or bigger-budget)
 * run of the same cell.
 */
std::string checkpointKey(const SweepJob &job, std::uint64_t pos);

/**
 * Execute one cell on the calling thread.  Throws
 * std::invalid_argument if the job is malformed — unlike the bench
 * entry points, which tlbpf_fatal, so that the engine can report a
 * failing cell without tearing down the process from a worker thread.
 */
SweepResult runSweepJob(const SweepJob &job);

/**
 * runSweepJob() with a persistent-checkpoint store.  For an explicit
 * `spec#k/N` functional cell whose mechanism supports checkpointing,
 * the warm-up replay of the stream prefix [0, begin) is replaced by
 * restoring the stored state at `begin` when the hook has one (the
 * stream itself is fast-forwarded without simulating), and the
 * window-boundary states this run produces are stored back — so a
 * distributed sweep whose shards arrive as separate requests (or
 * after a server restart) pays the prefix cost once, not once per
 * shard.  Counters are bit-identical to the hookless path either
 * way.  A null @p hook, an unsharded cell, a timed cell or an
 * uncheckpointable mechanism all fall through to plain runSweepJob().
 */
SweepResult runSweepJob(const SweepJob &job, CheckpointHook *hook);

/** How sharded cells reconstruct simulator state at a window start. */
enum class ShardWarmup
{
    Replay,    ///< each shard replays its stream prefix (independent)
    Checkpoint ///< shards chain end-of-window snapshots (~1x work)
};

/**
 * How a batch with several mechanisms over the same stream executes.
 *
 *   PassMode::PerMechanism  every cell builds and drains its own
 *                           stream (the historical behaviour; maximal
 *                           cross-cell parallelism).
 *   PassMode::SinglePass    consecutive functional cells that share a
 *                           workload, reference budget and geometry
 *                           run as ONE stream pass through one TLB
 *                           feeding one back end per mechanism
 *                           (simulateMany), so the stream is
 *                           generated/decoded and the TLB simulated
 *                           once instead of N times.  Results are
 *                           bit-identical to PerMechanism in the
 *                           same submission order; cells that cannot
 *                           batch (timing mode, sharded workloads,
 *                           singletons) fall through to runSweepJob
 *                           unchanged.
 */
enum class PassMode
{
    PerMechanism,
    SinglePass
};

/** Canonical flag value: "per-mechanism" or "single-pass". */
const char *passModeName(PassMode mode);

/**
 * Parse a pass-mode value ("per-mechanism"/"single-pass"); throws
 * std::invalid_argument on anything else.
 */
PassMode parsePassMode(const std::string &text);

/** Canonical flag value: "replay" or "checkpoint". */
const char *shardWarmupName(ShardWarmup warmup);

/**
 * Parse a --shard-warmup value ("replay"/"checkpoint"); throws
 * std::invalid_argument on anything else.
 */
ShardWarmup parseShardWarmup(const std::string &text);

/**
 * The expanded batch of a sharded run plus the explicit grouping the
 * reduce step folds.  groupSizes has one entry per pre-expansion job:
 * how many consecutive entries of jobs belong to it (shards of a
 * fanned-out cell, or 1 for a job that passed through).  Groups are
 * recorded explicitly rather than inferred from job shapes, so
 * caller-submitted `spec#k/N` cells are never confused with the
 * expansion of a neighbouring cell.
 */
struct ShardPlan
{
    std::vector<SweepJob> jobs;
    std::vector<std::uint32_t> groupSizes;
};

/**
 * Map phase of a sharded run: expand every unsharded functional job
 * into per-shard jobs (consecutive, shard order); timing cells and
 * jobs that already name an explicit shard pass through unchanged as
 * groups of one.  @p shards <= 1 keeps every job as-is.  The fan-out
 * of one job is clamped to its reference budget, so the shard windows
 * always partition [0, refs) exactly with no empty shard — asking for
 * more shards than references yields refs single-reference windows,
 * not empty ones.
 */
ShardPlan expandShards(const std::vector<SweepJob> &jobs,
                       std::uint32_t shards);

/**
 * Reduce phase: fold the results of @p plan.jobs back into one
 * result per pre-expansion job by summing the counter windows of
 * each plan group; a merged result carries the unsharded workload
 * label.  Jobs in singleton groups (including explicit `spec#k/N`
 * cells a caller submitted to run one slice of a distributed sweep)
 * pass through unchanged.  Throws std::invalid_argument if
 * @p results does not match the plan.
 */
std::vector<SweepResult>
mergeShardResults(const ShardPlan &plan,
                  const std::vector<SweepResult> &results);

/**
 * Number of independently schedulable tasks runSharded() will create
 * for @p plan: the plan size under replay warm-up, one task per
 * chained group (plus the replay-fallback singles) under checkpoint
 * warm-up.  Callers sizing a worker pool can clamp to this instead of
 * over-provisioning threads that would only park.
 */
std::size_t shardTaskCount(const ShardPlan &plan, ShardWarmup warmup);

/** Multi-threaded batch runner with ordered, deterministic results. */
class SweepEngine
{
  public:
    /**
     * Incremental result delivery: invoked once per cell *in
     * submission order* while the batch is still running, as soon as
     * the cell and every cell before it have completed — the
     * streaming pipe the sweep service feeds per-cell frames from.
     * Invocations come from worker threads but are serialized (never
     * concurrent with each other), and the result reference is the
     * same slot the batch later returns.  If a cell fails, delivery
     * stops just before its index and the batch call rethrows as
     * usual.  The callback must not throw.
     */
    using ResultCallback =
        std::function<void(std::size_t index, const SweepResult &)>;

    /** @param threads worker count; 0 = hardware concurrency. */
    explicit SweepEngine(unsigned threads = 0) : _pool(threads) {}

    unsigned threads() const { return _pool.threadCount(); }

    /**
     * Run every job and return results in submission order.  Blocks
     * until the batch drains; rethrows the lowest-index job failure.
     */
    std::vector<SweepResult> run(const std::vector<SweepJob> &jobs);

    /**
     * run() with an explicit pass mode.  PassMode::SinglePass batches
     * consecutive same-stream functional cells into one stream pass
     * each (see PassMode); results are bit-identical to
     * PassMode::PerMechanism.
     */
    std::vector<SweepResult> run(const std::vector<SweepJob> &jobs,
                                 PassMode mode);

    /**
     * run() that additionally streams each result through
     * @p on_result in submission order as the batch progresses; the
     * returned vector is unchanged.  An empty callback degrades to
     * plain run().
     */
    std::vector<SweepResult> run(const std::vector<SweepJob> &jobs,
                                 PassMode mode,
                                 const ResultCallback &on_result);

    /**
     * Map-reduce over shards: expandShards -> execute -> merge;
     * returns one merged result per entry of @p jobs, bit-identical
     * to run() for any shard count and either warm-up mode.  Under
     * ShardWarmup::Checkpoint (the default) each cell's shards run as
     * one chained task — shard k warms up by restoring shard k-1's
     * end-of-window snapshot — so the whole fan-out costs ~1x the
     * unsharded work instead of replay's ~(N+1)/2x.
     */
    std::vector<SweepResult>
    runSharded(const std::vector<SweepJob> &jobs, std::uint32_t shards,
               ShardWarmup warmup = ShardWarmup::Checkpoint);

    /**
     * runSharded() over a plan the caller already expanded (e.g. to
     * size this engine's pool via shardTaskCount() without paying
     * for a second expansion).
     */
    std::vector<SweepResult>
    runSharded(const ShardPlan &plan,
               ShardWarmup warmup = ShardWarmup::Checkpoint);

    /**
     * runSharded() that streams each *merged* (pre-expansion) result
     * through @p on_result in pre-expansion submission order as its
     * shard group completes; the returned vector is unchanged.
     */
    std::vector<SweepResult>
    runSharded(const ShardPlan &plan, ShardWarmup warmup,
               const ResultCallback &on_result);

    /**
     * Attach a persistent-checkpoint store consulted by every
     * subsequently run cell (see runSweepJob(job, hook) for exactly
     * which cells benefit; checkpoint-mode shard chains additionally
     * persist each window-boundary state they pass through).  The
     * hook must stay alive across runs and be thread-safe; nullptr
     * detaches.  Never affects result bytes.
     */
    void setCheckpointHook(CheckpointHook *hook)
    {
        _checkpointHook = hook;
    }

    CheckpointHook *checkpointHook() const { return _checkpointHook; }

    /** The underlying pool, for callers with custom cell loops. */
    ThreadPool &pool() { return _pool; }

    /**
     * Scheduler telemetry of the most recent run()/runSharded()
     * batch: per-worker job counts and busy time, steal/backoff
     * events, and the LPT placement imbalance.  Valid until the next
     * batch starts.
     */
    const ThreadPool::BatchStats &
    lastBatchStats() const
    {
        return _pool.lastBatchStats();
    }

  private:
    ThreadPool _pool;
    CheckpointHook *_checkpointHook = nullptr;
};

/**
 * Serialized, submission-ordered streaming delivery.  Workers mark
 * their result slots complete as they finish; whichever worker
 * advances the frontier emits every consecutive completed result
 * under the mutex, so callback invocations are ordered, never
 * concurrent, and see fully-written results (the slot write
 * happens-before the mutexed completion mark).  A slot whose task
 * failed is never marked, so delivery stalls just before the failing
 * index and the batch call's rethrow takes over — exactly the
 * documented ResultCallback contract.  Shared by the engine's batch
 * runners and the dispatch subsystem, whose remote completions flow
 * through the same frontier so a distributed batch streams in the
 * same order as a local one.
 */
class OrderedEmitter
{
  public:
    OrderedEmitter(const SweepEngine::ResultCallback &cb,
                   const std::vector<SweepResult> &results)
        : _cb(cb), _results(results), _done(results.size(), 0)
    {
    }

    /** Mark @p count consecutive slots at @p start complete. */
    void
    complete(std::size_t start, std::size_t count)
    {
        // Without a callback nothing observes the frontier, so plain
        // Release skips the bookkeeping entirely; checking builds
        // still track completions so the invariants below stay armed.
        if (!_cb && !dchecksEnabled())
            return;
        std::lock_guard<std::mutex> lock(_mutex);
        TLBPF_DCHECK_MSG(start <= _done.size() &&
                             count <= _done.size() - start,
                         "completion [", start, ", ", start + count,
                         ") overruns a batch of ", _done.size());
        for (std::size_t k = 0; k < count; ++k) {
            // A slot completing twice means some cell was computed
            // (and would be delivered) twice — the double-counting
            // the dispatcher's lease discard exists to prevent.
            TLBPF_DCHECK_MSG(!_done[start + k],
                             "slot ", start + k, " completed twice");
            _done[start + k] = 1;
        }
        std::size_t before = _frontier;
        while (_frontier < _done.size() && _done[_frontier]) {
            if (_cb)
                _cb(_frontier, _results[_frontier]);
            ++_frontier;
        }
        // The frontier only ever advances (delivery order is the
        // submission order); regression would re-deliver a result.
        TLBPF_DCHECK_MSG(_frontier >= before,
                         "emission frontier regressed from ", before,
                         " to ", _frontier);
    }

  private:
    const SweepEngine::ResultCallback &_cb;
    const std::vector<SweepResult> &_results;
    std::vector<char> _done;
    std::mutex _mutex;
    std::size_t _frontier = 0;
};

} // namespace tlbpf

#endif // TLBPF_RUN_SWEEP_ENGINE_HH
