/**
 * @file
 * Deterministic multi-threaded executor for lowered sweep batches.
 *
 * SweepEngine::run(const Plan &) is the one executor: it hands every
 * Task of a Plan (run/plan.hh) to the pool with the task's cost
 * weight, so the heaviest tasks start first, runs it with runTask()
 * and completes it through PlanResults, as the dispatcher does for
 * leased tasks.  PassMode and ShardWarmup only choose how makePlan()
 * lowers a batch.
 *
 * The contract: results come back in *submission order*, one per
 * pre-expansion cell, bit-identical to a serial, unsharded,
 * per-mechanism run regardless of thread count or lowering.  Every
 * task owns its entire simulation state (stream, TLB, buffer,
 * prefetchers, RNG) and writes only its pre-assigned result slots, so
 * neither the hand-out order nor the thread a task lands on can change
 * a result byte.  `--threads 1` runs the whole batch inline.
 * lastBatchStats() exposes the pool's per-worker telemetry for the
 * most recent batch.
 *
 * A job that cannot run (zero reference budget, unknown application
 * model, unreadable trace file, malformed mix, a sharded timing cell)
 * throws std::invalid_argument; the engine propagates the
 * lowest-index failure to the caller of run() after the batch drains.
 * Workload resolution inside a worker never calls the fatal-exit
 * registry path, so a bad workload surfaces as a clean batch failure,
 * not a process exit from mid-pool.
 */

#ifndef TLBPF_RUN_SWEEP_ENGINE_HH
#define TLBPF_RUN_SWEEP_ENGINE_HH

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "run/job.hh"
#include "run/plan.hh"
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

/**
 * Reduce phase for a caller that ran @p plan.jobs itself: one result
 * per plan group, the shards of a cell folded bit-identically to the
 * unsharded run and groups of one (explicit `spec#k/N` cells
 * included) passed through.  Throws std::invalid_argument if
 * @p results does not match the plan.
 */
std::vector<SweepResult>
mergeShardResults(const ShardPlan &plan,
                  const std::vector<SweepResult> &results);

/** Multi-threaded batch runner with ordered, deterministic results. */
class SweepEngine
{
  public:
    /**
     * Incremental result delivery: invoked once per pre-expansion
     * cell *in submission order* while the batch is still running, as
     * soon as the cell and every cell before it have completed — the
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
     * Execute every task of @p plan; one result per emit group, in
     * submission order, also streamed through @p on_result (if set).
     * Rethrows the lowest-index failure after the batch drains.
     */
    std::vector<SweepResult> run(const Plan &plan,
                                 const ResultCallback &on_result = {});

    /** run(makePlan(jobs, 1, ShardWarmup::Checkpoint, mode), ...). */
    std::vector<SweepResult>
    run(const std::vector<SweepJob> &jobs,
        PassMode mode = PassMode::PerMechanism,
        const ResultCallback &on_result = {});

    /**
     * run(makePlan(jobs, shards, warmup, PassMode::PerMechanism)): one
     * result per entry of @p jobs, bit-identical to run() for any
     * shard count and either warm-up mode.
     */
    std::vector<SweepResult>
    runSharded(const std::vector<SweepJob> &jobs, std::uint32_t shards,
               ShardWarmup warmup = ShardWarmup::Checkpoint);

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
     * batch: per-worker job counts and busy time.  Valid until the
     * next batch starts.
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

/**
 * The one completion path of a plan run, shared by the engine and the
 * dispatcher: result slots, a countdown per fanned-out cell that folds
 * it on whichever thread lands its last shard (acq_rel, so every shard
 * write happens-before the fold), and the OrderedEmitter.
 */
class PlanResults
{
  public:
    PlanResults(const Plan &plan,
                const SweepEngine::ResultCallback &on_result);

    /** Where @p task writes its task.count results. */
    SweepResult *slots(const Task &task);

    /** @p task wrote its slots: fold and emit what it finished.  Any
     *  thread; each task completes at most once. */
    void complete(const Task &task);

    /** One result per emit group; once every task has completed. */
    std::vector<SweepResult> take() { return std::move(_results); }

  private:
    /** A fanned-out cell: its first job and its shards outstanding. */
    struct Fold
    {
        std::size_t first = 0;
        std::atomic<std::uint32_t> remaining{0};
    };

    const Plan &_plan;
    std::vector<SweepResult> _results; ///< one per emit group
    /** Per job / per group, only when some group folds shards. */
    std::vector<SweepResult> _shards;
    std::vector<Fold> _folds;
    std::vector<std::atomic<bool>> _jobDone; ///< checking builds only
    OrderedEmitter _emitter;
};

} // namespace tlbpf

#endif // TLBPF_RUN_SWEEP_ENGINE_HH
