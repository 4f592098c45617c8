/**
 * @file
 * The dispatch subsystem's core: a lease-based work pool that fans a
 * sweep batch out across the server's local engine and any number of
 * registered remote workers, with the same determinism contract as a
 * purely local run.
 *
 * Execution model.  One batch (a Plan, see run/plan.hh) is active at
 * a time — the server serializes sweeps across connections.
 * runBatch() queues the plan's Tasks — the engine's own single-pass
 * groups, shard chains (every shard of one or more cells over one
 * stream) and cells.  Local drain loops (one per engine pool thread)
 * run tasks from the back with runTask(); worker sessions lease them
 * from the front: a Pass or Chain alone and whole, Cells in blocks of
 * up to `worker threads` jobs.  An idle worker's lease request may be
 * held on the dispatcher's condition variable, which every path that
 * queues a leasable task notifies, so a batch reaches an idle fleet
 * the moment it starts instead of on the workers' next poll.  Every
 * completed task, local or remote, goes through the engine's
 * PlanResults, which folds each sharded cell once its last shard
 * lands and emits in submission order no matter which side — or
 * which machine — simulated a cell.
 *
 * Leases carry a deadline.  A worker refreshes its deadlines with
 * one-way heartbeats; a worker whose connection drops is reclaimed
 * immediately (unregisterWorker), and one that stalls past its
 * deadline is reclaimed by whichever local drain loop notices — its
 * tasks go back in the queue and the batch always completes.  A
 * result arriving for a reclaimed lease is discarded (completeLease
 * returns false), so no cell is ever double-counted.
 *
 * Determinism.  Every task's result is bit-identical wherever it
 * runs: cells and counters cross the wire as exact integers, shard
 * windows depend only on (stream, geometry, mechanism), and slots
 * are pre-assigned — so the lease/reclaim interleaving can change
 * *who* computes a cell but never a byte of the ordered stream.
 * With no workers registered at batch start, runBatch() is exactly
 * SweepEngine::run(plan) — the pre-dispatch server behaviour.
 *
 * Only functional tasks are leased; timed cells and passes always run
 * locally (their TimingConfig carries doubles the integer-exact wire
 * format deliberately does not).
 */

#ifndef TLBPF_DISPATCH_DISPATCHER_HH
#define TLBPF_DISPATCH_DISPATCHER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "dispatch/dispatch_protocol.hh"
#include "run/sweep_engine.hh"

namespace tlbpf
{

struct DispatcherOptions
{
    /** A lease not refreshed within this window is reclaimed. */
    std::uint64_t leaseTimeoutMs = 2000;
    /** Hard cap on plain cells granted in one lease. */
    std::size_t maxLeaseCells = 16;
};

class Dispatcher
{
  public:
    /** Lifetime counters (surface through the server's "stats"). */
    struct Counters
    {
        std::uint64_t workers = 0;        ///< registered right now
        std::uint64_t leasesGranted = 0;
        std::uint64_t leaseReclaims = 0;  ///< deadline + dead-worker
        std::uint64_t cellsDispatched = 0; ///< plan jobs run remotely
        std::uint64_t remoteFailures = 0; ///< leases failed by workers
    };

    /** Telemetry of the most recent dispatched batch. */
    struct BatchStats
    {
        double seconds = 0;          ///< batch wall-clock
        std::uint64_t cells = 0;     ///< plan jobs in the batch
        std::uint64_t remoteCells = 0;
        std::uint64_t leaseReclaims = 0;
        /** (worker id, seconds that worker held completed leases). */
        std::vector<std::pair<std::uint64_t, double>> workerBusy;
    };

    explicit Dispatcher(SweepEngine &engine,
                        const DispatcherOptions &options = {});

    /* ---- worker-session side (any thread) ---- */

    /** Register a worker; returns its id for this session. */
    std::uint64_t registerWorker(unsigned threads);

    /**
     * Drop a worker (its connection ended); every lease it still
     * holds is reclaimed into the local queue immediately.
     */
    void unregisterWorker(std::uint64_t worker);

    /** Refresh the deadline of every lease @p worker holds. */
    void heartbeat(std::uint64_t worker);

    /**
     * How often a worker should heartbeat: a quarter of the lease
     * window, so one late heartbeat never costs a healthy worker its
     * lease.  It is also how long a held lease() waits.
     */
    std::uint64_t heartbeatMs() const;

    /**
     * Lease the next block of work to @p worker.  Without @p wait
     * this answers at once; with it, it holds the caller until a
     * leasable task is queued (batch start, a reclaim), close() is
     * called, or heartbeatMs() passes.  Returns false when nothing
     * was granted (idle), and always after close().  Throws
     * std::invalid_argument for an unregistered worker id.
     *
     * A hold also asks @p hungUp (if set, outside the lock) at least
     * every kHangUpPollMs, and returns false as soon as it says the
     * worker's connection is gone.  So a worker that dies while idle
     * is unregistered by its session within that, not after the whole
     * hold, and no batch starting meanwhile grants it a task.
     */
    bool lease(std::uint64_t worker, LeaseGrant &out, bool wait = false,
               const std::function<bool()> &hungUp = {});

    /** Longest a held lease() goes without asking its hang-up check. */
    static constexpr std::uint64_t kHangUpPollMs = 10;

    /**
     * Stop granting, for good: every held lease() returns false now
     * and every later one at once.  Leases already out still
     * complete.  The server calls this before it joins its sessions,
     * so a stop never waits out a hold.
     */
    void close();

    /**
     * Integrate a completed lease: one result per granted job, in
     * grant order.  Returns false (payload discarded) when the lease
     * already expired or was reclaimed.  Throws
     * std::invalid_argument when the payload does not match the
     * grant's shape — the session drops that worker.
     */
    bool completeLease(std::uint64_t lease,
                       std::vector<SweepResult> results);

    /**
     * The worker could not run the lease (e.g. a server-local trace
     * path); its cells are requeued local-only.  Unknown or expired
     * leases are ignored.
     */
    void failLease(std::uint64_t lease);

    Counters counters() const;
    BatchStats lastBatchStats() const;

    /* ---- batch side (one caller at a time) ---- */

    /**
     * Run @p plan to completion across the local engine and any
     * registered workers, streaming merged pre-expansion results
     * through @p on_result in submission order (the engine's
     * ResultCallback contract).  Returns the merged results.  Callers
     * must serialize runBatch() invocations (the server holds its
     * batch mutex across this call).  Rethrows the lowest-index cell
     * failure after the batch drains, like SweepEngine::run.
     */
    std::vector<SweepResult>
    runBatch(const Plan &plan,
             const SweepEngine::ResultCallback &on_result);

  private:
    using Clock = std::chrono::steady_clock;

    struct LeaseState
    {
        std::uint64_t worker = 0;
        std::vector<std::size_t> tasks; ///< indices into plan.tasks()
        std::size_t jobCount = 0;
        Clock::time_point granted;
        Clock::time_point deadline;
    };

    struct Batch
    {
        const Plan *plan = nullptr;
        PlanResults *results = nullptr;
        std::deque<std::size_t> queue; ///< task indices
        /** Per task: timed, or failed by a worker — never leased. */
        std::vector<char> localOnly;
        std::size_t tasksDone = 0; ///< completed or failed
        std::size_t finishers = 0; ///< remote completions mid-emit
        bool failed = false;
        std::size_t failIndex = 0; ///< lowest failing plan-job index
        std::exception_ptr error;
        Clock::time_point start;
        std::uint64_t remoteCells = 0;
        std::uint64_t reclaims = 0;
        std::map<std::uint64_t, double> busy; ///< worker -> seconds
    };

    /** Grant @p worker its next block from the batch queue (under
     *  _mutex, with a batch active); false when none is leasable. */
    bool grantLocked(std::uint64_t worker, unsigned threads,
                     LeaseGrant &out);
    void localDrain(Batch &batch);
    /** Run task @p t here and resolve it (completed or failed). */
    void runLocal(Batch &batch, std::size_t t);
    /** Requeue every lease whose deadline passed (under _mutex). */
    void reclaimExpiredLocked(Clock::time_point now);
    /** Requeue every lease @p stale selects (under _mutex). */
    void
    reclaimLocked(const std::function<bool(const LeaseState &)> &stale);

    SweepEngine &_engine;
    DispatcherOptions _options;

    mutable std::mutex _mutex;
    std::condition_variable _cv;
    std::map<std::uint64_t, unsigned> _workers; ///< id -> threads
    std::map<std::uint64_t, LeaseState> _leases;
    std::uint64_t _nextWorker = 1;
    std::uint64_t _nextLease = 1;
    Batch *_batch = nullptr;
    bool _closed = false; ///< close() was called
    Counters _counters;
    BatchStats _lastBatch;
};

} // namespace tlbpf

#endif // TLBPF_DISPATCH_DISPATCHER_HH
