/**
 * @file
 * A fixed-size worker pool that hands out a batch from one shared
 * cursor, for deterministic fan-out.
 *
 * The pool exposes two primitives:
 *
 *   parallelFor(n, fn)                   invoke fn(i) for every index
 *                                        in [0, n), handed out in
 *                                        index order
 *   parallelForWeighted(n, weights, fn)  the same, with a per-index
 *                                        relative cost estimate that
 *                                        orders the hand-out
 *
 * Scheduling is Graham's longest-processing-time list schedule: a
 * weighted batch's indices are stable-sorted by descending weight
 * (ties keep index order), and every thread — the calling thread
 * participates as worker 0 — claims the next index of that order from
 * one atomic cursor until the batch runs out.  Each idle thread thus
 * takes the heaviest task left, so a 50x cell starts first instead of
 * holding the batch open at the end.  A pool of 1 spawns no workers
 * and runs the same order inline.
 *
 * Determinism is the *caller's* contract: fn must write only to
 * per-index state (e.g. slot i of a pre-sized results vector), so the
 * outcome is identical for any thread count and any interleaving.
 * Exceptions thrown by fn are captured and the one with the lowest
 * index is rethrown on the calling thread after the batch drains,
 * which keeps error reporting deterministic too; every per-index slot
 * is still written.  The callable is taken by const reference all the
 * way down (a function-pointer thunk, not std::function), so a batch
 * submission allocates nothing for the callable.
 *
 * Telemetry: the pool records per-worker executed-job counts and busy
 * time for the most recent batch — see BatchStats.  Reading
 * lastBatchStats() is only valid between batches.
 */

#ifndef TLBPF_UTIL_THREAD_POOL_HH
#define TLBPF_UTIL_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace tlbpf
{

/** Fixed-size worker pool with an LPT-ordered parallel-for. */
class ThreadPool
{
  public:
    /** Per-worker telemetry for the most recent batch. */
    struct WorkerStats
    {
        std::uint64_t jobs = 0; ///< indices this worker executed
        double busySeconds = 0; ///< time spent inside fn
    };

    /** Whole-batch telemetry (see lastBatchStats()). */
    struct BatchStats
    {
        std::size_t jobs = 0;             ///< batch size n
        double seconds = 0;               ///< wall-clock of the batch
        std::vector<WorkerStats> workers; ///< one per thread

        /** Min/max over workers of busySeconds / batch seconds. */
        double busyFractionMin() const;
        double busyFractionMax() const;
    };

    /**
     * @param threads total concurrency including the calling thread;
     *                0 selects defaultThreadCount().  A pool of size
     *                1 spawns no workers at all and both primitives
     *                run inline.
     */
    explicit ThreadPool(unsigned threads = 0);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool();

    /** Concurrency (calling thread + workers). */
    unsigned threadCount() const { return _threads; }

    /**
     * Run fn(0) .. fn(n-1) across the pool and block until all have
     * returned.  The calling thread participates.  If any invocation
     * throws, the remaining indices still run and the lowest-index
     * exception is rethrown here.
     */
    template <typename Fn>
    void
    parallelFor(std::size_t n, const Fn &fn)
    {
        runBatch(n, nullptr, &invokeThunk<Fn>, &fn);
    }

    /**
     * parallelFor with a per-index relative cost estimate:
     * @p weights[i] is the expected cost of fn(i) in any consistent
     * unit.  Indices are handed out heaviest first, ties in index
     * order.  @p weights must stay valid until the call returns.
     */
    template <typename Fn>
    void
    parallelForWeighted(std::size_t n, const std::uint64_t *weights,
                        const Fn &fn)
    {
        runBatch(n, weights, &invokeThunk<Fn>, &fn);
    }

    /** Convenience: weights as a vector sized to the batch. */
    template <typename Fn>
    void
    parallelForWeighted(const std::vector<std::uint64_t> &weights,
                        const Fn &fn)
    {
        runBatch(weights.size(), weights.data(), &invokeThunk<Fn>,
                 &fn);
    }

    /**
     * Telemetry of the most recent batch.  Valid from the return of
     * the batch that produced it until the next batch is submitted;
     * never touch it concurrently with a running batch.
     */
    const BatchStats &lastBatchStats() const { return _stats; }

    /** std::thread::hardware_concurrency(), clamped to at least 1. */
    static unsigned defaultThreadCount();

  private:
    /** Type-erased, non-owning view of the batch callable. */
    using BatchThunk = void (*)(const void *, std::size_t);

    template <typename Fn>
    static void
    invokeThunk(const void *ctx, std::size_t index)
    {
        (*static_cast<const Fn *>(ctx))(index);
    }

    /**
     * What one thread did in the current batch, written only by that
     * thread and read by the caller after the drain.  Padded so two
     * workers never share a cache line.  Slot 0 belongs to the
     * calling thread; slots 1.. to the spawned workers.
     */
    struct alignas(64) WorkerSlot
    {
        std::uint64_t jobs = 0;
        double busySeconds = 0;
        /** Lowest failing index this thread has seen, SIZE_MAX if
         *  none; the caller keeps the lowest across slots. */
        std::size_t errorIndex = std::numeric_limits<std::size_t>::max();
        std::exception_ptr error;
    };

    void runBatch(std::size_t n, const std::uint64_t *weights,
                  BatchThunk invoke, const void *ctx);
    /** Claim and run indices from the cursor until the batch is out. */
    void drain(unsigned self);
    void workerLoop(unsigned self);

    unsigned _threads;
    std::vector<WorkerSlot> _slots; ///< one per thread, 0 = caller

    std::mutex _mutex;
    std::condition_variable _wake; ///< workers wait for a batch
    std::condition_variable _done; ///< caller waits for the drain

    // The in-flight batch, written by the caller before the
    // generation bump under _mutex publishes it to the workers.
    // _generation bumps once per batch so sleeping workers can tell a
    // new batch from a spurious wakeup.
    std::uint64_t _generation = 0;
    bool _stopping = false;
    unsigned _active = 0; ///< workers still inside the current batch
    BatchThunk _invoke = nullptr;
    const void *_ctx = nullptr;
    std::vector<std::size_t> _order; ///< hand-out order, reused
    std::atomic<std::size_t> _next{0}; ///< cursor into _order
    /** Times each index ran; checking builds only. */
    std::vector<std::atomic<std::uint8_t>> _runs;

    BatchStats _stats;
    std::vector<std::thread> _workers; ///< last: they use the above
};

} // namespace tlbpf

#endif // TLBPF_UTIL_THREAD_POOL_HH
