#include "dispatch/dispatcher.hh"

#include <algorithm>
#include <stdexcept>

#include "util/check.hh"

namespace tlbpf
{

namespace
{

std::chrono::milliseconds
leaseWindow(const DispatcherOptions &options)
{
    return std::chrono::milliseconds(
        options.leaseTimeoutMs ? options.leaseTimeoutMs : 1);
}

} // namespace

Dispatcher::Dispatcher(SweepEngine &engine,
                       const DispatcherOptions &options)
    : _engine(engine), _options(options)
{
}

std::uint64_t
Dispatcher::registerWorker(unsigned threads)
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::uint64_t id = _nextWorker++;
    _workers.emplace(id, threads ? threads : 1);
    return id;
}

void
Dispatcher::unregisterWorker(std::uint64_t worker)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (_workers.erase(worker) == 0)
        return;
    // A dead worker's leases go straight back in the queue: the CI
    // kill-a-worker smoke relies on this being immediate, not
    // deadline-paced.
    reclaimLocked(
        [&](const LeaseState &state) { return state.worker == worker; });
    TLBPF_DCHECK_MSG(std::none_of(_leases.begin(), _leases.end(),
                                  [&](const auto &entry) {
                                      return entry.second.worker == worker;
                                  }),
                     "unregistered worker ", worker, " still holds a lease");
    _cv.notify_all();
}

void
Dispatcher::heartbeat(std::uint64_t worker)
{
    std::lock_guard<std::mutex> lock(_mutex);
    Clock::time_point deadline = Clock::now() + leaseWindow(_options);
    for (auto &entry : _leases)
        if (entry.second.worker == worker)
            entry.second.deadline = deadline;
}

std::uint64_t
Dispatcher::heartbeatMs() const
{
    return std::max<std::uint64_t>(1, _options.leaseTimeoutMs / 4);
}

bool
Dispatcher::lease(std::uint64_t worker, LeaseGrant &out, bool wait,
                  const std::function<bool()> &hungUp)
{
    constexpr std::chrono::milliseconds kHangUpPoll(kHangUpPollMs);
    Clock::time_point until =
        Clock::now() + std::chrono::milliseconds(wait ? heartbeatMs() : 0);
    std::unique_lock<std::mutex> lock(_mutex);
    for (;;) {
        auto wit = _workers.find(worker);
        if (wit == _workers.end())
            throw std::invalid_argument("lease: unknown worker id " +
                                        std::to_string(worker));
        if (_closed)
            return false;
        if (_batch && grantLocked(worker, wit->second, out))
            return true;
        Clock::time_point now = Clock::now();
        if (now >= until)
            return false;
        // Woken by anything that queues a leasable task (batch start,
        // reclaims) or by close(); anything else just re-checks.  With
        // a hang-up check, also at least every kHangUpPoll.
        _cv.wait_until(lock, hungUp ? std::min(until, now + kHangUpPoll)
                                    : until);
        if (hungUp) {
            lock.unlock();
            bool gone = hungUp();
            lock.lock();
            if (gone) {
                // Only the worker's own session unregisters it, and
                // that session is the one waiting here.
                TLBPF_DCHECK_MSG(_workers.count(worker) == 1,
                                 "worker ", worker,
                                 " left while its lease was held");
                return false;
            }
        }
    }
}

void
Dispatcher::close()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _closed = true;
    }
    _cv.notify_all();
}

bool
Dispatcher::grantLocked(std::uint64_t worker, unsigned threads,
                        LeaseGrant &out)
{
    Clock::time_point now = Clock::now();
    reclaimExpiredLocked(now);

    const std::vector<Task> &tasks = _batch->plan->tasks();
    const std::vector<SweepJob> &jobs = _batch->plan->jobs();
    auto takeNext = [&](bool cellsOnly) -> bool {
        auto &queue = _batch->queue;
        for (auto it = queue.begin(); it != queue.end(); ++it) {
            const Task &task = tasks[*it];
            if (_batch->localOnly[*it] ||
                (cellsOnly && task.kind != TaskKind::Cell))
                continue;
            LeaseState &state = _leases[out.lease];
            state.tasks.push_back(*it);
            state.jobCount += task.count;
            out.jobs.insert(out.jobs.end(), jobs.begin() + task.first,
                            jobs.begin() + task.first + task.count);
            out.chain = task.kind == TaskKind::Chain;
            queue.erase(it);
            return true;
        }
        return false;
    };

    out.lease = _nextLease; // reserved; only consumed on a grant
    out.chain = false;
    out.jobs.clear();
    if (!takeNext(/*cellsOnly=*/false))
        return false;
    LeaseState &state = _leases[out.lease];
    if (tasks[state.tasks.front()].kind == TaskKind::Cell) {
        // Fill the block with more cells, up to the worker's own
        // width; a single-pass group or a chain is always granted
        // alone (it is one task however many jobs it spans).
        std::size_t cap =
            std::min<std::size_t>(threads, _options.maxLeaseCells);
        while (out.jobs.size() < cap && takeNext(/*cellsOnly=*/true))
            ;
    }
    _nextLease += 1;
    state.worker = worker;
    state.granted = now;
    state.deadline = now + leaseWindow(_options);
    _counters.leasesGranted += 1;
    // Grant-shape invariants: the payload the worker must send back
    // is one result per job, so the recorded jobCount has to match
    // what crossed the wire, and only cells are block-filled.  A
    // closed dispatcher grants nothing, and timed or worker-failed
    // tasks never leave the server.
    TLBPF_DCHECK_MSG(!_closed, "lease ", out.lease,
                     " granted after close()");
    TLBPF_DCHECK(!out.jobs.empty());
    TLBPF_DCHECK_MSG(state.jobCount == out.jobs.size(),
                     "lease ", out.lease, " records ", state.jobCount,
                     " jobs but grants ", out.jobs.size());
    TLBPF_DCHECK(state.tasks.size() == 1 ||
                 tasks[state.tasks.front()].kind == TaskKind::Cell);
    for (std::size_t t : state.tasks)
        TLBPF_DCHECK_MSG(!_batch->localOnly[t], "lease ", out.lease,
                         " grants local-only task ", t);
    return true;
}

bool
Dispatcher::completeLease(std::uint64_t lease,
                          std::vector<SweepResult> results)
{
    Batch *batch = nullptr;
    std::vector<std::size_t> granted;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        auto it = _leases.find(lease);
        if (it == _leases.end() || !_batch)
            return false; // expired, reclaimed, or a stale batch
        if (results.size() != it->second.jobCount)
            throw std::invalid_argument(
                "cell result carries " +
                std::to_string(results.size()) +
                " results for a lease of " +
                std::to_string(it->second.jobCount) + " cells");
        granted = std::move(it->second.tasks);
        double busy = std::chrono::duration<double>(
                          Clock::now() - it->second.granted)
                          .count();
        batch = _batch;
        batch->remoteCells += results.size();
        batch->busy[it->second.worker] += busy;
        batch->finishers += 1; // keeps the batch alive while we emit
        _counters.cellsDispatched += results.size();
        _leases.erase(it);
    }
    // The emitter serializes delivery itself; completing outside
    // _mutex keeps the client-write path off the scheduler lock.
    std::size_t offset = 0;
    for (std::size_t t : granted) {
        const Task &task = batch->plan->tasks()[t];
        std::move(results.begin() + offset,
                  results.begin() + offset + task.count,
                  batch->results->slots(task));
        offset += task.count;
        batch->results->complete(task);
    }
    // The jobCount equality checked above guarantees the task slices
    // tile the payload exactly; a remainder would mean a task was
    // reclaimed out from under a live lease entry.
    TLBPF_DCHECK_MSG(offset == results.size(),
                     "lease ", lease, " tasks consumed ", offset,
                     " of ", results.size(), " results");
    {
        std::lock_guard<std::mutex> lock(_mutex);
        batch->tasksDone += granted.size();
        batch->finishers -= 1;
    }
    // `batch` may be destroyed by runBatch() the moment the count
    // hits zero — nothing below may touch it.
    _cv.notify_all();
    return true;
}

void
Dispatcher::failLease(std::uint64_t lease)
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _leases.find(lease);
    if (it == _leases.end())
        return;
    if (_batch) {
        for (std::size_t t : it->second.tasks) {
            _batch->localOnly[t] = 1; // this work is local-only now
            _batch->queue.push_back(t);
        }
    }
    _counters.remoteFailures += 1;
    _leases.erase(it);
    _cv.notify_all();
}

Dispatcher::Counters
Dispatcher::counters() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    Counters out = _counters;
    out.workers = _workers.size();
    return out;
}

Dispatcher::BatchStats
Dispatcher::lastBatchStats() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _lastBatch;
}

void
Dispatcher::reclaimExpiredLocked(Clock::time_point now)
{
    reclaimLocked(
        [&](const LeaseState &state) { return state.deadline <= now; });
}

void
Dispatcher::reclaimLocked(
    const std::function<bool(const LeaseState &)> &stale)
{
    bool requeued = false;
    for (auto it = _leases.begin(); it != _leases.end();) {
        if (!stale(it->second)) {
            ++it;
            continue;
        }
        if (_batch) {
            for (std::size_t t : it->second.tasks)
                _batch->queue.push_back(t);
            _batch->reclaims += 1;
            requeued = true;
        }
        _counters.leaseReclaims += 1;
        it = _leases.erase(it);
    }
    if (requeued)
        _cv.notify_all(); // a held lease request may take them
}

void
Dispatcher::runLocal(Batch &batch, std::size_t t)
{
    const Task &task = batch.plan->tasks()[t];
    std::exception_ptr error;
    try {
        runTask(*batch.plan, task, _engine.checkpointHook(),
                batch.results->slots(task));
        batch.results->complete(task);
    } catch (...) {
        error = std::current_exception();
    }
    {
        std::lock_guard<std::mutex> lock(_mutex);
        if (error && (!batch.failed || task.first < batch.failIndex)) {
            batch.failed = true;
            batch.failIndex = task.first;
            batch.error = error;
        }
        batch.tasksDone += 1; // resolved, perhaps by failing
    }
    _cv.notify_all();
}

void
Dispatcher::localDrain(Batch &batch)
{
    std::size_t ntasks = batch.plan->tasks().size();
    for (;;) {
        std::size_t t;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            for (;;) {
                if (batch.tasksDone == ntasks)
                    return;
                reclaimExpiredLocked(Clock::now());
                if (!batch.queue.empty()) {
                    // Locals take the back; leases take the front.
                    // The two ends only meet when the queue is nearly
                    // empty, which keeps the tail of a batch local
                    // (no waiting out a lease on the last cell).
                    t = batch.queue.back();
                    batch.queue.pop_back();
                    break;
                }
                // Everything is in flight.  Sleep until the earliest
                // lease deadline (to reclaim a stalled worker) or a
                // completion wakes us.
                Clock::time_point wake =
                    Clock::now() + std::chrono::milliseconds(200);
                for (const auto &entry : _leases)
                    wake = std::min(wake, entry.second.deadline);
                _cv.wait_until(lock, wake +
                                         std::chrono::milliseconds(1));
            }
        }
        runLocal(batch, t);
    }
}

std::vector<SweepResult>
Dispatcher::runBatch(const Plan &plan,
                     const SweepEngine::ResultCallback &on_result)
{
    bool dispatch;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        if (_batch)
            throw std::logic_error(
                "Dispatcher::runBatch is not reentrant");
        dispatch = !_workers.empty();
    }
    if (!dispatch)
        return _engine.run(plan, on_result);

    PlanResults results(plan, on_result);
    Batch batch;
    batch.plan = &plan;
    batch.results = &results;
    const std::vector<Task> &tasks = plan.tasks();
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        // Only a Cell can be timed; a Pass or Chain is functional.
        batch.localOnly.push_back(plan.jobs()[tasks[t].first].mode !=
                                  JobMode::Functional);
        batch.queue.push_back(t);
    }
    batch.start = Clock::now();

    {
        std::lock_guard<std::mutex> lock(_mutex);
        _batch = &batch;
    }
    _cv.notify_all();

    unsigned width = std::max(1u, _engine.threads());
    _engine.pool().parallelFor(
        width, [&](std::size_t) { localDrain(batch); });

    {
        std::unique_lock<std::mutex> lock(_mutex);
        // The local drain loops are done, but a worker session may
        // still be inside completeLease() emitting its last results;
        // the batch (and its emitter) must outlive that.
        _cv.wait(lock, [&] { return batch.finishers == 0; });
        // Drain postcondition: every task resolved (completed or
        // failed) exactly once and none left behind in the queue.
        TLBPF_DCHECK_MSG(batch.tasksDone == tasks.size(),
                         "batch drained with ", batch.tasksDone,
                         " of ", tasks.size(), " tasks resolved");
        TLBPF_DCHECK(batch.queue.empty() || batch.failed);
        _batch = nullptr;
        // Any lease still out refers to tasks the batch already
        // resolved (its holder went quiet and was reclaimed past the
        // deadline, or the batch beat it locally).  Drop them so a
        // late result is discarded, not misapplied to a later batch.
        _leases.clear();
        _lastBatch = BatchStats{};
        _lastBatch.seconds = std::chrono::duration<double>(
                                 Clock::now() - batch.start)
                                 .count();
        _lastBatch.cells = plan.jobs().size();
        _lastBatch.remoteCells = batch.remoteCells;
        _lastBatch.leaseReclaims = batch.reclaims;
        for (const auto &entry : _workers) {
            auto busy = batch.busy.find(entry.first);
            _lastBatch.workerBusy.emplace_back(
                entry.first,
                busy == batch.busy.end() ? 0.0 : busy->second);
        }
    }
    _cv.notify_all();

    if (batch.failed)
        std::rethrow_exception(batch.error);
    return results.take();
}

} // namespace tlbpf
