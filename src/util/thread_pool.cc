#include "util/thread_pool.hh"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "util/check.hh"

namespace tlbpf
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

double
ThreadPool::BatchStats::busyFractionMin() const
{
    if (workers.empty() || seconds <= 0)
        return 0;
    double best = 1;
    for (const WorkerStats &w : workers)
        best = std::min(best, w.busySeconds / seconds);
    return best;
}

double
ThreadPool::BatchStats::busyFractionMax() const
{
    if (workers.empty() || seconds <= 0)
        return 0;
    double best = 0;
    for (const WorkerStats &w : workers)
        best = std::max(best, w.busySeconds / seconds);
    return best;
}

unsigned
ThreadPool::defaultThreadCount()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads)
    : _threads(threads ? threads : defaultThreadCount()),
      _slots(_threads)
{
    _workers.reserve(_threads - 1);
    for (unsigned i = 1; i < _threads; ++i)
        _workers.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stopping = true;
    }
    _wake.notify_all();
    for (std::thread &worker : _workers)
        worker.join();
}

void
ThreadPool::drain(unsigned self)
{
    WorkerSlot &me = _slots[self];
    for (;;) {
        std::size_t k = _next.fetch_add(1);
        if (k >= _order.size())
            return;
        std::size_t index = _order[k];
        _stats.order[k] = index;
        if (dchecksEnabled())
            _runs[index].fetch_add(1, std::memory_order_relaxed);
        auto start = Clock::now();
        try {
            _invoke(_ctx, index);
        } catch (...) {
            if (index < me.errorIndex) {
                me.errorIndex = index;
                me.error = std::current_exception();
            }
        }
        me.busySeconds += secondsSince(start);
        ++me.jobs;
    }
}

void
ThreadPool::workerLoop(unsigned self)
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(_mutex);
            _wake.wait(lock, [&] {
                return _stopping || _generation != seen;
            });
            if (_stopping)
                return;
            seen = _generation;
        }
        drain(self);
        {
            std::lock_guard<std::mutex> lock(_mutex);
            if (--_active == 0)
                _done.notify_all();
        }
    }
}

void
ThreadPool::runBatch(std::size_t n, const std::uint64_t *weights,
                     BatchThunk invoke, const void *ctx)
{
    auto start = Clock::now();
    for (WorkerSlot &slot : _slots)
        slot = WorkerSlot{};
    _order.resize(n);
    std::iota(_order.begin(), _order.end(), std::size_t{0});
    if (weights)
        std::stable_sort(_order.begin(), _order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return weights[a] > weights[b];
                         });
    if (dchecksEnabled())
        _runs = std::vector<std::atomic<std::uint8_t>>(n);
    _stats.order.resize(n);
    _invoke = invoke;
    _ctx = ctx;
    _next.store(0);

    if (_workers.empty() || n == 0) {
        drain(0);
    } else {
        {
            std::lock_guard<std::mutex> lock(_mutex);
            _active = static_cast<unsigned>(_workers.size());
            ++_generation;
        }
        _wake.notify_all();
        drain(0);
        std::unique_lock<std::mutex> lock(_mutex);
        _done.wait(lock, [&] { return _active == 0; });
    }
    _invoke = nullptr;
    _ctx = nullptr;
    if (dchecksEnabled())
        for (std::size_t i = 0; i < n; ++i)
            TLBPF_DCHECK_MSG(_runs[i].load() == 1, "batch index ", i,
                             " ran ", +_runs[i].load(), " times");

    _stats.jobs = n;
    _stats.seconds = secondsSince(start);
    _stats.workers.resize(_threads);
    std::size_t failed = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
    for (unsigned w = 0; w < _threads; ++w) {
        WorkerSlot &slot = _slots[w];
        _stats.workers[w] = WorkerStats{slot.jobs, slot.busySeconds};
        if (slot.errorIndex < failed) {
            failed = slot.errorIndex;
            error = slot.error;
        }
        slot.error = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace tlbpf
