#include "run/sweep_engine.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace tlbpf
{

std::string
configSignature(const SimConfig &config)
{
    std::string sig;
    sig += "tlb=";
    sig += std::to_string(config.tlb.entries);
    sig += "/";
    sig += std::to_string(config.tlb.assoc);
    sig += ",pb=";
    sig += std::to_string(config.pbEntries);
    sig += ",page=";
    sig += std::to_string(config.pageBytes);
    sig += ",allrefs=";
    sig += config.trainOnAllRefs ? "1" : "0";
    sig += ",cs=";
    sig += std::to_string(config.contextSwitchInterval);
    return sig;
}

std::string
cellKey(const SweepJob &job)
{
    std::string key = job.workload.label();
    key += "|";
    key += job.spec.canonical();
    key += "|";
    key += configSignature(job.config);
    key += "|refs=";
    key += std::to_string(job.refs);
    if (job.mode == JobMode::Timed) {
        char timing[96];
        std::snprintf(timing, sizeof(timing),
                      "|timed:cpi=%.17g,miss=%llu,mem=%llu",
                      job.timing.baseCpi,
                      static_cast<unsigned long long>(
                          job.timing.missPenalty),
                      static_cast<unsigned long long>(
                          job.timing.memOpCost));
        key += timing;
    }
    return key;
}

std::string
checkpointKey(const SweepJob &job, std::uint64_t pos)
{
    std::string key = job.workload.base().label();
    key += "|";
    key += job.spec.canonical();
    key += "|";
    key += configSignature(job.config);
    key += "|pos=";
    key += std::to_string(pos);
    return key;
}

SweepResult
runSweepJob(const SweepJob &job)
{
    if (job.refs == 0)
        throw std::invalid_argument(
            "sweep job for '" + job.workload.label() +
            "' needs a positive reference budget");

    SweepResult result;
    result.mode = job.mode;
    result.workload = job.workload.label();
    result.mechanism = job.spec.label();

    if (job.workload.sharded()) {
        if (job.mode != JobMode::Functional)
            throw std::invalid_argument(
                "sharded workload '" + job.workload.label() +
                "' requires a functional cell (timing cells cannot "
                "be sharded)");
        auto [begin, end] = job.workload.shardWindow(job.refs);
        auto stream = job.workload.base().build(job.refs);
        FunctionalSimulator sim(job.config, job.spec);
        simulateWindow(sim, *stream, begin); // replay warm-up
        result.functional = simulateWindow(sim, *stream, end - begin);
        return result;
    }

    auto stream = job.workload.build(job.refs);
    if (job.mode == JobMode::Timed) {
        result.timed =
            simulateTimed(job.config, job.timing, job.spec, *stream);
        result.functional = result.timed.functional;
    } else {
        result.functional = simulate(job.config, job.spec, *stream);
    }
    return result;
}

namespace
{

/**
 * Fast-forward @p stream by @p count references without simulating
 * them (the references land in a scratch buffer and are dropped).
 * Used when a persisted checkpoint replaces the prefix *simulation*:
 * the stream still has to be advanced to the window start.
 */
void
skipRefs(RefStream &stream, std::uint64_t count)
{
    std::vector<MemRef> scratch(
        std::min<std::uint64_t>(count, kSimBatchRefs));
    while (count > 0) {
        std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(count, scratch.size()));
        std::size_t got = stream.nextBatch(scratch.data(), want);
        if (got == 0)
            return; // stream shorter than the prefix; window is empty
        count -= got;
    }
}

} // namespace

SweepResult
runSweepJob(const SweepJob &job, CheckpointHook *hook)
{
    if (!hook || !job.workload.sharded() ||
        job.mode != JobMode::Functional || job.refs == 0 ||
        !mechanismCheckpointable(job))
        return runSweepJob(job);

    auto [begin, end] = job.workload.shardWindow(job.refs);
    SweepResult result;
    result.mode = job.mode;
    result.workload = job.workload.label();
    result.mechanism = job.spec.label();
    // Record the window from a simulator warmed to `begin` and bank the
    // state it ends in.
    auto record = [&](FunctionalSimulator &sim, RefStream &stream) {
        result.functional = simulateWindow(sim, stream, end - begin);
        hook->store(checkpointKey(job, end), sim.snapshot());
        return result;
    };

    if (begin > 0) {
        SimState warm;
        if (hook->load(checkpointKey(job, begin), warm)) {
            try {
                FunctionalSimulator sim(job.config, job.spec);
                sim.restore(warm);
                auto stream = job.workload.base().build(job.refs);
                skipRefs(*stream, begin);
                return record(sim, *stream);
            } catch (const std::invalid_argument &) {
                // A stale or foreign store entry must never fail the
                // batch: fall through to the replay path below, which
                // rebuilds the simulator and the stream from scratch.
            }
        }
    }

    FunctionalSimulator sim(job.config, job.spec);
    auto stream = job.workload.base().build(job.refs);
    if (begin > 0) {
        // Replay the prefix once, but bank the warm state it produces
        // so the *next* request for any shard starting at `begin`
        // skips this replay entirely.
        simulateWindow(sim, *stream, begin);
        hook->store(checkpointKey(job, begin), sim.snapshot());
    }
    return record(sim, *stream);
}

std::vector<SweepResult>
mergeShardResults(const ShardPlan &plan,
                  const std::vector<SweepResult> &results)
{
    if (plan.jobs.size() != results.size())
        throw std::invalid_argument(
            "shard merge: plan/result batch size mismatch");
    // Replay lowering makes every job its own Cell task.
    Plan cells = makePlan(plan, ShardWarmup::Replay, PassMode::PerMechanism);
    SweepEngine::ResultCallback none;
    PlanResults merged(cells, none);
    for (const Task &task : cells.tasks()) {
        *merged.slots(task) = results[task.first];
        merged.complete(task);
    }
    return merged.take();
}

PlanResults::PlanResults(const Plan &plan,
                         const SweepEngine::ResultCallback &on_result)
    : _plan(plan), _results(plan.groupSizes().size()),
      _emitter(on_result, _results)
{
    const std::vector<std::uint32_t> &sizes = plan.groupSizes();
    if (sizes.size() == plan.jobs().size())
        return; // nothing folds: tasks write _results directly
    _shards.resize(plan.jobs().size());
    _folds = std::vector<Fold>(sizes.size());
    std::size_t first = 0;
    for (std::size_t g = 0; g < sizes.size(); ++g) {
        _folds[g].first = first;
        _folds[g].remaining.store(sizes[g], std::memory_order_relaxed);
        first += sizes[g];
    }
    if (dchecksEnabled())
        _jobDone = std::vector<std::atomic<bool>>(plan.jobs().size());
}

SweepResult *
PlanResults::slots(const Task &task)
{
    return _plan.groupSizes()[task.group] == 1 ? &_results[task.group]
                                               : &_shards[task.first];
}

void
PlanResults::complete(const Task &task)
{
    if (_plan.groupSizes()[task.group] == 1) {
        // The task covers task.count whole groups of one job, already
        // in place; the emitter checks no slot completes twice.
        _emitter.complete(task.group, task.count);
        return;
    }
    Fold &fold = _folds[task.group];
    if (dchecksEnabled()) {
        for (std::uint32_t k = 0; k < task.count; ++k) {
            bool again = _jobDone[task.first + k].exchange(true);
            TLBPF_DCHECK_MSG(!again, "job ", task.first + k,
                             " completed twice");
        }
    }
    std::uint32_t before =
        fold.remaining.fetch_sub(task.count, std::memory_order_acq_rel);
    TLBPF_DCHECK_MSG(before >= task.count, "group ", task.group,
                     " countdown underflows: ", task.count,
                     " shards landed with ", before, " outstanding");
    if (before != task.count)
        return;
    // The cell's last shard: sum the windows into the unsharded cell.
    SweepResult &folded = _results[task.group];
    const SweepJob &lead = _plan.jobs()[fold.first];
    folded.mode = lead.mode;
    folded.workload = lead.workload.base().label();
    folded.mechanism = lead.spec.label();
    for (std::uint32_t k = 0; k < _plan.groupSizes()[task.group]; ++k)
        addCounters(folded.functional, _shards[fold.first + k].functional);
    _emitter.complete(task.group, 1);
}

std::vector<SweepResult>
SweepEngine::run(const Plan &plan, const ResultCallback &on_result)
{
    const std::vector<Task> &tasks = plan.tasks();
    std::vector<std::uint64_t> weights;
    weights.reserve(tasks.size());
    for (const Task &task : tasks)
        weights.push_back(task.weight);
    PlanResults results(plan, on_result);
    CheckpointHook *hook = _checkpointHook;
    _pool.parallelForWeighted(weights, [&](std::size_t t) {
        runTask(plan, tasks[t], hook, results.slots(tasks[t]));
        results.complete(tasks[t]);
    });
    return results.take();
}

std::vector<SweepResult>
SweepEngine::run(const std::vector<SweepJob> &jobs, PassMode mode,
                 const ResultCallback &on_result)
{
    return run(makePlan(jobs, 1, ShardWarmup::Checkpoint, mode),
               on_result);
}

std::vector<SweepResult>
SweepEngine::runSharded(const std::vector<SweepJob> &jobs,
                        std::uint32_t shards, ShardWarmup warmup)
{
    return run(makePlan(jobs, shards, warmup, PassMode::PerMechanism));
}

} // namespace tlbpf
