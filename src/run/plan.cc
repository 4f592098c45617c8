#include "run/plan.hh"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "mem/page_table.hh"
#include "run/sweep_engine.hh"

namespace tlbpf
{

const char *
passModeName(PassMode mode)
{
    return mode == PassMode::PerMechanism ? "per-mechanism"
                                          : "single-pass";
}

PassMode
parsePassMode(const std::string &text)
{
    if (text == "per-mechanism")
        return PassMode::PerMechanism;
    if (text == "single-pass")
        return PassMode::SinglePass;
    throw std::invalid_argument(
        "unknown pass mode '" + text +
        "' (expected per-mechanism or single-pass)");
}

const char *
shardWarmupName(ShardWarmup warmup)
{
    return warmup == ShardWarmup::Replay ? "replay" : "checkpoint";
}

ShardWarmup
parseShardWarmup(const std::string &text)
{
    if (text == "replay")
        return ShardWarmup::Replay;
    if (text == "checkpoint")
        return ShardWarmup::Checkpoint;
    throw std::invalid_argument(
        "unknown shard warm-up mode '" + text +
        "' (expected replay or checkpoint)");
}

ShardPlan
expandShards(const std::vector<SweepJob> &jobs, std::uint32_t shards)
{
    ShardPlan plan;
    plan.groupSizes.reserve(jobs.size());
    plan.jobs.reserve(shards <= 1 ? jobs.size()
                                  : jobs.size() * shards);
    for (const SweepJob &job : jobs) {
        // Never fan a cell out wider than its reference budget:
        // shardWindow() would hand the surplus shards empty windows,
        // which burn a full warm-up replay each to record nothing.
        std::uint32_t fanout = shards;
        if (job.refs < fanout)
            fanout = static_cast<std::uint32_t>(job.refs);
        if (fanout <= 1 || job.mode != JobMode::Functional ||
            job.workload.sharded()) {
            plan.jobs.push_back(job);
            plan.groupSizes.push_back(1);
            continue;
        }
        for (std::uint32_t k = 0; k < fanout; ++k) {
            SweepJob shard = job;
            shard.workload = job.workload.withShard(k, fanout);
            plan.jobs.push_back(std::move(shard));
        }
        plan.groupSizes.push_back(fanout);
    }
    return plan;
}

bool
mechanismCheckpointable(const SweepJob &job)
{
    PageTable pt;
    std::unique_ptr<Prefetcher> built = job.spec.build(pt);
    return !built || built->checkpointable();
}

namespace
{

/** Whether a cell may share a stream pass at all. */
bool
passBatchable(const SweepJob &job)
{
    return job.mode == JobMode::Functional && !job.workload.sharded() &&
           job.refs > 0;
}

/** Whether two batchable cells would drain the very same stream. */
bool
sameStream(const SweepJob &a, const SweepJob &b)
{
    return a.workload == b.workload && a.refs == b.refs &&
           a.config == b.config;
}

/** The groups of @p n borrowed jobs that fold nothing: all of one. */
ShardPlan
unexpanded(std::size_t n)
{
    return ShardPlan{{}, std::vector<std::uint32_t>(n, 1)};
}

} // namespace

void
Plan::lower(ShardWarmup warmup, PassMode mode)
{
    const std::vector<SweepJob> &all = jobs();
    const std::vector<std::uint32_t> &sizes = _batch.groupSizes;
    _tasks.reserve(sizes.size());
    for (std::size_t g = 0, first = 0; g < sizes.size();
         first += sizes[g], ++g) {
        const SweepJob &job = all[first];
        if (sizes[g] > 1 && warmup == ShardWarmup::Checkpoint &&
            mechanismCheckpointable(job)) {
            // A chain simulates its cell's stream exactly once, so it
            // weighs the whole budget: typically 10-50x the cells it
            // shares a batch with, so the pool must start it first.
            _tasks.push_back(Task{TaskKind::Chain, first, sizes[g], g,
                                  std::max<std::uint64_t>(job.refs, 1)});
            continue;
        }
        // Only adjacent cells share a pass, so submission order — and
        // with it the lowest-index error contract — is kept.
        if (sizes[g] == 1 && mode == PassMode::SinglePass &&
            !_tasks.empty()) {
            Task &last = _tasks.back();
            const SweepJob &lead = all[last.first];
            if (sizes[last.group] == 1 && passBatchable(lead) &&
                passBatchable(job) && sameStream(lead, job)) {
                last.kind = TaskKind::Pass;
                last.count += 1;
                last.weight = lead.costWeight() * last.count;
                continue;
            }
        }
        for (std::uint32_t k = 0; k < sizes[g]; ++k)
            _tasks.push_back(Task{TaskKind::Cell, first + k, 1, g,
                                  all[first + k].costWeight()});
    }
}

Plan
makePlan(const std::vector<SweepJob> &jobs, std::uint32_t shards,
         ShardWarmup warmup, PassMode mode)
{
    Plan plan = shards > 1 ? Plan(nullptr, expandShards(jobs, shards))
                           : Plan(&jobs, unexpanded(jobs.size()));
    plan.lower(warmup, mode);
    return plan;
}

Plan
makePlan(ShardPlan expanded, ShardWarmup warmup, PassMode mode)
{
    const std::vector<std::uint32_t> &sizes = expanded.groupSizes;
    if (std::find(sizes.begin(), sizes.end(), 0u) != sizes.end() ||
        std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}) !=
            expanded.jobs.size())
        throw std::invalid_argument(
            "shard plan groups do not tile the job batch");
    Plan plan(nullptr, std::move(expanded));
    plan.lower(warmup, mode);
    return plan;
}

Plan
makeChainPlan(const std::vector<SweepJob> &shards)
{
    Plan plan(&shards, unexpanded(shards.size()));
    if (!shards.empty())
        plan._tasks.push_back(
            Task{TaskKind::Chain, 0,
                 static_cast<std::uint32_t>(shards.size()), 0,
                 std::max<std::uint64_t>(shards.front().refs, 1)});
    return plan;
}

namespace
{

/** Run a single-pass group: one stream pass feeds every mechanism. */
void
runPass(const std::vector<SweepJob> &jobs, const Task &task,
        SweepResult *out)
{
    const SweepJob &lead = jobs[task.first];
    std::vector<MechanismSpec> specs;
    specs.reserve(task.count);
    for (std::uint32_t k = 0; k < task.count; ++k)
        specs.push_back(jobs[task.first + k].spec);
    auto stream = lead.workload.build(lead.refs);
    std::vector<SimResult> counters =
        simulateMany(lead.config, specs, *stream);
    for (std::uint32_t k = 0; k < task.count; ++k) {
        const SweepJob &job = jobs[task.first + k];
        out[k].mode = job.mode;
        out[k].workload = job.workload.label();
        out[k].mechanism = job.spec.label();
        out[k].functional = counters[k];
    }
}

/**
 * Run one cell's shards as a chain: one simulator takes a single pass
 * over the stream and records each shard's window in turn, so shard k
 * starts warm from where shard k-1 stopped.  Per-shard results are
 * identical to what replay Cells would produce (same labels, same
 * counter windows), so the fold cannot tell the lowerings apart.  A
 * non-null @p hook additionally receives the snapshot at every window
 * boundary, so a persistent store warms future explicit-shard
 * requests for the cell.
 */
void
runShardChain(const std::vector<SweepJob> &jobs, const Task &task,
              CheckpointHook *hook, SweepResult *out)
{
    const SweepJob &lead = jobs[task.first];
    const std::string cell = checkpointKey(lead, 0);
    auto stream = lead.workload.base().build(lead.refs);
    FunctionalSimulator sim(lead.config, lead.spec);
    std::uint64_t pos = 0;
    for (std::uint32_t k = 0; k < task.count; ++k) {
        const SweepJob &job = jobs[task.first + k];
        if (checkpointKey(job, 0) != cell)
            throw std::invalid_argument(
                "shard chain mixes cells: '" + checkpointKey(job, 0) +
                "' follows '" + cell + "'");
        auto [begin, end] = job.workload.shardWindow(job.refs);
        if (begin != pos)
            throw std::invalid_argument(
                "shard chain windows are not contiguous (window "
                "starts at " +
                std::to_string(begin) + ", stream is at " +
                std::to_string(pos) + ")");
        out[k].mode = job.mode;
        out[k].workload = job.workload.label();
        out[k].mechanism = job.spec.label();
        out[k].functional = simulateWindow(sim, *stream, end - begin);
        if (hook)
            hook->store(checkpointKey(job, end), sim.snapshot());
        pos = end;
    }
}

} // namespace

void
runTask(const Plan &plan, const Task &task, CheckpointHook *hook,
        SweepResult *out)
{
    const std::vector<SweepJob> &jobs = plan.jobs();
    if (task.kind == TaskKind::Pass)
        runPass(jobs, task, out);
    else if (task.kind == TaskKind::Chain)
        runShardChain(jobs, task, hook, out);
    else
        *out = runSweepJob(jobs[task.first], hook);
}

} // namespace tlbpf
