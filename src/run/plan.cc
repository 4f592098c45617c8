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

/** Whether two cells, or shards of cells, drain the very same stream. */
bool
sameStream(const SweepJob &a, const SweepJob &b)
{
    return a.workload.base() == b.workload.base() && a.refs == b.refs &&
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
            // A chain simulates its stream exactly once per cell, so it
            // weighs the whole budget per cell: typically 10-50x the
            // cells it shares a batch with, so the pool must start it
            // first.
            std::uint64_t weight = std::max<std::uint64_t>(job.refs, 1);
            if (mode == PassMode::SinglePass && !_tasks.empty()) {
                // Adjacent chains over one stream and one fan-out are
                // one chain: its simulator feeds every window once.
                Task &last = _tasks.back();
                if (last.kind == TaskKind::Chain &&
                    sizes[last.group] == sizes[g] &&
                    sameStream(all[last.first], job)) {
                    last.count += sizes[g];
                    last.weight += weight;
                    continue;
                }
            }
            _tasks.push_back(Task{TaskKind::Chain, first, sizes[g], g,
                                  weight});
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

/**
 * Run a Chain or a Pass: the jobs of one or more cells over one
 * stream, cell-major, each cell in N windows (a Pass is N = 1).  One
 * simulator runs every cell's mechanism and takes a single pass over
 * the stream, recording each window for every cell in turn, so shard k
 * of each cell starts warm from where shard k-1 stopped.  Per-shard
 * results are identical to what replay Cells would produce (same
 * labels, same counter windows), so the fold cannot tell the lowerings
 * apart.  A non-null @p hook additionally receives every cell's
 * snapshot at every window boundary, so a persistent store warms
 * future explicit-shard requests for the cell.
 */
void
runStreamPass(const std::vector<SweepJob> &jobs, const Task &task,
              CheckpointHook *hook, SweepResult *out)
{
    const SweepJob *chain = &jobs[task.first];
    const SweepJob &lead = chain[0];
    // Cell-major: every cell is the lead's shard count of windows.
    const std::uint32_t shards = lead.workload.shardCount;
    if (task.count % shards != 0)
        throw std::invalid_argument(
            "shard chain of " + std::to_string(task.count) +
            " jobs does not split into cells of " +
            std::to_string(shards) + " shards");
    std::vector<MechanismSpec> specs;
    for (std::uint32_t j = 0; j < task.count; ++j) {
        const SweepJob &job = chain[j];
        const SweepJob &head = chain[j - j % shards];
        if (checkpointKey(job, 0) != checkpointKey(head, 0))
            throw std::invalid_argument(
                "shard chain mixes cells: '" + checkpointKey(job, 0) +
                "' follows '" + checkpointKey(head, 0) + "'");
        if (!sameStream(job, lead))
            throw std::invalid_argument(
                "shard chain cells do not share a stream: '" +
                cellKey(job) + "' follows '" + cellKey(lead) + "'");
        if (job.workload.shardCount != shards ||
            job.workload.shardIndex != j % shards)
            throw std::invalid_argument(
                "shard chain windows are not contiguous ('" +
                job.workload.label() + "' at position " +
                std::to_string(j % shards) + " of its cell)");
        if (j % shards == 0)
            specs.push_back(job.spec);
    }

    auto stream = lead.workload.base().build(lead.refs);
    FunctionalSimulator sim(lead.config, specs);
    std::uint64_t pos = 0;
    for (std::uint32_t k = 0; k < shards; ++k) {
        std::uint64_t end = chain[k].workload.shardWindow(lead.refs).second;
        std::vector<SimResult> deltas =
            simulateWindow(sim, *stream, end - pos);
        for (std::size_t c = 0; c < specs.size(); ++c) {
            const SweepJob &job = chain[c * shards + k];
            SweepResult &result = out[c * shards + k];
            result.mode = job.mode;
            result.workload = job.workload.label();
            result.mechanism = job.spec.label();
            result.functional = deltas[c];
            if (hook)
                hook->store(checkpointKey(job, end), sim.snapshot(c));
        }
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
        runStreamPass(jobs, task, nullptr, out); // banks no checkpoint
    else if (task.kind == TaskKind::Chain)
        runStreamPass(jobs, task, hook, out);
    else
        *out = runSweepJob(jobs[task.first], hook);
}

} // namespace tlbpf
