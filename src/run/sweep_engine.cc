#include "run/sweep_engine.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
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
        result.functional = simulateWindow(job.config, job.spec,
                                           *stream, begin, end - begin);
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

namespace
{

/** Fold one plan group's per-shard windows into its merged result. */
SweepResult
foldGroup(const ShardPlan &plan, const std::vector<SweepResult> &results,
          std::size_t start, std::uint32_t count)
{
    if (count == 1)
        return results[start];
    SweepResult folded;
    folded.mode = plan.jobs[start].mode;
    folded.workload = plan.jobs[start].workload.base().label();
    folded.mechanism = plan.jobs[start].spec.label();
    for (std::uint32_t k = 0; k < count; ++k)
        addCounters(folded.functional, results[start + k].functional);
    return folded;
}

} // namespace

std::vector<SweepResult>
mergeShardResults(const ShardPlan &plan,
                  const std::vector<SweepResult> &results)
{
    if (plan.jobs.size() != results.size())
        throw std::invalid_argument(
            "shard merge: plan/result batch size mismatch");

    std::vector<SweepResult> merged;
    merged.reserve(plan.groupSizes.size());
    std::size_t i = 0;
    for (std::uint32_t count : plan.groupSizes) {
        if (i + count > results.size())
            throw std::invalid_argument(
                "shard merge: plan group sizes exceed the result "
                "batch");
        merged.push_back(foldGroup(plan, results, i, count));
        i += count;
    }
    if (i != results.size())
        throw std::invalid_argument(
            "shard merge: plan group sizes do not cover the result "
            "batch");
    return merged;
}

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

namespace
{

/** One checkpoint-schedule task: a chained group or a lone plan job. */
struct ShardUnit
{
    std::size_t start = 0;   ///< first index into plan.jobs
    std::uint32_t count = 1; ///< consecutive jobs in the chain
};

/**
 * Whether a cell's mechanism supports exact snapshot/restore.  Probes
 * a throwaway build (cheap: registry construction is microseconds) so
 * the scheduler can fall back to replay warm-up for open-registry
 * mechanisms that never implemented the checkpoint hooks.
 */
bool
mechanismCheckpointable(const SweepJob &job)
{
    PageTable pt;
    std::unique_ptr<Prefetcher> built = job.spec.build(pt);
    return !built || built->checkpointable();
}

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

/**
 * Execute one cell's shards as a checkpoint chain: a single stream
 * pass where shard k's warm-up is the restore of shard k-1's
 * end-of-window snapshot.  Per-shard results are identical to what
 * replay-mode jobs would produce (same labels, same counter windows),
 * so the caller's merge step cannot tell the modes apart.  A non-null
 * @p hook additionally receives every window-boundary state the chain
 * passes through, so a persistent store warms future explicit-shard
 * requests for this cell.
 */
std::vector<SweepResult>
runShardChain(const std::vector<SweepJob> &jobs, std::size_t start,
              std::uint32_t count, CheckpointHook *hook)
{
    const SweepJob &first = jobs[start];
    auto stream = first.workload.base().build(first.refs);
    std::vector<SweepResult> out(count);
    SimState state;
    std::uint64_t pos = 0;
    for (std::uint32_t k = 0; k < count; ++k) {
        const SweepJob &job = jobs[start + k];
        auto [begin, end] = job.workload.shardWindow(job.refs);
        if (begin != pos)
            throw std::invalid_argument(
                "shard chain windows are not contiguous (window "
                "starts at " +
                std::to_string(begin) + ", stream is at " +
                std::to_string(pos) + ")");
        SweepResult &result = out[k];
        result.mode = job.mode;
        result.workload = job.workload.label();
        result.mechanism = job.spec.label();
        bool last = k + 1 == count;
        bool want_state = !last || hook;
        result.functional = simulateWindowFrom(
            job.config, job.spec, *stream, k > 0 ? &state : nullptr,
            end - begin, want_state ? &state : nullptr);
        if (hook)
            hook->store(checkpointKey(job, end), state);
        pos = end;
    }
    return out;
}

/**
 * The checkpoint-mode schedule for an expanded plan: each group
 * becomes one chained task; groups of one (timing cells, explicit
 * spec#k/N jobs) and groups whose mechanism cannot checkpoint
 * decompose into independent replay jobs.
 */
std::vector<ShardUnit>
buildShardUnits(const ShardPlan &plan)
{
    std::vector<ShardUnit> units;
    units.reserve(plan.groupSizes.size());
    std::size_t start = 0;
    for (std::uint32_t count : plan.groupSizes) {
        if (count > 1 && mechanismCheckpointable(plan.jobs[start])) {
            units.push_back(ShardUnit{start, count});
        } else {
            for (std::uint32_t k = 0; k < count; ++k)
                units.push_back(ShardUnit{start + k, 1});
        }
        start += count;
    }
    return units;
}

/** One single-pass task: consecutive same-stream jobs (or a single). */
struct PassUnit
{
    std::size_t start = 0;
    std::size_t count = 1;
};

/** Whether a cell is eligible for single-pass batching at all. */
bool
passBatchable(const SweepJob &job)
{
    return job.mode == JobMode::Functional && !job.workload.sharded() &&
           job.refs > 0;
}

/** Whether two eligible cells would drain the very same stream. */
bool
sameStream(const SweepJob &a, const SweepJob &b)
{
    return a.workload == b.workload && a.refs == b.refs &&
           a.config == b.config;
}

/**
 * Greedy grouping of consecutive same-stream cells.  Only adjacent
 * jobs group, so submission order — and therefore the result order
 * and the lowest-index error contract — is preserved trivially.
 */
std::vector<PassUnit>
buildPassUnits(const std::vector<SweepJob> &jobs)
{
    std::vector<PassUnit> units;
    std::size_t i = 0;
    while (i < jobs.size()) {
        std::size_t j = i + 1;
        if (passBatchable(jobs[i])) {
            while (j < jobs.size() && passBatchable(jobs[j]) &&
                   sameStream(jobs[i], jobs[j]))
                ++j;
        }
        units.push_back(PassUnit{i, j - i});
        i = j;
    }
    return units;
}

} // namespace

std::size_t
shardTaskCount(const ShardPlan &plan, ShardWarmup warmup)
{
    if (warmup == ShardWarmup::Replay)
        return plan.jobs.size();
    return buildShardUnits(plan).size();
}

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

    if (begin > 0) {
        SimState warm;
        if (hook->load(checkpointKey(job, begin), warm)) {
            auto stream = job.workload.base().build(job.refs);
            try {
                skipRefs(*stream, begin);
                SimState end_state;
                result.functional = simulateWindowFrom(
                    job.config, job.spec, *stream, &warm, end - begin,
                    &end_state);
                hook->store(checkpointKey(job, end), end_state);
                return result;
            } catch (const std::invalid_argument &) {
                // A stale or foreign store entry must never fail the
                // batch: fall through to the replay path below, which
                // rebuilds the stream from scratch.
            }
        }
    }

    auto stream = job.workload.base().build(job.refs);
    SimState end_state;
    if (begin > 0) {
        // Replay the prefix once, but bank the warm state it produces
        // so the *next* request for any shard starting at `begin`
        // skips this replay entirely.
        SimState warm;
        simulateWindowFrom(job.config, job.spec, *stream, nullptr,
                           begin, &warm);
        hook->store(checkpointKey(job, begin), warm);
        result.functional = simulateWindowFrom(
            job.config, job.spec, *stream, &warm, end - begin,
            &end_state);
    } else {
        result.functional = simulateWindowFrom(
            job.config, job.spec, *stream, nullptr, end - begin,
            &end_state);
    }
    hook->store(checkpointKey(job, end), end_state);
    return result;
}

namespace
{

/** Per-job scheduler weights for a plain (one task = one job) run. */
std::vector<std::uint64_t>
jobWeights(const std::vector<SweepJob> &jobs)
{
    std::vector<std::uint64_t> weights;
    weights.reserve(jobs.size());
    for (const SweepJob &job : jobs)
        weights.push_back(job.costWeight());
    return weights;
}

} // namespace

std::vector<SweepResult>
SweepEngine::run(const std::vector<SweepJob> &jobs)
{
    return run(jobs, PassMode::PerMechanism, ResultCallback());
}

std::vector<SweepResult>
SweepEngine::run(const std::vector<SweepJob> &jobs, PassMode mode)
{
    return run(jobs, mode, ResultCallback());
}

std::vector<SweepResult>
SweepEngine::run(const std::vector<SweepJob> &jobs, PassMode mode,
                 const ResultCallback &on_result)
{
    std::vector<SweepResult> results(jobs.size());
    OrderedEmitter emitter(on_result, results);
    CheckpointHook *hook = _checkpointHook;

    if (mode == PassMode::PerMechanism) {
        _pool.parallelForWeighted(jobWeights(jobs),
                                  [&](std::size_t i) {
                                      results[i] =
                                          runSweepJob(jobs[i], hook);
                                      emitter.complete(i, 1);
                                  });
        return results;
    }

    std::vector<PassUnit> units = buildPassUnits(jobs);
    // A single-pass group drives group-width mechanism back ends
    // through one stream: cost ~ stream length x width.
    std::vector<std::uint64_t> weights;
    weights.reserve(units.size());
    for (const PassUnit &unit : units)
        weights.push_back(jobs[unit.start].costWeight() * unit.count);
    _pool.parallelForWeighted(weights, [&](std::size_t u) {
        const PassUnit &unit = units[u];
        if (unit.count == 1) {
            results[unit.start] =
                runSweepJob(jobs[unit.start], hook);
            emitter.complete(unit.start, 1);
            return;
        }
        const SweepJob &first = jobs[unit.start];
        std::vector<MechanismSpec> specs;
        specs.reserve(unit.count);
        for (std::size_t k = 0; k < unit.count; ++k)
            specs.push_back(jobs[unit.start + k].spec);
        auto stream = first.workload.build(first.refs);
        std::vector<SimResult> counters =
            simulateMany(first.config, specs, *stream);
        for (std::size_t k = 0; k < unit.count; ++k) {
            const SweepJob &job = jobs[unit.start + k];
            SweepResult &result = results[unit.start + k];
            result.mode = job.mode;
            result.workload = job.workload.label();
            result.mechanism = job.spec.label();
            result.functional = counters[k];
        }
        emitter.complete(unit.start, unit.count);
    });
    return results;
}

std::vector<SweepResult>
SweepEngine::runSharded(const std::vector<SweepJob> &jobs,
                        std::uint32_t shards, ShardWarmup warmup)
{
    return runSharded(expandShards(jobs, shards), warmup);
}

std::vector<SweepResult>
SweepEngine::runSharded(const ShardPlan &plan, ShardWarmup warmup)
{
    return runSharded(plan, warmup, ResultCallback());
}

std::vector<SweepResult>
SweepEngine::runSharded(const ShardPlan &plan, ShardWarmup warmup,
                        const ResultCallback &on_result)
{
    // Group geometry: where each pre-expansion cell's shard run
    // starts, and which cell each plan job belongs to.
    std::size_t ngroups = plan.groupSizes.size();
    std::vector<std::size_t> groupStart(ngroups);
    std::vector<std::size_t> groupOf(plan.jobs.size());
    std::size_t covered = 0;
    for (std::size_t g = 0; g < ngroups; ++g) {
        groupStart[g] = covered;
        if (covered + plan.groupSizes[g] > plan.jobs.size())
            throw std::invalid_argument(
                "shard plan group sizes exceed the job batch");
        for (std::uint32_t k = 0; k < plan.groupSizes[g]; ++k)
            groupOf[covered + k] = g;
        covered += plan.groupSizes[g];
    }
    if (covered != plan.jobs.size())
        throw std::invalid_argument(
            "shard plan group sizes do not cover the job batch");

    std::vector<SweepResult> results(plan.jobs.size());
    std::vector<SweepResult> merged(ngroups);
    OrderedEmitter emitter(on_result, merged);
    // Fold a group eagerly (on whichever worker finishes its last
    // shard) so merged results stream out while later cells still run.
    // acq_rel on the countdown orders every shard's slot write before
    // the fold that reads them.
    std::vector<std::atomic<std::uint32_t>> remaining(ngroups);
    for (std::size_t g = 0; g < ngroups; ++g)
        remaining[g].store(plan.groupSizes[g],
                           std::memory_order_relaxed);
    auto finishJobs = [&](std::size_t start, std::uint32_t count) {
        std::size_t g = groupOf[start];
        if (remaining[g].fetch_sub(count,
                                   std::memory_order_acq_rel) ==
            count) {
            merged[g] = foldGroup(plan, results, groupStart[g],
                                  plan.groupSizes[g]);
            emitter.complete(g, 1);
        }
    };
    CheckpointHook *hook = _checkpointHook;

    if (warmup == ShardWarmup::Replay) {
        _pool.parallelForWeighted(
            jobWeights(plan.jobs), [&](std::size_t i) {
                results[i] = runSweepJob(plan.jobs[i], hook);
                finishJobs(i, 1);
            });
        return merged;
    }

    std::vector<ShardUnit> units = buildShardUnits(plan);
    // A checkpoint chain simulates its cell's whole stream exactly
    // once, so its cost is the cell's full budget — typically 10-50x
    // the replay singles and trivial cells it shares a batch with;
    // the weight is what keeps such chains from landing on one
    // worker's deque.
    std::vector<std::uint64_t> weights;
    weights.reserve(units.size());
    for (const ShardUnit &unit : units) {
        const SweepJob &first = plan.jobs[unit.start];
        weights.push_back(unit.count > 1 ? std::max<std::uint64_t>(
                                               first.refs, 1)
                                         : first.costWeight());
    }
    _pool.parallelForWeighted(weights, [&](std::size_t i) {
        const ShardUnit &unit = units[i];
        if (unit.count == 1) {
            results[unit.start] =
                runSweepJob(plan.jobs[unit.start], hook);
            finishJobs(unit.start, 1);
            return;
        }
        std::vector<SweepResult> chained =
            runShardChain(plan.jobs, unit.start, unit.count, hook);
        for (std::uint32_t k = 0; k < unit.count; ++k)
            results[unit.start + k] = std::move(chained[k]);
        finishJobs(unit.start, unit.count);
    });
    return merged;
}

} // namespace tlbpf
