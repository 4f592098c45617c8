/**
 * @file
 * Lowering a sweep batch into the tasks that execute it.
 *
 * Every result in the paper is a grid of one reference stream times
 * many mechanisms.  makePlan() lowers such a batch once into a Plan,
 * and runTask() executes any one of its Tasks — on the engine's pool,
 * in the dispatcher's local drain, or on a worker the task was leased
 * to.  A Plan holds the expanded jobs (the caller's batch itself when
 * nothing fans out: borrowed, never copied), the emit groups (how
 * many consecutive jobs fold into each result: the shards of one
 * cell, or 1) and the Tasks, in job order.  Each Task is a job range
 * with a kind and a cost weight for the pool's LPT hand-out:
 *
 *   Cell   one job through runSweepJob(job, hook)   costWeight()
 *   Pass   consecutive cells sharing a workload,    costWeight() x width
 *          budget, geometry and mode (and cycle
 *          model), through one stream pass for all
 *          their mechanisms
 *   Chain  the shards of one or more cells over     max(refs, 1) x cells
 *          one stream, cell-major: one simulator
 *          for all their mechanisms steps through
 *          the windows in stream order, so each
 *          shard starts warm from the one before
 *
 * PassMode and ShardWarmup only choose the lowering; every lowering
 * gives bit-identical results.  Under SinglePass adjacent chains over
 * one stream and fan-out merge into one Chain, which runs its
 * mechanisms on one thread as a Pass does; PerMechanism keeps one
 * Chain per cell.
 */

#ifndef TLBPF_RUN_PLAN_HH
#define TLBPF_RUN_PLAN_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "run/job.hh"

namespace tlbpf
{

class CheckpointHook;

/** How sharded cells reconstruct simulator state at a window start. */
enum class ShardWarmup
{
    /** Every shard replays its prefix: independent Cells (best
     *  wall-clock on many cores, ~(N+1)/2x total CPU). */
    Replay,
    /** Shards are chained (~1x total work): one Chain per cell, or
     *  per stream under SinglePass; a mechanism without checkpoint
     *  hooks falls back to replay Cells. */
    Checkpoint
};

/** How cells that share a stream run. */
enum class PassMode
{
    PerMechanism, ///< every cell drains its own stream
    SinglePass    ///< adjacent same-stream cells: one Pass, or one
                  ///< Chain when sharded
};

/** Canonical flag value: "per-mechanism" or "single-pass". */
const char *passModeName(PassMode mode);

/** Inverse of passModeName(); throws std::invalid_argument. */
PassMode parsePassMode(const std::string &text);

/** Canonical flag value: "replay" or "checkpoint". */
const char *shardWarmupName(ShardWarmup warmup);

/** Inverse of shardWarmupName(); throws std::invalid_argument. */
ShardWarmup parseShardWarmup(const std::string &text);

/**
 * An expanded batch plus the explicit grouping the reduce step folds:
 * groupSizes[g] consecutive jobs (shards of one cell, or 1) make one
 * result.  Groups are recorded, not inferred from job shapes, so a
 * caller's explicit `spec#k/N` cells are never folded together.
 */
struct ShardPlan
{
    std::vector<SweepJob> jobs;
    std::vector<std::uint32_t> groupSizes;
};

/**
 * Map phase of a sharded run: every unsharded functional job fans out
 * into per-shard jobs (consecutive, in shard order); timed cells and
 * explicit shards stay groups of one, as does everything when
 * @p shards <= 1.  The fan-out is clamped to the job's reference
 * budget, so the windows always partition [0, refs) with no empty
 * shard.
 */
ShardPlan expandShards(const std::vector<SweepJob> &jobs,
                       std::uint32_t shards);

/**
 * Whether @p job's mechanism implements exact snapshot/restore
 * (probes a throwaway build; open-registry mechanisms may not).
 */
bool mechanismCheckpointable(const SweepJob &job);

enum class TaskKind
{
    Cell,
    Pass,
    Chain
};

/**
 * One schedulable unit of a Plan.  It covers whole emit groups of one
 * job each (Cell, Pass), whole fanned-out groups (Chain), or lies
 * inside one fanned-out cell's group (a replay shard Cell).
 */
struct Task
{
    TaskKind kind = TaskKind::Cell;
    std::size_t first = 0;    ///< first job, an index into jobs()
    std::uint32_t count = 1;  ///< consecutive jobs it runs
    std::size_t group = 0;    ///< emit group of the first job
    std::uint64_t weight = 1; ///< cost estimate: heaviest runs first
};

class Plan;

/**
 * Lower @p jobs, each functional cell fanned out into @p shards
 * windows.  An unexpanded plan borrows @p jobs, which must outlive
 * it.
 */
Plan makePlan(const std::vector<SweepJob> &jobs, std::uint32_t shards,
              ShardWarmup warmup, PassMode mode);
Plan makePlan(std::vector<SweepJob> &&, std::uint32_t, ShardWarmup,
              PassMode) = delete; // would borrow a temporary

/** Lower a batch the caller expanded itself (any per-cell fan-out). */
Plan makePlan(ShardPlan expanded, ShardWarmup warmup, PassMode mode);

/**
 * One Chain over the shards of one or more cells over one stream,
 * cell-major and each cell's in stream order, that reports every
 * shard's own result — how a worker runs a chained lease, whose shards
 * the dispatcher folds.  Borrows @p shards.
 */
Plan makeChainPlan(const std::vector<SweepJob> &shards);
Plan makeChainPlan(std::vector<SweepJob> &&) = delete;

/** A lowered batch; see the file comment. */
class Plan
{
  public:
    const std::vector<SweepJob> &
    jobs() const
    {
        return _borrowed ? *_borrowed : _batch.jobs;
    }

    const std::vector<std::uint32_t> &
    groupSizes() const
    {
        return _batch.groupSizes;
    }

    const std::vector<Task> &tasks() const { return _tasks; }

  private:
    friend Plan makePlan(const std::vector<SweepJob> &, std::uint32_t,
                         ShardWarmup, PassMode);
    friend Plan makePlan(ShardPlan, ShardWarmup, PassMode);
    friend Plan makeChainPlan(const std::vector<SweepJob> &);

    Plan(const std::vector<SweepJob> *borrowed, ShardPlan batch)
        : _borrowed(borrowed), _batch(std::move(batch))
    {
    }

    /** Build the tasks of every group per @p warmup and @p mode. */
    void lower(ShardWarmup warmup, PassMode mode);

    const std::vector<SweepJob> *_borrowed;
    ShardPlan _batch; ///< owned jobs when expanded; always the groups
    std::vector<Task> _tasks;
};

/**
 * Execute @p task on the calling thread, writing its task.count
 * results to @p out.  Cells consult @p hook (may be null) and Chains
 * deposit every cell's window-boundary state in it.  Throws
 * std::invalid_argument for a malformed job or a chain whose cells do
 * not share a stream and windows.
 */
void runTask(const Plan &plan, const Task &task, CheckpointHook *hook,
             SweepResult *out);

} // namespace tlbpf

#endif // TLBPF_RUN_PLAN_HH
