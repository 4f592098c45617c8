/**
 * @file
 * The unit of work of the sweep engine: one simulation cell.
 *
 * Every figure and table in the paper is a sweep over
 * (workload × mechanism × geometry) cells.  A SweepJob captures one
 * such cell as a plain value — a WorkloadSpec naming the reference
 * stream (registry app, trace file, multi-programmed mix, or a shard
 * of any of those), a MechanismSpec naming the prefetching mechanism
 * (a registry entry with resolved parameters, or a composite), a
 * reference budget, simulator geometry, and whether the cell runs
 * under the functional or the timing model — so a whole figure is
 * just a std::vector<SweepJob> that can be executed in any order on
 * any number of threads.  Each job builds its own stream and
 * simulator state when it runs; nothing is shared mutably between
 * cells.  A cell is therefore fully addressed by the string pair
 * (WorkloadSpec::label(), MechanismSpec::label()).
 *
 * Cells are embarrassingly parallel but wildly uneven in cost — a
 * checkpoint-chained shard task or a single-pass multi-mechanism
 * group can be 10–50x a plain functional cell — so a job also knows
 * its own rough relative cost (costWeight()), by which the engine's
 * thread pool hands out the heaviest work first.
 */

#ifndef TLBPF_RUN_JOB_HH
#define TLBPF_RUN_JOB_HH

#include <string>

#include "prefetch/mech_spec.hh"
#include "sim/functional_sim.hh"
#include "workload/workload_spec.hh"

namespace tlbpf
{

/** Which simulator a cell runs under. */
enum class JobMode
{
    Functional, ///< fast sim: accuracy/miss-rate counters only
    Timed       ///< cycle model: additionally TimingResult counters
};

/** One simulation cell, ready to execute on any thread. */
struct SweepJob
{
    WorkloadSpec workload;    ///< what reference stream to simulate
    MechanismSpec spec;       ///< mechanism + geometry
    std::uint64_t refs = 0;   ///< reference budget (must be > 0)
    SimConfig config{};       ///< TLB/buffer geometry, ablation flags
    TimingConfig timing{};    ///< cycle model (Timed mode only)
    JobMode mode = JobMode::Functional;

    /** Functional-mode cell. */
    static SweepJob
    functional(WorkloadSpec workload, const MechanismSpec &spec,
               std::uint64_t refs, const SimConfig &config = SimConfig{})
    {
        SweepJob job;
        job.workload = std::move(workload);
        job.spec = spec;
        job.refs = refs;
        job.config = config;
        job.mode = JobMode::Functional;
        return job;
    }

    /** Timing-mode cell. */
    static SweepJob
    timed(WorkloadSpec workload, const MechanismSpec &spec,
          std::uint64_t refs, const SimConfig &config = SimConfig{},
          const TimingConfig &timing = TimingConfig{})
    {
        SweepJob job;
        job.workload = std::move(workload);
        job.spec = spec;
        job.refs = refs;
        job.config = config;
        job.timing = timing;
        job.mode = JobMode::Timed;
        return job;
    }

    /**
     * Relative execution-cost estimate of this cell, in "references
     * simulated" units, for the pool's weighted scheduler.  A plain
     * cell costs its reference budget; a `spec#k/N` shard costs its
     * stream position at window end (replay warm-up simulates the
     * whole prefix [0, begin) before recording the window).  Only the
     * order of the weights matters — a misjudged task merely starts
     * later than it should — so the estimate stays deliberately crude.
     */
    std::uint64_t
    costWeight() const
    {
        if (refs == 0)
            return 1; // malformed; it throws immediately when run
        std::uint64_t cost = refs;
        if (workload.sharded())
            cost = workload.shardWindow(refs).second;
        return cost ? cost : 1;
    }
};

/** Outcome of one cell, in the submission slot of its job. */
struct SweepResult
{
    JobMode mode = JobMode::Functional;
    std::string workload;  ///< resolved workload label of the cell
    std::string mechanism; ///< figure-legend mechanism label
    SimResult functional;  ///< valid in both modes
    TimingResult timed;    ///< valid only when mode == Timed

    double accuracy() const { return functional.accuracy(); }
    double missRate() const { return functional.missRate(); }
};

} // namespace tlbpf

#endif // TLBPF_RUN_JOB_HH
