/**
 * @file
 * Shared helpers for the bench binaries that regenerate the paper's
 * tables and figures: standard option parsing (reference budget,
 * workload selection, thread/shard counts, CSV/JSON output paths),
 * result-sink plumbing, and the figure-style accuracy sweep driver.
 *
 * All sweeps execute on the SweepEngine: a bench builds its full
 * (workload × mechanism × geometry) job list up front, runs it across
 * --threads workers, and renders the ordered results — so output is
 * bit-identical for any thread count.
 *
 * Workload addressing: every binary accepts
 *   --workload <spec>[,<spec>...]  explicit WorkloadSpec list
 *                                  (app names, trace:file.tpf,
 *                                  mix:a+b@100k, spec#k/N)
 *   --app <name>[,...]             sugar for --workload app:<name>
 *   --apps a,b,c                   restrict the bench's default app
 *                                  set (legacy filter)
 *   --shards N                     split each functional cell into N
 *                                  merged shard jobs
 *
 * Mechanism addressing: every binary accepts
 *   --mech <spec>[,<spec>...]      explicit MechanismSpec list in
 *                                  either grammar: dp(rows=512,assoc=4w),
 *                                  sp(degree=2), hybrid(dp+sp), or the
 *                                  figure-legend forms DP,256,D / RP /
 *                                  ASQ (parenthesised specs nest, so
 *                                  "hybrid(dp+sp),rp" is two specs)
 *   --list-mechanisms              print the registry (names, aliases,
 *                                  typed parameters) and exit
 *   --shard-warmup replay|checkpoint
 *                                  how shards reconstruct their warm
 *                                  state: independent prefix replay
 *                                  (~(N+1)/2x total CPU, best latency
 *                                  on many cores) or the default
 *                                  checkpoint chain (~1x total CPU)
 *   --single-pass on|off           batch consecutive same-stream
 *                                  functional cells into one stream
 *                                  pass over N simulators (default
 *                                  on; bit-identical results either
 *                                  way; shards never share a pass)
 *
 * The pre-registry per-scheme flags (--scheme/--rows/--assoc/--slots/
 * --degree/--adaptive/--reach) were deprecated in the release that
 * introduced --mech and have now been removed; passing one fails with
 * an error naming the equivalent --mech spec string.
 */

#ifndef TLBPF_BENCH_BENCH_COMMON_HH
#define TLBPF_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "run/result_sink.hh"
#include "run/sweep_engine.hh"
#include "sim/experiment.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/table_printer.hh"
#include "workload/workload_spec.hh"

namespace tlbpf::bench
{

/** Standard options shared by the figure/table binaries. */
struct BenchOptions
{
    std::uint64_t refs = kDefaultBenchRefs;
    std::string csvPath;           ///< optional machine-readable dump
    std::string jsonPath;          ///< optional JSON dump
    std::vector<std::string> apps; ///< restrict the default set
    std::vector<WorkloadSpec> workloads; ///< explicit --workload/--app
    std::vector<MechanismSpec> mechs;    ///< explicit --mech list
    unsigned threads = 1;          ///< sweep-engine worker count
    std::uint32_t shards = 1;      ///< shard fan-out per functional cell
    /** How sharded cells warm up (--shard-warmup). */
    ShardWarmup shardWarmup = ShardWarmup::Checkpoint;
    /**
     * Drain each distinct stream once for all of its mechanisms
     * (--single-pass, default on); with checkpoint warm-up a stream's
     * shards are one chain for all of its mechanisms, run on one
     * thread as a single-pass group is.  Off keeps one chain per cell.
     * Results are bit-identical in both settings.
     */
    bool singlePass = true;
};

/** The option names every bench accepts (one source of truth). */
inline std::vector<std::string>
standardBenchFlags()
{
    return {"refs",     "csv",    "json",     "apps",
            "threads",  "workload", "app",    "shards",
            "shard-warmup", "mech", "list-mechanisms",
            "single-pass"};
}

/**
 * The pre-registry per-scheme flags, removed after their one-release
 * deprecation window.  They are still *recognised* (so option parsing
 * can collect their values) but rejected with an error that names the
 * equivalent --mech spec string, instead of a bare "unknown option".
 */
inline std::vector<std::string>
removedSchemeFlags()
{
    return {"scheme", "rows",     "assoc", "slots",
            "degree", "adaptive", "reach"};
}

/** Print the mechanism registry (for --list-mechanisms) and exit 0. */
[[noreturn]] inline void
listMechanismsAndExit()
{
    std::printf("mechanism registry (use with --mech "
                "'name(key=value,...)' or a figure-legend form):\n");
    for (const MechanismEntry *entry :
         MechanismRegistry::instance().entries()) {
        std::printf("  %-8s %s\n", entry->name.c_str(),
                    entry->summary.c_str());
        if (entry->composite) {
            std::printf("           children: %zu..%zu '+'-separated "
                        "specs, e.g. %s(dp+sp)\n",
                        entry->minChildren, entry->maxChildren,
                        entry->name.c_str());
        }
        for (const MechParam &param : entry->params) {
            std::string domain;
            switch (param.kind) {
              case MechParam::Kind::UInt:
                // Appends, not one +-chain: the chained form trips a
                // GCC 12 -Wrestrict false positive when inlined.
                domain += "[";
                domain += std::to_string(param.min);
                domain += "..";
                domain += std::to_string(param.max);
                domain += "], default ";
                domain += std::to_string(param.dflt);
                break;
              case MechParam::Kind::Flag:
                domain = std::string("flag, default ") +
                         (param.dflt ? "on" : "off");
                break;
              case MechParam::Kind::Choice:
                for (const std::string &choice : param.choices)
                    domain += (domain.empty() ? "" : "|") + choice;
                domain += ", default " + param.choices.front();
                break;
            }
            std::printf("           %s=%s — %s\n", param.key.c_str(),
                        domain.c_str(), param.help.c_str());
        }
        for (const auto &[alias, target] : entry->aliases)
            std::printf("           alias %s -> %s\n", alias.c_str(),
                        target.c_str());
    }
    std::exit(0);
}

/**
 * The --mech spec string equivalent to a removed per-scheme flag
 * combination, used to make the rejection error actionable.  Without
 * --scheme the mechanism name is unknown; "<mechanism>" stands in.
 */
inline std::string
removedSchemeSpecString(const CliArgs &args)
{
    std::string spec =
        args.has("scheme") ? args.get("scheme") : "<mechanism>";
    std::string params;
    auto append = [&params](const std::string &kv) {
        params += (params.empty() ? "" : ",") + kv;
    };
    if (args.has("rows"))
        append("rows=" + args.get("rows"));
    if (args.has("assoc"))
        append("assoc=" + args.get("assoc"));
    if (args.has("slots"))
        append("slots=" + args.get("slots"));
    if (args.has("degree"))
        append("degree=" + args.get("degree"));
    if (args.has("adaptive")) {
        std::string value = args.get("adaptive");
        append(value.empty() ? "adaptive" : "adaptive=" + value);
    }
    if (args.has("reach"))
        append("reach=" + args.get("reach"));
    if (!params.empty())
        spec += "(" + params + ")";
    return spec;
}

/**
 * Fatal if any removed per-scheme flag is present, naming the --mech
 * spec string that replaces the given combination.
 */
inline void
rejectRemovedSchemeFlags(const CliArgs &args)
{
    std::string seen;
    for (const std::string &flag : removedSchemeFlags())
        if (args.has(flag))
            seen += (seen.empty() ? "--" : ", --") + flag;
    if (seen.empty())
        return;
    tlbpf_fatal(seen, ": the per-scheme flags were removed after "
                      "their deprecation window; use --mech '",
                removedSchemeSpecString(args), "'");
}

/**
 * Parse a count-valued flag with a hard range, shared by every bench
 * so the error always names the flag.  This is the one gate between
 * the int64 the CLI parses and the unsigned the options struct
 * carries: without it, garbage like `--refs -5` or `--threads -3`
 * would wrap through the unsigned cast into a huge positive count.
 */
inline std::int64_t
boundedCountFlag(const CliArgs &args, const char *flag,
                 std::int64_t min, std::int64_t max, std::int64_t dflt)
{
    std::int64_t value = args.getInt(flag, dflt);
    if (value < min || value > max)
        tlbpf_fatal("--", flag, " must be an integer in [", min, ", ",
                    max, "], got ", value);
    return value;
}

inline BenchOptions
parseBenchOptions(int argc, const char *const *argv,
                  std::vector<std::string> extra_known = {})
{
    std::vector<std::string> known = standardBenchFlags();
    for (const std::string &k : removedSchemeFlags())
        known.push_back(k);
    for (auto &k : extra_known)
        known.push_back(k);
    CliArgs args(argc, argv, known);
    rejectRemovedSchemeFlags(args);
    if (args.has("list-mechanisms"))
        listMechanismsAndExit();
    BenchOptions options;
    options.refs = static_cast<std::uint64_t>(boundedCountFlag(
        args, "refs", 1, std::numeric_limits<std::int64_t>::max(),
        static_cast<std::int64_t>(kDefaultBenchRefs)));
    options.csvPath = args.get("csv");
    options.jsonPath = args.get("json");
    if (args.has("apps"))
        options.apps = parseStringList(args.get("apps"));
    for (const std::string &spec : parseStringList(args.get("workload")))
        options.workloads.push_back(parseWorkloadOrDie(spec));
    for (const std::string &name : parseStringList(args.get("app")))
        options.workloads.push_back(parseWorkloadOrDie("app:" + name));
    if (args.has("mech"))
        options.mechs = parseMechanismListOrDie(args.get("mech"));
    // --threads 0 is the documented "use hardware concurrency"
    // spelling; anything below that is rejected, not wrapped.
    std::int64_t threads = boundedCountFlag(
        args, "threads", 0, 4096,
        static_cast<std::int64_t>(ThreadPool::defaultThreadCount()));
    options.threads = threads ? static_cast<unsigned>(threads)
                              : ThreadPool::defaultThreadCount();
    options.shards = static_cast<std::uint32_t>(
        boundedCountFlag(args, "shards", 1, 4096, 1));
    if (args.has("shard-warmup")) {
        try {
            options.shardWarmup =
                parseShardWarmup(args.get("shard-warmup"));
        } catch (const std::invalid_argument &e) {
            tlbpf_fatal(e.what());
        }
    }
    if (args.has("single-pass")) {
        std::string value = args.get("single-pass");
        if (value == "on")
            options.singlePass = true;
        else if (value == "off")
            options.singlePass = false;
        else
            tlbpf_fatal("--single-pass must be on or off, got '",
                        value, "'");
    }
    return options;
}

/** True if @p name passes the --apps filter. */
inline bool
appSelected(const BenchOptions &options, const std::string &name)
{
    return options.apps.empty() ||
           std::find(options.apps.begin(), options.apps.end(), name) !=
               options.apps.end();
}

/**
 * The workload list a bench should sweep: the explicit --workload /
 * --app list when one was given, otherwise the bench's default app
 * names (filtered by --apps) as registry-app specs.
 */
inline std::vector<WorkloadSpec>
selectedWorkloads(const BenchOptions &options,
                  const std::vector<std::string> &default_apps)
{
    if (!options.workloads.empty())
        return options.workloads;
    std::vector<WorkloadSpec> workloads;
    workloads.reserve(default_apps.size());
    for (const std::string &name : default_apps)
        if (appSelected(options, name))
            workloads.push_back(WorkloadSpec::app(name));
    return workloads;
}

/**
 * The mechanism list a bench should sweep: the explicit --mech list
 * when one was given, otherwise the bench's default specs.
 */
inline std::vector<MechanismSpec>
selectedMechanisms(const BenchOptions &options,
                   std::vector<MechanismSpec> default_specs)
{
    return options.mechs.empty() ? std::move(default_specs)
                                 : options.mechs;
}

/** selectedMechanisms() over a table of default spec strings. */
inline std::vector<MechanismSpec>
selectedMechanisms(const BenchOptions &options,
                   const std::vector<std::string> &default_specs)
{
    if (!options.mechs.empty())
        return options.mechs;
    std::vector<MechanismSpec> specs;
    specs.reserve(default_specs.size());
    for (const std::string &text : default_specs)
        specs.push_back(parseMechanismOrDie(text));
    return specs;
}

/**
 * Display names for a mechanism list: the compact shortName() (the
 * paper's column headers) while unambiguous, the full figure-legend
 * label() as soon as two specs share a shortName — so
 * `--mech 'DP,256,D,DP,512,D'` yields distinguishable columns.
 */
inline std::vector<std::string>
mechanismColumnLabels(const std::vector<MechanismSpec> &specs)
{
    std::vector<std::string> names;
    names.reserve(specs.size());
    for (const MechanismSpec &spec : specs)
        names.push_back(spec.shortName());
    for (std::size_t i = 0; i < names.size(); ++i)
        for (std::size_t j = i + 1; j < names.size(); ++j)
            if (names[i] == names[j]) {
                names.clear();
                for (const MechanismSpec &spec : specs)
                    names.push_back(spec.label());
                return names;
            }
    return names;
}

/** Registry-model overload of selectedWorkloads(). */
inline std::vector<WorkloadSpec>
selectedWorkloads(const BenchOptions &options,
                  const std::vector<const AppModel *> &default_apps)
{
    std::vector<std::string> names;
    names.reserve(default_apps.size());
    for (const AppModel *app : default_apps)
        names.push_back(app->name);
    return selectedWorkloads(options, names);
}

/**
 * The machine-readable sinks requested on the command line (--csv,
 * --json), with no header set yet; empty() if neither was given.
 */
inline MultiSink
recordSinks(const BenchOptions &options)
{
    MultiSink sinks;
    if (!options.csvPath.empty())
        sinks.add(std::make_unique<CsvSink>(options.csvPath));
    if (!options.jsonPath.empty())
        sinks.add(std::make_unique<JsonSink>(options.jsonPath));
    return sinks;
}

/**
 * Run @p jobs on an engine with options.threads workers, applying the
 * --shards map/reduce (each functional cell fans out into
 * options.shards merged shard jobs, warmed per --shard-warmup), and
 * converting a malformed-job exception into the clean fatal exit the
 * bench binaries document (reachable via an unknown app or a bad
 * trace path; --refs 0 is already rejected at the flag).  Returns
 * one result per entry of @p jobs.
 */
inline std::vector<SweepResult>
runBatch(const BenchOptions &options, const std::vector<SweepJob> &jobs)
{
    try {
        Plan plan = makePlan(jobs, options.shards, options.shardWarmup,
                             options.singlePass ? PassMode::SinglePass
                                                : PassMode::PerMechanism);
        // No point spinning up more workers than the plan has tasks
        // (a single-pass group or a checkpoint chain is one task).
        std::size_t tasks = std::max<std::size_t>(plan.tasks().size(), 1);
        if (options.shardWarmup == ShardWarmup::Checkpoint &&
            options.shards > 1 && tasks < options.threads) {
            // Chaining trades replay's wall-clock fan-out for ~1x
            // total CPU; with fewer tasks than workers that trade is
            // worth flagging so nobody waits on a silently-serial
            // giant chain.
            std::fprintf(stderr,
                         "note: checkpoint warm-up chains the "
                         "shards of each stream (each cell with "
                         "--single-pass off) into one task (%zu task%s "
                         "for --threads %u); use --shard-warmup "
                         "replay to trade ~(N+1)/2x total CPU for "
                         "wall-clock fan-out of few large cells\n",
                         tasks, tasks == 1 ? "" : "s",
                         options.threads);
        }
        SweepEngine engine(static_cast<unsigned>(
            std::min<std::size_t>(options.threads, tasks)));
        return engine.run(plan);
    } catch (const std::invalid_argument &e) {
        tlbpf_fatal(e.what());
    }
}

/**
 * Guard for the benches whose cells run whole streams outside the
 * SweepJob machinery (distance_stats, ablation_indexing,
 * ablation_two_level): they cannot window counters, so a shard
 * suffix or --shards would be silently ignored while still labelling
 * the output — fatal instead.
 */
inline void
requireUnshardedWorkloads(const BenchOptions &options,
                          const std::vector<WorkloadSpec> &workloads,
                          const char *bench)
{
    if (options.shards > 1)
        tlbpf_fatal(bench, " runs whole streams and does not support "
                           "--shards");
    for (const WorkloadSpec &workload : workloads)
        if (workload.sharded())
            tlbpf_fatal(bench, " runs whole streams and does not "
                               "support sharded workload '",
                        workload.label(), "'");
}

/**
 * Render a completed workload × spec accuracy grid: the table shows
 * accuracy per (workload, spec) cell, and @p records (if non-empty)
 * receives long-format (workload, mechanism, accuracy, miss_rate)
 * rows.  @p results is workload-major (the submission order every
 * grid batch uses).  Shared by the figure benches and tlbpf-client,
 * which is what makes the client's --csv/--json output byte-identical
 * to the direct CLI path.
 */
inline void
renderAccuracyGrid(const std::string &caption,
                   const std::vector<WorkloadSpec> &workloads,
                   const std::vector<MechanismSpec> &specs,
                   const std::vector<SweepResult> &results,
                   MultiSink &records)
{
    std::vector<std::string> header = {"workload"};
    for (const MechanismSpec &spec : specs)
        header.push_back(spec.label());
    TableSink table(caption);
    table.header(header);

    if (!records.empty())
        records.header({"workload", "mechanism", "accuracy",
                        "miss_rate"});

    std::size_t cell = 0;
    for (const WorkloadSpec &workload : workloads) {
        std::vector<std::string> row = {workload.label()};
        for (const MechanismSpec &spec : specs) {
            const SweepResult &r = results[cell++];
            row.push_back(TablePrinter::num(r.accuracy(), 3));
            if (!records.empty())
                records.row({r.workload, spec.label(),
                             TablePrinter::num(r.accuracy(), 6),
                             TablePrinter::num(r.missRate(), 6)});
        }
        table.row(row);
    }
    table.finish();
    records.finish();
}

/**
 * Print one figure-style "bar group" row per workload: the full
 * workload × spec grid runs as one engine batch, the table shows
 * accuracy per (workload, spec) cell, and --csv/--json receive
 * long-format (workload, mechanism, accuracy, miss_rate) records.
 */
inline void
printAccuracyFigure(const std::string &caption,
                    const std::vector<WorkloadSpec> &workloads,
                    const std::vector<MechanismSpec> &specs,
                    const BenchOptions &options)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(workloads.size() * specs.size());
    for (const WorkloadSpec &workload : workloads)
        for (const MechanismSpec &spec : specs)
            jobs.push_back(SweepJob::functional(workload, spec,
                                                options.refs));
    std::vector<SweepResult> results = runBatch(options, jobs);

    MultiSink records = recordSinks(options);
    renderAccuracyGrid(caption, workloads, specs, results, records);
}

} // namespace tlbpf::bench

#endif // TLBPF_BENCH_BENCH_COMMON_HH
