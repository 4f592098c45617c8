/**
 * @file
 * The tlbpf benchmark program.  One run measures one workload:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--root <checkout>]
 *   perfbench --write-expected     regenerate perfbench/expected.tsv
 *
 * Human-readable lines go first; the last line of standard output is
 * the JSON result {"correct","attempted","failed","metrics"}.  With
 * --trace 0 the metrics are the end-to-end ones, measured untraced;
 * with --trace 1 they are the per-layer ones from the traced run.
 */

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <malloc.h>
#include <string>
#include <unistd.h>

#include "bench.hh"

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--root DIR]\n"
                 "       perfbench --write-expected\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    // One malloc arena: with glibc's per-thread arenas the fleet's peak
    // RSS depended on thread timing (36-66 MiB across runs of one seed).
    ::mallopt(M_ARENA_MAX, 1);
    perfbench::Options options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--write-expected") {
            std::fputs(perfbench::writeExpected().c_str(), stdout);
            return 0;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                options.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                options.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                options.seconds = std::stod(value);
            } else if (flag == "--trace") {
                options.trace = value == "1";
            } else if (flag == "--root") {
                options.root = value;
            } else {
                usage(("unknown option " + flag).c_str());
            }
        } catch (const std::exception &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    const auto &names = perfbench::workloadNames();
    if (std::find(names.begin(), names.end(), options.workload) ==
        names.end())
        usage(("unknown workload " + options.workload).c_str());
    if (!(options.seconds > 0))
        usage("--seconds must be positive");

    options.scratch = options.root + "/.bench_build/tmp/" +
                      std::to_string(::getpid());
    std::filesystem::remove_all(options.scratch);
    std::filesystem::create_directories(options.scratch);
    int status = 0;
    try {
        perfbench::Report report = perfbench::runWorkload(options);
        for (const std::string &note : report.notes)
            std::printf("%s\n", note.c_str());
        for (const auto &[name, metric] : report.metrics)
            std::printf("%-32s %.6g %s\n", name.c_str(), metric.value,
                        metric.unit.c_str());
        for (const std::string &failure : report.failures)
            std::fprintf(stderr, "check failed: %s\n", failure.c_str());
        std::printf("%s\n", report.json().c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        status = 1;
    }
    std::fflush(stdout);
    std::filesystem::remove_all(options.scratch);
    return status;
}
