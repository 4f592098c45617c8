/**
 * @file
 * tlbpf-worker: a dispatch-fleet worker process.  Connects to a
 * tlbpf-server, registers over the worker verbs, and pulls sweep
 * cells on lease until stopped — the horizontal-scaling half of the
 * sweep service (see src/dispatch/).
 *
 *   tlbpf-worker [--host 127.0.0.1] [--port 7733] [--threads N]
 *                [--cache-dir DIR] [--reconnect-ms N]
 *                [--max-reconnects N]
 *
 * --cache-dir should name the same directory the server persists to:
 * the worker then warms chained shard cells from checkpoints the
 * server (or other workers) already deposited, and deposits the
 * boundaries it crosses.  An idle worker does not poll: the server
 * holds its lease request until work is queued.  The worker
 * reconnects with backoff when the server goes away or refuses it
 * (--max-reconnects 0 = keep trying forever; otherwise it exits
 * naming the reason after that many attempts in a row);
 * SIGINT/SIGTERM exit cleanly, printing the lifetime counters.
 */

#include <arpa/inet.h>
#include <csignal>
#include <cstdio>

#include "bench_common.hh"
#include "dispatch/worker.hh"
#include "service/store_util.hh"

namespace
{

tlbpf::DispatchWorker *g_worker = nullptr;

void
onStopSignal(int)
{
    if (g_worker)
        g_worker->requestStop();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tlbpf;

    CliArgs args(argc, argv,
                 {"host", "port", "threads", "cache-dir",
                  "reconnect-ms", "max-reconnects"});
    DispatchWorkerOptions options;
    options.host = args.get("host", "127.0.0.1");
    sockaddr_in probe{};
    if (::inet_pton(AF_INET, options.host.c_str(), &probe.sin_addr) !=
        1)
        tlbpf_fatal("--host must be a dotted-quad IPv4 address, "
                    "got '",
                    options.host, "'");
    options.port = static_cast<std::uint16_t>(bench::boundedCountFlag(
        args, "port", 1, 65535,
        static_cast<std::int64_t>(kDefaultServicePort)));
    // --threads 0 is the engine's "use hardware concurrency".
    options.threads = static_cast<unsigned>(
        bench::boundedCountFlag(args, "threads", 0, 4096, 1));
    options.reconnectMs = static_cast<std::uint64_t>(
        bench::boundedCountFlag(args, "reconnect-ms", 1, 600000, 500));
    options.maxReconnectAttempts = static_cast<std::uint64_t>(
        bench::boundedCountFlag(args, "max-reconnects", 0,
                                std::int64_t(1) << 40, 0));
    options.cacheDir = args.get("cache-dir");
    if (!options.cacheDir.empty()) {
        try {
            ensureDirectory(options.cacheDir);
        } catch (const std::invalid_argument &e) {
            tlbpf_fatal("--cache-dir: ", e.what());
        }
    }

    try {
        DispatchWorker worker(options);
        g_worker = &worker;
        // No SA_RESTART: requestStop() also shuts the live socket
        // down, so a blocked read unwinds promptly either way.
        struct sigaction action
        {
        };
        action.sa_handler = onStopSignal;
        sigemptyset(&action.sa_mask);
        sigaction(SIGINT, &action, nullptr);
        sigaction(SIGTERM, &action, nullptr);

        std::fprintf(
            stderr,
            "tlbpf-worker serving %s:%u (threads=%u%s%s)\n",
            options.host.c_str(), options.port,
            options.threads ? options.threads
                            : ThreadPool::defaultThreadCount(),
            options.cacheDir.empty() ? "" : ", cache-dir=",
            options.cacheDir.c_str());
        worker.run();

        std::fprintf(
            stderr,
            "tlbpf-worker exiting: %llu cells completed, "
            "%llu discarded, %llu leases, %llu sessions\n",
            static_cast<unsigned long long>(worker.cellsCompleted()),
            static_cast<unsigned long long>(worker.cellsDiscarded()),
            static_cast<unsigned long long>(worker.leasesCompleted()),
            static_cast<unsigned long long>(worker.sessions()));
        g_worker = nullptr;
    } catch (const std::exception &e) {
        tlbpf_fatal(e.what());
    }
    return 0;
}
