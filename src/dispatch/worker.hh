/**
 * @file
 * The pull side of the dispatch subsystem: a DispatchWorker connects
 * to a tlbpf-server, registers with worker_hello, and then loops —
 * lease, simulate, cell_result — on its own SweepEngine until told to
 * stop.  One background thread sends one-way heartbeats so a lease
 * held across a long cell is never reclaimed while the worker is
 * merely busy; the main thread is the only frame *reader*, so replies
 * never interleave.
 *
 * runLease() lowers each grant back into the server's tasks: a chain
 * (one cell's shards) is one stream pass, each shard warmed from its
 * predecessor's snapshot, and with a --cache-dir shared with the
 * server every boundary lands in the checkpoint store; a single-pass
 * group is one stream pass for all its mechanisms; a block of cells
 * fans out across the worker engine's pool.  The counters are the
 * engine's own, so a leased cell is bit-identical to a local one.
 *
 * A cell the worker cannot run (e.g. a trace path that only exists on
 * the server's filesystem) is answered with a cell_result error frame
 * and the server requeues it local-only.  A lost connection triggers
 * reconnect-with-backoff; the server reclaims the dead session's
 * leases immediately, so a kill -9 mid-lease costs latency, never a
 * batch.
 */

#ifndef TLBPF_DISPATCH_WORKER_HH
#define TLBPF_DISPATCH_WORKER_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "dispatch/dispatch_protocol.hh"
#include "run/sweep_engine.hh"
#include "service/checkpoint_store.hh"

namespace tlbpf
{

struct DispatchWorkerOptions
{
    std::string host = "127.0.0.1";
    std::uint16_t port = kDefaultServicePort;
    unsigned threads = 1; ///< worker engine width (0 = hardware)
    /** Shared persistence root (same layout as the server's). */
    std::string cacheDir;
    std::size_t checkpointCapacity = 256;
    std::uint64_t idlePollMs = 20;   ///< sleep between idle leases
    std::uint64_t reconnectMs = 500; ///< backoff between connects
    /** Give up after this many failed connects in a row (0 = never). */
    std::uint64_t maxReconnectAttempts = 0;
};

/**
 * Run @p grant on @p engine as a worker does (a chain through
 * makeChainPlan(), anything else single-pass) and answer it: one
 * result per job, or the error that stopped it.
 */
CellResultMsg runLease(SweepEngine &engine, const LeaseGrant &grant);

class DispatchWorker
{
  public:
    explicit DispatchWorker(const DispatchWorkerOptions &options);

    /**
     * Serve until requestStop() — connect, register, pull leases;
     * reconnect with backoff whenever the server goes away.  Returns
     * normally on stop, throws TransportError only when the connect
     * retry budget (maxReconnectAttempts) is exhausted.
     */
    void run();

    /**
     * End run() soon: async-signal-safe (atomic flag + shutdown(2) on
     * the live socket, both signal-safe), so it pairs with SIGTERM.
     */
    void requestStop();

    /** Cells whose results the server accepted. */
    std::uint64_t cellsCompleted() const { return _cells.load(); }

    /** Results the server discarded (lease expired/reclaimed). */
    std::uint64_t cellsDiscarded() const { return _discarded.load(); }

    /** Leases answered, accepted or not. */
    std::uint64_t leasesCompleted() const { return _leases.load(); }

    /** Sessions established (minus one = reconnects). */
    std::uint64_t sessions() const { return _sessions.load(); }

  private:
    /** One connection's lifetime; returns when it ends or on stop. */
    void session(int fd);

    DispatchWorkerOptions _options;
    SweepEngine _engine;
    CheckpointStore _checkpoints;
    std::atomic<bool> _stop{false};
    std::atomic<int> _activeFd{-1};
    std::atomic<std::uint64_t> _cells{0};
    std::atomic<std::uint64_t> _discarded{0};
    std::atomic<std::uint64_t> _leases{0};
    std::atomic<std::uint64_t> _sessions{0};
};

} // namespace tlbpf

#endif // TLBPF_DISPATCH_WORKER_HH
