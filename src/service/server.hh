/**
 * @file
 * The tlbpf sweep service: a loopback TCP daemon that runs sweep
 * batches on a shared SweepEngine behind a persistent ResultCache and
 * CheckpointStore, and fans batch cells out to registered
 * tlbpf-worker processes through the dispatch subsystem.
 *
 * Concurrency model: the accept loop is a 200ms poll() tick that
 * spawns one session thread per connection (bounded by
 * --max-clients; excess connections get an "error" frame and are
 * closed instead of silently queueing in the backlog).  Client
 * *batches* still run one at a time — a mutex serializes the
 * cache-lookup + run + cache-fill span, which is what keeps a repeat
 * sweep bit-identical and two concurrent clients' shared-cache
 * accounting exact — but worker sessions bypass that mutex entirely:
 * lease, heartbeat and cell_result verbs land directly on the
 * Dispatcher, which is how remote workers make progress *inside*
 * another connection's batch.  A worker's lease may be held in the
 * Dispatcher until work is queued (see dispatch_protocol.hh); a stop
 * closes the Dispatcher first, so no held lease delays it.  Sessions
 * keep Nagle: every frame is one write and every server write on a
 * worker session answers a worker message, so a request/reply
 * exchange does not stall on it.
 *
 * Failure policy mirrors the engine's: a malformed request gets an
 * "error" frame and only that connection is dropped (a worker's
 * leases are reclaimed and re-run locally); a client that vanishes
 * mid-stream (TransportError) aborts its stream but the in-flight
 * batch still completes and populates the cache; the server keeps
 * serving in both cases.  requestStop() (async-signal-safe) or a
 * "shutdown" request ends the accept loop — in-flight batches always
 * drain before serve() returns.
 *
 * Disk stores: with --store-max-bytes / --store-ttl set, the cell and
 * checkpoint directories are swept (oldest mtime first, shared
 * budget) at startup and after every sweep; reads touch their file's
 * mtime, so the sweep is an LRU over both stores together.
 */

#ifndef TLBPF_SERVICE_SERVER_HH
#define TLBPF_SERVICE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dispatch/dispatcher.hh"
#include "run/sweep_engine.hh"
#include "service/checkpoint_store.hh"
#include "service/protocol.hh"
#include "service/result_cache.hh"

namespace tlbpf
{

struct ServerOptions
{
    std::string host = "127.0.0.1"; ///< dotted-quad bind address
    std::uint16_t port = kDefaultServicePort; ///< 0 = ephemeral
    unsigned threads = 0;          ///< engine workers; 0 = hardware
    std::size_t cacheCapacity = 4096; ///< result-cache LRU bound
    std::size_t checkpointCapacity = 256; ///< snapshot LRU bound
    std::string cacheDir; ///< persistence root; empty = memory only
    std::size_t maxClients = 64; ///< concurrent sessions; excess shed
    std::uint64_t leaseTimeoutMs = 2000; ///< worker-lease reclaim window
    std::uint64_t storeMaxBytes = 0; ///< disk budget; 0 = unbounded
    std::uint64_t storeTtlSeconds = 0; ///< disk entry TTL; 0 = none
};

class SweepServer
{
  public:
    /**
     * Bind and listen.  Throws std::invalid_argument on a bad host or
     * an unusable cache directory, TransportError when the socket
     * cannot be bound.  With port 0 the kernel picks a free port —
     * read it back via port().
     */
    explicit SweepServer(const ServerOptions &options);

    ~SweepServer();

    /** The actually-bound port (resolves an ephemeral request). */
    std::uint16_t port() const { return _port; }

    /**
     * Accept-and-serve until requestStop() or a "shutdown" request.
     * Runs the accept loop on the calling thread; sessions run on
     * their own threads and are joined before this returns.
     */
    void serve();

    /**
     * Stop serve() at its next poll tick (<= ~200ms).  Async-signal-
     * safe: safe to call from a SIGINT or SIGTERM handler.
     */
    void requestStop() { _stop.store(true); }

    /** Server-lifetime counters (also the "stats" reply). */
    StatsReply stats() const;

  private:
    struct Session
    {
        OwnedFd fd;
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void handleConnection(int fd);
    void handleSweep(int fd, const JsonValue &message);
    void handleWorker(int fd, const JsonValue &hello_message);
    void workerLoop(int fd, std::uint64_t worker);
    /** Apply --store-max-bytes/--store-ttl to the disk stores. */
    void evictStores();
    /** Join (and drop) finished session threads. */
    void reapSessions(bool all);

    ServerOptions _options;
    OwnedFd _listen;
    std::uint16_t _port = 0;
    SweepEngine _engine;
    ResultCache _cache;
    CheckpointStore _checkpoints;
    Dispatcher _dispatcher;
    std::vector<std::string> _storeDirs; ///< on-disk store roots
    std::mutex _batchMutex; ///< one client batch at a time
    std::mutex _sessionsMutex;
    std::list<std::unique_ptr<Session>> _sessions;
    std::atomic<bool> _stop{false};
    std::atomic<std::uint64_t> _requests{0}; ///< sweep batches handled
    std::atomic<std::uint64_t> _cells{0}; ///< cells answered in total
    std::atomic<std::uint64_t> _shedded{0}; ///< connections refused
    std::atomic<std::uint64_t> _storeEvictedFiles{0};
    std::atomic<std::uint64_t> _storeEvictedBytes{0};
};

} // namespace tlbpf

#endif // TLBPF_SERVICE_SERVER_HH
