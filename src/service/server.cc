#include "service/server.hh"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <stdexcept>
#include <sys/socket.h>
#include <utility>

#include "service/store_util.hh"

namespace tlbpf
{

namespace
{

/** "<root>/<name>", creating <root>; "" stays "" (memory-only). */
std::string
storeSubdir(const std::string &root, const char *name)
{
    if (root.empty())
        return "";
    ensureDirectory(root);
    return root + "/" + name;
}

CellReply
makeReply(std::size_t index, const SweepResult &result, bool cached)
{
    CellReply reply;
    reply.index = index;
    reply.workload = result.workload;
    reply.mechanism = result.mechanism;
    reply.mode = result.mode;
    reply.cached = cached;
    reply.counters = result.functional;
    reply.timed = result.timed;
    return reply;
}

DispatcherOptions
dispatcherOptions(const ServerOptions &options)
{
    DispatcherOptions out;
    out.leaseTimeoutMs =
        options.leaseTimeoutMs ? options.leaseTimeoutMs : 1;
    return out;
}

} // namespace

SweepServer::SweepServer(const ServerOptions &options)
    : _options(options), _engine(options.threads),
      _cache(options.cacheCapacity,
             storeSubdir(options.cacheDir, "cells")),
      _checkpoints(storeSubdir(options.cacheDir, "checkpoints"),
                   options.checkpointCapacity),
      _dispatcher(_engine, dispatcherOptions(options))
{
    _engine.setCheckpointHook(&_checkpoints);
    if (!options.cacheDir.empty()) {
        _storeDirs.push_back(options.cacheDir + "/cells");
        _storeDirs.push_back(options.cacheDir + "/checkpoints");
    }
    evictStores(); // a restart honours the budget before serving

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options.port);
    if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) !=
        1)
        throw std::invalid_argument(
            "'" + options.host +
            "' is not a dotted-quad IPv4 address");

    int raw = ::socket(AF_INET, SOCK_STREAM, 0);
    if (raw < 0)
        throw TransportError(std::string("cannot create socket: ") +
                             std::strerror(errno));
    OwnedFd sock(raw);
    int one = 1;
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    if (::bind(sock.fd(), reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        throw TransportError("cannot bind " + options.host + ":" +
                             std::to_string(options.port) + ": " +
                             std::strerror(errno));
    if (::listen(sock.fd(), 16) != 0)
        throw TransportError(std::string("cannot listen: ") +
                             std::strerror(errno));
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(sock.fd(), reinterpret_cast<sockaddr *>(&bound),
                      &bound_len) != 0)
        throw TransportError(std::string("getsockname failed: ") +
                             std::strerror(errno));
    _port = ntohs(bound.sin_port);
    _listen = std::move(sock);
}

SweepServer::~SweepServer()
{
    _stop.store(true);
    reapSessions(/*all=*/true);
}

void
SweepServer::reapSessions(bool all)
{
    std::list<std::unique_ptr<Session>> finished;
    {
        std::lock_guard<std::mutex> lock(_sessionsMutex);
        for (auto it = _sessions.begin(); it != _sessions.end();) {
            if (all || (*it)->done.load()) {
                if (all)
                    // Kick a session blocked in read(); its loop sees
                    // the dead socket and unwinds (a worker's leases
                    // are reclaimed on the way out).
                    ::shutdown((*it)->fd.fd(), SHUT_RDWR);
                finished.push_back(std::move(*it));
                it = _sessions.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (auto &session : finished)
        if (session->thread.joinable())
            session->thread.join();
}

void
SweepServer::serve()
{
    while (!_stop.load()) {
        pollfd waiter{};
        waiter.fd = _listen.fd();
        waiter.events = POLLIN;
        int readable = ::poll(&waiter, 1, 200);
        reapSessions(/*all=*/false);
        if (readable <= 0) {
            if (readable < 0 && errno != EINTR && errno != EAGAIN)
                throw TransportError(std::string("poll failed: ") +
                                     std::strerror(errno));
            continue;
        }
        int fd = ::accept(_listen.fd(), nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED ||
                errno == EAGAIN)
                continue;
            throw TransportError(std::string("accept failed: ") +
                                 std::strerror(errno));
        }
        OwnedFd conn(fd);

        std::lock_guard<std::mutex> lock(_sessionsMutex);
        if (_sessions.size() >= _options.maxClients) {
            // Shed instead of letting the connection queue silently:
            // the peer learns why immediately.
            _shedded.fetch_add(1);
            try {
                writeFrame(conn.fd(),
                           encodeError(
                               "server at capacity (" +
                               std::to_string(_options.maxClients) +
                               " sessions; --max-clients)"));
            } catch (const TransportError &) {
            }
            continue;
        }
        auto session = std::make_unique<Session>();
        session->fd = std::move(conn);
        Session *raw_session = session.get();
        session->thread = std::thread([this, raw_session] {
            handleConnection(raw_session->fd.fd());
            raw_session->done.store(true);
        });
        _sessions.push_back(std::move(session));
    }
    reapSessions(/*all=*/true);
}

void
SweepServer::handleConnection(int fd)
{
    try {
        JsonValue message;
        std::string type;
        while (readMessage(fd, message, type)) {
            if (type == "ping") {
                writeFrame(fd, "{\"type\":\"pong\"}");
            } else if (type == "stats") {
                writeFrame(fd, stats().encode());
            } else if (type == "shutdown") {
                writeFrame(fd, "{\"type\":\"bye\"}");
                _stop.store(true);
                return;
            } else if (type == "sweep") {
                handleSweep(fd, message);
            } else if (type == "worker_hello") {
                handleWorker(fd, message);
                return; // the whole session was the worker loop
            } else {
                throw std::invalid_argument(
                    "unknown request type '" + type + "'");
            }
        }
    } catch (const std::invalid_argument &e) {
        // Hostile or malformed input: answer with the reason
        // (best-effort) and drop only this connection.
        try {
            writeFrame(fd, encodeError(e.what()));
        } catch (const TransportError &) {
        }
    } catch (const TransportError &) {
        // The peer vanished; nothing left to answer.
    }
}

void
SweepServer::handleWorker(int fd, const JsonValue &hello_message)
{
    WorkerHello hello = WorkerHello::decode(hello_message);
    std::uint64_t id = _dispatcher.registerWorker(hello.threads);
    try {
        WorkerWelcome welcome;
        welcome.worker = id;
        // Several refreshes fit in one lease window, so a single
        // delayed heartbeat never costs a healthy worker its lease.
        welcome.heartbeatMs =
            std::max<std::uint64_t>(1, _options.leaseTimeoutMs / 4);
        writeFrame(fd, welcome.encode());
        workerLoop(fd, id);
    } catch (...) {
        // Connection gone or worker misbehaved: its leases re-run
        // locally, the batch never notices beyond latency.
        _dispatcher.unregisterWorker(id);
        throw;
    }
    _dispatcher.unregisterWorker(id);
}

void
SweepServer::workerLoop(int fd, std::uint64_t worker)
{
    JsonValue message;
    std::string type;
    while (readMessage(fd, message, type)) {
        if (type == "lease") {
            if (decodeLeaseRequest(message) != worker)
                throw std::invalid_argument(
                    "lease names a different worker id");
            LeaseGrant grant;
            if (_dispatcher.lease(worker, grant))
                writeFrame(fd, grant.encode());
            else
                writeFrame(fd, encodeLeaseIdle());
        } else if (type == "heartbeat") {
            // One-way by contract: no reply, so the worker's
            // heartbeat thread never races its main reader.
            if (decodeHeartbeat(message) != worker)
                throw std::invalid_argument(
                    "heartbeat names a different worker id");
            _dispatcher.heartbeat(worker);
        } else if (type == "cell_result") {
            CellResultMsg result = CellResultMsg::decode(message);
            bool accepted = false;
            if (result.failed())
                _dispatcher.failLease(result.lease);
            else
                accepted = _dispatcher.completeLease(
                    result.lease, std::move(result.results));
            writeFrame(fd, encodeResultAck(accepted));
        } else {
            throw std::invalid_argument(
                "unexpected verb '" + type + "' on a worker session");
        }
    }
}

void
SweepServer::handleSweep(int fd, const JsonValue &message)
{
    SweepRequest request = SweepRequest::decode(message);
    std::vector<SweepJob> jobs = request.expand();
    _requests.fetch_add(1);
    _cells.fetch_add(jobs.size());

    std::size_t n = jobs.size();
    // The batch header goes out before the batch lock: a client
    // queued behind another batch sees its request was accepted
    // instead of a silent stall.
    writeFrame(fd, encodeBatch(n));

    // One client batch at a time: the lookup + run + fill span is
    // atomic w.r.t. other clients, so overlapping grids account
    // their shared cells exactly (second batch hits what the first
    // filled).  Worker traffic does NOT take this mutex — remote
    // progress happens inside this span.
    std::lock_guard<std::mutex> batch_lock(_batchMutex);

    std::vector<std::string> keys(n);
    std::vector<SweepResult> results(n);
    std::vector<char> ready(n, 0);
    std::vector<char> cached(n, 0);
    std::vector<SweepJob> pending;
    std::vector<std::size_t> pending_index;
    for (std::size_t i = 0; i < n; ++i) {
        keys[i] = cellKey(jobs[i]);
        if (_cache.lookup(keys[i], results[i])) {
            ready[i] = 1;
            cached[i] = 1;
        } else {
            pending.push_back(jobs[i]);
            pending_index.push_back(i);
        }
    }

    bool broken = false;
    std::size_t next = 0;
    auto emitReady = [&]() {
        while (next < n && ready[next]) {
            if (!broken) {
                try {
                    writeFrame(fd, makeReply(next, results[next],
                                             cached[next] != 0)
                                       .encode());
                } catch (const TransportError &) {
                    // The client vanished mid-stream.  Keep running:
                    // the batch's results still populate the cache,
                    // so the retry is (mostly) free.
                    broken = true;
                }
            }
            ++next;
        }
    };
    emitReady();

    if (!pending.empty()) {
        // Invoked serialized and in submission order by the engine
        // (ResultCallback contract), so `next`/`ready` need no lock.
        auto on_result = [&](std::size_t sub,
                             const SweepResult &result) {
            std::size_t i = pending_index[sub];
            results[i] = result;
            _cache.insert(keys[i], result);
            ready[i] = 1;
            emitReady();
        };
        // With no workers registered this is exactly the engine's
        // own run(plan); with workers, the same tasks are leased out
        // and reintegrated in the same stream order.
        _dispatcher.runBatch(makePlan(pending, request.shards,
                                      request.shardWarmup,
                                      request.passMode),
                             on_result);
    }

    evictStores();

    if (broken)
        throw TransportError("client disconnected mid-stream");
    DoneReply done;
    done.cells = n;
    done.simulated = pending.size();
    done.cacheHits = n - pending.size();
    writeFrame(fd, done.encode());
}

void
SweepServer::evictStores()
{
    if (_storeDirs.empty() ||
        (_options.storeMaxBytes == 0 && _options.storeTtlSeconds == 0))
        return;
    EvictStats swept = evictStaleStoreFiles(
        _storeDirs, _options.storeMaxBytes, _options.storeTtlSeconds);
    _storeEvictedFiles.fetch_add(swept.files);
    _storeEvictedBytes.fetch_add(swept.bytes);
}

StatsReply
SweepServer::stats() const
{
    ResultCache::Stats cache = _cache.stats();
    Dispatcher::Counters fleet = _dispatcher.counters();
    StatsReply reply;
    reply.requests = _requests.load();
    reply.cells = _cells.load();
    reply.cacheHits = cache.hits;
    reply.cacheMisses = cache.misses;
    reply.cacheEvictions = cache.evictions;
    reply.cacheEntries = cache.entries;
    reply.cacheCapacity = cache.capacity;
    reply.checkpointsStored = _checkpoints.stored();
    reply.checkpointsLoaded = _checkpoints.loaded();
    reply.workers = fleet.workers;
    reply.leasesGranted = fleet.leasesGranted;
    reply.leaseReclaims = fleet.leaseReclaims;
    reply.cellsDispatched = fleet.cellsDispatched;
    reply.storeEvictedFiles = _storeEvictedFiles.load();
    reply.storeEvictedBytes = _storeEvictedBytes.load();
    return reply;
}

} // namespace tlbpf
