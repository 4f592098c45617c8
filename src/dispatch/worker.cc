#include "dispatch/worker.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <netinet/in.h>
#include <stdexcept>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

namespace tlbpf
{

namespace
{

/** "<root>/checkpoints" (the server's layout); "" = memory only. */
std::string
checkpointSubdir(const std::string &root)
{
    return root.empty() ? "" : root + "/checkpoints";
}

int
connectTo(const std::string &host, std::uint16_t port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        throw std::invalid_argument(
            "'" + host + "' is not a dotted-quad IPv4 address");
    int raw = ::socket(AF_INET, SOCK_STREAM, 0);
    if (raw < 0)
        throw TransportError(std::string("cannot create socket: ") +
                             std::strerror(errno));
    OwnedFd sock(raw);
    if (::connect(sock.fd(), reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        return -1; // retryable; the caller backs off
    return sock.release();
}

/**
 * The heartbeat sender: a tiny thread that shares the socket's
 * *write* side (under a mutex) with the session loop.  One-way by
 * design — the session loop stays the only reader, so a heartbeat
 * can never swallow a lease reply.
 */
class HeartbeatThread
{
  public:
    HeartbeatThread(int fd, std::mutex &write_mutex,
                    std::uint64_t worker, std::uint64_t interval_ms)
        : _fd(fd), _writeMutex(write_mutex),
          _frame(encodeHeartbeat(worker)),
          _interval(interval_ms ? interval_ms : 1)
    {
        _thread = std::thread([this] { loop(); });
    }

    ~HeartbeatThread()
    {
        {
            std::lock_guard<std::mutex> lock(_mutex);
            _done = true;
        }
        _cv.notify_all();
        _thread.join();
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(_mutex);
        while (!_done) {
            _cv.wait_for(lock, std::chrono::milliseconds(_interval));
            if (_done)
                return;
            lock.unlock();
            try {
                std::lock_guard<std::mutex> write(_writeMutex);
                writeFrame(_fd, _frame);
            } catch (const TransportError &) {
                // The session loop will hit the dead socket itself.
            }
            lock.lock();
        }
    }

    int _fd;
    std::mutex &_writeMutex;
    std::string _frame;
    std::uint64_t _interval;
    std::mutex _mutex;
    std::condition_variable _cv;
    bool _done = false;
    std::thread _thread;
};

} // namespace

CellResultMsg
runLease(SweepEngine &engine, const LeaseGrant &grant)
{
    CellResultMsg answer;
    answer.lease = grant.lease;
    try {
        answer.results = engine.run(
            grant.chain ? makeChainPlan(grant.jobs)
                        : makePlan(grant.jobs, 1, ShardWarmup::Checkpoint,
                                   PassMode::SinglePass));
    } catch (const std::exception &e) {
        // E.g. a trace file that only exists server-side: tell the
        // server so it requeues these cells local-only.
        answer.results.clear();
        answer.error = e.what();
    }
    return answer;
}

DispatchWorker::DispatchWorker(const DispatchWorkerOptions &options)
    : _options(options), _engine(options.threads),
      _checkpoints(checkpointSubdir(options.cacheDir),
                   options.checkpointCapacity)
{
    if (!options.cacheDir.empty())
        _engine.setCheckpointHook(&_checkpoints);
}

void
DispatchWorker::requestStop()
{
    _stop.store(true);
    int fd = _activeFd.load();
    if (fd >= 0)
        ::shutdown(fd, SHUT_RDWR); // unblocks a reader mid-frame
}

void
DispatchWorker::run()
{
    std::uint64_t failures = 0;
    while (!_stop.load()) {
        int raw = connectTo(_options.host, _options.port);
        if (raw < 0) {
            failures += 1;
            if (_options.maxReconnectAttempts &&
                failures >= _options.maxReconnectAttempts)
                throw TransportError(
                    "cannot reach " + _options.host + ":" +
                    std::to_string(_options.port) + " after " +
                    std::to_string(failures) + " attempts");
            std::this_thread::sleep_for(
                std::chrono::milliseconds(_options.reconnectMs));
            continue;
        }
        failures = 0;
        OwnedFd fd(raw);
        _activeFd.store(fd.fd());
        try {
            session(fd.fd());
        } catch (const TransportError &) {
            // Server went away (or requestStop() shut the socket);
            // fall through to the reconnect loop.
        } catch (const std::invalid_argument &) {
            // The server answered with something this worker cannot
            // parse (or an error frame): drop the session and try a
            // fresh one rather than loop on a confused connection.
        }
        _activeFd.store(-1);
        if (!_stop.load())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(_options.reconnectMs));
    }
}

void
DispatchWorker::session(int fd)
{
    std::mutex write_mutex;

    WorkerHello hello;
    hello.threads = std::max(1u, _engine.threads());
    {
        std::lock_guard<std::mutex> lock(write_mutex);
        writeFrame(fd, hello.encode());
    }
    JsonValue message;
    std::string type;
    if (!readMessage(fd, message, type))
        throw TransportError("server closed during registration");
    if (type == "error")
        throw std::invalid_argument(
            "server refused registration"); // e.g. --max-clients shed
    if (type != "worker_welcome")
        throw std::invalid_argument("expected worker_welcome, got '" +
                                    type + "'");
    WorkerWelcome welcome = WorkerWelcome::decode(message);
    _sessions.fetch_add(1);

    HeartbeatThread heartbeat(fd, write_mutex, welcome.worker,
                              welcome.heartbeatMs);

    while (!_stop.load()) {
        {
            std::lock_guard<std::mutex> lock(write_mutex);
            writeFrame(fd, encodeLeaseRequest(welcome.worker));
        }
        if (!readMessage(fd, message, type))
            throw TransportError("server closed the connection");
        if (type == "lease_idle") {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(_options.idlePollMs));
            continue;
        }
        if (type != "lease_grant")
            throw std::invalid_argument("expected a lease, got '" +
                                        type + "'");
        CellResultMsg answer =
            runLease(_engine, LeaseGrant::decode(message));
        {
            std::lock_guard<std::mutex> lock(write_mutex);
            writeFrame(fd, answer.encode());
        }
        if (!readMessage(fd, message, type))
            throw TransportError("server closed the connection");
        if (type != "result_ok")
            throw std::invalid_argument(
                "expected a result acknowledgement, got '" + type +
                "'");
        bool accepted = decodeResultAck(message);
        _leases.fetch_add(1);
        if (answer.failed())
            continue;
        if (accepted)
            _cells.fetch_add(answer.results.size());
        else
            _discarded.fetch_add(answer.results.size());
    }
}

} // namespace tlbpf
