#include "service/protocol.hh"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <unistd.h>

namespace tlbpf
{

OwnedFd &
OwnedFd::operator=(OwnedFd &&other) noexcept
{
    if (this != &other) {
        close();
        _fd = other.release();
    }
    return *this;
}

int
OwnedFd::release()
{
    int fd = _fd;
    _fd = -1;
    return fd;
}

void
OwnedFd::close()
{
    if (_fd >= 0) {
        ::close(_fd);
        _fd = -1;
    }
}

namespace
{

/**
 * send() with SIGPIPE suppressed, falling back to write() for
 * non-socket fds (the framing tests drive the codec over pipes).
 */
ssize_t
writeSome(int fd, const char *data, std::size_t count)
{
    ssize_t n = ::send(fd, data, count, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK)
        n = ::write(fd, data, count);
    return n;
}

void
writeAll(int fd, const char *data, std::size_t count)
{
    while (count > 0) {
        ssize_t n = writeSome(fd, data, count);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw TransportError(
                std::string("frame write failed: ") +
                std::strerror(errno));
        }
        data += n;
        count -= static_cast<std::size_t>(n);
    }
}

/**
 * Read exactly @p count bytes.  Returns false only when EOF arrives
 * before the *first* byte and @p eof_ok — the clean between-frames
 * close; EOF any later is a truncated frame.
 */
bool
readAll(int fd, char *data, std::size_t count, bool eof_ok)
{
    std::size_t got = 0;
    while (got < count) {
        ssize_t n = ::read(fd, data + got, count - got);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw TransportError(
                std::string("frame read failed: ") +
                std::strerror(errno));
        }
        if (n == 0) {
            if (got == 0 && eof_ok)
                return false;
            throw TransportError(
                "peer closed the connection mid-frame (got " +
                std::to_string(got) + " of " + std::to_string(count) +
                " bytes)");
        }
        got += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

void
writeFrame(int fd, const std::string &payload)
{
    if (payload.size() > kMaxFrameBytes)
        throw std::invalid_argument(
            "frame payload of " + std::to_string(payload.size()) +
            " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
            "-byte frame bound");
    std::string frame;
    frame.reserve(4 + payload.size());
    std::uint32_t length = static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i)
        frame += static_cast<char>(length >> (8 * i));
    frame += payload;
    writeAll(fd, frame.data(), frame.size());
}

bool
readFrame(int fd, std::string &payload)
{
    char header[4];
    if (!readAll(fd, header, sizeof(header), true))
        return false;
    std::uint32_t length = 0;
    for (int i = 0; i < 4; ++i)
        length |= static_cast<std::uint32_t>(
                      static_cast<unsigned char>(header[i]))
                  << (8 * i);
    if (length > kMaxFrameBytes)
        throw std::invalid_argument(
            "frame length prefix of " + std::to_string(length) +
            " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
            "-byte frame bound");
    payload.resize(length);
    if (length > 0)
        readAll(fd, payload.data(), length, false);
    return true;
}

bool
readMessage(int fd, JsonValue &message, std::string &type)
{
    std::string payload;
    if (!readFrame(fd, payload))
        return false;
    message = JsonValue::parse(payload);
    if (!message.isObject())
        throw std::invalid_argument(
            "protocol message must be a JSON object");
    type = message.at("type").asString();
    return true;
}

const char *
jobModeName(JobMode mode)
{
    return mode == JobMode::Timed ? "timed" : "functional";
}

JobMode
parseJobMode(const std::string &text)
{
    if (text == "functional")
        return JobMode::Functional;
    if (text == "timed")
        return JobMode::Timed;
    throw std::invalid_argument("unknown job mode '" + text +
                                "' (expected functional or timed)");
}

std::uint32_t
decodeU32(const JsonValue &value, const char *field)
{
    std::uint64_t v = value.asU64();
    if (v > UINT32_MAX)
        throw std::invalid_argument(std::string(field) +
                                    " must fit in 32 bits, got " +
                                    std::to_string(v));
    return static_cast<std::uint32_t>(v);
}

void
requireKnownKeys(const JsonValue &object, const char *what,
                 const std::vector<std::string> &allowed)
{
    for (const std::string &key : object.keys()) {
        bool known = false;
        for (const std::string &ok : allowed)
            if (key == ok) {
                known = true;
                break;
            }
        if (!known)
            throw std::invalid_argument(
                std::string(what) + ": unknown member '" + key + "'");
    }
}

std::string
encodeConfig(const SimConfig &config)
{
    JsonObjectWriter out;
    out.u64("tlb_entries", config.tlb.entries);
    out.u64("tlb_assoc", config.tlb.assoc);
    out.u64("pb_entries", config.pbEntries);
    out.u64("page_bytes", config.pageBytes);
    out.boolean("train_on_all_refs", config.trainOnAllRefs);
    out.u64("context_switch_interval", config.contextSwitchInterval);
    return out.take();
}

SimConfig
decodeConfig(const JsonValue &object)
{
    requireKnownKeys(object, "config",
                     {"tlb_entries", "tlb_assoc", "pb_entries",
                      "page_bytes", "train_on_all_refs",
                      "context_switch_interval"});
    SimConfig config;
    if (const JsonValue *v = object.find("tlb_entries"))
        config.tlb.entries = decodeU32(*v, "tlb_entries");
    if (const JsonValue *v = object.find("tlb_assoc"))
        config.tlb.assoc = decodeU32(*v, "tlb_assoc");
    if (const JsonValue *v = object.find("pb_entries"))
        config.pbEntries = decodeU32(*v, "pb_entries");
    if (const JsonValue *v = object.find("page_bytes"))
        config.pageBytes = v->asU64();
    if (const JsonValue *v = object.find("train_on_all_refs"))
        config.trainOnAllRefs = v->asBool();
    if (const JsonValue *v = object.find("context_switch_interval"))
        config.contextSwitchInterval = v->asU64();
    // Sweep requests and lease grants both land here: a geometry the
    // simulator would exit on must cost the peer an error, not the
    // process.
    if (std::string why = config.invalidReason(); !why.empty())
        throw std::invalid_argument("config: " + why);
    return config;
}

std::string
encodeCounters(const SimResult &counters)
{
    JsonObjectWriter out;
    out.u64("refs", counters.refs);
    out.u64("misses", counters.misses);
    out.u64("pb_hits", counters.pbHits);
    out.u64("demand_fetches", counters.demandFetches);
    out.u64("prefetches_issued", counters.prefetchesIssued);
    out.u64("prefetches_suppressed", counters.prefetchesSuppressed);
    out.u64("state_ops", counters.stateOps);
    out.u64("pb_evicted_unused", counters.pbEvictedUnused);
    out.u64("footprint_pages", counters.footprintPages);
    out.u64("context_switches", counters.contextSwitches);
    return out.take();
}

SimResult
decodeCounters(const JsonValue &object)
{
    requireKnownKeys(object, "counters",
                     {"refs", "misses", "pb_hits", "demand_fetches",
                      "prefetches_issued", "prefetches_suppressed",
                      "state_ops", "pb_evicted_unused",
                      "footprint_pages", "context_switches"});
    SimResult counters;
    counters.refs = object.at("refs").asU64();
    counters.misses = object.at("misses").asU64();
    counters.pbHits = object.at("pb_hits").asU64();
    counters.demandFetches = object.at("demand_fetches").asU64();
    counters.prefetchesIssued =
        object.at("prefetches_issued").asU64();
    counters.prefetchesSuppressed =
        object.at("prefetches_suppressed").asU64();
    counters.stateOps = object.at("state_ops").asU64();
    counters.pbEvictedUnused =
        object.at("pb_evicted_unused").asU64();
    counters.footprintPages = object.at("footprint_pages").asU64();
    counters.contextSwitches =
        object.at("context_switches").asU64();
    return counters;
}

std::string
encodeTiming(const TimingResult &timed)
{
    JsonObjectWriter out;
    out.u64("cycles", timed.cycles);
    out.u64("stall_cycles", timed.stallCycles);
    out.u64("compute_cycles", timed.computeCycles);
    out.u64("memory_ops", timed.memoryOps);
    out.u64("prefetches_skipped_busy", timed.prefetchesSkippedBusy);
    out.u64("in_flight_hits", timed.inFlightHits);
    return out.take();
}

TimingResult
decodeTiming(const JsonValue &object)
{
    requireKnownKeys(object, "timing",
                     {"cycles", "stall_cycles", "compute_cycles",
                      "memory_ops", "prefetches_skipped_busy",
                      "in_flight_hits"});
    TimingResult timed;
    timed.cycles = object.at("cycles").asU64();
    timed.stallCycles = object.at("stall_cycles").asU64();
    timed.computeCycles = object.at("compute_cycles").asU64();
    timed.memoryOps = object.at("memory_ops").asU64();
    timed.prefetchesSkippedBusy =
        object.at("prefetches_skipped_busy").asU64();
    timed.inFlightHits = object.at("in_flight_hits").asU64();
    return timed;
}

namespace
{

std::vector<std::string>
decodeStringArray(const JsonValue &value, const char *what)
{
    std::vector<std::string> out;
    for (const JsonValue &item : value.asArray()) {
        if (!item.isString())
            throw std::invalid_argument(
                std::string(what) +
                " must be an array of spec strings");
        out.push_back(item.asString());
    }
    return out;
}

} // namespace

std::string
SweepRequest::encode() const
{
    JsonObjectWriter out;
    out.str("type", "sweep");
    out.raw("workloads", jsonStringArray(workloads));
    out.raw("mechanisms", jsonStringArray(mechanisms));
    out.u64("refs", refs);
    out.str("mode", jobModeName(mode));
    out.u64("shards", shards);
    out.str("shard_warmup", shardWarmupName(shardWarmup));
    out.str("pass_mode", passModeName(passMode));
    out.raw("config", encodeConfig(config));
    return out.take();
}

SweepRequest
SweepRequest::decode(const JsonValue &message)
{
    requireKnownKeys(message, "sweep request",
                     {"type", "workloads", "mechanisms", "refs",
                      "mode", "shards", "shard_warmup", "pass_mode",
                      "config"});
    SweepRequest request;
    request.workloads =
        decodeStringArray(message.at("workloads"), "workloads");
    request.mechanisms =
        decodeStringArray(message.at("mechanisms"), "mechanisms");
    request.refs = message.at("refs").asU64();
    if (const JsonValue *v = message.find("mode"))
        request.mode = parseJobMode(v->asString());
    if (const JsonValue *v = message.find("shards")) {
        std::uint64_t shards = v->asU64();
        if (shards < 1 || shards > 4096)
            throw std::invalid_argument(
                "sweep request: shards must be in [1, 4096], got " +
                std::to_string(shards));
        request.shards = static_cast<std::uint32_t>(shards);
    }
    if (const JsonValue *v = message.find("shard_warmup"))
        request.shardWarmup = parseShardWarmup(v->asString());
    if (const JsonValue *v = message.find("pass_mode"))
        request.passMode = parsePassMode(v->asString());
    if (const JsonValue *v = message.find("config"))
        request.config = decodeConfig(*v);
    if (request.workloads.empty())
        throw std::invalid_argument(
            "sweep request names no workloads");
    if (request.mechanisms.empty())
        throw std::invalid_argument(
            "sweep request names no mechanisms");
    if (request.refs == 0)
        throw std::invalid_argument(
            "sweep request needs a positive reference budget");
    return request;
}

std::vector<SweepJob>
SweepRequest::expand() const
{
    std::vector<WorkloadSpec> parsed_workloads;
    parsed_workloads.reserve(workloads.size());
    for (const std::string &text : workloads)
        parsed_workloads.push_back(WorkloadSpec::parse(text));
    std::vector<MechanismSpec> parsed_mechs;
    parsed_mechs.reserve(mechanisms.size());
    for (const std::string &text : mechanisms)
        parsed_mechs.push_back(MechanismSpec::parse(text));
    if (refs == 0)
        throw std::invalid_argument(
            "sweep request needs a positive reference budget");

    std::vector<SweepJob> jobs;
    jobs.reserve(parsed_workloads.size() * parsed_mechs.size());
    for (const WorkloadSpec &workload : parsed_workloads)
        for (const MechanismSpec &spec : parsed_mechs)
            jobs.push_back(
                mode == JobMode::Timed
                    ? SweepJob::timed(workload, spec, refs, config)
                    : SweepJob::functional(workload, spec, refs,
                                           config));
    return jobs;
}

std::string
CellReply::encode() const
{
    JsonObjectWriter out;
    out.str("type", "cell");
    out.u64("index", index);
    out.str("workload", workload);
    out.str("mechanism", mechanism);
    out.str("mode", jobModeName(mode));
    out.boolean("cached", cached);
    out.raw("counters", encodeCounters(counters));
    if (mode == JobMode::Timed)
        out.raw("timing", encodeTiming(timed));
    return out.take();
}

CellReply
CellReply::decode(const JsonValue &message)
{
    requireKnownKeys(message, "cell reply",
                     {"type", "index", "workload", "mechanism",
                      "mode", "cached", "counters", "timing"});
    CellReply reply;
    reply.index = message.at("index").asU64();
    reply.workload = message.at("workload").asString();
    reply.mechanism = message.at("mechanism").asString();
    reply.mode = parseJobMode(message.at("mode").asString());
    reply.cached = message.at("cached").asBool();
    reply.counters = decodeCounters(message.at("counters"));
    if (reply.mode == JobMode::Timed) {
        reply.timed = decodeTiming(message.at("timing"));
        reply.timed.functional = reply.counters;
    } else if (message.find("timing")) {
        throw std::invalid_argument(
            "cell reply: functional cells carry no timing member");
    }
    return reply;
}

SweepResult
CellReply::toResult() const
{
    SweepResult result;
    result.mode = mode;
    result.workload = workload;
    result.mechanism = mechanism;
    result.functional = counters;
    result.timed = timed;
    return result;
}

std::string
DoneReply::encode() const
{
    JsonObjectWriter out;
    out.str("type", "done");
    out.u64("cells", cells);
    out.u64("cache_hits", cacheHits);
    out.u64("simulated", simulated);
    return out.take();
}

DoneReply
DoneReply::decode(const JsonValue &message)
{
    requireKnownKeys(message, "done reply",
                     {"type", "cells", "cache_hits", "simulated"});
    DoneReply reply;
    reply.cells = message.at("cells").asU64();
    reply.cacheHits = message.at("cache_hits").asU64();
    reply.simulated = message.at("simulated").asU64();
    return reply;
}

std::string
StatsReply::encode() const
{
    JsonObjectWriter out;
    out.str("type", "stats");
    out.u64("requests", requests);
    out.u64("cells", cells);
    out.u64("cache_hits", cacheHits);
    out.u64("cache_misses", cacheMisses);
    out.u64("cache_evictions", cacheEvictions);
    out.u64("cache_entries", cacheEntries);
    out.u64("cache_capacity", cacheCapacity);
    out.u64("checkpoints_stored", checkpointsStored);
    out.u64("checkpoints_loaded", checkpointsLoaded);
    out.u64("workers", workers);
    out.u64("leases_granted", leasesGranted);
    out.u64("lease_reclaims", leaseReclaims);
    out.u64("cells_dispatched", cellsDispatched);
    out.u64("store_evicted_files", storeEvictedFiles);
    out.u64("store_evicted_bytes", storeEvictedBytes);
    return out.take();
}

StatsReply
StatsReply::decode(const JsonValue &message)
{
    requireKnownKeys(message, "stats reply",
                     {"type", "requests", "cells", "cache_hits",
                      "cache_misses", "cache_evictions",
                      "cache_entries", "cache_capacity",
                      "checkpoints_stored", "checkpoints_loaded",
                      "workers", "leases_granted", "lease_reclaims",
                      "cells_dispatched", "store_evicted_files",
                      "store_evicted_bytes"});
    StatsReply reply;
    reply.requests = message.at("requests").asU64();
    reply.cells = message.at("cells").asU64();
    reply.cacheHits = message.at("cache_hits").asU64();
    reply.cacheMisses = message.at("cache_misses").asU64();
    reply.cacheEvictions = message.at("cache_evictions").asU64();
    reply.cacheEntries = message.at("cache_entries").asU64();
    reply.cacheCapacity = message.at("cache_capacity").asU64();
    reply.checkpointsStored =
        message.at("checkpoints_stored").asU64();
    reply.checkpointsLoaded =
        message.at("checkpoints_loaded").asU64();
    reply.workers = message.at("workers").asU64();
    reply.leasesGranted = message.at("leases_granted").asU64();
    reply.leaseReclaims = message.at("lease_reclaims").asU64();
    reply.cellsDispatched = message.at("cells_dispatched").asU64();
    reply.storeEvictedFiles =
        message.at("store_evicted_files").asU64();
    reply.storeEvictedBytes =
        message.at("store_evicted_bytes").asU64();
    return reply;
}

std::string
encodeError(const std::string &message)
{
    JsonObjectWriter out;
    out.str("type", "error");
    out.str("message", message);
    return out.take();
}

std::string
encodeBatch(std::uint64_t cells)
{
    JsonObjectWriter out;
    out.str("type", "batch");
    out.u64("cells", cells);
    return out.take();
}

} // namespace tlbpf
