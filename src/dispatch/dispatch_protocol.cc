#include "dispatch/dispatch_protocol.hh"

#include <stdexcept>

namespace tlbpf
{

namespace
{

/**
 * One functional cell on the wire.  The workload label and canonical
 * mechanism string round-trip through their parsers, so a leased
 * `spec#k/N` shard re-derives the same window — and the same
 * checkpointKey() — on the worker as on the server.
 */
std::string
encodeWireJob(const SweepJob &job)
{
    if (job.mode != JobMode::Functional)
        throw std::invalid_argument(
            "only functional cells are leasable");
    JsonObjectWriter out;
    out.str("workload", job.workload.label());
    out.str("mechanism", job.spec.canonical());
    out.u64("refs", job.refs);
    out.raw("config", encodeConfig(job.config));
    return out.take();
}

SweepJob
decodeWireJob(const JsonValue &object)
{
    requireKnownKeys(object, "lease job",
                     {"workload", "mechanism", "refs", "config"});
    WorkloadSpec workload =
        WorkloadSpec::parse(object.at("workload").asString());
    MechanismSpec spec =
        MechanismSpec::parse(object.at("mechanism").asString());
    std::uint64_t refs = object.at("refs").asU64();
    if (refs == 0)
        throw std::invalid_argument(
            "lease job needs a positive reference budget");
    return SweepJob::functional(std::move(workload), spec, refs,
                                decodeConfig(object.at("config")));
}

std::string
encodeWireResult(const SweepResult &result)
{
    JsonObjectWriter out;
    out.str("workload", result.workload);
    out.str("mechanism", result.mechanism);
    out.raw("counters", encodeCounters(result.functional));
    return out.take();
}

SweepResult
decodeWireResult(const JsonValue &object)
{
    requireKnownKeys(object, "cell result entry",
                     {"workload", "mechanism", "counters"});
    SweepResult result;
    result.mode = JobMode::Functional;
    result.workload = object.at("workload").asString();
    result.mechanism = object.at("mechanism").asString();
    result.functional = decodeCounters(object.at("counters"));
    return result;
}

} // namespace

std::string
WorkerHello::encode() const
{
    JsonObjectWriter out;
    out.str("type", "worker_hello");
    out.u64("protocol", protocol);
    out.u64("threads", threads);
    return out.take();
}

WorkerHello
WorkerHello::decode(const JsonValue &message)
{
    requireKnownKeys(message, "worker hello",
                     {"type", "protocol", "threads"});
    WorkerHello hello;
    hello.protocol = decodeU32(message.at("protocol"), "protocol");
    if (hello.protocol < kMinDispatchProtocolVersion ||
        hello.protocol > kDispatchProtocolVersion)
        throw std::invalid_argument(
            "worker speaks dispatch protocol " +
            std::to_string(hello.protocol) + ", server speaks " +
            std::to_string(kMinDispatchProtocolVersion) + " to " +
            std::to_string(kDispatchProtocolVersion));
    std::uint64_t threads = message.at("threads").asU64();
    if (threads < 1 || threads > 4096)
        throw std::invalid_argument(
            "worker hello: threads must be in [1, 4096], got " +
            std::to_string(threads));
    hello.threads = static_cast<unsigned>(threads);
    return hello;
}

std::string
WorkerWelcome::encode() const
{
    JsonObjectWriter out;
    out.str("type", "worker_welcome");
    out.u64("worker", worker);
    out.u64("heartbeat_ms", heartbeatMs);
    return out.take();
}

WorkerWelcome
WorkerWelcome::decode(const JsonValue &message)
{
    requireKnownKeys(message, "worker welcome",
                     {"type", "worker", "heartbeat_ms"});
    WorkerWelcome welcome;
    welcome.worker = message.at("worker").asU64();
    welcome.heartbeatMs = message.at("heartbeat_ms").asU64();
    return welcome;
}

std::string
LeaseGrant::encode() const
{
    JsonObjectWriter out;
    out.str("type", "lease_grant");
    out.u64("lease", lease);
    out.boolean("chain", chain);
    std::string array = "[";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i)
            array += ",";
        array += encodeWireJob(jobs[i]);
    }
    array += "]";
    out.raw("jobs", array);
    return out.take();
}

LeaseGrant
LeaseGrant::decode(const JsonValue &message)
{
    requireKnownKeys(message, "lease grant",
                     {"type", "lease", "chain", "jobs"});
    LeaseGrant grant;
    grant.lease = message.at("lease").asU64();
    grant.chain = message.at("chain").asBool();
    for (const JsonValue &item : message.at("jobs").asArray())
        grant.jobs.push_back(decodeWireJob(item));
    if (grant.jobs.empty())
        throw std::invalid_argument("lease grant carries no jobs");
    return grant;
}

std::string
encodeLeaseRequest(std::uint64_t worker, bool wait)
{
    JsonObjectWriter out;
    out.str("type", "lease");
    out.u64("worker", worker);
    if (wait)
        out.boolean("wait", true);
    return out.take();
}

LeaseRequest
decodeLeaseRequest(const JsonValue &message)
{
    requireKnownKeys(message, "lease request", {"type", "worker", "wait"});
    LeaseRequest request;
    request.worker = message.at("worker").asU64();
    if (const JsonValue *v = message.find("wait"))
        request.wait = v->asBool();
    return request;
}

std::string
encodeLeaseIdle()
{
    return "{\"type\":\"lease_idle\"}";
}

std::string
encodeHeartbeat(std::uint64_t worker)
{
    JsonObjectWriter out;
    out.str("type", "heartbeat");
    out.u64("worker", worker);
    return out.take();
}

std::uint64_t
decodeHeartbeat(const JsonValue &message)
{
    requireKnownKeys(message, "heartbeat", {"type", "worker"});
    return message.at("worker").asU64();
}

std::string
CellResultMsg::encode() const
{
    JsonObjectWriter out;
    out.str("type", "cell_result");
    out.u64("lease", lease);
    if (failed()) {
        out.str("error", error);
        return out.take();
    }
    std::string array = "[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i)
            array += ",";
        array += encodeWireResult(results[i]);
    }
    array += "]";
    out.raw("results", array);
    return out.take();
}

CellResultMsg
CellResultMsg::decode(const JsonValue &message)
{
    requireKnownKeys(message, "cell result",
                     {"type", "lease", "results", "error"});
    CellResultMsg msg;
    msg.lease = message.at("lease").asU64();
    if (const JsonValue *v = message.find("error")) {
        msg.error = v->asString();
        if (msg.error.empty())
            throw std::invalid_argument(
                "cell result: error must be a non-empty message");
        if (message.find("results"))
            throw std::invalid_argument(
                "cell result: a failed lease carries no results");
        return msg;
    }
    for (const JsonValue &item : message.at("results").asArray())
        msg.results.push_back(decodeWireResult(item));
    if (msg.results.empty())
        throw std::invalid_argument("cell result carries no results");
    return msg;
}

std::string
encodeResultAck(bool accepted)
{
    JsonObjectWriter out;
    out.str("type", "result_ok");
    out.boolean("accepted", accepted);
    return out.take();
}

bool
decodeResultAck(const JsonValue &message)
{
    requireKnownKeys(message, "result ack", {"type", "accepted"});
    return message.at("accepted").asBool();
}

} // namespace tlbpf
