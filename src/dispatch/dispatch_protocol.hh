/**
 * @file
 * Wire verbs of the distributed dispatch subsystem — the worker side
 * of the sweep service's framed-JSON protocol.
 *
 * A tlbpf-worker process connects to the same port clients use and
 * promotes its connection to a worker session with one handshake:
 *
 *   worker -> server   {"type":"worker_hello","protocol":2,
 *                       "threads":N}
 *   server -> worker   {"type":"worker_welcome","worker":ID,
 *                       "heartbeat_ms":H}
 *
 * after which the worker pulls work with a lease loop:
 *
 *   {"type":"lease","worker":ID,"wait":true}
 *     -> {"type":"lease_grant","lease":L,"chain":B,"jobs":[...]}
 *        when the dispatcher has leasable work: with "chain" false,
 *        one single-pass group (cells sharing a stream) or a block
 *        of plain cells; with "chain" true, a checkpoint chain: the
 *        shards of one or more cells over one stream, cell-major —
 *        run each window in stream order, every cell's shard k
 *        warmed from its shard k-1; or
 *     -> {"type":"lease_idle"} when it does not.  A request with
 *        "wait":true is held until a leasable task is queued, the
 *        server stops, or one heartbeat interval passes, so an idle
 *        worker wakes on work instead of on a timer and asks again
 *        at once after lease_idle.  A request without it is answered
 *        at once.
 *   {"type":"cell_result","lease":L,"results":[...]}
 *     -> {"type":"result_ok","accepted":B}  accepted=false means the
 *        lease had already expired or been reclaimed and the payload
 *        was discarded (never double-counted).
 *   {"type":"cell_result","lease":L,"error":MSG}
 *        the worker could not run the lease (e.g. a trace file that
 *        only exists on the server's filesystem); the dispatcher
 *        requeues those cells local-only.
 *   {"type":"heartbeat","worker":ID}
 *        one-way (no reply): refreshes the deadline of every lease
 *        the worker holds, so a slow-but-alive worker keeps its work
 *        while a stalled or dead one is reclaimed at the deadline.
 *
 * Versions: protocol 2 added "wait".  The server registers
 * protocol 1 and 2 hellos, so a protocol-1 worker keeps polling with
 * unheld leases; a protocol-2 worker meeting a protocol-1 server is
 * refused at hello, not at its first lease.
 *
 * Only functional cells cross the wire: counters are exact u64
 * integers end to end (the byte-identity contract), while timed
 * cells carry double-valued TimingConfig knobs, so the dispatcher
 * simply never offers them for lease — they run on the server's
 * local engine.
 *
 * Decoding follows the service protocol's strictness rules
 * (requireKnownKeys, exact counters); a malformed frame from a
 * worker drops only that worker's connection and its leases are
 * re-leased locally.
 */

#ifndef TLBPF_DISPATCH_DISPATCH_PROTOCOL_HH
#define TLBPF_DISPATCH_DISPATCH_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "run/job.hh"
#include "service/protocol.hh"

namespace tlbpf
{

/** Bumped on any incompatible change to the worker verbs. */
constexpr std::uint32_t kDispatchProtocolVersion = 2;

/** Oldest worker protocol the server still registers. */
constexpr std::uint32_t kMinDispatchProtocolVersion = 1;

/** Worker registration handshake (worker -> server). */
struct WorkerHello
{
    std::uint32_t protocol = kDispatchProtocolVersion;
    unsigned threads = 1; ///< worker engine width (sizes lease blocks)

    std::string encode() const;
    static WorkerHello decode(const JsonValue &message);
};

/** Registration acknowledgement (server -> worker). */
struct WorkerWelcome
{
    std::uint64_t worker = 0;     ///< the worker's id for this session
    std::uint64_t heartbeatMs = 0; ///< send heartbeats this often

    std::string encode() const;
    static WorkerWelcome decode(const JsonValue &message);
};

/**
 * Leased tasks of the dispatcher's Plan.  chain == false: independent
 * functional cells — one single-pass group (one stream, so a worker
 * may drain it once for every mechanism) or a block of plain cells.
 * chain == true: the shards of one or more cells over one stream,
 * cell-major, to be run window by window in stream order so each
 * cell's shard k warms from its shard k-1's snapshot.
 */
struct LeaseGrant
{
    std::uint64_t lease = 0;
    bool chain = false;
    std::vector<SweepJob> jobs;

    std::string encode() const;
    /** Strict decode; rebuilds each SweepJob from its spec labels. */
    static LeaseGrant decode(const JsonValue &message);
};

/** A worker's request for its next lease. */
struct LeaseRequest
{
    std::uint64_t worker = 0;
    /** Hold the request until work arrives; false = answer at once
     *  (the only form protocol 1 sends). */
    bool wait = false;
};

/** {"type":"lease","worker":ID} plus "wait":true when @p wait. */
std::string encodeLeaseRequest(std::uint64_t worker, bool wait = false);

/** Strict decode of a lease request. */
LeaseRequest decodeLeaseRequest(const JsonValue &message);

/** {"type":"lease_idle"} */
std::string encodeLeaseIdle();

/** {"type":"heartbeat","worker":ID} — one-way, never answered. */
std::string encodeHeartbeat(std::uint64_t worker);

/** Strict decode of a heartbeat's worker id. */
std::uint64_t decodeHeartbeat(const JsonValue &message);

/** Completed (or failed) lease payload (worker -> server). */
struct CellResultMsg
{
    std::uint64_t lease = 0;
    /** One result per granted job, in grant order (success path). */
    std::vector<SweepResult> results;
    /** Non-empty when the worker could not run the lease. */
    std::string error;

    bool failed() const { return !error.empty(); }

    std::string encode() const;
    static CellResultMsg decode(const JsonValue &message);
};

/** {"type":"result_ok","accepted":B} */
std::string encodeResultAck(bool accepted);

/** Strict decode of a result acknowledgement. */
bool decodeResultAck(const JsonValue &message);

} // namespace tlbpf

#endif // TLBPF_DISPATCH_DISPATCH_PROTOCOL_HH
