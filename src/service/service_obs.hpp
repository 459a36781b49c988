/**
 * @file
 * Request-lifecycle observability of the awd daemon: spans and the
 * flight recorder (DESIGN.md §10.11).
 *
 * A RequestSpan is one request's monotonic-timestamped record through
 * accept -> admit(verdict) -> queue-wait -> simulate -> finish ->
 * encode. The span crosses threads (reactor -> worker -> reactor), but
 * every handoff is through a mutex the server already takes (the run
 * queue, the completion queue), so the stamps are plain fields: at any
 * instant exactly one thread owns the span.
 *
 * The FlightRecorder keeps the last N completed spans in a fixed ring
 * (one short lock + a copy per request) plus a total-pushed counter,
 * dumpable as the schema-versioned `aw.awd_flight.v1` JSON artifact —
 * a misbehaving daemon is diagnosed post-hoc from its dump, without a
 * debugger. Everything here is allocated only when an observability
 * knob is on; with the knobs unset the daemon never constructs a span
 * and its behavior is bit-identical.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace aw::service {

/** How a request entered (or bypassed) the run queue. */
enum class SpanVerdict : uint8_t
{
    Accept,            ///< admitted at requested fidelity
    Coalesced,         ///< attached as a singleflight follower
    Shed,              ///< rejected with retry_after_ms
    MemoHit,           ///< served inline from the L1 memo
    SharedHit,         ///< served inline from the shared L2 memo
    SharedNegativeHit, ///< served a recorded failure from L2
    Replayed,          ///< idempotent replay of a past response
    ProtocolError      ///< malformed request; structured error reply
};

/** Stable wire token of a verdict (flight-recorder dump, stats). */
const char *spanVerdictName(SpanVerdict v);

/** Bytes of the content key (and of the client id) a span retains —
 *  enough to correlate against logs and the memo, bounded so the
 *  recorder cannot hoard multi-KiB client-controlled strings. */
constexpr size_t kSpanKeyPrefixBytes = 16;

/** One request's lifecycle record. Timestamps are steady_clock ns
 *  since epoch; 0 = phase never reached. */
struct RequestSpan
{
    uint64_t tag = 0;       ///< inflight tag; 0 for inline serves
    uint64_t leaderTag = 0; ///< coalesced followers: the leader's tag
    std::string requestId;  ///< client id ("" = none)
    std::string keyPrefix;  ///< kSpanKeyPrefixBytes of the content key
    SpanVerdict verdict = SpanVerdict::Accept;
    std::string outcome; ///< response status at encode time
    size_t bytes = 0;    ///< encoded reply payload bytes

    int64_t tAcceptNs = 0;   ///< frame decoded on the reactor
    int64_t tAdmitNs = 0;    ///< admission verdict / queue push
    int64_t tPopNs = 0;      ///< worker dequeued the job
    int64_t tSimStartNs = 0; ///< estimator entry
    int64_t tSimEndNs = 0;   ///< estimator exit
    int64_t tFinishNs = 0;   ///< completion posted by the worker
    int64_t tEncodeNs = 0;   ///< reply framed into the out-buffer
};

/** Fixed-size ring of the last N completed request spans. */
class FlightRecorder
{
  public:
    /** capacity >= 1 (the server gates construction on the knob). */
    explicit FlightRecorder(size_t capacity);

    /** Record one completed span (overwrites the oldest past N). */
    void push(const RequestSpan &span);

    /** Spans ever pushed (>= capacity() means the ring wrapped). */
    uint64_t recorded() const;

    size_t capacity() const { return cap_; }

    /** The `aw.awd_flight.v1` JSON artifact: capacity, total recorded,
     *  and the retained records oldest-first. */
    std::string dumpJson() const;

  private:
    const size_t cap_;
    mutable std::mutex mu_;
    std::vector<RequestSpan> ring_; ///< grows to cap_, then wraps
    size_t next_ = 0;               ///< ring slot the next push takes
    uint64_t total_ = 0;
};

} // namespace aw::service
