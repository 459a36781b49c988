#include "service/service_obs.hpp"

#include "common/log.hpp"
#include "obs/json.hpp"

namespace aw::service {

const char *
spanVerdictName(SpanVerdict v)
{
    switch (v) {
      case SpanVerdict::Accept:
        return "accept";
      case SpanVerdict::Coalesced:
        return "coalesced";
      case SpanVerdict::Shed:
        return "shed";
      case SpanVerdict::MemoHit:
        return "memo_hit";
      case SpanVerdict::SharedHit:
        return "shared_hit";
      case SpanVerdict::SharedNegativeHit:
        return "shared_negative_hit";
      case SpanVerdict::Replayed:
        return "replayed";
      case SpanVerdict::ProtocolError:
        return "protocol_error";
    }
    return "?";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : cap_(capacity)
{
    AW_ASSERT(capacity >= 1);
    ring_.reserve(capacity);
}

void
FlightRecorder::push(const RequestSpan &span)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.size() < cap_)
        ring_.push_back(span);
    else
        ring_[next_] = span;
    next_ = (next_ + 1) % cap_;
    ++total_;
}

uint64_t
FlightRecorder::recorded() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
}

namespace {

/** Append one phase stamp as microseconds since the span's accept;
 *  unreached phases (stamp 0) are omitted entirely. */
void
appendStampUs(std::string &out, const char *key, int64_t stampNs,
              int64_t acceptNs)
{
    if (stampNs == 0)
        return;
    out += ",\"";
    out += key;
    out += "\":" + obs::jsonNumber(
                       static_cast<double>(stampNs - acceptNs) * 1e-3);
}

void
appendRecordJson(std::string &out, const RequestSpan &s)
{
    out += "{\"tag\":" + std::to_string(s.tag);
    if (s.leaderTag != 0)
        out += ",\"leader_tag\":" + std::to_string(s.leaderTag);
    if (!s.requestId.empty())
        out += ",\"id\":\"" + obs::jsonEscape(s.requestId) + "\"";
    out += ",\"key\":\"" + obs::jsonEscape(s.keyPrefix) + "\"";
    out += ",\"verdict\":\"";
    out += spanVerdictName(s.verdict);
    out += "\",\"outcome\":\"" + obs::jsonEscape(s.outcome) + "\"";
    out += ",\"bytes\":" + std::to_string(s.bytes);
    out += ",\"t_accept_ns\":" + std::to_string(s.tAcceptNs);
    appendStampUs(out, "admit_us", s.tAdmitNs, s.tAcceptNs);
    appendStampUs(out, "pop_us", s.tPopNs, s.tAcceptNs);
    appendStampUs(out, "sim_start_us", s.tSimStartNs, s.tAcceptNs);
    appendStampUs(out, "sim_end_us", s.tSimEndNs, s.tAcceptNs);
    appendStampUs(out, "finish_us", s.tFinishNs, s.tAcceptNs);
    appendStampUs(out, "encode_us", s.tEncodeNs, s.tAcceptNs);
    out += "}";
}

} // namespace

std::string
FlightRecorder::dumpJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{\"schema\":\"aw.awd_flight.v1\"";
    out += ",\"capacity\":" + std::to_string(cap_);
    out += ",\"recorded\":" + std::to_string(total_);
    out += ",\"records\":[";
    // Oldest-first: once wrapped, the oldest retained record sits at
    // next_ (the slot the next push would overwrite).
    const size_t n = ring_.size();
    const size_t start = n < cap_ ? 0 : next_;
    for (size_t i = 0; i < n; ++i) {
        if (i)
            out += ",";
        appendRecordJson(out, ring_[(start + i) % n]);
    }
    out += "]}";
    return out;
}

} // namespace aw::service
