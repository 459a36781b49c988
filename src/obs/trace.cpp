#include "obs/trace.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/log.hpp"
#include "obs/json.hpp"

namespace aw::obs {

/**
 * Per-thread recording state. Owned jointly by the thread (via a
 * thread_local pointer) and the global buffer list (shared_ptr), so
 * events and tallies survive thread exit until the next clear(). The
 * open-zone stack is touched only by the owning thread; `mu` guards
 * what exporters read.
 */
struct Profiler::ThreadBuf
{
    struct Open
    {
        const char *name;
        double tsUs;
        double childUs; ///< inclusive time of zones closed inside this one
        bool event;
    };
    struct Tally
    {
        const char *name;
        uint64_t count = 0;
        double totalUs = 0;
        double selfUs = 0;
    };

    std::mutex mu; ///< serializes the owning thread vs. exporters
    uint32_t tid = 0;
    std::vector<Open> stack;
    std::vector<TraceEvent> done;
    /** Keyed by name pointer: a thread sees a handful of zone names, so
     *  a linear scan beats hashing; zoneStats() merges by string. */
    std::vector<Tally> tallies;
};

namespace {

std::mutex g_bufListMutex;
std::vector<std::shared_ptr<Profiler::ThreadBuf>> &
bufList()
{
    static std::vector<std::shared_ptr<Profiler::ThreadBuf>> list;
    return list;
}

// Externally-timed events (emit()): stamped by their owners across
// threads, so they never belong to any thread-local buffer.
std::mutex g_externalMutex;
std::vector<TraceEvent> &
externalList()
{
    static std::vector<TraceEvent> list;
    return list;
}

} // namespace

Profiler::ThreadBuf &
Profiler::localBuf()
{
    thread_local std::shared_ptr<ThreadBuf> buf = [] {
        auto b = std::make_shared<ThreadBuf>();
        std::lock_guard<std::mutex> lock(g_bufListMutex);
        b->tid = static_cast<uint32_t>(bufList().size() + 1);
        bufList().push_back(b);
        return b;
    }();
    return *buf;
}

Profiler &
Profiler::instance()
{
    static Profiler profiler;
    return profiler;
}

void
Profiler::begin(const char *name, bool event)
{
    std::chrono::duration<double, std::micro> ts =
        std::chrono::steady_clock::now() - epoch_;
    localBuf().stack.push_back({name, ts.count(), 0.0, event});
}

void
Profiler::end()
{
    std::chrono::duration<double, std::micro> ts =
        std::chrono::steady_clock::now() - epoch_;
    ThreadBuf &buf = localBuf();
    if (buf.stack.empty())
        return; // unbalanced end()
    ThreadBuf::Open open = buf.stack.back();
    buf.stack.pop_back();
    const double durUs = std::max(0.0, ts.count() - open.tsUs);
    if (!buf.stack.empty())
        buf.stack.back().childUs += durUs;

    std::lock_guard<std::mutex> lock(buf.mu);
    auto it = std::find_if(
        buf.tallies.begin(), buf.tallies.end(),
        [&](const ThreadBuf::Tally &t) { return t.name == open.name; });
    if (it == buf.tallies.end())
        it = buf.tallies.insert(it, ThreadBuf::Tally{open.name});
    it->count += 1;
    it->totalUs += durUs;
    it->selfUs += std::max(0.0, durUs - open.childUs);
    if (open.event)
        buf.done.push_back({open.name, open.tsUs, durUs, buf.tid,
                            static_cast<uint32_t>(buf.stack.size())});
}

void
Profiler::emit(TraceEvent event)
{
    std::lock_guard<std::mutex> lock(g_externalMutex);
    externalList().push_back(std::move(event));
}

std::vector<TraceEvent>
Profiler::events() const
{
    std::vector<TraceEvent> out;
    {
        std::lock_guard<std::mutex> lock(g_externalMutex);
        const std::vector<TraceEvent> &ext = externalList();
        out.insert(out.end(), ext.begin(), ext.end());
    }
    std::lock_guard<std::mutex> listLock(g_bufListMutex);
    for (const auto &buf : bufList()) {
        std::lock_guard<std::mutex> lock(buf->mu);
        out.insert(out.end(), buf->done.begin(), buf->done.end());
    }
    std::sort(out.begin(), out.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  return a.tsUs < b.tsUs;
              });
    return out;
}

std::vector<ZoneStat>
Profiler::zoneStats() const
{
    std::map<std::string, ZoneStat> agg;
    auto add = [&](const std::string &name, uint64_t count, double totalUs,
                   double selfUs) {
        ZoneStat &s = agg[name];
        s.name = name;
        s.count += count;
        s.totalUs += totalUs;
        s.selfUs += selfUs;
    };
    {
        std::lock_guard<std::mutex> lock(g_externalMutex);
        for (const TraceEvent &e : externalList())
            add(e.name, 1, e.durUs, e.durUs);
    }
    std::lock_guard<std::mutex> listLock(g_bufListMutex);
    for (const auto &buf : bufList()) {
        std::lock_guard<std::mutex> lock(buf->mu);
        for (const ThreadBuf::Tally &t : buf->tallies)
            add(t.name, t.count, t.totalUs, t.selfUs);
    }
    std::vector<ZoneStat> out;
    out.reserve(agg.size());
    for (auto &[name, s] : agg)
        out.push_back(std::move(s));
    return out;
}

std::string
Profiler::chromeTraceJson() const
{
    std::ostringstream out;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    for (const TraceEvent &e : events()) {
        if (!first)
            out << ",";
        first = false;
        out << "\n  {\"name\": \"" << jsonEscape(e.name)
            << "\", \"cat\": \"aw\", \"ph\": \"X\", \"pid\": 1"
            << ", \"tid\": " << e.tid << ", \"ts\": " << jsonNumber(e.tsUs)
            << ", \"dur\": " << jsonNumber(e.durUs)
            << ", \"args\": {\"depth\": " << e.depth << "}}";
    }
    out << "\n]}";
    return out.str();
}

void
Profiler::clear()
{
    {
        std::lock_guard<std::mutex> lock(g_externalMutex);
        externalList().clear();
    }
    std::lock_guard<std::mutex> listLock(g_bufListMutex);
    for (const auto &buf : bufList()) {
        std::lock_guard<std::mutex> lock(buf->mu);
        buf->done.clear();
        buf->tallies.clear();
    }
}

} // namespace aw::obs
