/**
 * @file
 * Scoped profiling zones: the one timer the simulator and the modeling
 * pipeline use to say where a run's wall clock goes.
 *
 * Usage:
 *     void GpuSimulator::run(...) {
 *         AW_PROF_SCOPE("sim/kernel");
 *         ...
 *         { AW_PROF_SCOPE("sim/issue"); ... }  // nests under sim/kernel
 *     }
 *
 * Zones nest per thread (a thread-local stack). When a zone closes it
 * adds its count, inclusive time and self time (inclusive minus the
 * zones nested inside it on the same thread) to a per-thread, per-name
 * tally; zoneStats() merges the tallies across threads, so the self
 * times of all zones sum to the wall time of the outermost ones instead
 * of double-counting nesting. A zone also stores one Chrome "X" trace
 * event, merged at export time into the trace-event JSON that
 * chrome://tracing and Perfetto load directly — except zones opened
 * with AW_PROF_TALLY, which only tally. Those are for sites inside the
 * simulator's cycle loop (one zone per memory instruction, per sample
 * close, per shard epoch), where an event each would swamp the trace.
 *
 * Threads: tallies are per thread, so a thread's zones never nest under
 * another thread's. A coordinator that holds a zone across a parallel
 * region therefore gets its wait for the workers as self time — on a
 * sharded simulation the coordinator's `sim/kernel` self time is its
 * wait for the shards, while the shards' own work lands in the workers'
 * `sim/issue` / `sim/memory` / `sim/sampling` tallies. Summed self time
 * then exceeds wall time by that wait; serial runs sum exactly.
 *
 * Cost model: profiling is off by default. A disabled zone is one
 * relaxed atomic load and a branch — no clock read, no thread_local
 * access — cheap enough for the per-memory-instruction zone. An enabled
 * zone takes one steady_clock read at entry and exit plus a short lock
 * on the owning thread's buffer at exit.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace aw::obs {

/** One completed zone instance ("X" trace event). */
struct TraceEvent
{
    std::string name;
    double tsUs = 0;  ///< start, microseconds since profiler epoch
    double durUs = 0; ///< inclusive duration, microseconds
    uint32_t tid = 0; ///< profiler-assigned thread id (1-based)
    uint32_t depth = 0; ///< nesting depth at entry (0 = top level)
};

/** Aggregated view of one zone name across all threads. */
struct ZoneStat
{
    std::string name;
    uint64_t count = 0;
    double totalUs = 0; ///< summed inclusive time
    double selfUs = 0;  ///< summed self time (minus nested zones)
};

/** Process-wide zone collector. */
class Profiler
{
  public:
    static Profiler &instance();

    /** Turn collection on/off. Zones opened while disabled are ignored
     *  entirely; zones open across a flip close harmlessly. */
    static void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }
    static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

    /** Open a zone on the calling thread. `name` must outlive the
     *  profiler (string literals; zone names are a fixed vocabulary).
     *  With `event` false the zone only tallies (see AW_PROF_TALLY). */
    void begin(const char *name, bool event = true);

    /** Close the calling thread's innermost zone. */
    void end();

    /**
     * Inject an externally-timed event. Zones (begin/end) only fit
     * work that stays on one thread; a request span that crosses the
     * reactor, a worker, and the reactor again is stamped by its
     * owners and emitted whole once it completes. The event's tsUs
     * must be relative to epoch() (see below). Emission ignores the
     * enabled flag — callers that emit gate themselves.
     */
    void emit(TraceEvent event);

    /** The instant tsUs == 0 refers to; externally-timed emitters
     *  rebase their own steady_clock stamps against this. */
    std::chrono::steady_clock::time_point epoch() const
    {
        return epoch_;
    }

    /** All completed events, merged across threads, start-time order. */
    std::vector<TraceEvent> events() const;

    /** Per-name tallies merged across threads, name order. Emitted
     *  events count too, with their whole duration as self time. */
    std::vector<ZoneStat> zoneStats() const;

    /** Chrome trace-event JSON ({"traceEvents": [...]}) for
     *  chrome://tracing / Perfetto. */
    std::string chromeTraceJson() const;

    /** Drop all recorded events and tallies (keeps enabled state).
     *  Zones still open record when they close. */
    void clear();

    struct ThreadBuf; ///< implementation detail (public for the TU)

  private:
    Profiler() = default;
    ThreadBuf &localBuf();

    inline static std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
};

/** RAII zone; see AW_PROF_SCOPE and AW_PROF_TALLY. */
class ZoneScope
{
  public:
    explicit ZoneScope(const char *name, bool event = true)
        : active_(Profiler::enabled())
    {
        if (active_)
            Profiler::instance().begin(name, event);
    }
    ~ZoneScope()
    {
        if (active_)
            Profiler::instance().end();
    }
    ZoneScope(const ZoneScope &) = delete;
    ZoneScope &operator=(const ZoneScope &) = delete;

  private:
    bool active_;
};

#define AW_PROF_CONCAT2(a, b) a##b
#define AW_PROF_CONCAT(a, b) AW_PROF_CONCAT2(a, b)

/** Open a profiling zone covering the rest of the enclosing scope. */
#define AW_PROF_SCOPE(name)                                                  \
    ::aw::obs::ZoneScope AW_PROF_CONCAT(awProfZone_, __LINE__)(name)

/** Same, but the zone only tallies: no trace event (cycle-loop sites). */
#define AW_PROF_TALLY(name)                                                  \
    ::aw::obs::ZoneScope AW_PROF_CONCAT(awProfZone_, __LINE__)(name, false)

} // namespace aw::obs
