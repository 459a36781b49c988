/**
 * @file
 * Run-telemetry sink: one place that serializes everything a run
 * learned — the metrics registry, the profiler's per-zone tallies
 * (count, inclusive and self time: where the simulator and the model
 * spent the run's wall clock), and per-kernel performance/power
 * summaries — to JSON or CSV at end of run, so a tuning campaign or
 * validation sweep leaves a machine-readable record instead of
 * scrollback.
 *
 * Wiring: binaries call writeMetricsJson()/writeTraceJson() behind
 * their --metrics-out/--trace-out flags, or let initSinksFromEnv()
 * arrange an at-exit flush from AW_METRICS_OUT / AW_TRACE_OUT (the
 * route the bench harness uses, so every figure bench is instrumented
 * without per-binary flag plumbing). Either sink turns the profiler on
 * when it is requested, so the zones it reports are recorded.
 */
#pragma once

#include <mutex>
#include <string>
#include <vector>

namespace aw::obs {

/** Per-kernel summary recorded by whoever evaluated the kernel. */
struct KernelRecord
{
    std::string name;
    std::string phase;     ///< "simulate" | "tune" | "validate" | ...
    double cycles = 0;     ///< performance-model cycles
    double elapsedSec = 0; ///< modeled wall-clock of the kernel
    double modeledW = 0;   ///< AccelWattch estimate (0 when N/A)
    double measuredW = 0;  ///< hardware/NVML power (0 when N/A)
};

/** Process-wide telemetry accumulator. */
class Telemetry
{
  public:
    static Telemetry &instance();

    /** Append one kernel summary (thread-safe). */
    void recordKernel(KernelRecord record);

    std::vector<KernelRecord> kernels() const;

    /** Drop recorded kernels (test support). */
    void clear();

    /**
     * The run-telemetry JSON document:
     *   {"schema": "aw.telemetry.v1",
     *    "metrics": {<registry toJson>},
     *    "zones": [{"name","count","total_us","self_us"}...],
     *    "kernels": [{"name","phase","cycles",...}...]}
     */
    std::string toJson() const;

    /** Metrics registry + kernel records as CSV sections. */
    std::string toCsv() const;

  private:
    Telemetry() = default;
    mutable std::mutex mu_;
    std::vector<KernelRecord> kernels_;
};

/** Write the run-telemetry JSON (metrics + zones + kernels). */
void writeMetricsJson(const std::string &path);

/** Write the metrics/kernels CSV. */
void writeMetricsCsv(const std::string &path);

/** Write the Chrome trace-event JSON of all recorded zones. */
void writeTraceJson(const std::string &path);

/**
 * Arrange end-of-process sinks from the environment: AW_METRICS_OUT
 * (telemetry JSON; a ".csv" suffix selects CSV), AW_TRACE_OUT (Chrome
 * trace JSON) — both enable the profiler now — and AW_POWERSCOPE (base
 * path for the powerscope report/trace/dashboard triple; enables the
 * PowerScope collector and the profiler now). All sinks publish via
 * temp-file + atomic rename. Safe to call more than once; the flush
 * registers only once.
 */
void initSinksFromEnv();

} // namespace aw::obs
