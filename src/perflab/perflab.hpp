/**
 * @file
 * PerfLab — the repository's registry-based micro-benchmark harness.
 *
 * Named benches register {init, round, fini} callbacks (the cortx-motr
 * `c2_ub_set` shape); the runner owns everything the ~30 hand-rolled
 * bench mains used to copy-paste: warmup, repetitions, outlier-robust
 * stat accumulation (min/mean/median/max/stddev/CV via Welford), the
 * `--filter` / `--list` / `--rounds` CLI, and one schema-versioned
 * `aw.bench.v1` JSON artifact per bench (machine fingerprint, git rev,
 * thread count, env knobs) under `results/`.
 *
 * The same artifacts double as the perf-regression gate: run with
 * `--baseline-dir results/baselines` and every bench with a committed
 * baseline is compared min-vs-min (the noise-robust floor) and fails
 * the run when it regresses past the baseline's per-bench
 * `tolerance_pct`;
 * `--update-baselines` is the escape hatch that rewrites them.
 * AW_BENCH_SLOWDOWN=<factor> synthetically inflates measured round
 * times so the gate's failure path is itself testable.
 *
 * `bench/harness.cpp` builds every registered bench into the unified
 * `aw_bench` runner, the one entry point of the perflab_* benches. The
 * ablation and fig05 sources are paper experiments as well, so they
 * also build standalone: there a one-line `main` calls runMain() and
 * sees only its own registrations, and aw_bench compiles them with
 * AW_PERFLAB_HARNESS to drop that main.
 */
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace aw::perflab {

/**
 * Streaming statistics over round times: Welford's online algorithm
 * for mean/variance (no catastrophic cancellation at nanosecond
 * magnitudes) plus the raw samples for exact median/min/max.
 */
class StatAccumulator
{
  public:
    void add(double x);

    size_t count() const { return samples_.size(); }
    double min() const;
    double max() const;
    double mean() const { return mean_; }
    double sum() const;

    /** Sample standard deviation (n - 1 denominator); 0 for n < 2. */
    double stddev() const;

    /** Exact median; average of the middle pair for even counts. */
    double median() const;

    /** Coefficient of variation, stddev/mean; 0 when mean is 0. */
    double cv() const;

    const std::vector<double> &samples() const { return samples_; }

  private:
    std::vector<double> samples_;
    double mean_ = 0;
    double m2_ = 0;
};

class BenchContext;

/** One registered bench: callbacks plus its run/gate defaults. */
struct BenchSpec
{
    std::string name;        ///< [a-z0-9_]+; artifact is BENCH_<name>.json
    std::string description; ///< one line, shown by --list
    int defaultRounds = 20;  ///< timed rounds when --rounds is absent
    int defaultWarmup = 2;   ///< discarded rounds before timing
    double tolerancePct = 60.0; ///< gate: max median regression (%)

    std::function<void(BenchContext &)> init{};  ///< optional, untimed
    std::function<void(BenchContext &)> round{}; ///< required, timed
    std::function<void(BenchContext &)> fini{};  ///< optional, untimed
};

/**
 * Per-run state handed to the callbacks. `round()` is negative during
 * warmup (-warmup .. -1) and 0-based during timed rounds; stats() is
 * complete by the time fini runs. extras land in the artifact's
 * "extra" object, preserving insertion order.
 */
class BenchContext
{
  public:
    int round() const { return roundIdx_; }
    int rounds() const { return rounds_; }
    bool firstTimedRound() const { return roundIdx_ == 0; }

    const StatAccumulator &stats() const { return stats_; }

    /** Attach a bench-specific number/string to the JSON artifact. */
    void setExtra(const std::string &key, double value);
    void setExtraString(const std::string &key, const std::string &value);

    /** Mark the bench failed (first reason wins); the run exits 1. */
    void fail(const std::string &reason);
    bool failed() const { return failed_; }
    const std::string &failReason() const { return failReason_; }

    /** Extras in insertion order, values as rendered JSON fragments. */
    const std::vector<std::pair<std::string, std::string>> &extras() const
    {
        return extra_;
    }

  private:
    friend struct Runner;
    int roundIdx_ = 0;
    int rounds_ = 0;
    StatAccumulator stats_;
    /// key -> rendered JSON fragment (number or quoted string)
    std::vector<std::pair<std::string, std::string>> extra_;
    bool failed_ = false;
    std::string failReason_;
};

/** Static-init registration: `static const bool reg = registerBench(...)`.
 *  fatal() on a duplicate or malformed name. */
bool registerBench(BenchSpec spec);

/** Registered benches, name-sorted. */
std::vector<const BenchSpec *> registeredBenches();

/** Runner configuration (CLI and env resolved by runMain). */
struct RunOptions
{
    std::string filter;    ///< comma-separated substrings; empty = all
    int rounds = 0;        ///< 0 = per-bench default
    int warmup = -1;       ///< -1 = per-bench default
    std::string outDir = "results";
    std::string baselineDir;      ///< non-empty enables the gate
    bool updateBaselines = false; ///< write baselines instead of gating
    bool list = false;
    double slowdown = 1.0; ///< synthetic round-time multiplier (>= 1)
};

/** Run the matching benches; 0 when every bench and gate check passed. */
int runBenches(const RunOptions &opts);

/**
 * Full CLI: --list, --filter, --rounds, --warmup, --out-dir,
 * --baseline-dir, --update-baselines, --slowdown; env defaults
 * AW_BENCH_FILTER / AW_BENCH_ROUNDS / AW_BENCH_SLOWDOWN.
 */
int runMain(int argc, char **argv);

/** True when `name` matches the comma-separated substring filter. */
bool matchesFilter(const std::string &name, const std::string &filter);

/** Host fingerprint embedded in every artifact. */
struct MachineInfo
{
    std::string host;
    std::string os;   ///< "Linux 6.1.0" style
    std::string arch; ///< "x86_64"
    int cpus = 0;
};
MachineInfo machineInfo();

/** Current git revision (short), walking up from cwd; "unknown" when
 *  no .git is reachable. */
std::string gitRevision();

/** Render the aw.bench.v1 artifact for one executed bench. */
std::string benchJson(const BenchSpec &spec, const BenchContext &ctx,
                      int roundsRun, int warmupRun);

} // namespace aw::perflab
