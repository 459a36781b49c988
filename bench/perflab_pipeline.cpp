/**
 * @file
 * PerfLab bench for the calibration pipeline itself (formerly the
 * standalone `perf_pipeline` binary): one round = four full Volta
 * SASS SIM calibrations — serial vs parallel task pool, cold vs warm
 * result cache. The tuned energy vector must be bit-identical in all
 * four, which is the pipeline's core determinism guarantee; the bench
 * fails loudly if it is not. Per-configuration wall times, the
 * parallel speedup, and the warm-cache ratio land in the artifact's
 * `extra` block, so results/BENCH_pipeline.json keeps tracking the
 * pipeline's perf trajectory across commits.
 */
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/calibration.hpp"
#include "core/result_cache.hpp"
#include "perflab/perflab.hpp"

using namespace aw;
namespace fs = std::filesystem;

namespace {

struct RunResult
{
    std::string label;
    int threads = 1;
    double wallSec = 0;
    std::vector<double> energyNj;
};

// Private cache directory so this bench's timings are not polluted by
// (and do not pollute) entries from tests or other benches.
const char *const kCacheDir = "results/perf_pipeline_cache";

RunResult
runCalibration(const std::string &label, int threads, bool coldCache)
{
    if (coldCache)
        fs::remove_all(kCacheDir);
    setParallelThreadCount(threads);

    RunResult r;
    r.label = label;
    r.threads = parallelThreadCount();
    // A fresh calibrator per run: nothing carries over in memory, so
    // the only state shared between runs is the on-disk cache.
    AccelWattchCalibrator cal(sharedVoltaCard());
    auto t0 = std::chrono::steady_clock::now();
    const CalibratedVariant &v = cal.variant(Variant::SassSim);
    auto t1 = std::chrono::steady_clock::now();
    r.wallSec = std::chrono::duration<double>(t1 - t0).count();
    r.energyNj.assign(v.tuningFermi.finalEnergyNj.begin(),
                      v.tuningFermi.finalEnergyNj.end());
    return r;
}

bool
bitIdentical(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i] != b[i])
            return false;
    return true;
}

std::vector<RunResult> g_runs;

void
pipelineInit(perflab::BenchContext &)
{
    ResultCache::instance().configure(kCacheDir);
    ResultCache::instance().setEnabled(true);
    g_runs.clear();
}

void
pipelineRound(perflab::BenchContext &)
{
    // 0 = the AW_THREADS / hardware-concurrency default.
    g_runs.clear();
    g_runs.push_back(runCalibration("serial_cold", 1, true));
    g_runs.push_back(runCalibration("serial_warm", 1, false));
    g_runs.push_back(runCalibration("parallel_cold", 0, true));
    g_runs.push_back(runCalibration("parallel_warm", 0, false));
    setParallelThreadCount(0);
}

void
pipelineFini(perflab::BenchContext &ctx)
{
    bool identical = true;
    for (size_t i = 1; i < g_runs.size(); ++i)
        identical = identical &&
                    bitIdentical(g_runs[0].energyNj, g_runs[i].energyNj);

    double speedup = g_runs[0].wallSec / g_runs[2].wallSec;
    double warmRatio = g_runs[3].wallSec / g_runs[0].wallSec;
    for (const auto &r : g_runs)
        ctx.setExtra(r.label + "_sec", r.wallSec);
    ctx.setExtra("parallel_threads", g_runs[2].threads);
    ctx.setExtra("parallel_cold_speedup", speedup);
    ctx.setExtra("warm_over_serial_cold", warmRatio);
    ctx.setExtra("energies_bit_identical", identical ? 1 : 0);
    ctx.setExtra("tuned_components",
                 static_cast<double>(g_runs[0].energyNj.size()));

    std::printf("  parallel cold speedup over serial cold: %.2fx "
                "(%d threads)\n",
                speedup, g_runs[2].threads);
    std::printf("  parallel warm / serial cold: %.1f%%\n", 100 * warmRatio);
    if (!identical)
        ctx.fail("tuned energy vectors differ across pipeline "
                 "configurations - determinism broken");

    fs::remove_all(kCacheDir);
    g_runs.clear();
}

[[maybe_unused]] const bool regPipeline = perflab::registerBench({
    .name = "pipeline",
    .description = "full calibration: serial/parallel x cold/warm cache, "
                   "bit-identity checked",
    .defaultRounds = 1,
    .defaultWarmup = 0,
    .init = pipelineInit,
    .round = pipelineRound,
    .fini = pipelineFini,
});

} // namespace
