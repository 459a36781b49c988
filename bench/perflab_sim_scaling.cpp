/**
 * @file
 * PerfLab `sim_scaling` — the sharded simulator's threads × cards
 * scaling sweep (ROADMAP item 1's acceptance artifact,
 * `results/BENCH_sim_scaling.json`).
 *
 * The timed rounds run the reference configuration (detail = 8 SM
 * groups, ambient AW_SIM_THREADS) across three cards, so the artifact's
 * round time and `watts_checksum` are directly comparable between
 * check.sh invocations at different thread counts. fini() then sweeps
 * `simThreads` in {1, 2, 4, 8}:
 *
 *  - Determinism gate: the per-thread-count watts checksums must be
 *    bit-identical; any divergence fails the bench.
 *  - `wall_speedup_8t`: measured wall-clock ratio. On the CI box
 *    (often 1 hardware thread) this is ~1× by construction; it is
 *    reported, not gated.
 *  - `cold_speedup`: the modeled critical-path speedup — per-epoch
 *    per-shard busy times are measured on the serial run, and each
 *    epoch's shards are list-scheduled (LPT) onto N workers; the
 *    speedup is serial busy time over the summed epoch makespans.
 *    This is the machine-independent quantity the shard partition
 *    actually determines (`speedup_definition` names it in the
 *    artifact), gated at >= 4x for 8 threads.
 */
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "perflab/perflab.hpp"
#include "ubench/microbench.hpp"

using namespace aw;

namespace {

KernelDescriptor
scalingComputeKernel()
{
    auto k = makeKernel("scal_compute",
                        {{OpClass::FpFma, 0.5}, {OpClass::IntMad, 0.5}},
                        160, 8);
    k.iterations = 24;
    return k;
}

KernelDescriptor
scalingMemoryKernel()
{
    auto k = makeKernel("scal_memory",
                        {{OpClass::LdGlobal, 0.4}, {OpClass::IntAdd, 0.6}},
                        160, 8);
    k.memFootprintKb = 4096;
    k.iterations = 24;
    return k;
}

/** Synthetic model (evaluation cost is value-independent); the watts
 *  checksum only needs a fixed, deterministic weighting. */
AccelWattchModel
scalingModel()
{
    AccelWattchModel model;
    model.gpu = voltaGV100();
    model.refVoltage = model.gpu.referenceVoltage();
    model.constPowerW = 40.0;
    model.idleSmW = 0.6;
    model.calibrationSms = model.gpu.numSms;
    for (auto &d : model.divergence) {
        d.firstLaneW = 16.0;
        d.addLaneW = 0.8;
    }
    for (size_t c = 0; c < kNumPowerComponents; ++c)
        model.energyNj[c] = 0.5 + 0.1 * static_cast<double>(c);
    return model;
}

constexpr int kDetail = 8;

/** Greedy longest-processing-time list schedule of `times` onto
 *  `workers` bins; returns the makespan. */
double
lptMakespan(std::vector<double> times, int workers)
{
    std::sort(times.begin(), times.end(), std::greater<>());
    std::vector<double> bins(static_cast<size_t>(std::max(1, workers)),
                             0.0);
    for (double t : times)
        *std::min_element(bins.begin(), bins.end()) += t;
    return *std::max_element(bins.begin(), bins.end());
}

/** One detail-8 simulation of both kernels on one card, accumulating
 *  watts, wall seconds, and the per-epoch shard busy-time vectors. */
struct SweepAccum
{
    double watts = 0;
    double wallSec = 0;
    std::vector<std::vector<double>> epochs;
};

void
runPair(const GpuConfig &gpu, const AccelWattchModel &model, int threads,
        SweepAccum &acc)
{
    GpuSimulator sim(gpu);
    SimOptions opts;
    opts.detailSms = kDetail;
    opts.simThreads = threads;
    for (const KernelDescriptor &k :
         {scalingComputeKernel(), scalingMemoryKernel()}) {
        KernelActivity act = sim.runSass(k, opts);
        acc.watts += model.evaluateKernel(act).totalW();
        const SimRunStats &stats = lastSimRunStats();
        acc.wallSec += stats.simulateSec;
        acc.epochs.insert(acc.epochs.end(), stats.epochShardSec.begin(),
                          stats.epochShardSec.end());
    }
}

struct ScalingState
{
    std::unique_ptr<AccelWattchModel> model;
    std::vector<GpuConfig> cards;
    double watts = 0;
};
ScalingState g_scaling;

void
scalingInit(perflab::BenchContext &)
{
    g_scaling.model = std::make_unique<AccelWattchModel>(scalingModel());
    g_scaling.cards = {voltaGV100(), pascalTitanX(), turingRTX2060S()};
    g_scaling.watts = 0;
}

void
scalingRound(perflab::BenchContext &)
{
    // Ambient thread count (AW_SIM_THREADS / --sim-threads): check.sh
    // compares this round time and checksum across thread settings.
    for (const GpuConfig &gpu : g_scaling.cards) {
        SweepAccum acc;
        runPair(gpu, *g_scaling.model, /*threads=*/0, acc);
        g_scaling.watts += acc.watts;
    }
}

void
scalingFini(perflab::BenchContext &ctx)
{
    ctx.setExtra("detail_sms", kDetail);
    ctx.setExtra("cards", static_cast<double>(g_scaling.cards.size()));
    ctx.setExtra("watts_checksum", g_scaling.watts);

    const int threadCounts[] = {1, 2, 4, 8};
    double checksum1 = 0;
    bool diverged = false;
    double serial1 = 0, wall1 = 0, makespan8 = 0, wall8 = 0;
    for (int t : threadCounts) {
        SweepAccum acc;
        for (const GpuConfig &gpu : g_scaling.cards)
            runPair(gpu, *g_scaling.model, t, acc);
        std::string suffix = "_t" + std::to_string(t);
        ctx.setExtra("watts_checksum" + suffix, acc.watts);
        ctx.setExtra("wall_sec" + suffix, acc.wallSec);
        if (t == 1) {
            checksum1 = acc.watts;
            wall1 = acc.wallSec;
            // The makespan model uses the SERIAL run's per-epoch shard
            // busy times for every worker count: on an oversubscribed
            // host a multi-thread run's measured shard times include
            // preemption, which is a property of the box, not of the
            // partition being graded. Preemption can spike a serial
            // run's individual tasks too (LPT cannot split one inflated
            // task), so the times are the elementwise MIN over repeat
            // serial runs — determinism guarantees the repeats do the
            // same work, making min the spike filter.
            std::vector<std::vector<double>> times = acc.epochs;
            for (int rep = 0; rep < 2; ++rep) {
                SweepAccum again;
                for (const GpuConfig &gpu : g_scaling.cards)
                    runPair(gpu, *g_scaling.model, 1, again);
                for (size_t e = 0;
                     e < times.size() && e < again.epochs.size(); ++e)
                    for (size_t s = 0; s < times[e].size(); ++s)
                        times[e][s] =
                            std::min(times[e][s], again.epochs[e][s]);
            }
            for (const auto &epoch : times)
                for (double s : epoch)
                    serial1 += s;
            for (int workers : threadCounts) {
                double makespan = 0;
                for (const auto &epoch : times)
                    makespan += lptMakespan(epoch, workers);
                ctx.setExtra("makespan_sec_t" + std::to_string(workers),
                             makespan);
                if (workers == 8)
                    makespan8 = makespan;
            }
        } else if (acc.watts != checksum1) {
            diverged = true;
        }
        if (t == 8)
            wall8 = acc.wallSec;
    }

    double coldSpeedup = makespan8 > 0 ? serial1 / makespan8 : 0;
    double wallSpeedup = wall8 > 0 ? wall1 / wall8 : 0;
    ctx.setExtra("serial_busy_sec", serial1);
    ctx.setExtra("cold_speedup", coldSpeedup);
    ctx.setExtra("wall_speedup_8t", wallSpeedup);
    ctx.setExtraString(
        "speedup_definition",
        "cold_speedup = serial shard busy time / sum of per-epoch LPT "
        "makespans on 8 workers (critical path of the shard partition, "
        "machine-independent); wall_speedup_8t is the measured "
        "wall-clock ratio on this host");

    if (diverged)
        ctx.fail("watts checksum diverges across AW_SIM_THREADS "
                 "settings (sharded engine is nondeterministic)");
    else if (coldSpeedup < 4.0)
        ctx.fail("modeled 8-thread cold speedup " +
                 std::to_string(coldSpeedup) +
                 "x is below the 4x acceptance floor");

    g_scaling.model.reset();
    g_scaling.cards.clear();
}

[[maybe_unused]] const bool regScaling = perflab::registerBench({
    .name = "sim_scaling",
    .description =
        "sharded-simulator threads x cards sweep: determinism + >=4x "
        "modeled cold speedup at 8 threads",
    .defaultRounds = 5,
    .init = scalingInit,
    .round = scalingRound,
    .fini = scalingFini,
});

} // namespace
