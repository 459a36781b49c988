/**
 * @file
 * PerfLab bench for awd's request-lifecycle observability: the same
 * memo-served request stream is driven through two in-process daemons,
 * one with every observability knob off (the always-on latency
 * histograms only — the production default) and one with spans, the
 * flight recorder, and Chrome-trace export all enabled. One round
 * times both sides back to back; the committed baseline tracks the
 * paired round time, and fini gates the obs-on side within 3% of
 * obs-off (ISSUE 10's "observability never costs the serving path"
 * acceptance point).
 *
 * The stream is deliberately memo-served (keys warmed in init): a
 * request that misses the memo spends milliseconds in the simulator,
 * which would hide any span/recorder overhead in noise. The memo fast
 * path is where per-request bookkeeping is the largest relative cost,
 * so it is the path the 3% gate must hold on.
 *
 * Pairing: on a contended 1-CPU box (ctest -j) a competing process
 * slows whichever side it overlaps, so no single round is trustworthy.
 * Each round scores its own off/on ratio and the gate takes the best
 * pair — a pair only scores well when its window was evenly contended
 * or quiet (same reasoning as service_batch's speedup gate).
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/result_cache.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "perflab/perflab.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "trace/workload.hpp"

using namespace aw;
namespace fs = std::filesystem;

namespace {

const char *const kObsCacheDir = "results/perf_service_obs_cache";
const char *const kObsTracePath = "results/perf_service_obs_trace.json";
constexpr int kObsDistinctKernels = 8;
constexpr int kObsRequestsPerSide = 1000;

std::unique_ptr<service::AwdServer> g_obsOff, g_obsOn;
double g_obsOffMinSec = 0, g_obsOnMinSec = 0;
double g_obsBestRatio = 0; ///< best per-round off/on time ratio
long g_obsBad = 0;

service::EstimateRequest
obsRequest(int i)
{
    static const std::vector<MixEntry> mixes[] = {
        {{OpClass::FpFma, 0.6}, {OpClass::LdGlobal, 0.4}},
        {{OpClass::IntMad, 0.7}, {OpClass::LdShared, 0.3}},
        {{OpClass::DpFma, 0.5}, {OpClass::StGlobal, 0.5}},
        {{OpClass::Tensor, 0.4}, {OpClass::IntAdd, 0.6}},
    };
    const int k = i % kObsDistinctKernels;
    service::EstimateRequest req;
    req.hasKernel = true;
    req.kernel = makeKernel("svc_obs_k" + std::to_string(k), mixes[k % 4],
                            /*ctas=*/80, /*warpsPerCta=*/4);
    req.kernel.iterations = 4;
    req.kernel.bodyInsts = 32;
    req.kernel.seed = static_cast<uint64_t>(k) + 1;
    return req;
}

service::ClientOptions
obsClientOptions(const service::AwdServer &server)
{
    service::ClientOptions opts;
    opts.port = server.port();
    opts.retry.maxAttempts = 2;
    opts.retry.initialBackoffSec = 0.002;
    opts.retry.maxBackoffSec = 0.02;
    opts.retry.backoffBudgetSec = 0.5;
    return opts;
}

/** Serial memo-served stream against one daemon; returns wall seconds
 *  (and counts non-ok replies into g_obsBad). */
double
obsSide(service::AwdServer &server)
{
    using Clock = std::chrono::steady_clock;
    service::AwdClient client(obsClientOptions(server));
    const auto t0 = Clock::now();
    for (int i = 0; i < kObsRequestsPerSide; ++i)
        if (!client.estimate(obsRequest(i)))
            ++g_obsBad;
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

service::ServerOptions
obsServerOptions()
{
    service::ServerOptions opts;
    opts.port = 0;
    opts.threads = 2;
    opts.maxQueue = 128;
    opts.defaultDeadlineMs = 30e3;
    return opts;
}

void
serviceObsInit(perflab::BenchContext &ctx)
{
    ResultCache::instance().configure(kObsCacheDir);
    ResultCache::instance().setEnabled(true);
    fs::remove(kObsTracePath);
    g_obsOffMinSec = g_obsOnMinSec = g_obsBestRatio = 0;
    g_obsBad = 0;

    std::string error;
    g_obsOff = std::make_unique<service::AwdServer>(obsServerOptions());
    if (!g_obsOff->start(error)) {
        ctx.fail("obs-off daemon start failed: " + error);
        return;
    }
    service::ServerOptions on = obsServerOptions();
    on.tracePath = kObsTracePath;
    on.flightN = 256;
    on.slowMs = 60e3; // slow log armed but never firing: no warn spam
    g_obsOn = std::make_unique<service::AwdServer>(on);
    if (!g_obsOn->start(error)) {
        ctx.fail("obs-on daemon start failed: " + error);
        return;
    }
    // Warm every distinct kernel on both daemons so the timed rounds
    // measure the memo fast path, not first-touch simulation. The
    // second warm pass is cheap — the on-disk activity cache already
    // holds the runs.
    service::AwdClient warmOff(obsClientOptions(*g_obsOff));
    service::AwdClient warmOn(obsClientOptions(*g_obsOn));
    for (int i = 0; i < kObsDistinctKernels; ++i) {
        warmOff.estimate(obsRequest(i));
        warmOn.estimate(obsRequest(i));
    }
}

void
serviceObsRound(perflab::BenchContext &)
{
    const double offSec = obsSide(*g_obsOff);
    const double onSec = obsSide(*g_obsOn);
    if (g_obsOffMinSec == 0 || offSec < g_obsOffMinSec)
        g_obsOffMinSec = offSec;
    if (g_obsOnMinSec == 0 || onSec < g_obsOnMinSec)
        g_obsOnMinSec = onSec;
    if (onSec > 0)
        g_obsBestRatio = std::max(g_obsBestRatio, offSec / onSec);
    // Spans feed the process-wide profiler; drop each round's events so
    // a long bench neither grows without bound nor slows later rounds.
    obs::Profiler::instance().clear();
}

void
serviceObsFini(perflab::BenchContext &ctx)
{
    long recorded = -1;
    {
        obs::JsonValue v;
        if (obs::tryParseJson(g_obsOn->statsJson(), v))
            recorded = static_cast<long>(
                v.at("flight_recorder").at("recorded").asNumber());
    }
    g_obsOff->requestStop();
    g_obsOn->requestStop();
    const int drainOff = g_obsOff->wait();
    const int drainOn = g_obsOn->wait();
    g_obsOff.reset();
    g_obsOn.reset();

    const double reqpsOff =
        g_obsOffMinSec > 0 ? kObsRequestsPerSide / g_obsOffMinSec : 0;
    const double reqpsOn =
        g_obsOnMinSec > 0 ? kObsRequestsPerSide / g_obsOnMinSec : 0;
    const double overheadPct =
        g_obsBestRatio > 0 ? (1.0 / g_obsBestRatio - 1.0) * 100.0 : 100.0;
    ctx.setExtra("requests_per_side",
                 static_cast<double>(kObsRequestsPerSide));
    ctx.setExtra("reqps_off", reqpsOff);
    ctx.setExtra("reqps_on", reqpsOn);
    ctx.setExtra("obs_overhead_pct", overheadPct);
    ctx.setExtra("flight_recorded", static_cast<double>(recorded));
    ctx.setExtra("bad_replies", static_cast<double>(g_obsBad));
    ctx.setExtra("clean_drain",
                 (drainOff == 0 && drainOn == 0) ? 1 : 0);

    std::printf("  off %.1f ms, on %.1f ms (best-pair overhead %.2f%%), "
                "%ld spans recorded\n",
                g_obsOffMinSec * 1e3, g_obsOnMinSec * 1e3, overheadPct,
                recorded);

    if (g_obsBad > 0)
        ctx.fail("traffic produced " + std::to_string(g_obsBad) +
                 " non-ok replies");
    if (g_obsBestRatio < 0.97)
        ctx.fail("obs-on throughput is " + std::to_string(overheadPct) +
                 "% below obs-off (3% gate)");
    if (recorded < kObsRequestsPerSide)
        ctx.fail("flight recorder saw " + std::to_string(recorded) +
                 " spans; the obs-on side was not actually observing");
    if (drainOff != 0 || drainOn != 0)
        ctx.fail("a daemon drain was forced");

    obs::Profiler::instance().clear();
    fs::remove(kObsTracePath);
    fs::remove_all(kObsCacheDir);
}

[[maybe_unused]] const bool regServiceObs = perflab::registerBench({
    .name = "service_obs",
    .description = "awd observability overhead: spans + flight recorder "
                   "+ trace export vs the knobs-off serving path",
    .defaultRounds = 10,
    .defaultWarmup = 1,
    .init = serviceObsInit,
    .round = serviceObsRound,
    .fini = serviceObsFini,
});

} // namespace
