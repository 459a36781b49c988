#include "sim/shard.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aw {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One detailed SM group and its private simulation state. */
struct Shard
{
    std::unique_ptr<MemorySystem> mem;
    std::unique_ptr<SmCore> sm;
    int smCount = 0;
    double now = 0;
    double sampleStart = 0;
    std::vector<ActivitySample> samples;
    double busySec = 0;
};

bool
sampleIsIdle(const ActivitySample &s)
{
    for (double a : s.accesses)
        if (a != 0)
            return false;
    for (double u : s.unitInsts)
        if (u != 0)
            return false;
    return s.intAddInsts == 0 && s.intMulInsts == 0;
}

} // namespace

ShardPlan
planShards(int activeSms, int detail)
{
    AW_ASSERT(activeSms >= 1);
    const int groups = std::clamp(detail, 1, activeSms);
    const int base = activeSms / groups;
    const int rem = activeSms % groups;
    ShardPlan plan;
    plan.smCounts.reserve(static_cast<size_t>(groups));
    plan.firstSmIndex.reserve(static_cast<size_t>(groups));
    int first = 0;
    for (int g = 0; g < groups; ++g) {
        int count = base + (g < rem ? 1 : 0);
        plan.smCounts.push_back(count);
        plan.firstSmIndex.push_back(first);
        first += count;
    }
    return plan;
}

KernelActivity
runShardedSim(const GpuConfig &gpu, const KernelDescriptor &desc,
              const WarpProgram &program, const SimOptions &opts,
              const LaunchShape &shape, double freqGhz, int detail,
              SimRunStats &stats)
{
    AW_ASSERT(detail >= 2);
    std::vector<Shard> shards;
    {
        AW_PROF_SCOPE("sim/setup");
        ShardPlan plan = planShards(shape.activeSms, detail);
        shards.resize(plan.smCounts.size());
        for (size_t g = 0; g < shards.size(); ++g) {
            Shard &sh = shards[g];
            sh.smCount = plan.smCounts[g];
            // Each shard's memory system keeps the legacy 1/k capacity
            // and bandwidth shares: the shard still stands for one SM's
            // view of the chip; detail only diversifies which SMs get a
            // detailed model.
            sh.mem = std::make_unique<MemorySystem>(
                gpu, shape.activeSms, freqGhz,
                program.isa == IsaLevel::Ptx);
            sh.sm = std::make_unique<SmCore>(
                gpu, desc, program, shape.residentWarps, *sh.mem, freqGhz,
                opts.scheduler == SchedulerPolicy::RoundRobin,
                plan.firstSmIndex[g]);
        }
    }

    const size_t numShards = shards.size();
    const double interval = opts.sampleIntervalCycles;
    const double epochCycles =
        interval * std::max(1, opts.epochIntervals);
    const double cap = static_cast<double>(opts.maxCycles);
    const int threads = std::max(
        1, opts.simThreads > 0 ? opts.simThreads : simThreadCount());

    stats.detail = static_cast<int>(numShards);
    stats.shards = static_cast<int>(numShards);
    stats.threads = threads;

    KernelActivity out;
    out.kernelName = desc.name;

    const Clock::time_point simStart = Clock::now();
    double epochEnd = 0;
    while (true) {
        // Cooperative cancellation (service deadlines): the check sits
        // at the epoch boundary so no worker is ever interrupted
        // mid-epoch — the partial activity merged below is still
        // deterministic, it is just flagged unusable via
        // stats.cancelled.
        if (opts.cancel && opts.cancel->load(std::memory_order_relaxed)) {
            stats.cancelled = true;
            obs::metrics().counter("sim.cancelled").add(1);
            break;
        }
        bool anyRunnable = false;
        for (const Shard &sh : shards) {
            if (!sh.sm->done() && sh.now < cap) {
                anyRunnable = true;
                break;
            }
        }
        if (!anyRunnable)
            break;
        epochEnd += epochCycles;

        std::vector<double> epochSec(numShards, 0.0);
        parallelForWith(threads, numShards, [&](size_t g) {
            Shard &sh = shards[g];
            if (sh.sm->done() || sh.now >= cap)
                return;
            const Clock::time_point t0 = Clock::now();
            // Workers tally their own epochs; the coordinator's
            // sim/kernel self time is its wait (see obs/trace.hpp).
            AW_PROF_TALLY("sim/issue");
            SmCore &sm = *sh.sm;
            while (!sm.done() && sh.now < cap && sh.now < epochEnd) {
                double next = sm.step(sh.now);
                // Identical sample-close logic to the legacy wave loop;
                // pausing at the epoch boundary preserves the exact
                // step/close sequence, so epoch size cannot change the
                // shard's output.
                if (next >= sh.sampleStart + interval) {
                    AW_PROF_TALLY("sim/sampling");
                    ActivitySample s = sm.drainActivity();
                    s.cycles = interval;
                    sh.samples.push_back(std::move(s));
                    sh.sampleStart += interval;
                    double idleIntervals =
                        std::floor((next - sh.sampleStart) / interval);
                    if (idleIntervals >= 1) {
                        ActivitySample idle = sm.drainActivity();
                        idle.cycles = idleIntervals * interval;
                        sh.samples.push_back(std::move(idle));
                        sh.sampleStart += idleIntervals * interval;
                    }
                }
                sh.now = next;
            }
            double sec = secondsSince(t0);
            epochSec[g] = sec;
            sh.busySec += sec;
        });

        // Epoch barrier: drain every shard's memory ledger in SM-index
        // order so the chip totals accumulate identically at any thread
        // count.
        AW_PROF_TALLY("sim/sync");
        const Clock::time_point t0 = Clock::now();
        for (Shard &sh : shards) {
            MemTraffic t = sh.mem->drainTraffic();
            stats.memTraffic.l2Accesses += t.l2Accesses;
            stats.memTraffic.dramAccesses += t.dramAccesses;
            stats.memTraffic.l2BusyCycles += t.l2BusyCycles;
            stats.memTraffic.dramBusyCycles += t.dramBusyCycles;
        }
        stats.epochShardSec.push_back(std::move(epochSec));
        ++stats.epochs;
        stats.barrierSec += secondsSince(t0);
    }
    stats.simulateSec = secondsSince(simStart);
    stats.shardBusySec.reserve(numShards);
    for (const Shard &sh : shards)
        stats.shardBusySec.push_back(sh.busySec);

    AW_PROF_SCOPE("sim/finalize");
    const Clock::time_point mergeStart = Clock::now();
    double maxNow = 0;
    for (Shard &sh : shards) {
        if (!sh.sm->done())
            warn("simulation of %s (shard sm %d+) hit the cycle cap (%ld)",
                 desc.name.c_str(), sh.smCount, opts.maxCycles);
        if (sh.now > sh.sampleStart) {
            ActivitySample s = sh.sm->drainActivity();
            s.cycles = sh.now - sh.sampleStart;
            sh.samples.push_back(std::move(s));
        }
        maxNow = std::max(maxNow, sh.now);
        stats.issuedInsts += sh.sm->issuedInsts();
        stats.issueCycles += sh.sm->issueCycles();
        stats.stallCycles += sh.sm->stallCycles();
    }

    // Ordered merge onto the sample-interval grid. Every shard sample
    // starts on a grid multiple and carries its activity in its first
    // interval (collapsed idle runs are all-zero by construction), so
    // attributing each sample to its starting slot and summing shards
    // in SM-index order reproduces a chip-wide 500-cycle stream
    // exactly, independent of thread count.
    const size_t slots = static_cast<size_t>(
        std::max(1.0, std::ceil(maxNow / interval)));
    // A drained (post-tail) sample keeps only the intensive settings
    // (clock, voltage, lane occupancy) — the template for merged slots.
    ActivitySample tmpl = shards[0].sm->drainActivity();
    std::vector<ActivitySample> grid(slots, tmpl);
    for (Shard &sh : shards) {
        const double scale = sh.smCount;
        size_t slot = 0;
        for (const ActivitySample &s : sh.samples) {
            AW_ASSERT(slot < slots);
            ActivitySample &dst = grid[slot];
            for (size_t c = 0; c < s.accesses.size(); ++c)
                dst.accesses[c] += s.accesses[c] * scale;
            for (size_t u = 0; u < s.unitInsts.size(); ++u)
                dst.unitInsts[u] += s.unitInsts[u] * scale;
            dst.intAddInsts += s.intAddInsts * scale;
            dst.intMulInsts += s.intMulInsts * scale;
            slot += static_cast<size_t>(
                std::max<long long>(1, std::llround(s.cycles / interval)));
        }
        sh.samples.clear();
    }

    // Slot cycle spans; the last slot covers the fractional remainder.
    for (size_t i = 0; i < slots; ++i) {
        grid[i].cycles = interval;
        grid[i].avgActiveSms = shape.activeSms;
    }
    grid[slots - 1].cycles =
        maxNow - static_cast<double>(slots - 1) * interval;

    // Collapse runs of all-idle slots, mirroring the legacy loop's
    // fast-forward coalescing, so long stalls stay one sample.
    out.samples.reserve(slots);
    for (size_t i = 0; i < slots; ++i) {
        if (!out.samples.empty() && sampleIsIdle(grid[i]) &&
            sampleIsIdle(out.samples.back())) {
            out.samples.back().cycles += grid[i].cycles;
            continue;
        }
        out.samples.push_back(std::move(grid[i]));
    }

    out.totalCycles = maxNow * shape.waves;
    out.elapsedSec = out.totalCycles / (freqGhz * 1e9);
    stats.barrierSec += secondsSince(mergeStart);
    return out;
}

} // namespace aw
