/**
 * @file
 * Tests of the profiling-zone collector and the run-telemetry sink:
 * zone nesting, per-thread buffers, Chrome trace-event export, and the
 * telemetry JSON/CSV documents (all round-tripped through the strict
 * JSON parser).
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/table.hpp"
#include "core/power_model.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/powerscope.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/gpusim.hpp"
#include "trace/workload.hpp"

using namespace aw;
using namespace aw::obs;

namespace {

class ProfilerTest : public testing::Test
{
  protected:
    void SetUp() override
    {
        Profiler::instance().clear();
        Profiler::instance().setEnabled(true);
    }
    void TearDown() override
    {
        Profiler::instance().setEnabled(false);
        Profiler::instance().clear();
    }
};

TEST_F(ProfilerTest, DisabledProfilerRecordsNothing)
{
    Profiler::instance().setEnabled(false);
    {
        AW_PROF_SCOPE("off/zone");
    }
    EXPECT_TRUE(Profiler::instance().events().empty());
}

TEST_F(ProfilerTest, ZonesNestWithDepthAndContainment)
{
    {
        AW_PROF_SCOPE("outer");
        {
            AW_PROF_SCOPE("inner");
        }
        {
            AW_PROF_SCOPE("inner");
        }
    }
    auto events = Profiler::instance().events();
    ASSERT_EQ(events.size(), 3u);

    // events() is start-time ordered: outer first, then the two inners.
    EXPECT_EQ(events[0].name, "outer");
    EXPECT_EQ(events[0].depth, 0u);
    EXPECT_EQ(events[1].name, "inner");
    EXPECT_EQ(events[1].depth, 1u);
    EXPECT_EQ(events[2].name, "inner");
    EXPECT_EQ(events[2].depth, 1u);

    // Children start after the parent and finish within it.
    for (int i : {1, 2}) {
        EXPECT_GE(events[i].tsUs, events[0].tsUs);
        EXPECT_LE(events[i].tsUs + events[i].durUs,
                  events[0].tsUs + events[0].durUs + 1e-3);
    }
}

TEST_F(ProfilerTest, ThreadsGetDistinctTids)
{
    {
        AW_PROF_SCOPE("main/zone");
    }
    std::thread worker([] { AW_PROF_SCOPE("worker/zone"); });
    worker.join();

    auto events = Profiler::instance().events();
    ASSERT_EQ(events.size(), 2u);
    std::set<uint32_t> tids;
    for (const auto &e : events)
        tids.insert(e.tid);
    EXPECT_EQ(tids.size(), 2u);
}

TEST_F(ProfilerTest, ZoneStatsAggregateByName)
{
    for (int i = 0; i < 3; ++i) {
        AW_PROF_SCOPE("repeat");
    }
    {
        AW_PROF_SCOPE("once");
    }
    auto stats = Profiler::instance().zoneStats();
    ASSERT_EQ(stats.size(), 2u); // name order: "once", "repeat"
    EXPECT_EQ(stats[0].name, "once");
    EXPECT_EQ(stats[0].count, 1u);
    EXPECT_EQ(stats[1].name, "repeat");
    EXPECT_EQ(stats[1].count, 3u);
    EXPECT_GE(stats[1].totalUs, 0.0);
}

TEST_F(ProfilerTest, UnbalancedEndIsHarmless)
{
    Profiler::instance().end(); // nothing open: must not crash
    {
        AW_PROF_SCOPE("ok");
    }
    EXPECT_EQ(Profiler::instance().events().size(), 1u);
}

TEST_F(ProfilerTest, ChromeTraceJsonIsWellFormed)
{
    {
        AW_PROF_SCOPE("sim/kernel");
        {
            AW_PROF_SCOPE("sim/wave");
        }
    }
    JsonValue doc = parseJson(Profiler::instance().chromeTraceJson());
    ASSERT_TRUE(doc.isObject());
    const JsonValue &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    ASSERT_EQ(events.array.size(), 2u);
    for (const JsonValue &e : events.array) {
        EXPECT_EQ(e.at("ph").asString(), "X"); // complete events
        EXPECT_EQ(e.at("cat").asString(), "aw");
        EXPECT_GE(e.at("ts").asNumber(), 0.0);
        EXPECT_GE(e.at("dur").asNumber(), 0.0);
        EXPECT_GE(e.at("tid").asNumber(), 1.0);
        EXPECT_EQ(e.at("pid").asNumber(), 1.0);
    }
    EXPECT_EQ(events.array[0].at("name").asString(), "sim/kernel");
    EXPECT_EQ(events.array[1].at("name").asString(), "sim/wave");
    EXPECT_DOUBLE_EQ(
        events.array[1].at("args").at("depth").asNumber(), 1.0);
}

TEST_F(ProfilerTest, ClearDropsEventsButKeepsEnabledState)
{
    {
        AW_PROF_SCOPE("gone");
    }
    Profiler::instance().clear();
    EXPECT_TRUE(Profiler::instance().events().empty());
    EXPECT_TRUE(Profiler::instance().enabled());
    {
        AW_PROF_SCOPE("fresh");
    }
    EXPECT_EQ(Profiler::instance().events().size(), 1u);
}

void
spinFor(double sec)
{
    auto t0 = std::chrono::steady_clock::now();
    volatile double sink = 0;
    while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
               .count() < sec)
        sink = sink + 1.0;
}

const ZoneStat *
findZone(const std::vector<ZoneStat> &stats, const std::string &name)
{
    for (const ZoneStat &z : stats)
        if (z.name == name)
            return &z;
    return nullptr;
}

TEST_F(ProfilerTest, NestedZonesSelfTimeSumsToOuterWallTime)
{
    {
        AW_PROF_SCOPE("outer");
        spinFor(0.02);
        {
            AW_PROF_SCOPE("inner");
            spinFor(0.02);
        }
        spinFor(0.02);
    }
    auto stats = Profiler::instance().zoneStats();
    const ZoneStat *outer = findZone(stats, "outer");
    const ZoneStat *inner = findZone(stats, "inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->count, 1u);
    EXPECT_EQ(inner->count, 1u);
    // A leaf's self time is its inclusive time; the parent keeps ~40 ms
    // of its ~60 ms. Bounds are loose for CI.
    EXPECT_EQ(inner->selfUs, inner->totalUs);
    EXPECT_GT(inner->selfUs, 15e3);
    EXPECT_LT(inner->selfUs, 50e3);
    EXPECT_GT(outer->selfUs, 30e3);
    EXPECT_LT(outer->selfUs, 58e3);
    EXPECT_NEAR(outer->selfUs + inner->selfUs, outer->totalUs, 1e-6);
}

TEST_F(ProfilerTest, DisabledProfilerTalliesNothing)
{
    Profiler::instance().setEnabled(false);
    {
        AW_PROF_SCOPE("off/zone");
        AW_PROF_TALLY("off/tally");
        spinFor(0.001);
    }
    EXPECT_TRUE(Profiler::instance().zoneStats().empty());
    EXPECT_TRUE(Profiler::instance().events().empty());
}

TEST_F(ProfilerTest, TallyOnlyZoneCountsButStoresNoEvent)
{
    {
        AW_PROF_SCOPE("event/zone");
        for (int i = 0; i < 5; ++i) {
            AW_PROF_TALLY("tally/zone");
        }
    }
    auto events = Profiler::instance().events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "event/zone");

    auto stats = Profiler::instance().zoneStats();
    const ZoneStat *tally = findZone(stats, "tally/zone");
    const ZoneStat *zone = findZone(stats, "event/zone");
    ASSERT_NE(tally, nullptr);
    ASSERT_NE(zone, nullptr);
    EXPECT_EQ(tally->count, 5u);
    // Tally-only children still subtract from the parent's self time.
    EXPECT_NEAR(zone->selfUs + tally->selfUs, zone->totalUs, 1e-6);
}

TEST_F(ProfilerTest, TalliesFromFourThreadsMergeExactly)
{
    constexpr int kThreads = 4;
    constexpr int kZones = 2000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([] {
            for (int i = 0; i < kZones; ++i) {
                AW_PROF_SCOPE("mt/outer");
                AW_PROF_TALLY("mt/inner");
            }
        });
    for (auto &w : workers)
        w.join();

    auto stats = Profiler::instance().zoneStats();
    const ZoneStat *outer = findZone(stats, "mt/outer");
    const ZoneStat *inner = findZone(stats, "mt/inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->count, static_cast<uint64_t>(kThreads * kZones));
    EXPECT_EQ(inner->count, static_cast<uint64_t>(kThreads * kZones));
    EXPECT_NEAR(outer->selfUs + inner->selfUs, outer->totalUs, 1e-3);

    // The merge is the sum of what each thread recorded: the events
    // (one per outer zone) add up to the same inclusive total.
    auto events = Profiler::instance().events();
    ASSERT_EQ(events.size(), static_cast<size_t>(kThreads * kZones));
    std::set<uint32_t> tids;
    double eventUs = 0;
    for (const TraceEvent &e : events) {
        tids.insert(e.tid);
        eventUs += e.durUs;
    }
    EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
    EXPECT_NEAR(eventUs, outer->totalUs, 1e-3);
}

/** Plausible model for the identity check: evaluation output depends
 *  only on the activity, so no calibration is needed. */
AccelWattchModel
identityModel()
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

TEST_F(ProfilerTest, SimulateEvaluateBitIdenticalWithProfilerToggled)
{
    KernelDescriptor k = makeKernel("profiler_identity",
                                    {{OpClass::FpFma, 0.5},
                                     {OpClass::LdGlobal, 0.5}},
                                    16, 4);
    k.memFootprintKb = 256;
    const GpuSimulator sim(voltaGV100());
    const AccelWattchModel model = identityModel();

    for (bool ptx : {false, true}) {
        for (int detail : {1, 4}) {
            SCOPED_TRACE(std::string(ptx ? "ptx" : "sass") + " detail " +
                         std::to_string(detail));
            SimOptions opts;
            opts.detailSms = detail;
            opts.simThreads = detail;
            auto run = [&](bool on) {
                Profiler::instance().setEnabled(on);
                KernelActivity act =
                    ptx ? sim.runPtx(k, opts) : sim.runSass(k, opts);
                PowerBreakdown p = model.evaluateKernel(act);
                Profiler::instance().setEnabled(false);
                return std::make_pair(act, p);
            };
            auto [actOff, pOff] = run(false);
            auto [actOn, pOn] = run(true);

            EXPECT_EQ(actOff.totalCycles, actOn.totalCycles);
            EXPECT_EQ(actOff.elapsedSec, actOn.elapsedSec);
            ASSERT_EQ(actOff.samples.size(), actOn.samples.size());
            for (size_t i = 0; i < actOff.samples.size(); ++i) {
                const ActivitySample &a = actOff.samples[i];
                const ActivitySample &b = actOn.samples[i];
                EXPECT_EQ(a.cycles, b.cycles);
                for (size_t c = 0; c < a.accesses.size(); ++c)
                    EXPECT_EQ(a.accesses[c], b.accesses[c]);
            }
            EXPECT_EQ(pOff.totalW(), pOn.totalW());
            for (size_t c = 0; c < kNumPowerComponents; ++c)
                EXPECT_EQ(pOff.dynamicW[c], pOn.dynamicW[c]);
        }
    }

    // The enabled runs tallied every simulator zone: the serial path's
    // and the sharded path's (sim/sync only exists sharded).
    auto stats = Profiler::instance().zoneStats();
    for (const char *zone :
         {"sim/kernel", "sim/tracegen", "sim/setup", "sim/issue",
          "sim/memory", "sim/sampling", "sim/sync", "sim/finalize",
          "power/evaluate"})
        EXPECT_NE(findZone(stats, zone), nullptr) << zone;
}

TEST(TelemetryTest, JsonDocumentHasAllSections)
{
    Telemetry::instance().clear();
    Profiler::instance().clear();
    metrics().counter("telemetry_test.events").add(4);
    Telemetry::instance().recordKernel(
        {"k1", "validate", 1000.0, 1e-6, 150.0, 140.0});
    Telemetry::instance().recordKernel(
        {"k2", "simulate", 2000.0, 2e-6, 80.0, 0.0});

    JsonValue doc = parseJson(Telemetry::instance().toJson());
    EXPECT_EQ(doc.at("schema").asString(), "aw.telemetry.v1");
    EXPECT_DOUBLE_EQ(
        doc.at("metrics").at("telemetry_test.events").at("value")
            .asNumber(),
        4.0);
    EXPECT_TRUE(doc.at("zones").isArray());

    const JsonValue &kernels = doc.at("kernels");
    ASSERT_EQ(kernels.array.size(), 2u);
    EXPECT_EQ(kernels.array[0].at("name").asString(), "k1");
    EXPECT_EQ(kernels.array[0].at("phase").asString(), "validate");
    EXPECT_DOUBLE_EQ(kernels.array[0].at("cycles").asNumber(), 1000.0);
    EXPECT_DOUBLE_EQ(kernels.array[0].at("modeled_w").asNumber(), 150.0);
    EXPECT_DOUBLE_EQ(kernels.array[1].at("measured_w").asNumber(), 0.0);

    Telemetry::instance().clear();
    EXPECT_TRUE(Telemetry::instance().kernels().empty());
}

TEST(TelemetryTest, CsvHasMetricsAndKernelSections)
{
    Telemetry::instance().clear();
    metrics().counter("telemetry_test.csv").add(1);
    Telemetry::instance().recordKernel(
        {"csv_kernel", "tune", 10.0, 1e-5, 55.0, 54.0});
    std::string csv = Telemetry::instance().toCsv();
    EXPECT_NE(csv.find("name,kind,count,value"), std::string::npos);
    EXPECT_NE(csv.find("kernel,phase,cycles,elapsed_sec"),
              std::string::npos);
    EXPECT_NE(csv.find("csv_kernel,tune,"), std::string::npos);
    Telemetry::instance().clear();
}

// --- file sinks: atomic publication and strict round-trips ---------------

namespace fs = std::filesystem;

class SinkFileTest : public testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("aw_sink_test_" + std::to_string(::getpid()));
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    std::string path(const std::string &leaf) const
    {
        return (dir_ / leaf).string();
    }

    static std::string slurp(const std::string &p)
    {
        std::ifstream in(p);
        EXPECT_TRUE(in) << p;
        std::ostringstream buf;
        buf << in.rdbuf();
        return buf.str();
    }

    /** Atomic publication: no half-written temp files left beside the
     *  artifact. */
    void expectNoTempFiles() const
    {
        for (const auto &e : fs::recursive_directory_iterator(dir_))
            EXPECT_EQ(e.path().string().find(".tmp."), std::string::npos)
                << e.path();
    }

    fs::path dir_;
};

TEST_F(SinkFileTest, WriteFileAtomicCreatesParentsAndPublishes)
{
    std::string p = path("deep/nested/out.txt");
    writeFileAtomic(p, "payload");
    EXPECT_EQ(slurp(p), "payload");
    expectNoTempFiles();
    // Overwrite through the same path: the rename replaces atomically.
    writeFileAtomic(p, "payload2");
    EXPECT_EQ(slurp(p), "payload2");
    expectNoTempFiles();
}

TEST_F(SinkFileTest, MetricsAndTraceSinksRoundTripThroughStrictParser)
{
    metrics().counter("sink_file_test.count").add(2);
    Profiler::instance().clear();
    Profiler::instance().setEnabled(true);
    {
        AW_PROF_SCOPE("sink/zone");
    }

    std::string mp = path("results/metrics.json");
    std::string tp = path("results/trace.json");
    writeMetricsJson(mp);
    writeTraceJson(tp);
    Profiler::instance().setEnabled(false);
    Profiler::instance().clear();

    expectNoTempFiles();
    JsonValue m = parseJson(slurp(mp));
    EXPECT_EQ(m.at("schema").asString(), "aw.telemetry.v1");
    EXPECT_TRUE(m.at("metrics").find("sink_file_test.count") != nullptr);
    JsonValue t = parseJson(slurp(tp));
    EXPECT_TRUE(t.at("traceEvents").isArray());
}

TEST_F(SinkFileTest, MetricsSinkAloneRecordsZonesWithSelfTime)
{
    // The at-exit flush is the route under test, so a child process
    // sets up the sinks and exits. In the threadsafe death-test style
    // the child re-runs this body from the top; setenv without
    // overwrite lets it inherit the parent's path.
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    setenv("AW_METRICS_OUT", path("env/metrics.json").c_str(), 0);
    const std::string out = std::getenv("AW_METRICS_OUT");
    EXPECT_EXIT(
        {
            unsetenv("AW_TRACE_OUT");
            unsetenv("AW_POWERSCOPE");
            initSinksFromEnv();
            {
                AW_PROF_SCOPE("sink/outer");
                AW_PROF_TALLY("sink/inner");
            }
            std::exit(Profiler::enabled() ? 0 : 3);
        },
        testing::ExitedWithCode(0), "");
    unsetenv("AW_METRICS_OUT");

    JsonValue doc = parseJson(slurp(out));
    const JsonValue &zones = doc.at("zones");
    ASSERT_TRUE(zones.isArray());
    ASSERT_FALSE(zones.array.empty());
    for (const JsonValue &z : zones.array) {
        EXPECT_TRUE(z.find("self_us") != nullptr) << z.at("name").asString();
        EXPECT_LE(z.at("self_us").asNumber(),
                  z.at("total_us").asNumber() + 1e-9);
    }
}

TEST_F(SinkFileTest, PowerScopeArtifactsRoundTripThroughStrictParser)
{
    PowerScope::instance().clear();
    PowerScope::instance().setEnabled(true);
    PowerScopeRun run;
    run.name = "sink_kernel";
    run.phase = "test";
    run.components = {"const", "alu"};
    ScopeInterval iv;
    iv.durSec = 1;
    iv.totalW = 75;
    iv.componentW = {50, 25};
    run.intervals.push_back(iv);
    run.modeledEnergyJ = run.componentEnergyJ = 75;
    run.measured = {{0.5, 80}};
    run.measuredAvgW = 80;
    PowerScope::instance().record(run);

    std::string base = path("results/powerscope");
    writePowerScope(base);
    PowerScope::instance().setEnabled(false);
    PowerScope::instance().clear();
    expectNoTempFiles();

    // Every emitted artifact parses strictly; the two JSON documents
    // carry their expected top-level shapes, the dashboard is complete.
    JsonValue report = parseJson(slurp(base + ".json"));
    EXPECT_EQ(report.at("schema").asString(), "aw.powerscope.v1");
    EXPECT_EQ(report.at("runs").array.size(), 1u);
    JsonValue trace = parseJson(slurp(base + ".trace.json"));
    EXPECT_TRUE(trace.at("traceEvents").isArray());
    EXPECT_GT(trace.at("traceEvents").array.size(), 2u);
    std::string html = slurp(base + ".html");
    EXPECT_NE(html.find("</html>"), std::string::npos);
    EXPECT_NE(html.find("sink_kernel"), std::string::npos);
}

} // namespace
