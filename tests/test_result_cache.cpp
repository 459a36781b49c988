/**
 * @file
 * Tests for the persistent content-addressed result cache: key
 * stability, hit/miss/corrupt-file behaviour, bit-exact round-trips,
 * and end-to-end determinism of the cached measurement helpers across
 * thread counts and cold/warm cache states.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "common/parallel.hpp"
#include "core/result_cache.hpp"
#include "hw/fault_injector.hpp"
#include "hw/nsight.hpp"
#include "hw/silicon_model.hpp"
#include "trace/workload.hpp"

using namespace aw;
namespace fs = std::filesystem;

namespace {

/** Fixture: point the process-wide cache at a private scratch dir. */
class ResultCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = "result_cache_test_dir";
        fs::remove_all(dir_);
        auto &cache = ResultCache::instance();
        savedDir_ = cache.directory();
        savedEnabled_ = cache.enabled();
        cache.configure(dir_);
        cache.setEnabled(true);
    }

    void TearDown() override
    {
        auto &cache = ResultCache::instance();
        cache.configure(savedDir_);
        cache.setEnabled(savedEnabled_);
        fs::remove_all(dir_);
    }

    std::string dir_;
    std::string savedDir_;
    bool savedEnabled_ = true;
};

KernelDescriptor
cheapKernel(const std::string &name)
{
    auto k = makeKernel(name, {{OpClass::IntMul, 1.0}}, 160, 8, 32);
    k.bodyInsts = 64;
    k.iterations = 16;
    return k;
}

KernelActivity
sampleActivity()
{
    KernelActivity a;
    a.kernelName = "roundtrip";
    a.totalCycles = 123456.75;
    a.elapsedSec = 8.7654321e-5;
    for (int s = 0; s < 3; ++s) {
        ActivitySample sample;
        sample.cycles = 500.0 + s;
        sample.freqGhz = 1.417;
        sample.voltage = 1.0012345678901234;
        for (size_t i = 0; i < sample.accesses.size(); ++i)
            sample.accesses[i] = 0.1 * static_cast<double>(i) + s;
        sample.avgActiveSms = 79.25;
        sample.avgActiveLanesPerWarp = 31.875;
        for (size_t i = 0; i < sample.unitInsts.size(); ++i)
            sample.unitInsts[i] = 17.0 / (1.0 + static_cast<double>(i));
        sample.intAddInsts = 1e9 / 3.0;
        sample.intMulInsts = 7.0;
        a.samples.push_back(sample);
    }
    return a;
}

} // namespace

TEST(ResultCacheKeys, Fnv1aReferenceVectors)
{
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(ResultCacheKeys, KeysCoverKernelContentNotJustName)
{
    SiliconOracle card(voltaGV100(), voltaSiliconTruth());
    auto k1 = cheapKernel("same_name");
    auto k2 = cheapKernel("same_name");
    k2.ilpDegree += 1;
    EXPECT_NE(powerMeasurementKey(card, k1, 0, 5),
              powerMeasurementKey(card, k2, 0, 5));
    EXPECT_NE(powerMeasurementKey(card, k1, 0, 5),
              powerMeasurementKey(card, k1, 1.2, 5));
    EXPECT_NE(powerMeasurementKey(card, k1, 0, 5),
              powerMeasurementKey(card, k1, 0, 7));
}

TEST(ResultCacheKeys, HiddenCardIdentityEntersTheKey)
{
    // Two cards with the same public config but different hidden truth
    // or hardware seed measure different power: their keys must differ.
    SiliconOracle a(voltaGV100(), voltaSiliconTruth(), 0x51C0ULL);
    SiliconOracle b(voltaGV100(), voltaSiliconTruth(), 0xBEEFULL);
    SiliconOracle c(voltaGV100(), pascalSiliconTruth(), 0x51C0ULL);
    auto k = cheapKernel("card_identity");
    EXPECT_NE(powerMeasurementKey(a, k, 0, 5),
              powerMeasurementKey(b, k, 0, 5));
    EXPECT_NE(powerMeasurementKey(a, k, 0, 5),
              powerMeasurementKey(c, k, 0, 5));
    EXPECT_EQ(powerMeasurementKey(a, k, 0, 5),
              powerMeasurementKey(a, k, 0, 5));
}

TEST_F(ResultCacheTest, PowerMissThenHitBitExact)
{
    auto &cache = ResultCache::instance();
    const std::string key = "power-test-key";
    double out = 0;
    EXPECT_FALSE(cache.fetchPower(key, out));
    const double stored = 0.1 + 0.2; // not exactly representable as 0.3
    cache.storePower(key, stored);
    ASSERT_TRUE(cache.fetchPower(key, out));
    EXPECT_EQ(out, stored); // bit-exact, not just near
}

TEST_F(ResultCacheTest, StoreLandsAfterDirectoryRemovedMidUse)
{
    // The store path creates the directory only when taking the entry
    // lock finds it missing; a directory deleted under a live cache
    // (an operator clearing results/cache) must still be recreated.
    auto &cache = ResultCache::instance();
    cache.storePower("dir-gone-before", 1.5);
    ASSERT_TRUE(fs::is_directory(dir_));
    fs::remove_all(dir_);

    const double stored = 2.0 / 3.0;
    cache.storePower("dir-gone-after", stored);
    ASSERT_TRUE(fs::exists(cache.pathFor("dir-gone-after")));
    double out = 0;
    ASSERT_TRUE(cache.fetchPower("dir-gone-after", out));
    EXPECT_EQ(out, stored);
    KernelActivity act;
    cache.storeActivity("dir-gone-activity", sampleActivity());
    EXPECT_TRUE(cache.fetchActivity("dir-gone-activity", act));
    // No lock file is left behind by the failed first attempt.
    EXPECT_FALSE(fs::exists(cache.pathFor("dir-gone-after") + ".lock"));
}

TEST_F(ResultCacheTest, ActivityRoundTripsBitExact)
{
    auto &cache = ResultCache::instance();
    const std::string key = "activity-test-key";
    KernelActivity original = sampleActivity();
    KernelActivity out;
    EXPECT_FALSE(cache.fetchActivity(key, out));
    cache.storeActivity(key, original);
    ASSERT_TRUE(cache.fetchActivity(key, out));
    EXPECT_EQ(out.kernelName, original.kernelName);
    EXPECT_EQ(out.totalCycles, original.totalCycles);
    EXPECT_EQ(out.elapsedSec, original.elapsedSec);
    ASSERT_EQ(out.samples.size(), original.samples.size());
    for (size_t s = 0; s < out.samples.size(); ++s) {
        const auto &got = out.samples[s];
        const auto &want = original.samples[s];
        EXPECT_EQ(got.cycles, want.cycles);
        EXPECT_EQ(got.freqGhz, want.freqGhz);
        EXPECT_EQ(got.voltage, want.voltage);
        for (size_t i = 0; i < want.accesses.size(); ++i)
            EXPECT_EQ(got.accesses[i], want.accesses[i]);
        EXPECT_EQ(got.avgActiveSms, want.avgActiveSms);
        EXPECT_EQ(got.avgActiveLanesPerWarp, want.avgActiveLanesPerWarp);
        for (size_t i = 0; i < want.unitInsts.size(); ++i)
            EXPECT_EQ(got.unitInsts[i], want.unitInsts[i]);
        EXPECT_EQ(got.intAddInsts, want.intAddInsts);
        EXPECT_EQ(got.intMulInsts, want.intMulInsts);
    }
}

TEST_F(ResultCacheTest, CorruptEntryIsRemovedAndTreatedAsMiss)
{
    auto &cache = ResultCache::instance();
    const std::string key = "corrupt-test-key";
    cache.storePower(key, 42.5);
    // Simulate a torn write / disk corruption.
    {
        std::ofstream f(cache.pathFor(key), std::ios::trunc);
        f << "{\"schema\":1,\"kind\":\"power";
    }
    double out = 0;
    EXPECT_FALSE(cache.fetchPower(key, out));
    EXPECT_FALSE(fs::exists(cache.pathFor(key)));
    // The slot is usable again.
    cache.storePower(key, 43.25);
    ASSERT_TRUE(cache.fetchPower(key, out));
    EXPECT_EQ(out, 43.25);
}

TEST_F(ResultCacheTest, StaleSchemaIsDiscarded)
{
    auto &cache = ResultCache::instance();
    const std::string key = "schema-test-key";
    cache.storePower(key, 10.0);
    {
        std::ofstream f(cache.pathFor(key), std::ios::trunc);
        f << "{\"schema\":999,\"kind\":\"power\",\"key\":\"" << key
          << "\",\"value\":10}";
    }
    double out = 0;
    EXPECT_FALSE(cache.fetchPower(key, out));
    EXPECT_FALSE(fs::exists(cache.pathFor(key)));
}

TEST_F(ResultCacheTest, HashCollisionIsDetectedNotTrusted)
{
    auto &cache = ResultCache::instance();
    const std::string key = "collision-test-key";
    // A file at this key's path whose stored key disagrees: the full
    // key string is compared, so this must read as a miss and the
    // foreign entry must survive.
    fs::create_directories(cache.directory());
    {
        std::ofstream f(cache.pathFor(key), std::ios::trunc);
        f << "{\"schema\":" << kResultCacheSchemaVersion
          << ",\"kind\":\"power\",\"key\":\"some-other-key\","
             "\"value\":1}";
    }
    double out = 0;
    EXPECT_FALSE(cache.fetchPower(key, out));
    EXPECT_TRUE(fs::exists(cache.pathFor(key)));
}

TEST_F(ResultCacheTest, DisabledCacheNeverStoresOrFetches)
{
    auto &cache = ResultCache::instance();
    cache.setEnabled(false);
    const std::string key = "disabled-test-key";
    cache.storePower(key, 1.0);
    EXPECT_FALSE(fs::exists(cache.pathFor(key)));
    double out = 0;
    EXPECT_FALSE(cache.fetchPower(key, out));
    cache.setEnabled(true);
}

TEST_F(ResultCacheTest, MeasurePowerColdVsWarmBitIdentical)
{
    SiliconOracle card(voltaGV100(), voltaSiliconTruth());
    auto k = cheapKernel("cold_warm");
    double cold = measurePowerCached(card, k);
    ASSERT_TRUE(
        fs::exists(ResultCache::instance().pathFor(
            powerMeasurementKey(card, k, 0, 5))));
    double warm = measurePowerCached(card, k);
    EXPECT_EQ(cold, warm);
    EXPECT_GT(cold, 0.0);
}

TEST_F(ResultCacheTest, MeasurementsBitIdenticalAcrossThreadCounts)
{
    SiliconOracle card(voltaGV100(), voltaSiliconTruth());
    std::vector<KernelDescriptor> kernels;
    for (int i = 0; i < 6; ++i)
        kernels.push_back(
            cheapKernel("threads_kernel_" + std::to_string(i)));

    // Serial, no cache: the reference result.
    ResultCache::instance().setEnabled(false);
    setParallelThreadCount(1);
    auto serial = parallelMap<double>(kernels.size(), [&](size_t i) {
        return measurePowerCached(card, kernels[i]);
    });
    // Parallel, still no cache: per-task seeding must make this
    // bit-identical regardless of scheduling.
    setParallelThreadCount(4);
    auto parallel4 = parallelMap<double>(kernels.size(), [&](size_t i) {
        return measurePowerCached(card, kernels[i]);
    });
    // Parallel with a cold cache, then a warm pass.
    ResultCache::instance().setEnabled(true);
    auto coldPass = parallelMap<double>(kernels.size(), [&](size_t i) {
        return measurePowerCached(card, kernels[i]);
    });
    auto warmPass = parallelMap<double>(kernels.size(), [&](size_t i) {
        return measurePowerCached(card, kernels[i]);
    });
    setParallelThreadCount(0);

    for (size_t i = 0; i < kernels.size(); ++i) {
        EXPECT_EQ(serial[i], parallel4[i]) << "kernel " << i;
        EXPECT_EQ(serial[i], coldPass[i]) << "kernel " << i;
        EXPECT_EQ(serial[i], warmPass[i]) << "kernel " << i;
    }
}

TEST_F(ResultCacheTest, CollectActivityColdVsWarmBitIdentical)
{
    GpuSimulator sim(voltaGV100());
    ActivityProvider provider(Variant::SassSim, sim, nullptr);
    auto k = cheapKernel("activity_cold_warm");
    KernelActivity cold = collectActivityCached(provider, k);
    KernelActivity warm = collectActivityCached(provider, k);
    ASSERT_EQ(cold.samples.size(), warm.samples.size());
    EXPECT_EQ(cold.totalCycles, warm.totalCycles);
    EXPECT_EQ(cold.elapsedSec, warm.elapsedSec);
    for (size_t s = 0; s < cold.samples.size(); ++s) {
        EXPECT_EQ(cold.samples[s].cycles, warm.samples[s].cycles);
        for (size_t i = 0; i < cold.samples[s].accesses.size(); ++i)
            EXPECT_EQ(cold.samples[s].accesses[i],
                      warm.samples[s].accesses[i]);
    }
}

TEST_F(ResultCacheTest, ConcurrentSameKeyWritersNeverCorruptAnEntry)
{
    // Regression test for the multi-process write hazard: two writers
    // publishing the same key used to race their renames over a shared
    // temp name. With the per-entry .lock file one writer publishes and
    // the loser skips (same content either way); readers must only ever
    // observe a miss or a complete, bit-exact entry — never a torn one.
    auto &cache = ResultCache::instance();
    const std::string key = "hammer/same-key";
    const KernelActivity golden = sampleActivity();

    std::atomic<bool> stop{false};
    std::atomic<int> torn{0};
    auto writer = [&] {
        for (int i = 0; i < 400; ++i)
            cache.storeActivity(key, golden);
    };
    auto reader = [&] {
        KernelActivity got;
        while (!stop.load()) {
            if (!cache.fetchActivity(key, got))
                continue; // miss is fine; torn data is not
            if (got.samples.size() != golden.samples.size() ||
                got.totalCycles != golden.totalCycles ||
                got.elapsedSec != golden.elapsedSec) {
                ++torn;
                continue;
            }
            for (size_t s = 0; s < golden.samples.size(); ++s)
                if (got.samples[s].cycles != golden.samples[s].cycles ||
                    got.samples[s].accesses != golden.samples[s].accesses)
                    ++torn;
        }
    };

    std::thread r(reader);
    std::thread w1(writer), w2(writer);
    w1.join();
    w2.join();
    stop.store(true);
    r.join();
    EXPECT_EQ(torn.load(), 0);

    // The winning rename published the entry...
    KernelActivity fin;
    ASSERT_TRUE(cache.fetchActivity(key, fin));
    EXPECT_EQ(fin.elapsedSec, golden.elapsedSec);

    // ...and nothing leaked: no lock files, no orphaned temp files.
    for (const auto &e : fs::recursive_directory_iterator(dir_)) {
        const std::string name = e.path().filename().string();
        EXPECT_EQ(name.find(".lock"), std::string::npos) << name;
        EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
    }
}

// --- Golden bytes -----------------------------------------------------------
// A cache directory written by an earlier build must keep hitting, so
// the key strings (whose FNV-1a names the entry file) and the entry
// bytes are pinned. The expected values were recorded from the
// snprintf/strtod number writer that preceded appendJsonNumber.

namespace {

/** A fixed kernel whose key fragment holds doubles needing 1, 6 and 17
 *  significant digits and a seed past 2^53. */
KernelDescriptor
goldenKernel()
{
    auto k = makeKernel("golden_k",
                        {{OpClass::FpFma, 0.5},
                         {OpClass::LdGlobal, 1.0 / 3.0},
                         {OpClass::IntAdd, 0.1}},
                        160, 8, 32);
    k.bodyInsts = 64;
    k.iterations = 16;
    k.memFootprintKb = 512.25;
    k.pointerChase = true;
    k.seed = 0x9E3779B97F4A7C15ULL;
    return k;
}

SimOptions
goldenSimOptions()
{
    SimOptions opts;
    opts.freqGhz = 1.2345678;
    opts.detailSms = 4;
    return opts;
}

std::string
fnvHex(const std::string &s)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(s)));
    return buf;
}

/** Run the body with fault injection off, so no key carries a
 *  `;faults{...}` suffix from an ambient AW_FAULTS. */
class NoFaults
{
  public:
    NoFaults() : saved_(FaultInjector::globalConfig())
    {
        FaultInjector::setGlobalConfig(FaultConfig{});
    }
    ~NoFaults() { FaultInjector::setGlobalConfig(saved_); }

  private:
    FaultConfig saved_;
};

} // namespace

TEST(ResultCacheGolden, KeyBytesMatchTheRecordedFormat)
{
    NoFaults noFaults;
    SiliconOracle card(voltaGV100(), voltaSiliconTruth());
    GpuSimulator sim(voltaGV100());
    NsightEmu nsight(card);
    ActivityProvider hybrid(Variant::Hybrid, sim, &nsight);
    const KernelDescriptor k = goldenKernel();
    MeasurementConditions cond;
    cond.freqGhz = 1.132;
    cond.tempC = 71.3;

    EXPECT_EQ(describeKernel(k),
              "kernel{golden_k;ctas=160;wpc=8;cps=2;smlim=0;"
              "mix=[6:0.5,16:0.33333333333333331,0:0.1];body=64;iters=16;"
              "ilp=4;lanes=32;foot=512.25;chase=1;txn=1;"
              "seed=11400714819323198485}");
    EXPECT_EQ(describeSimOptions(goldenSimOptions()),
              "sim{freq=1.2345678;interval=500;max=20000000;sched=0;"
              "detail=4}");
    EXPECT_EQ(describeConditions(cond), "cond{freq=1.132;temp=71.3}");

    const std::string sass = sassRunKey(sim, k, goldenSimOptions());
    const std::string activity = activityKey(hybrid, k, cond);
    const std::string power = powerMeasurementKey(card, k, 1.2345678, 5);
    EXPECT_EQ(fnvHex(sass), "9525ce9da1cdab6e") << sass;
    EXPECT_EQ(fnvHex(activity), "4c2f8873cce24e83") << activity;
    EXPECT_EQ(fnvHex(power), "2714431782aad56a") << power;
    EXPECT_EQ(sass.size(), 532u) << sass;
}

TEST(ResultCacheGolden, ActivityPayloadMatchesTheRecordedFormat)
{
    const std::string json = activityToJson(sampleActivity());
    EXPECT_EQ(json.substr(0, 120),
              "{\"kernelName\":\"roundtrip\",\"totalCycles\":123456.75,"
              "\"elapsedSec\":8.7654321e-05,\"samples\":[{\"cycles\":500,"
              "\"freqGhz\":1.417,\"v");
    EXPECT_EQ(json.size(), 1316u);
    EXPECT_EQ(fnvHex(json), "c0692b530ff41f10") << json;
}

TEST_F(ResultCacheTest, EntryFileMatchesTheRecordedFormat)
{
    // Same key, same value => the same entry file, byte for byte, as an
    // earlier build wrote it; so that build's cache hits here.
    NoFaults noFaults;
    GpuSimulator sim(voltaGV100());
    const std::string key = sassRunKey(sim, goldenKernel(),
                                       goldenSimOptions());
    auto &cache = ResultCache::instance();
    cache.storeActivity(key, sampleActivity());
    const std::string path = cache.pathFor(key);
    EXPECT_EQ(fs::path(path).filename().string(), "9525ce9da1cdab6e.json");
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes.size(), 1923u);
    EXPECT_EQ(fnvHex(bytes), "812b5f3fd4bc8053") << bytes;
    KernelActivity back;
    EXPECT_TRUE(cache.fetchActivity(key, back));
}
