/**
 * @file
 * Unit tests of the observability metrics registry: instrument
 * semantics (counter, gauge, histogram, timer), name validation,
 * concurrent updates, export formats, and reset behavior; and the
 * JSON number writer, byte for byte against the printf-based writer it
 * replaced.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

using namespace aw;
using namespace aw::obs;

namespace {

TEST(MetricName, Validation)
{
    EXPECT_TRUE(validMetricName("sim.sm.issue_stalls"));
    EXPECT_TRUE(validMetricName("a"));
    EXPECT_TRUE(validMetricName("tuner.qp.iterations"));
    EXPECT_TRUE(validMetricName("hw.nvml_2.samples"));

    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("."));
    EXPECT_FALSE(validMetricName("sim."));
    EXPECT_FALSE(validMetricName(".sim"));
    EXPECT_FALSE(validMetricName("sim..sm"));
    EXPECT_FALSE(validMetricName("Sim.sm"));      // no upper case
    EXPECT_FALSE(validMetricName("sim.sm-stall")); // no dashes
    EXPECT_FALSE(validMetricName("sim.sm stall"));
}

TEST(MetricName, BadNamePanics)
{
    Registry reg;
    EXPECT_DEATH(reg.counter("Bad.Name"), "bad metric name");
}

TEST(MetricName, KindMismatchPanics)
{
    Registry reg;
    reg.counter("x.y");
    EXPECT_DEATH(reg.gauge("x.y"), "is a counter, requested as gauge");
}

TEST(CounterTest, AddAndValue)
{
    Registry reg;
    Counter &c = reg.counter("test.counter");
    EXPECT_EQ(c.value(), 0.0);
    c.add();
    c.add(2.5);
    EXPECT_DOUBLE_EQ(c.value(), 3.5);

    // Find-or-create returns the same instrument.
    EXPECT_EQ(&reg.counter("test.counter"), &c);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(CounterTest, ConcurrentAddsLoseNothing)
{
    Registry reg;
    Counter &c = reg.counter("test.concurrent");
    constexpr int kThreads = 4;
    constexpr int kAddsPerThread = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&c] {
            for (int i = 0; i < kAddsPerThread; ++i)
                c.add(1.0);
        });
    for (auto &t : threads)
        t.join();
    EXPECT_DOUBLE_EQ(c.value(), kThreads * kAddsPerThread);
}

TEST(GaugeTest, LastWriteWins)
{
    Registry reg;
    Gauge &g = reg.gauge("test.gauge");
    g.set(4.25);
    g.set(-1.5);
    EXPECT_DOUBLE_EQ(g.value(), -1.5);
}

TEST(HistogramTest, EmptyStatsAreZero)
{
    Histogram h;
    HistogramStats s = h.stats();
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.min, 0.0);
    EXPECT_EQ(s.max, 0.0);
    EXPECT_EQ(s.sum, 0.0);
    EXPECT_EQ(h.percentile(50), 0.0);
}

TEST(HistogramTest, ExactCountSumMinMax)
{
    Histogram h;
    for (double v : {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0})
        h.record(v);
    HistogramStats s = h.stats();
    EXPECT_EQ(s.count, 8u);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 9.0);
    EXPECT_DOUBLE_EQ(s.sum, 31.0);
    EXPECT_DOUBLE_EQ(s.mean, 31.0 / 8.0);
}

TEST(HistogramTest, PercentilesApproximateWithinBucketWidth)
{
    Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.record(static_cast<double>(i));
    // Geometric buckets are ~33% wide; interpolation keeps the error
    // well under one bucket.
    EXPECT_NEAR(h.percentile(50), 500.0, 500.0 * 0.35);
    EXPECT_NEAR(h.percentile(90), 900.0, 900.0 * 0.35);
    EXPECT_NEAR(h.percentile(99), 990.0, 990.0 * 0.35);
    // Percentiles never escape the observed range.
    EXPECT_GE(h.percentile(0), 1.0);
    EXPECT_LE(h.percentile(100), 1000.0);
}

/**
 * The documented quantile error bound (metrics.hpp): the reported
 * p-th percentile and the exact p-th sample quantile always share a
 * geometric bucket, so the relative error is strictly below
 * 10^(1/8) - 1 for any in-span positive sample set. Checked against
 * exact quantiles on a uniform and a lognormal sample (deterministic
 * generators — no std:: distributions, whose output is
 * implementation-defined).
 */
TEST(HistogramTest, HistogramQuantileErrorBound)
{
    const double bound = std::pow(10.0, 1.0 / 8.0) - 1.0; // ~33.4%
    Rng rng(0x9b5);
    auto checkAgainstExact = [&](std::vector<double> samples) {
        Histogram h;
        for (double v : samples)
            h.record(v);
        std::sort(samples.begin(), samples.end());
        for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
            // Exact nearest-rank quantile of the recorded samples.
            const size_t rank = std::min(
                samples.size() - 1,
                static_cast<size_t>(
                    p / 100.0 * static_cast<double>(samples.size())));
            const double exact = samples[rank];
            const double reported = h.percentile(p);
            EXPECT_LT(std::abs(reported - exact) / exact, bound)
                << "p" << p << ": reported " << reported << " vs exact "
                << exact;
        }
    };

    std::vector<double> uniform(5000);
    for (double &v : uniform)
        v = rng.uniform() * 100.0 + 1e-3; // (0, 100], in span
    checkAgainstExact(std::move(uniform));

    // Lognormal via Box-Muller on the deterministic uniform stream:
    // a heavy right tail exercises many decades of buckets.
    std::vector<double> lognormal(5000);
    for (double &v : lognormal) {
        const double u1 = std::max(rng.uniform(), 1e-12);
        const double u2 = rng.uniform();
        const double gauss = std::sqrt(-2.0 * std::log(u1)) *
                             std::cos(2.0 * M_PI * u2);
        v = std::exp(1.5 * gauss); // sigma 1.5: ~6 decades of spread
    }
    checkAgainstExact(std::move(lognormal));
}

TEST(HistogramTest, OutOfRangeValuesClampButStayExactInStats)
{
    Histogram h;
    h.record(1e-15); // below 1e-9 span
    h.record(1e14);  // above 1e12 span
    HistogramStats s = h.stats();
    EXPECT_EQ(s.count, 2u);
    EXPECT_DOUBLE_EQ(s.min, 1e-15);
    EXPECT_DOUBLE_EQ(s.max, 1e14);
}

TEST(HistogramTest, ConcurrentRecords)
{
    Histogram h;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&h, t] {
            for (int i = 0; i < kPerThread; ++i)
                h.record(1.0 + t);
        });
    for (auto &t : threads)
        t.join();
    HistogramStats s = h.stats();
    EXPECT_EQ(s.count, static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(TimerTest, ScopeRecordsPositiveDuration)
{
    Registry reg;
    Timer &t = reg.timer("test.timer");
    {
        auto scope = t.scope();
        (void)scope;
    }
    EXPECT_EQ(t.count(), 1u);
    EXPECT_GE(t.totalSec(), 0.0);

    auto scope = t.scope();
    scope.stop();
    scope.stop(); // idempotent
    EXPECT_EQ(t.count(), 2u);
}

TEST(RegistryTest, SnapshotIsNameOrdered)
{
    Registry reg;
    reg.counter("z.last");
    reg.gauge("a.first");
    reg.histogram("m.middle");
    auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "a.first");
    EXPECT_EQ(snap[1].name, "m.middle");
    EXPECT_EQ(snap[2].name, "z.last");
    EXPECT_EQ(snap[0].kind, MetricKind::Gauge);
    EXPECT_EQ(snap[1].kind, MetricKind::Histogram);
    EXPECT_EQ(snap[2].kind, MetricKind::Counter);
}

TEST(RegistryTest, JsonExportRoundTrips)
{
    Registry reg;
    reg.counter("sim.kernels").add(3);
    reg.gauge("tuner.training_mape_pct").set(7.25);
    Histogram &h = reg.histogram("hw.nvml.power_w");
    h.record(100.0);
    h.record(200.0);

    JsonValue doc = parseJson(reg.toJson());
    ASSERT_TRUE(doc.isObject());
    EXPECT_DOUBLE_EQ(doc.at("sim.kernels").at("value").asNumber(), 3.0);
    EXPECT_EQ(doc.at("sim.kernels").at("type").asString(), "counter");
    EXPECT_DOUBLE_EQ(
        doc.at("tuner.training_mape_pct").at("value").asNumber(), 7.25);
    const JsonValue &hist = doc.at("hw.nvml.power_w");
    EXPECT_EQ(hist.at("type").asString(), "histogram");
    EXPECT_DOUBLE_EQ(hist.at("count").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(hist.at("min").asNumber(), 100.0);
    EXPECT_DOUBLE_EQ(hist.at("max").asNumber(), 200.0);
    EXPECT_DOUBLE_EQ(hist.at("sum").asNumber(), 300.0);
}

TEST(RegistryTest, CsvExportHasHeaderAndAllRows)
{
    Registry reg;
    reg.counter("a.count").add(2);
    reg.timer("b.time").record(0.5);
    std::string csv = reg.toCsv();
    EXPECT_NE(csv.find("name,kind,count,value,mean,p50,p90,p99,min,max"),
              std::string::npos);
    EXPECT_NE(csv.find("a.count,counter"), std::string::npos);
    EXPECT_NE(csv.find("b.time,timer"), std::string::npos);
}

TEST(RegistryTest, ResetKeepsReferencesValid)
{
    Registry reg;
    Counter &c = reg.counter("x.count");
    Histogram &h = reg.histogram("x.hist");
    c.add(5);
    h.record(2.0);
    reg.resetAll();
    EXPECT_EQ(c.value(), 0.0);
    EXPECT_EQ(h.count(), 0u);
    c.add(1); // still usable after reset
    EXPECT_DOUBLE_EQ(c.value(), 1.0);
    EXPECT_EQ(&reg.counter("x.count"), &c);
}

TEST(RegistryTest, GlobalRegistryIsSingleInstance)
{
    EXPECT_EQ(&metrics(), &metrics());
}

TEST(JsonTest, ParserHandlesEscapesAndNesting)
{
    JsonValue v = parseJson(
        R"({"a": [1, 2.5, -3e2], "s": "q\"\\\nA", "b": true,)"
        R"( "n": null, "o": {"k": 7}})");
    EXPECT_DOUBLE_EQ(v.at("a").array[2].asNumber(), -300.0);
    EXPECT_EQ(v.at("s").asString(), "q\"\\\nA");
    EXPECT_TRUE(v.at("b").boolean);
    EXPECT_TRUE(v.at("n").isNull());
    EXPECT_DOUBLE_EQ(v.at("o").at("k").asNumber(), 7.0);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonTest, MalformedInputIsFatal)
{
    EXPECT_EXIT(parseJson("{\"a\": 1"), testing::ExitedWithCode(1),
                "JSON parse error");
    EXPECT_EXIT(parseJson("[1, 2] garbage"), testing::ExitedWithCode(1),
                "JSON parse error");
}

TEST(JsonTest, NumberFormattingRoundTrips)
{
    for (double v : {0.0, 1.0, -2.5, 0.1, 1e-9, 6.02214076e23, 1.0 / 3.0}) {
        JsonValue parsed = parseJson(jsonNumber(v));
        EXPECT_DOUBLE_EQ(parsed.asNumber(), v) << jsonNumber(v);
    }
    // Non-finite values must still yield valid JSON.
    EXPECT_EQ(parseJson(jsonNumber(std::nan(""))).asNumber(), 0.0);
}

// --- JSON number writer vs the printf oracle ----------------------------

/** The number writer as it stood before std::to_chars: snprintf each of
 *  %.6g / %.12g / %.17g and keep the first that strtod reads back.
 *  Every stored cache key and entry was spelled by it, so it is the
 *  oracle the byte-identity tests below compare against. */
std::string
printfJsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    for (int prec : {6, 12, 17}) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

/** Both entry points against the oracle; false (with `why` set) on the
 *  first difference. */
bool
sameBytesAsOracle(double v, std::string &why)
{
    const std::string want = printfJsonNumber(v);
    std::string appended = "[";
    appendJsonNumber(appended, v);
    const std::string wrapped = jsonNumber(v);
    if (wrapped == want && appended == "[" + want)
        return true;
    char bits[24];
    std::snprintf(bits, sizeof bits, "%016llx",
                  static_cast<unsigned long long>(
                      std::bit_cast<uint64_t>(v)));
    why = std::string("bits 0x") + bits + ": oracle '" + want +
          "', jsonNumber '" + wrapped + "', appendJsonNumber '" +
          appended.substr(1) + "'";
    return false;
}

/** Seeded from gtest's per-iteration seed, so each --gtest_repeat under
 *  --gtest_shuffle draws fresh inputs; the trace prints how to replay. */
class JsonNumberDiff : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        seed_ = static_cast<uint32_t>(
            ::testing::UnitTest::GetInstance()->random_seed());
        rng_.reseed(splitmix64(0xD1FF0000ULL + seed_));
    }

    /** Check `n` draws of `gen`; stop after a handful of mismatches. */
    template <typename Gen>
    void checkMany(int n, Gen gen)
    {
        SCOPED_TRACE(::testing::Message()
                     << "gtest random seed " << seed_
                     << " (replay: --gtest_shuffle --gtest_random_seed="
                     << seed_ << ")");
        int failures = 0;
        std::string why;
        for (int i = 0; i < n && failures < 5; ++i) {
            if (!sameBytesAsOracle(gen(), why)) {
                ADD_FAILURE() << why;
                ++failures;
            }
        }
    }

    uint32_t seed_ = 0;
    Rng rng_;
};

TEST_F(JsonNumberDiff, RandomBitPatternsMatchTheOracle)
{
    // Every finite double is equally likely per bit pattern, so this
    // covers the whole exponent range; most need all 17 digits.
    checkMany(100000, [&] {
        double v;
        do {
            v = std::bit_cast<double>(rng_.next());
        } while (!std::isfinite(v));
        return v;
    });
}

TEST_F(JsonNumberDiff, SubnormalsMatchTheOracle)
{
    checkMany(20000, [&] {
        return std::bit_cast<double>(rng_.next() & 0x800FFFFFFFFFFFFFULL);
    });
}

TEST_F(JsonNumberDiff, ShortDecimalsMatchTheOracle)
{
    // Values typed as 1..17 significant digits: these are the ones that
    // stop at %.6g or %.12g, which random bit patterns almost never do.
    checkMany(40000, [&] {
        const int digits = 1 + static_cast<int>(rng_.next() % 17);
        unsigned long long mantissa = 1 + rng_.next() % 9;
        for (int d = 1; d < digits; ++d)
            mantissa = mantissa * 10 + rng_.next() % 10;
        const int exp10 = static_cast<int>(rng_.next() % 61) - 30;
        char text[48];
        std::snprintf(text, sizeof text, "%s%llue%d",
                      rng_.next() & 1 ? "-" : "", mantissa, exp10);
        return std::strtod(text, nullptr);
    });
}

TEST_F(JsonNumberDiff, IntegersMatchTheOracle)
{
    // Whole numbers around the 10^6 edge of the integer shortcut, and
    // at every magnitude up to 2^53.
    checkMany(40000, [&] {
        const double sign = rng_.next() & 1 ? -1.0 : 1.0;
        if (rng_.next() & 1)
            return sign * static_cast<double>(rng_.next() % 2000001);
        return sign * static_cast<double>(rng_.next() >>
                                          (11 + rng_.next() % 53));
    });
}

TEST(JsonNumberPinned, EdgeCasesMatchTheOracleAndTheirSpelling)
{
    const struct
    {
        double v;
        const char *text;
    } cases[] = {
        {0.0, "0"},
        {-0.0, "-0"},
        {std::numeric_limits<double>::denorm_min(), "4.94066e-324"},
        {DBL_MIN, "2.2250738585072014e-308"},
        {DBL_MAX, "1.7976931348623157e+308"},
        {-DBL_MAX, "-1.7976931348623157e+308"},
        {9007199254740991.0, "9007199254740991"},  // 2^53 - 1
        {9007199254740993.0, "9007199254740992"},  // 2^53 + 1 rounds
        {0.1, "0.1"},
        {1.234567, "1.234567"},                    // 7 digits: %.12g
        {1.234567890123, "1.2345678901229999"},    // 13 digits: %.17g
        {17.0 / 3.0, "5.666666666666667"},         // 16 digits
        {0.1 + 0.2, "0.30000000000000004"},        // 17 digits
        {123456.0, "123456"},
        {-999999.0, "-999999"},
        {1e6, "1e+06"},
        {1234567.0, "1234567"},
        {1e-5, "1e-05"},
        {1e21, "1e+21"},
    };
    std::string why;
    for (const auto &c : cases) {
        EXPECT_EQ(jsonNumber(c.v), c.text);
        EXPECT_TRUE(sameBytesAsOracle(c.v, why)) << why;
    }
    // JSON has no NaN or infinity: both writers clamp them to 0.
    for (double v : {std::nan(""), std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
        EXPECT_EQ(jsonNumber(v), "0");
        EXPECT_TRUE(sameBytesAsOracle(v, why)) << why;
    }
}

} // namespace
