/**
 * @file
 * PerfLab harness unit tests: Welford statistics against closed-form
 * results, exact medians, the aw.bench.v1 artifact round-tripping
 * through the strict mini-JSON parser, the perf gate's pass and fail
 * paths (via the synthetic slowdown).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/rng.hpp"
#include "obs/json.hpp"
#include "perflab/perflab.hpp"

using namespace aw;
namespace fs = std::filesystem;

namespace {

// ------------------------------------------------------ StatAccumulator

TEST(StatAccumulator, WelfordMatchesClosedForm)
{
    Rng rng(42);
    perflab::StatAccumulator acc;
    std::vector<double> xs;
    for (int i = 0; i < 1000; ++i) {
        // Nanosecond-ish magnitudes with a large offset: the regime
        // where naive sum-of-squares cancels catastrophically.
        double x = 1.0 + 1e-9 * rng.uniform();
        xs.push_back(x);
        acc.add(x);
    }

    double sum = 0;
    for (double x : xs)
        sum += x;
    double mean = sum / xs.size();
    double ss = 0;
    for (double x : xs)
        ss += (x - mean) * (x - mean);
    double stddev = std::sqrt(ss / (xs.size() - 1));

    EXPECT_EQ(acc.count(), xs.size());
    EXPECT_NEAR(acc.mean(), mean, 1e-12);
    EXPECT_NEAR(acc.stddev(), stddev, stddev * 1e-6);
    EXPECT_NEAR(acc.sum(), sum, 1e-9);
    EXPECT_GT(acc.stddev(), 0);
}

TEST(StatAccumulator, MedianOddAndEven)
{
    perflab::StatAccumulator odd;
    for (double x : {5.0, 1.0, 3.0})
        odd.add(x);
    EXPECT_DOUBLE_EQ(odd.median(), 3.0);

    perflab::StatAccumulator even;
    for (double x : {4.0, 1.0, 3.0, 2.0})
        even.add(x);
    EXPECT_DOUBLE_EQ(even.median(), 2.5);

    perflab::StatAccumulator one;
    one.add(7.5);
    EXPECT_DOUBLE_EQ(one.median(), 7.5);
    EXPECT_DOUBLE_EQ(one.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(one.cv(), 0.0);
}

TEST(StatAccumulator, MinMaxAndCv)
{
    perflab::StatAccumulator acc;
    for (double x : {2.0, 8.0, 4.0, 6.0})
        acc.add(x);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 8.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_NEAR(acc.cv(), acc.stddev() / 5.0, 1e-15);
}

// ------------------------------------------------------------- filtering

TEST(Filter, CommaSeparatedSubstrings)
{
    EXPECT_TRUE(perflab::matchesFilter("solver_qp", ""));
    EXPECT_TRUE(perflab::matchesFilter("solver_qp", "qp"));
    EXPECT_TRUE(perflab::matchesFilter("solver_qp", "sim,solver"));
    EXPECT_FALSE(perflab::matchesFilter("solver_qp", "sim,cache"));
}

// --------------------------------------------- artifact + gate round-trip

// A cheap deterministic bench registered only in this test binary.
int g_rounds = 0;

[[maybe_unused]] const bool regTestBench = perflab::registerBench({
    .name = "unit_spin",
    .description = "test-only spin bench",
    .defaultRounds = 4,
    .defaultWarmup = 1,
    .tolerancePct = 40.0,
    .round =
        [](perflab::BenchContext &) {
            ++g_rounds;
            volatile double sink = 0;
            for (int i = 0; i < 20000; ++i)
                sink = sink + 1.0 / (1.0 + i);
        },
    .fini =
        [](perflab::BenchContext &ctx) {
            ctx.setExtra("spin_iters", 20000);
            ctx.setExtraString("flavor", "unit \"quoted\"");
        },
});

std::string
readFileText(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(Artifact, RoundTripsThroughStrictParser)
{
    fs::path dir = fs::temp_directory_path() / "aw_perflab_test_art";
    fs::remove_all(dir);

    perflab::RunOptions opts;
    opts.filter = "unit_spin";
    opts.outDir = dir.string();
    g_rounds = 0;
    EXPECT_EQ(perflab::runBenches(opts), 0);
    EXPECT_EQ(g_rounds, 5); // 4 timed + 1 warmup

    std::string text = readFileText((dir / "BENCH_unit_spin.json").string());
    ASSERT_FALSE(text.empty());
    obs::JsonValue doc = obs::parseJson(text); // fatal()s on bad JSON

    EXPECT_EQ(doc.at("schema").asString(), "aw.bench.v1");
    EXPECT_EQ(doc.at("bench").asString(), "unit_spin");
    EXPECT_EQ(doc.at("unit").asString(), "sec_per_round");
    EXPECT_DOUBLE_EQ(doc.at("rounds").asNumber(), 4);
    EXPECT_DOUBLE_EQ(doc.at("warmup_rounds").asNumber(), 1);
    EXPECT_DOUBLE_EQ(doc.at("tolerance_pct").asNumber(), 40.0);

    const obs::JsonValue &stats = doc.at("stats");
    double mn = stats.at("min").asNumber();
    double md = stats.at("median").asNumber();
    double mx = stats.at("max").asNumber();
    EXPECT_GT(mn, 0);
    EXPECT_LE(mn, md);
    EXPECT_LE(md, mx);

    EXPECT_GT(doc.at("machine").at("cpus").asNumber(), 0);
    EXPECT_FALSE(doc.at("git_rev").asString().empty());
    EXPECT_DOUBLE_EQ(doc.at("extra").at("spin_iters").asNumber(), 20000);
    EXPECT_EQ(doc.at("extra").at("flavor").asString(), "unit \"quoted\"");

    fs::remove_all(dir);
}

TEST(Gate, PassesAtParityAndFailsOnSyntheticSlowdown)
{
    fs::path dir = fs::temp_directory_path() / "aw_perflab_test_gate";
    fs::remove_all(dir);
    std::string baseDir = (dir / "baselines").string();

    perflab::RunOptions rec;
    rec.filter = "unit_spin";
    rec.outDir = (dir / "out").string();
    rec.baselineDir = baseDir;
    rec.updateBaselines = true;
    ASSERT_EQ(perflab::runBenches(rec), 0);
    ASSERT_TRUE(fs::exists(baseDir + "/BENCH_unit_spin.json"));

    perflab::RunOptions gate = rec;
    gate.updateBaselines = false;
    EXPECT_EQ(perflab::runBenches(gate), 0);

    // 3x synthetic slowdown (+200%) must breach the 40% tolerance.
    gate.slowdown = 3.0;
    EXPECT_EQ(perflab::runBenches(gate), 1);

    fs::remove_all(dir);
}

} // namespace
