/**
 * @file
 * PerfLab benches for the numerical substrate (formerly the
 * google-benchmark `perf_solver` binary): least squares, the Eq. 3
 * polynomial fit, the interior-point QP at the Eq. 14 problem size, and
 * a full dynamic-power tuning pass.
 */
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/calibration.hpp"
#include "core/tuner.hpp"
#include "perflab/perflab.hpp"
#include "solver/polyfit.hpp"
#include "solver/qp.hpp"

using namespace aw;

namespace {

// ---------------------------------------------------------------- least
// squares at the tuning-problem shape (102 x 22)

struct LsState
{
    Matrix a{1, 1};
    std::vector<double> b;
    double checksum = 0;
};
LsState g_ls;

void
lsInit(perflab::BenchContext &)
{
    const size_t m = 102, n = 22;
    Rng rng(7);
    g_ls.a = Matrix(m, n);
    g_ls.b.assign(m, 0.0);
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j)
            g_ls.a(i, j) = rng.uniform();
        g_ls.b[i] = rng.uniform();
    }
    g_ls.checksum = 0;
}

void
lsRound(perflab::BenchContext &)
{
    Matrix acopy = g_ls.a;
    std::vector<double> bcopy = g_ls.b;
    auto x = leastSquares(acopy, bcopy);
    for (double v : x)
        g_ls.checksum += v;
}

void
lsFini(perflab::BenchContext &ctx)
{
    ctx.setExtra("solution_checksum", g_ls.checksum);
}

[[maybe_unused]] const bool regLs = perflab::registerBench({
    .name = "solver_least_squares",
    .description = "102x22 least-squares solve (tuning problem shape)",
    .defaultRounds = 30,
    .init = lsInit,
    .round = lsRound,
    .fini = lsFini,
});

// ------------------------------------------------------------- polyfit

struct FitState
{
    std::vector<double> f, p;
    double checksum = 0;
};
FitState g_fit;

void
fitInit(perflab::BenchContext &)
{
    g_fit.f.clear();
    g_fit.p.clear();
    for (double x = 0.2; x <= 1.6; x += 0.2) {
        g_fit.f.push_back(x);
        g_fit.p.push_back(30 + 20 * x + 25 * x * x * x);
    }
    g_fit.checksum = 0;
}

void
fitRound(perflab::BenchContext &)
{
    // One fit is tens of nanoseconds; batch enough per round that the
    // clock quantization stays well under 1%.
    for (int i = 0; i < 256; ++i)
        g_fit.checksum += fitCubicNoQuad(g_fit.f, g_fit.p).constant;
}

void
fitFini(perflab::BenchContext &ctx)
{
    ctx.setExtra("fits_per_round", 256);
    ctx.setExtra("intercept_checksum", g_fit.checksum);
}

[[maybe_unused]] const bool regFit = perflab::registerBench({
    .name = "solver_polyfit",
    .description = "Eq. 3 cubic-no-quadratic fit, 256 fits per round",
    .defaultRounds = 30,
    .init = fitInit,
    .round = fitRound,
    .fini = fitFini,
});

// ------------------------------------------------------------------ QP

struct QpState
{
    QpProblem qp;
    std::vector<double> x0;
    double checksum = 0;
};
QpState g_qp;

void
qpInit(perflab::BenchContext &)
{
    // The Eq. 14 problem shape: 22 vars, box + 11 ordering constraints.
    const size_t n = 22;
    Rng rng(13);
    Matrix a(102, n);
    std::vector<double> b(102);
    for (size_t i = 0; i < a.rows(); ++i) {
        for (size_t j = 0; j < n; ++j)
            a(i, j) = rng.uniform();
        b[i] = rng.uniform() * 5;
    }
    g_qp.qp = QpProblem{};
    g_qp.qp.q = a.gram();
    auto atb = a.mulTransposed(b);
    g_qp.qp.c.assign(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j)
            g_qp.qp.q(i, j) *= 2.0;
        g_qp.qp.c[i] = -2.0 * atb[i];
    }
    g_qp.qp.g = Matrix(0, n);
    g_qp.qp.addBox(0.001, 1000.0);
    for (size_t i = 0; i + 1 < 12; ++i) {
        std::vector<double> row(n, 0.0);
        row[i] = 1.0;
        row[i + 1] = -1.0;
        g_qp.qp.addConstraint(row, 0.0);
    }
    g_qp.x0 = makeFeasible(g_qp.qp, std::vector<double>(n, 1.0));
    g_qp.checksum = 0;
}

void
qpRound(perflab::BenchContext &)
{
    auto sol = solveQp(g_qp.qp, g_qp.x0);
    for (double v : sol.x)
        g_qp.checksum += v;
}

void
qpFini(perflab::BenchContext &ctx)
{
    ctx.setExtra("solution_checksum", g_qp.checksum);
}

[[maybe_unused]] const bool regQp = perflab::registerBench({
    .name = "solver_qp",
    .description =
        "interior-point QP solve at the Eq. 14 size (22 vars)",
    .defaultRounds = 20,
    .init = qpInit,
    .round = qpRound,
    .fini = qpFini,
});

// -------------------------------------------------------- full tuning

struct TuneState
{
    std::vector<KernelActivity> activities;
    std::unique_ptr<AccelWattchModel> partial;
    ComponentArray<double> initial{};
    double checksum = 0;
};
TuneState g_tune;

void
tuneInit(perflab::BenchContext &)
{
    auto &cal = sharedVoltaCalibrator();
    ActivityProvider provider(Variant::SassSim, cal.simulator(),
                              &cal.nsight());
    g_tune.activities.clear();
    for (const auto &ub : cal.tuningSuite())
        g_tune.activities.push_back(provider.collect(ub.kernel));
    g_tune.partial =
        std::make_unique<AccelWattchModel>(cal.partialModel());
    g_tune.initial = initialEnergyEstimates();
    g_tune.checksum = 0;
}

void
tuneRound(perflab::BenchContext &)
{
    auto &cal = sharedVoltaCalibrator();
    TuningResult r =
        tuneDynamicPower(cal.tuningSuite(), cal.tuningPowerW(),
                         g_tune.activities, *g_tune.partial,
                         g_tune.initial);
    for (double v : r.finalEnergyNj)
        g_tune.checksum += v;
}

void
tuneFini(perflab::BenchContext &ctx)
{
    ctx.setExtra("energy_checksum", g_tune.checksum);
    g_tune.activities.clear();
    g_tune.partial.reset();
}

[[maybe_unused]] const bool regTune = perflab::registerBench({
    .name = "solver_tuning",
    .description = "full Eq. 14 dynamic-power tuning pass (102 ubenches)",
    .defaultRounds = 5,
    .defaultWarmup = 1,
    .init = tuneInit,
    .round = tuneRound,
    .fini = tuneFini,
});

} // namespace
