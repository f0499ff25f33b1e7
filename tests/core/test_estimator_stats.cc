/**
 * @file
 * The estimator's sufficient statistics (model::FitStatistics) against
 * the per-cell accumulation they replace, kept here as the reference:
 * the weighted normal equations of steps 1/3 by
 * NormalEquations::addRow over every (microbenchmark, configuration)
 * cell, and the step-2 moments by scans over the microbenchmarks. On
 * the three boards' campaigns, a fleet-sized strided grid and the
 * step-1 subset, every Gram entry, AᵀWb entry, bᵀWb and moment agrees
 * to 1e-12 relative; with coefficients of mixed sign, a moment agrees
 * to 1e-12 of its value at |coefficients|.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "core/campaign.hh"
#include "core/estimator.hh"
#include "fleet/shard.hh"
#include "linalg/lstsq.hh"
#include "sim/physical_gpu.hh"
#include "ubench/suite.hh"

namespace
{

using namespace gpupm;
using gpu::Component;
using gpu::componentIndex;
using model::FitStatistics;
using model::ModelParams;
using model::TrainingData;
using model::VoltagePair;

constexpr std::size_t kNumFeatures = FitStatistics::kNumFeatures;
constexpr double kIdleWeight = 8.0;
constexpr std::array<Component, 6> kCoreComponents = {
    Component::Int, Component::SP, Component::DP,
    Component::SF, Component::Shared, Component::L2,
};

bool
isIdleRow(const gpu::ComponentArray &util)
{
    for (double u : util)
        if (u != 0.0)
            return false;
    return true;
}

/** Steps 1/3's accumulation before the statistics: one addRow per
 *  cell of the configuration subset. */
linalg::NormalEquations
referenceNormalEquations(const TrainingData &data,
                         const std::vector<VoltagePair> &voltages,
                         const std::vector<std::size_t> &subset)
{
    linalg::NormalEquations ne(kNumFeatures);
    std::array<double, kNumFeatures> row;
    for (std::size_t b = 0; b < data.utils.size(); ++b) {
        const double w = isIdleRow(data.utils[b]) ? kIdleWeight : 1.0;
        for (std::size_t ci : subset) {
            const gpu::FreqConfig &cfg = data.configs[ci];
            const VoltagePair &v = voltages[ci];
            const double fc = 1e-3 * cfg.core_mhz;
            const double fm = 1e-3 * cfg.mem_mhz;
            const double vc2fc = v.core * v.core * fc;
            const double vm2fm = v.mem * v.mem * fm;
            row[0] = v.core;
            row[1] = vc2fc;
            row[2] = v.mem;
            row[3] = vm2fm;
            for (std::size_t k = 0; k < kCoreComponents.size(); ++k)
                row[4 + k] = vc2fc *
                             data.utils[b][componentIndex(kCoreComponents[k])];
            row[4 + kCoreComponents.size()] =
                    vm2fm * data.utils[b][componentIndex(Component::Dram)];
            ne.addRow(row.data(), data.power_w[b][ci], w);
        }
    }
    return ne;
}

/** Step 2's moments before the statistics: scans over the
 *  microbenchmarks of A_b, B_b and, per configuration, P_bc. */
FitStatistics::VoltageMoments
referenceMoments(const TrainingData &data, const ModelParams &params)
{
    const std::size_t nb = data.utils.size();
    const std::size_t nc = data.configs.size();
    std::vector<double> core_agg(nb), mem_agg(nb), w(nb);
    FitStatistics::VoltageMoments m;
    for (std::size_t b = 0; b < nb; ++b) {
        double s = params.beta1;
        for (Component c : kCoreComponents)
            s += params.omega[componentIndex(c)] *
                 data.utils[b][componentIndex(c)];
        core_agg[b] = s;
        mem_agg[b] = params.beta3 +
                     params.omega[componentIndex(Component::Dram)] *
                             data.utils[b][componentIndex(Component::Dram)];
        w[b] = isIdleRow(data.utils[b]) ? kIdleWeight : 1.0;
        m.sw += w[b];
        m.swa += w[b] * core_agg[b];
        m.swb += w[b] * mem_agg[b];
        m.swaa += w[b] * core_agg[b] * core_agg[b];
        m.swbb += w[b] * mem_agg[b] * mem_agg[b];
        m.swab += w[b] * core_agg[b] * mem_agg[b];
    }
    m.swp.assign(nc, 0.0);
    m.swap.assign(nc, 0.0);
    m.swbp.assign(nc, 0.0);
    for (std::size_t ci = 0; ci < nc; ++ci) {
        for (std::size_t b = 0; b < nb; ++b) {
            const double wp = w[b] * data.power_w[b][ci];
            m.swp[ci] += wp;
            m.swap[ci] += wp * core_agg[b];
            m.swbp[ci] += wp * mem_agg[b];
        }
    }
    return m;
}

void
expectRelClose(double got, double want, const std::string &what)
{
    EXPECT_LE(std::abs(got - want), 1e-12 * std::abs(want))
            << what << ": got " << got << ", want " << want;
}

void
expectSameNormalEquations(const linalg::NormalEquations &got,
                          const linalg::NormalEquations &want)
{
    linalg::Matrix g, w;
    got.gram(g);
    want.gram(w);
    for (std::size_t j = 0; j < kNumFeatures; ++j) {
        for (std::size_t k = 0; k < kNumFeatures; ++k)
            expectRelClose(g(j, k), w(j, k),
                           "Gram(" + std::to_string(j) + ", " +
                                   std::to_string(k) + ")");
        expectRelClose(got.atb[j], want.atb[j],
                       "AtWb[" + std::to_string(j) + "]");
    }
    expectRelClose(got.btb, want.btb, "btWb");
}

/** Step 1's subset: the reference, then a core and a memory
 *  perturbation of it (Eq. 11). */
std::vector<std::size_t>
initSubset(const TrainingData &data)
{
    const std::size_t ref_ci = *data.configIndex(data.reference);
    std::vector<std::size_t> subset = {ref_ci};
    const auto push_if = [&](auto pred) {
        for (std::size_t ci = 0; ci < data.configs.size(); ++ci) {
            if (ci != ref_ci && pred(data.configs[ci])) {
                subset.push_back(ci);
                return;
            }
        }
    };
    push_if([&](const gpu::FreqConfig &c) {
        return c.mem_mhz == data.reference.mem_mhz &&
               c.core_mhz < data.reference.core_mhz;
    });
    push_if([&](const gpu::FreqConfig &c) {
        return c.core_mhz == data.reference.core_mhz &&
               c.mem_mhz != data.reference.mem_mhz;
    });
    return subset;
}

struct Case
{
    std::string name;
    gpu::DeviceKind kind;
    bool fleet_sized;
};

void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.name;
}

/**
 * The fig7_validation campaign (5 repetitions, seed 42), or a fleet
 * device's: every 7th non-idle microbenchmark plus the idle rows,
 * over fleet::fleetConfigSubset's grid.
 */
const TrainingData &
campaign(const Case &c)
{
    static std::map<std::string, TrainingData> cache;
    auto [it, fresh] = cache.try_emplace(c.name);
    if (fresh) {
        const sim::PhysicalGpu board(c.kind);
        model::CampaignOptions opts;
        opts.power_repetitions = 5;
        opts.seed = 42;
        std::vector<ubench::Microbenchmark> suite = ubench::buildSuite();
        if (c.fleet_sized) {
            std::vector<ubench::Microbenchmark> strided;
            int nonidle = 0;
            for (auto &mb : suite)
                if (mb.family == ubench::Family::Idle ||
                    nonidle++ % 7 == 0)
                    strided.push_back(std::move(mb));
            suite = std::move(strided);
            opts.config_subset =
                    fleet::fleetConfigSubset(board.descriptor());
        }
        it->second = model::runTrainingCampaign(board, suite, opts);
    }
    return it->second;
}

/** Voltages drawn from the estimator's search range, (1, 1) at the
 *  reference. */
std::vector<VoltagePair>
randomVoltages(const TrainingData &data, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<VoltagePair> v(data.configs.size());
    for (std::size_t ci = 0; ci < v.size(); ++ci)
        if (data.configs[ci] != data.reference)
            v[ci] = {0.7 + rng.uniform(), 0.7 + rng.uniform()};
    return v;
}

class FitStatisticsTest : public ::testing::TestWithParam<Case>
{
};

TEST_P(FitStatisticsTest, NormalEquationsMatchCellAccumulation)
{
    const TrainingData &data = campaign(GetParam());
    if (GetParam().fleet_sized) {
        const auto &desc = gpu::DeviceDescriptor::get(GetParam().kind);
        ASSERT_EQ(data.configs.size(),
                  fleet::fleetConfigSubset(desc).size());
        ASSERT_LT(data.utils.size(), 30u);
    }
    const FitStatistics stats(data, kIdleWeight);
    std::vector<std::size_t> all(data.configs.size());
    for (std::size_t ci = 0; ci < all.size(); ++ci)
        all[ci] = ci;

    // At the fitted voltages, and at random ones.
    const model::EstimationResult fit =
            model::ModelEstimator().estimate(data);
    std::vector<VoltagePair> fitted(data.configs.size());
    for (std::size_t ci = 0; ci < fitted.size(); ++ci)
        fitted[ci] = fit.model.voltages(data.configs[ci]);
    for (const auto &voltages : {fitted, randomVoltages(data, 7)}) {
        linalg::NormalEquations got(kNumFeatures);
        stats.normalEquations(voltages, all, got);
        expectSameNormalEquations(
                got, referenceNormalEquations(data, voltages, all));
    }
}

TEST_P(FitStatisticsTest, Step1SubsetMatchesCellAccumulation)
{
    // Step 1 fits the Eq. 11 subset at V̄ = 1; the same statistics
    // also serve any other subset.
    const TrainingData &data = campaign(GetParam());
    const FitStatistics stats(data, kIdleWeight);
    const std::vector<std::size_t> subset = initSubset(data);
    ASSERT_GE(subset.size(), 2u);
    for (const auto &voltages :
         {std::vector<VoltagePair>(data.configs.size()),
          randomVoltages(data, 8)}) {
        linalg::NormalEquations got(kNumFeatures);
        stats.normalEquations(voltages, subset, got);
        expectSameNormalEquations(
                got, referenceNormalEquations(data, voltages, subset));
    }
}

TEST_P(FitStatisticsTest, VoltageMomentsMatchBenchmarkScans)
{
    const TrainingData &data = campaign(GetParam());
    const FitStatistics stats(data, kIdleWeight);

    // At the fitted coefficients, and at random non-negative ones.
    std::vector<ModelParams> params = {
            model::ModelEstimator().estimate(data).model.params()};
    Rng rng(9);
    ModelParams p;
    p.beta0 = 40.0 * rng.uniform();
    p.beta1 = 30.0 * rng.uniform();
    p.beta2 = 20.0 * rng.uniform();
    p.beta3 = 10.0 * rng.uniform();
    for (double &w : p.omega)
        w = 50.0 * rng.uniform();
    params.push_back(p);
    // The signed ablation (nonnegative = false) may fit negative
    // coefficients, and so may any caller: its fit, and random
    // coefficients of both signs.
    model::EstimatorOptions signed_ls;
    signed_ls.nonnegative = false;
    params.push_back(
            model::ModelEstimator(signed_ls).estimate(data).model.params());
    for (int trial = 0; trial < 5; ++trial) {
        p.beta0 = 40.0 * rng.uniform() - 10.0;
        p.beta1 = 30.0 * rng.uniform() - 15.0;
        p.beta2 = 20.0 * rng.uniform() - 5.0;
        p.beta3 = 10.0 * rng.uniform() - 5.0;
        for (double &w : p.omega)
            w = 100.0 * rng.uniform() - 50.0;
        params.push_back(p);
    }

    FitStatistics::VoltageMoments got;
    for (const ModelParams &at : params) {
        // With mixed signs the quadratic forms in M can cancel where
        // the scans sum squares, so both are held to 1e-12 of the same
        // moments at |coefficients|, the scale of either's rounding
        // error. With non-negative coefficients that scale is the
        // moment itself.
        ModelParams abs_at = at;
        abs_at.beta1 = std::abs(at.beta1);
        abs_at.beta3 = std::abs(at.beta3);
        for (double &w : abs_at.omega)
            w = std::abs(w);
        stats.voltageMoments(at, got);
        const FitStatistics::VoltageMoments want =
                referenceMoments(data, at);
        const FitStatistics::VoltageMoments scale =
                referenceMoments(data, abs_at);
        const auto expect_close = [](double g, double w, double s,
                                     const std::string &what) {
            EXPECT_LE(std::abs(g - w), 1e-12 * s)
                    << what << ": got " << g << ", want " << w
                    << ", scale " << s;
        };
        expect_close(got.sw, want.sw, scale.sw, "sw");
        expect_close(got.swa, want.swa, scale.swa, "swa");
        expect_close(got.swb, want.swb, scale.swb, "swb");
        expect_close(got.swaa, want.swaa, scale.swaa, "swaa");
        expect_close(got.swbb, want.swbb, scale.swbb, "swbb");
        expect_close(got.swab, want.swab, scale.swab, "swab");
        ASSERT_EQ(got.swp.size(), data.configs.size());
        for (std::size_t ci = 0; ci < data.configs.size(); ++ci) {
            const std::string at_ci = " at config " + std::to_string(ci);
            expect_close(got.swp[ci], want.swp[ci], scale.swp[ci],
                         "swp" + at_ci);
            expect_close(got.swap[ci], want.swap[ci], scale.swap[ci],
                         "swap" + at_ci);
            expect_close(got.swbp[ci], want.swbp[ci], scale.swbp[ci],
                         "swbp" + at_ci);
        }
    }
}

TEST(FitStatistics, WrongOrderPanics)
{
    const TrainingData &data =
            campaign({"titanx_fleet", gpu::DeviceKind::GtxTitanX, true});
    const FitStatistics stats(data, kIdleWeight);
    linalg::NormalEquations ne(kNumFeatures - 1);
    EXPECT_THROW(stats.normalEquations(
                         std::vector<VoltagePair>(data.configs.size()),
                         {0}, ne),
                 std::logic_error);
}

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(
        Campaigns, FitStatisticsTest,
        ::testing::Values(
                Case{"titanxp", gpu::DeviceKind::TitanXp, false},
                Case{"titanx", gpu::DeviceKind::GtxTitanX, false},
                Case{"k40c", gpu::DeviceKind::TeslaK40c, false},
                Case{"titanx_fleet", gpu::DeviceKind::GtxTitanX, true},
                Case{"titanxp_fleet", gpu::DeviceKind::TitanXp, true}),
        caseName);

} // namespace
