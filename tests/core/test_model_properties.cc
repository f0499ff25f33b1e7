/**
 * @file
 * Property-style sweeps over the fitted model and the estimator:
 * physical invariants that must hold for *any* seed / workload, run
 * as parameterized suites.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/campaign.hh"
#include "core/latency_scaler.hh"
#include "core/model_io.hh"
#include "core/predictor.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace gpupm;
using gpu::Component;
using gpu::componentIndex;

/** One fitted GTX Titan X model, shared across the suite. */
const model::EstimationResult &
fitted()
{
    static const model::EstimationResult fit = [] {
        sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
        model::CampaignOptions o;
        o.power_repetitions = 3;
        const auto data = model::runTrainingCampaign(
                board, ubench::buildSuite(), o);
        return model::ModelEstimator().estimate(data);
    }();
    return fit;
}

gpu::ComponentArray
randomUtil(Rng &rng)
{
    gpu::ComponentArray u{};
    for (double &x : u)
        x = rng.uniform() < 0.5 ? rng.uniform() : 0.0;
    return u;
}

class ModelProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ModelProperty, PowerIncreasesWithEveryUtilization)
{
    Rng rng(GetParam() * 1337);
    const auto &m = fitted().model;
    const gpu::ComponentArray u = randomUtil(rng);
    const auto &dev =
            gpu::DeviceDescriptor::get(gpu::DeviceKind::GtxTitanX);
    for (const auto &cfg : dev.allConfigs()) {
        const double base = m.predict(u, cfg).total_w;
        for (std::size_t i = 0; i < gpu::kNumComponents; ++i) {
            gpu::ComponentArray up = u;
            up[i] = std::min(1.0, up[i] + 0.2);
            EXPECT_GE(m.predict(up, cfg).total_w, base - 1e-9)
                    << componentName(static_cast<Component>(i));
        }
    }
}

TEST_P(ModelProperty, DomainPowerMonotoneInItsClock)
{
    // Eq. 12 guarantees per-domain monotonicity: the core-domain
    // power is non-decreasing in fcore at fixed fmem (the fitted Vc
    // is monotone there), and the memory-domain power is
    // non-decreasing in fmem at fixed fcore. The *total* may dip
    // slightly because the other domain's fitted voltage is free
    // across the orthogonal axis.
    Rng rng(GetParam() * 7919);
    const auto &m = fitted().model;
    const gpu::ComponentArray u = randomUtil(rng);
    const auto &dev =
            gpu::DeviceDescriptor::get(gpu::DeviceKind::GtxTitanX);
    for (int fm : dev.mem_freqs_mhz) {
        double prev = 0.0;
        for (int fc : dev.core_freqs_mhz) {
            const double p = m.predict(u, {fc, fm}).core_w;
            EXPECT_GE(p, prev - 1e-9) << fc << "@" << fm;
            prev = p;
        }
    }
    for (int fc : dev.core_freqs_mhz) {
        double prev = 0.0;
        for (auto it = dev.mem_freqs_mhz.rbegin();
             it != dev.mem_freqs_mhz.rend(); ++it) {
            const double p = m.predict(u, {fc, *it}).mem_w;
            EXPECT_GE(p, prev - 1e-9) << fc << "@" << *it;
            prev = p;
        }
    }
}

TEST_P(ModelProperty, BreakdownAlwaysSumsToTotal)
{
    Rng rng(GetParam() * 31);
    const auto &m = fitted().model;
    const auto &dev =
            gpu::DeviceDescriptor::get(gpu::DeviceKind::GtxTitanX);
    for (int rep = 0; rep < 8; ++rep) {
        const gpu::ComponentArray u = randomUtil(rng);
        const auto &cfgs = dev.allConfigs();
        const auto cfg = cfgs[rng.below(cfgs.size())];
        const auto p = m.predict(u, cfg);
        double s = p.constant_w;
        for (double w : p.component_w)
            s += w;
        EXPECT_NEAR(s, p.total_w, 1e-9);
        EXPECT_NEAR(p.core_w + p.mem_w, p.total_w, 1e-9);
        EXPECT_GE(p.constant_w, 0.0);
    }
}

TEST_P(ModelProperty, SerializationRoundTripsExactly)
{
    Rng rng(GetParam() * 101);
    const auto &m = fitted().model;
    const auto parsed =
            model::tryParse<model::DvfsPowerModel>(model::serialize(m));
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const auto &n = parsed.value();
    const auto &dev =
            gpu::DeviceDescriptor::get(gpu::DeviceKind::GtxTitanX);
    for (int rep = 0; rep < 8; ++rep) {
        const gpu::ComponentArray u = randomUtil(rng);
        const auto &cfgs = dev.allConfigs();
        const auto cfg = cfgs[rng.below(cfgs.size())];
        EXPECT_NEAR(n.predict(u, cfg).total_w,
                    m.predict(u, cfg).total_w, 1e-6);
    }
}

TEST_P(ModelProperty, ScalerSlowdownIsAtLeastOneForSlowerClocks)
{
    Rng rng(GetParam() * 271);
    const model::LatencyScaler s({975, 3505});
    const gpu::ComponentArray u = randomUtil(rng);
    const auto &dev =
            gpu::DeviceDescriptor::get(gpu::DeviceKind::GtxTitanX);
    for (const auto &cfg : dev.allConfigs()) {
        if (cfg.core_mhz <= 975 && cfg.mem_mhz <= 3505) {
            EXPECT_GE(s.slowdown(u, cfg), 1.0 - 1e-9);
        }
        if (cfg.core_mhz >= 975 && cfg.mem_mhz >= 3505) {
            EXPECT_LE(s.slowdown(u, cfg), 1.0 + 1e-9);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelProperty,
                         ::testing::Range(1, 13));

/** Estimation must be robust to the stochastic streams: different
 *  campaign seeds land in the same accuracy band. */
class EstimatorSeedSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(EstimatorSeedSweep, FitQualityIsSeedStable)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    model::CampaignOptions o;
    o.power_repetitions = 2;
    o.seed = static_cast<std::uint64_t>(GetParam()) * 7321;
    const auto data = model::runTrainingCampaign(
            board, ubench::buildSuite(), o);
    const auto fit = model::ModelEstimator().estimate(data);
    EXPECT_LT(fit.rmse_w, 12.0);
    EXPECT_LE(fit.iterations, 50);
    // The voltage knee shape survives any seed.
    const double v_low = fit.model.voltages({595, 3505}).core;
    const double v_high = fit.model.voltages({1164, 3505}).core;
    EXPECT_LT(v_low, 0.95);
    EXPECT_GT(v_high, 1.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorSeedSweep,
                         ::testing::Range(1, 7));

} // namespace
