/**
 * @file
 * Tests of the Sec. III-D iterative estimator on synthetic training
 * data with a known generator: exact recovery in the noise-free case,
 * constraint satisfaction, and option behaviour.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/estimator.hh"

namespace
{

using namespace gpupm;
using gpu::Component;
using gpu::componentIndex;

/** A generator model with a paper-like voltage knee. */
model::DvfsPowerModel
generatorModel(const gpu::DeviceDescriptor &dev)
{
    model::ModelParams p;
    p.beta0 = 25.0;
    p.beta1 = 14.0;
    p.beta2 = 9.0;
    p.beta3 = 10.0;
    p.omega[componentIndex(Component::Int)] = 45.0;
    p.omega[componentIndex(Component::SP)] = 55.0;
    p.omega[componentIndex(Component::DP)] = 70.0;
    p.omega[componentIndex(Component::SF)] = 35.0;
    p.omega[componentIndex(Component::Shared)] = 20.0;
    p.omega[componentIndex(Component::L2)] = 30.0;
    p.omega[componentIndex(Component::Dram)] = 16.0;
    model::DvfsPowerModel m(dev.kind, dev.referenceConfig(), p);
    const double knee = 700.0, vfloor = 0.86, slope = 3.0e-4;
    const auto vc = [&](int f) {
        const double raw =
                f <= knee ? vfloor
                          : vfloor + slope * (f - knee);
        const double ref =
                vfloor + slope * (dev.default_core_mhz - knee);
        return raw / ref;
    };
    for (const auto &cfg : dev.allConfigs())
        m.setVoltages(cfg, {vc(cfg.core_mhz), 1.0});
    return m;
}

/** Synthetic utilization vectors spanning the component space. */
std::vector<gpu::ComponentArray>
syntheticUtils(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<gpu::ComponentArray> out;
    // One pure vector per component pins each omega...
    for (std::size_t i = 0; i < gpu::kNumComponents; ++i) {
        gpu::ComponentArray u{};
        u[i] = 0.9;
        out.push_back(u);
    }
    // ...plus the all-idle row and random mixes.
    out.push_back(gpu::ComponentArray{});
    while (out.size() < n) {
        gpu::ComponentArray u{};
        for (double &x : u)
            x = rng.uniform() < 0.4 ? rng.uniform() : 0.0;
        out.push_back(u);
    }
    return out;
}

model::TrainingData
syntheticData(const gpu::DeviceDescriptor &dev,
              const model::DvfsPowerModel &gen, std::size_t n_bench)
{
    model::TrainingData data;
    data.device = dev.kind;
    data.reference = dev.referenceConfig();
    data.configs = dev.allConfigs();
    data.utils = syntheticUtils(42, n_bench);
    data.power_w.resize(data.utils.size());
    for (std::size_t b = 0; b < data.utils.size(); ++b)
        for (const auto &cfg : data.configs)
            data.power_w[b].push_back(
                    gen.predict(data.utils[b], cfg).total_w);
    return data;
}

const gpu::DeviceDescriptor &titanx()
{
    return gpu::DeviceDescriptor::get(gpu::DeviceKind::GtxTitanX);
}

TEST(Estimator, RecoversGeneratorOnNoiseFreeData)
{
    const auto gen = generatorModel(titanx());
    const auto data = syntheticData(titanx(), gen, 40);
    const model::ModelEstimator est;
    const auto fit = est.estimate(data);

    // Noise-free data has no noise floor, so the alternation keeps
    // polishing along a near-degenerate voltage/coefficient direction
    // and may use the whole iteration budget; what matters is that the
    // fit is essentially exact.
    EXPECT_LE(fit.iterations, 50);
    EXPECT_LT(fit.rmse_w, 1.0);

    // Predictions on fresh utilization vectors match the generator.
    // (The bilinear voltage/coefficient valley leaves a few-percent
    // indeterminacy at the configurations furthest from the
    // reference.)
    for (const auto &u : syntheticUtils(777, 20)) {
        for (const auto &cfg : data.configs) {
            const double want = gen.predict(u, cfg).total_w;
            const double got = fit.model.predict(u, cfg).total_w;
            EXPECT_NEAR(got, want, 0.055 * want + 1.0);
        }
    }
}

TEST(Estimator, RecoversVoltageKnee)
{
    const auto gen = generatorModel(titanx());
    const auto data = syntheticData(titanx(), gen, 40);
    const auto fit = model::ModelEstimator().estimate(data);

    // Fitted core voltages track the generator's two-region curve.
    for (int fc : titanx().core_freqs_mhz) {
        const gpu::FreqConfig cfg{fc, titanx().default_mem_mhz};
        EXPECT_NEAR(fit.model.voltages(cfg).core,
                    gen.voltages(cfg).core, 0.04)
                << fc << " MHz";
    }
}

TEST(Estimator, VoltagesSatisfyEq12Monotonicity)
{
    const auto gen = generatorModel(titanx());
    const auto data = syntheticData(titanx(), gen, 30);
    const auto fit = model::ModelEstimator().estimate(data);
    for (int fm : titanx().mem_freqs_mhz) {
        double prev = 0.0;
        for (int fc : titanx().core_freqs_mhz) {
            const double v = fit.model.voltages({fc, fm}).core;
            EXPECT_GE(v, prev - 1e-9);
            prev = v;
        }
    }
}

TEST(Estimator, ReferenceVoltagePinnedToOne)
{
    const auto gen = generatorModel(titanx());
    const auto data = syntheticData(titanx(), gen, 30);
    const auto fit = model::ModelEstimator().estimate(data);
    const auto v = fit.model.voltages(data.reference);
    EXPECT_DOUBLE_EQ(v.core, 1.0);
    EXPECT_DOUBLE_EQ(v.mem, 1.0);
}

TEST(Estimator, NonNegativeCoefficients)
{
    const auto gen = generatorModel(titanx());
    const auto data = syntheticData(titanx(), gen, 30);
    const auto fit = model::ModelEstimator().estimate(data);
    const auto &p = fit.model.params();
    EXPECT_GE(p.beta0, 0.0);
    EXPECT_GE(p.beta1, 0.0);
    EXPECT_GE(p.beta2, 0.0);
    EXPECT_GE(p.beta3, 0.0);
    for (double w : p.omega)
        EXPECT_GE(w, 0.0);
}

TEST(Estimator, SseHistoryIsRecordedAndImproves)
{
    const auto gen = generatorModel(titanx());
    const auto data = syntheticData(titanx(), gen, 30);
    const auto fit = model::ModelEstimator().estimate(data);
    ASSERT_GE(fit.sse_history.size(), 2u);
    EXPECT_LT(fit.sse_history.back(), fit.sse_history.front());
}

TEST(Estimator, NoVoltageAblationFitsWorseOnKneeData)
{
    const auto gen = generatorModel(titanx());
    const auto data = syntheticData(titanx(), gen, 30);

    model::EstimatorOptions no_v;
    no_v.fit_voltages = false;
    const auto flat = model::ModelEstimator(no_v).estimate(data);
    const auto full = model::ModelEstimator().estimate(data);
    // Data generated with a voltage knee cannot be fit by the V = 1
    // ablation anywhere near as well.
    EXPECT_GT(flat.rmse_w, 2.0 * full.rmse_w);
    // Ablation leaves every voltage at 1.
    for (const auto &cfg : data.configs) {
        EXPECT_DOUBLE_EQ(flat.model.voltages(cfg).core, 1.0);
        EXPECT_DOUBLE_EQ(flat.model.voltages(cfg).mem, 1.0);
    }
}

TEST(Estimator, WorksOnSingleMemFrequencyDevice)
{
    const auto &k40 =
            gpu::DeviceDescriptor::get(gpu::DeviceKind::TeslaK40c);
    const auto gen = generatorModel(k40);
    const auto data = syntheticData(k40, gen, 25);
    const auto fit = model::ModelEstimator().estimate(data);
    EXPECT_LT(fit.rmse_w, 2.0);
}

TEST(Estimator, RobustToMeasurementNoise)
{
    const auto gen = generatorModel(titanx());
    auto data = syntheticData(titanx(), gen, 40);
    Rng rng(5);
    for (auto &row : data.power_w)
        for (double &p : row)
            p *= rng.normal(1.0, 0.01);
    const auto fit = model::ModelEstimator().estimate(data);
    EXPECT_LT(fit.rmse_w, 4.0);
}

TEST(Estimator, RejectsMalformedTrainingData)
{
    model::TrainingData empty;
    empty.reference = titanx().referenceConfig();
    EXPECT_THROW(model::ModelEstimator().estimate(empty),
                 std::logic_error);

    const auto gen = generatorModel(titanx());
    auto bad = syntheticData(titanx(), gen, 10);
    bad.power_w.pop_back();
    EXPECT_THROW(model::ModelEstimator().estimate(bad),
                 std::logic_error);

    auto ragged = syntheticData(titanx(), gen, 10);
    ragged.power_w[3].pop_back();
    EXPECT_THROW(model::ModelEstimator().estimate(ragged),
                 std::logic_error);
}

TEST(Estimator, InvalidOptionsPanic)
{
    model::EstimatorOptions bad;
    bad.max_iterations = 0;
    EXPECT_THROW(model::ModelEstimator{bad}, std::logic_error);
    model::EstimatorOptions bad_v;
    bad_v.v_min = -1.0;
    EXPECT_THROW(model::ModelEstimator{bad_v}, std::logic_error);
    model::EstimatorOptions bad_ridge;
    bad_ridge.ridge = -1e-3;
    EXPECT_THROW(model::ModelEstimator{bad_ridge}, std::logic_error);
    // A non-positive row weight would make the coefficient Gram
    // indefinite.
    for (double w : {0.0, -8.0}) {
        model::EstimatorOptions bad_w;
        bad_w.idle_row_weight = w;
        EXPECT_THROW(model::ModelEstimator{bad_w}, std::logic_error);
    }
}

TEST(Estimator, ConfigIndexLookups)
{
    const auto gen = generatorModel(titanx());
    const auto data = syntheticData(titanx(), gen, 8);
    EXPECT_EQ(data.configs[data.configIndex({975, 3505}).value()],
              (gpu::FreqConfig{975, 3505}));
    EXPECT_FALSE(data.configIndex({1, 2}).has_value());
}

/** Keep only the reference and diagonal (both-domain) perturbations:
 *  the Eq. 11 initialization then has no axis-aligned handle. */
model::TrainingData
diagonalOnlyData()
{
    const auto gen = generatorModel(titanx());
    const auto full = syntheticData(titanx(), gen, 12);
    model::TrainingData diag;
    diag.device = full.device;
    diag.reference = full.reference;
    diag.utils = full.utils;
    std::vector<std::size_t> keep;
    for (std::size_t c = 0; c < full.configs.size(); ++c) {
        const auto &cfg = full.configs[c];
        const bool is_ref = cfg == full.reference;
        const bool diagonal =
                cfg.core_mhz != full.reference.core_mhz &&
                cfg.mem_mhz != full.reference.mem_mhz;
        if (is_ref || diagonal) {
            keep.push_back(c);
            diag.configs.push_back(cfg);
        }
    }
    diag.power_w.resize(full.power_w.size());
    for (std::size_t b = 0; b < full.power_w.size(); ++b)
        for (const std::size_t c : keep)
            diag.power_w[b].push_back(full.power_w[b][c]);
    return diag;
}

TEST(EstimatorGuardrails, NonFiniteInputIsTypedBadInput)
{
    const auto gen = generatorModel(titanx());
    auto nan_util = syntheticData(titanx(), gen, 10);
    nan_util.utils[2][1] = std::numeric_limits<double>::quiet_NaN();
    auto res = model::ModelEstimator().tryEstimate(nan_util);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, model::FitErrc::BadInput);

    auto inf_pow = syntheticData(titanx(), gen, 10);
    inf_pow.power_w[1][0] = std::numeric_limits<double>::infinity();
    res = model::ModelEstimator().tryEstimate(inf_pow);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, model::FitErrc::BadInput);
}

TEST(EstimatorGuardrails, DiagonalOnlyGridIsDegenerate)
{
    const auto data = diagonalOnlyData();
    ASSERT_GE(data.configs.size(), 2u);
    auto res = model::ModelEstimator().tryEstimate(data);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, model::FitErrc::DegenerateGrid);
    EXPECT_NE(res.error().message.find("shares a clock domain"),
              std::string::npos)
            << res.error().message;
    EXPECT_EQ(model::fitErrcName(res.error().code),
              "DegenerateGrid");

    // The throwing convenience wrapper surfaces the same condition.
    EXPECT_THROW(model::ModelEstimator().estimate(data),
                 std::logic_error);
}

TEST(EstimatorGuardrails, DiagnosticsReportedOnSuccess)
{
    const auto gen = generatorModel(titanx());
    const auto data = syntheticData(titanx(), gen, 24);
    auto res = model::ModelEstimator().tryEstimate(data);
    ASSERT_TRUE(res.ok()) << res.error().message;
    // Pivot-ratio condition of a usable design is finite and >= 1;
    // rank covers at least the static + per-component columns probed
    // by the synthetic pure-utilization rows.
    EXPECT_GE(res.value().condition_number, 1.0);
    EXPECT_TRUE(std::isfinite(res.value().condition_number));
    EXPECT_GT(res.value().design_rank, gpu::kNumComponents);
    EXPECT_FALSE(res.value().sse_history.empty());
}

} // namespace

namespace
{

TEST(Estimator, SingleConfigurationDeviceStillFits)
{
    // Degenerate board with exactly one V-F configuration: the
    // initialization subset collapses to {F1} and the voltage fit has
    // nothing to do, but the coefficient fit must still produce a
    // usable model (the ridge resolves the static-term degeneracy).
    gpu::DeviceDescriptor desc =
            gpu::DeviceDescriptor::get(gpu::DeviceKind::GtxTitanX);
    desc.core_freqs_mhz = {975};
    desc.mem_freqs_mhz = {3505};

    const auto gen = generatorModel(titanx());
    model::TrainingData data;
    data.device = desc.kind;
    data.reference = desc.referenceConfig();
    data.configs = desc.allConfigs();
    ASSERT_EQ(data.configs.size(), 1u);
    data.utils = syntheticUtils(11, 30);
    data.power_w.resize(data.utils.size());
    for (std::size_t b = 0; b < data.utils.size(); ++b)
        data.power_w[b].push_back(
                gen.predict(data.utils[b], data.reference).total_w);

    const auto fit = model::ModelEstimator().estimate(data);
    // In-sample predictions are accurate even though the voltage
    // table is trivial.
    for (std::size_t b = 0; b < data.utils.size(); ++b) {
        const double want = data.power_w[b][0];
        const double got = fit.model
                                   .predict(data.utils[b],
                                            data.reference)
                                   .total_w;
        EXPECT_NEAR(got, want, 0.05 * want + 1.0);
    }
}

TEST(Estimator, IdleWeightImprovesConstantRecovery)
{
    // The idle-row weighting exists to pin the per-level constants;
    // with it, the fitted constant at the reference is closer to the
    // generator's idle power than without it.
    const auto gen = generatorModel(titanx());
    auto data = syntheticData(titanx(), gen, 40);
    Rng rng(3);
    // Perturb the non-idle rows only (utilization-drift-like error).
    for (std::size_t b = 0; b < data.utils.size(); ++b) {
        bool idle = true;
        for (double u : data.utils[b])
            idle &= u == 0.0;
        if (idle)
            continue;
        for (double &p : data.power_w[b])
            p *= rng.normal(1.0, 0.04);
    }

    const double truth =
            gen.predict(gpu::ComponentArray{}, data.reference).total_w;
    model::EstimatorOptions with;
    model::EstimatorOptions without;
    without.idle_row_weight = 1.0;
    const auto fw = model::ModelEstimator(with).estimate(data);
    const auto fo = model::ModelEstimator(without).estimate(data);
    const double err_with = std::abs(
            fw.model.predict(gpu::ComponentArray{}, data.reference)
                    .total_w -
            truth);
    const double err_without = std::abs(
            fo.model.predict(gpu::ComponentArray{}, data.reference)
                    .total_w -
            truth);
    EXPECT_LE(err_with, err_without + 0.5);
}

} // namespace
