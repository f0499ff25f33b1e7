/**
 * @file
 * Tests of the estimator convergence telemetry: the observer hook
 * fires once per outer iteration on a synthetic fit, SSE never
 * increases across the alternation, and the recorder's CSV is
 * well-formed. Also covers the failure path (onDone(false)).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/estimator.hh"
#include "obs/convergence.hh"

namespace
{

using namespace gpupm;
using gpu::Component;
using gpu::componentIndex;

const gpu::DeviceDescriptor &
titanx()
{
    return gpu::DeviceDescriptor::get(gpu::DeviceKind::GtxTitanX);
}

/** Compact noise-free generator (same shape as the estimator tests). */
model::TrainingData
syntheticData()
{
    const auto &dev = titanx();
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
    model::DvfsPowerModel gen(dev.kind, dev.referenceConfig(), p);
    for (const auto &cfg : dev.allConfigs())
        gen.setVoltages(cfg,
                        {0.85 + 0.15 * cfg.core_mhz /
                                        dev.default_core_mhz,
                         1.0});

    model::TrainingData data;
    data.device = dev.kind;
    data.reference = dev.referenceConfig();
    data.configs = dev.allConfigs();
    for (std::size_t i = 0; i < gpu::kNumComponents; ++i) {
        gpu::ComponentArray u{};
        u[i] = 0.9;
        data.utils.push_back(u);
    }
    data.utils.push_back(gpu::ComponentArray{}); // idle row
    gpu::ComponentArray mix{};
    for (double &x : mix)
        x = 0.3;
    data.utils.push_back(mix);
    data.power_w.resize(data.utils.size());
    for (std::size_t b = 0; b < data.utils.size(); ++b)
        for (const auto &cfg : data.configs)
            data.power_w[b].push_back(
                    gen.predict(data.utils[b], cfg).total_w);
    return data;
}

TEST(Convergence, ObserverSeesOneRecordPerIteration)
{
    obs::ConvergenceRecorder rec;
    model::EstimatorOptions opts;
    opts.observer = &rec;
    const auto fit =
            model::ModelEstimator(opts).tryEstimate(syntheticData());
    ASSERT_TRUE(fit.ok());

    // Iteration 0 is the Eq. 11 initialization, then one record per
    // outer iteration.
    ASSERT_EQ(rec.records().size(),
              static_cast<std::size_t>(fit.value().iterations) + 1);
    for (std::size_t i = 0; i < rec.records().size(); ++i)
        EXPECT_EQ(rec.records()[i].iteration,
                  static_cast<int>(i));
    EXPECT_EQ(rec.converged(), fit.value().converged);
    EXPECT_EQ(rec.iterations(), fit.value().iterations);
}

TEST(Convergence, SseIsNonIncreasingAcrossIterations)
{
    obs::ConvergenceRecorder rec;
    model::EstimatorOptions opts;
    opts.observer = &rec;
    ASSERT_TRUE(model::ModelEstimator(opts)
                        .tryEstimate(syntheticData())
                        .ok());
    ASSERT_GE(rec.records().size(), 2u);
    // The alternation only accepts improving steps: from the first
    // real iteration on, SSE must not increase.
    for (std::size_t i = 2; i < rec.records().size(); ++i) {
        EXPECT_LE(rec.records()[i].sse,
                  rec.records()[i - 1].sse * (1.0 + 1e-12))
                << "at iteration " << i;
        EXPECT_GE(rec.records()[i].delta_sse, 0.0);
    }
    // Records carry finite diagnostics.
    for (const auto &r : rec.records()) {
        EXPECT_TRUE(std::isfinite(r.sse));
        EXPECT_GE(r.sse, 0.0);
        EXPECT_GE(r.max_dv, 0.0);
        EXPECT_GE(r.als_residual, 0.0);
        EXPECT_GE(r.condition, 0.0);
    }
}

TEST(Convergence, CsvHasHeaderAndOneRowPerRecord)
{
    obs::ConvergenceRecorder rec;
    model::EstimatorOptions opts;
    opts.observer = &rec;
    ASSERT_TRUE(model::ModelEstimator(opts)
                        .tryEstimate(syntheticData())
                        .ok());
    const std::string csv = rec.toCsv();
    std::istringstream in(csv);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line,
              "iteration,sse,delta_sse,max_dv,als_residual,"
              "condition");
    std::size_t rows = 0;
    while (std::getline(in, line))
        if (!line.empty())
            ++rows;
    EXPECT_EQ(rows, rec.records().size());
}

TEST(Convergence, FailedFitReportsOnDoneFalse)
{
    obs::ConvergenceRecorder rec;
    model::EstimatorOptions opts;
    opts.observer = &rec;
    model::TrainingData empty; // malformed: no benchmarks at all
    const auto fit = model::ModelEstimator(opts).tryEstimate(empty);
    EXPECT_FALSE(fit.ok());
    EXPECT_FALSE(rec.converged());
    EXPECT_EQ(rec.iterations(), 0);
}

TEST(Convergence, DefaultObserverIsSafeNoOp)
{
    obs::EstimatorObserver base;
    obs::IterationRecord r;
    base.onIteration(r); // must not crash
    base.onDone(true, 3);
}

} // namespace
