/**
 * @file
 * End-to-end tests of the fault-tolerant campaign: a flaky
 * measurement stack must still yield a model close to the fault-free
 * one, persistently broken configurations must be quarantined rather
 * than wedge the run, and an interrupted campaign resumed from its
 * checkpoint must reproduce the uninterrupted result exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "core/campaign.hh"
#include "core/faults.hh"
#include "core/model_io.hh"
#include "core/resilient.hh"

namespace
{

using namespace gpupm;

model::ResilientCampaignOptions
fastOpts()
{
    model::ResilientCampaignOptions o;
    // Enough repetitions that a single corrupt sample cannot sink a
    // cell below min_valid_repetitions, few enough to keep tests fast.
    o.base.power_repetitions = 4;
    return o;
}

model::ResilientCampaignResult
runFaulty(const sim::PhysicalGpu &board, double rate,
          const model::ResilientCampaignOptions &opts,
          const std::vector<gpu::FreqConfig> &broken = {})
{
    model::SimulatedBackend inner(board, opts.base.seed);
    auto spec = model::FaultSpec::uniform(rate);
    spec.broken_configs = broken;
    model::FaultInjectingBackend faulty(inner, spec);
    return model::runResilientTrainingCampaign(
            faulty, ubench::buildSuite(), opts);
}

TEST(FaultyCampaign, SurvivesFaultsAndTrainsAnEquivalentModel)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    const auto opts = fastOpts();

    // Fault-free baseline through the same resilient runner.
    model::SimulatedBackend clean(board, opts.base.seed);
    const auto base = model::runResilientTrainingCampaign(
            clean, ubench::buildSuite(), opts);
    ASSERT_TRUE(base.complete);
    EXPECT_EQ(base.report.cells_failed, 0);
    EXPECT_EQ(base.report.cells_done, base.report.cells_total);

    // ~8% of calls fail in some way; the campaign must complete
    // without aborting and report what it had to survive.
    const auto faulty = runFaulty(board, 0.08, opts);
    ASSERT_TRUE(faulty.complete);
    EXPECT_GT(faulty.report.faults_injected, 0);
    EXPECT_GT(faulty.report.totals.retries, 0);
    EXPECT_GT(faulty.report.totals.attempts,
              base.report.totals.attempts);
    long flagged = 0;
    for (const auto &b : faulty.report.benchmarks)
        flagged += b.retries > 0 || b.outliers_rejected > 0 ||
                                   b.corrupt_samples > 0
                           ? 1
                           : 0;
    EXPECT_GT(flagged, 0);

    // Both models exist and agree on the surviving grid: the injected
    // noise must not leak into the fit beyond a small tolerance.
    const auto fit0 = model::ModelEstimator().estimate(base.data);
    const auto fit1 = model::ModelEstimator().estimate(faulty.data);
    double err_sum = 0.0;
    long n = 0;
    for (const auto &util : faulty.data.utils) {
        for (const auto &cfg : faulty.data.configs) {
            const double p0 = fit0.model.predict(util, cfg).total_w;
            const double p1 = fit1.model.predict(util, cfg).total_w;
            ASSERT_GT(p0, 0.0);
            err_sum += std::abs(p1 - p0) / p0;
            ++n;
        }
    }
    ASSERT_GT(n, 0);
    EXPECT_LT(err_sum / n, 0.02);
}

TEST(FaultyCampaign, QuarantinesBrokenConfigAndTrainsOnSparseGrid)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    const gpu::FreqConfig bad{595, 810};
    const auto res = runFaulty(board, 0.0, fastOpts(), {bad});

    ASSERT_TRUE(res.complete);
    ASSERT_EQ(res.report.quarantined.size(), 1u);
    EXPECT_EQ(res.report.quarantined[0], bad);
    EXPECT_GT(res.report.totals.call_failures, 0);
    EXPECT_GT(res.report.totals.quarantined_calls, 0);

    // The broken column is dropped; everything else survives.
    const auto &cfgs = res.data.configs;
    EXPECT_EQ(std::count(cfgs.begin(), cfgs.end(), bad), 0);
    EXPECT_EQ(cfgs.size(),
              board.descriptor().allConfigs().size() - 1);
    EXPECT_NE(std::find(cfgs.begin(), cfgs.end(),
                        res.data.reference),
              cfgs.end());

    // The estimator tolerates the sparser grid.
    const auto fit = model::ModelEstimator().estimate(res.data);
    EXPECT_TRUE(std::isfinite(fit.rmse_w));
    EXPECT_LT(fit.rmse_w, 15.0);
    EXPECT_FALSE(fit.model.hasVoltages(bad));
}

TEST(FaultyCampaign, BrokenReferenceIsATypedError)
{
    // Without the reference configuration there is nothing to
    // normalize utilizations against; the campaign must refuse, and
    // say why in its result.
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    const auto ref = board.descriptor().referenceConfig();
    const auto res = runFaulty(board, 0.0, fastOpts(), {ref});
    EXPECT_FALSE(res.complete);
    EXPECT_FALSE(res.checkpoint_error);
    ASSERT_TRUE(res.reference_error);
    EXPECT_EQ(res.reference_error->message.rfind("cannot profile '", 0),
              0u)
            << res.reference_error->message;
    EXPECT_EQ(res.report.cells_done, 0);
}

/** Profiles normally, but every power read at the reference fails. */
class DeadReferenceRail : public model::SimulatedBackend
{
  public:
    using SimulatedBackend::SimulatedBackend;

    nvml::PowerMeasurement measurePower(const sim::KernelDemand &kernel,
                                        const gpu::FreqConfig &cfg,
                                        int repetitions,
                                        double min_duration_s) override
    {
        failAtReference(cfg);
        return SimulatedBackend::measurePower(kernel, cfg, repetitions,
                                              min_duration_s);
    }

    double measureIdlePower(const gpu::FreqConfig &cfg) override
    {
        failAtReference(cfg);
        return SimulatedBackend::measureIdlePower(cfg);
    }

  private:
    void failAtReference(const gpu::FreqConfig &cfg) const
    {
        if (cfg == descriptor().referenceConfig())
            throw model::MeasurementError(model::MeasureErrc::Transient,
                                          "dead power rail");
    }
};

TEST(FaultyCampaign, UnmeasuredReferencePowerIsATypedError)
{
    // Profiling succeeds, so the grid completes, but the reference
    // column has no power data: no model can be trained from it.
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    const auto opts = fastOpts();
    DeadReferenceRail backend(board, opts.base.seed);
    const auto res = model::runResilientTrainingCampaign(
            backend, ubench::buildSuite(), opts);
    EXPECT_FALSE(res.complete);
    ASSERT_TRUE(res.reference_error);
    EXPECT_EQ(res.reference_error->code, model::MeasureErrc::Fatal);
    EXPECT_NE(res.reference_error->message.find("failed persistently"),
              std::string::npos);
    EXPECT_TRUE(res.data.configs.empty());
}

TEST(FaultyCampaign, CheckpointResumeReproducesUninterruptedRun)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    const auto ck_path =
            (std::filesystem::temp_directory_path() /
             "gpupm_test_faulty_campaign.ck.json")
                    .string();
    std::filesystem::remove(ck_path);

    auto opts = fastOpts();

    // Uninterrupted reference run (no checkpointing at all).
    const auto whole = runFaulty(board, 0.05, opts);
    ASSERT_TRUE(whole.complete);

    // Same campaign, killed after 1500 cells...
    opts.checkpoint_path = ck_path;
    opts.checkpoint_every = 64;
    opts.max_cells = 1500;
    const auto part = runFaulty(board, 0.05, opts);
    EXPECT_FALSE(part.complete);
    ASSERT_TRUE(std::filesystem::exists(ck_path));

    // ...then resumed to completion in a fresh process (fresh backend
    // chain; only the checkpoint file carries state across).
    opts.max_cells = 0;
    const auto resumed = runFaulty(board, 0.05, opts);
    ASSERT_TRUE(resumed.complete);
    EXPECT_GT(resumed.report.cells_resumed, 0);

    // The resumed training data is bit-identical to the
    // uninterrupted run's.
    ASSERT_EQ(resumed.data.configs, whole.data.configs);
    ASSERT_EQ(resumed.data.power_w.size(), whole.data.power_w.size());
    for (std::size_t b = 0; b < whole.data.power_w.size(); ++b) {
        ASSERT_EQ(resumed.data.power_w[b].size(),
                  whole.data.power_w[b].size());
        for (std::size_t c = 0; c < whole.data.power_w[b].size(); ++c)
            EXPECT_DOUBLE_EQ(resumed.data.power_w[b][c],
                             whole.data.power_w[b][c]);
        for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
            EXPECT_DOUBLE_EQ(resumed.data.utils[b][i],
                             whole.data.utils[b][i]);
    }
    std::filesystem::remove(ck_path);
}

TEST(FaultyCampaign, ReportSummaryIsHumanReadable)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    const auto res = runFaulty(board, 0.05, fastOpts());
    const auto s = res.report.summary();
    EXPECT_NE(s.find("campaign report"), std::string::npos);
    EXPECT_NE(s.find("resilience"), std::string::npos);
    EXPECT_NE(s.find("faults injected"), std::string::npos);
    EXPECT_NE(s.find("quarantined"), std::string::npos);
}

} // namespace
