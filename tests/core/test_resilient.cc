/**
 * @file
 * Tests of the resilient backend decorator: retry/backoff delays,
 * deadline enforcement, MAD outlier rejection, quarantine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/resilient.hh"

namespace
{

using namespace gpupm;

const gpu::FreqConfig kRef{975, 3505};

sim::KernelDemand
moderateKernel()
{
    sim::KernelDemand d;
    d.name = "moderate";
    d.warps_sp = 2e9;
    d.bytes_dram_rd = 2e9;
    d.bytes_l2_rd = 2e9;
    return d;
}

/**
 * A scripted backend: returns the next power from a fixed list and
 * reports a fixed virtual duration per call. Lets the resilience
 * policy be asserted against exactly known inputs.
 */
class ScriptedBackend : public model::MeasurementBackend
{
  public:
    explicit ScriptedBackend(std::vector<double> powers,
                             double call_seconds = 1.0)
        : powers_(std::move(powers)), call_seconds_(call_seconds)
    {}

    const gpu::DeviceDescriptor &descriptor() const override
    {
        return gpu::DeviceDescriptor::get(
                gpu::DeviceKind::GtxTitanX);
    }

    cupti::RawMetrics profileKernel(const sim::KernelDemand &,
                                    const gpu::FreqConfig &) override
    {
        cupti::RawMetrics rm;
        rm.acycles = 1e9;
        rm.l2_rd_bytes = next();
        rm.time_s = 0.01;
        return rm;
    }

    nvml::PowerMeasurement measurePower(const sim::KernelDemand &,
                                        const gpu::FreqConfig &, int,
                                        double) override
    {
        nvml::PowerMeasurement m;
        m.power_w = next();
        m.kernel_time_s = 0.01;
        m.run_duration_s = 1.0;
        m.samples_per_run = 10;
        m.effective = kRef;
        return m;
    }

    double measureIdlePower(const gpu::FreqConfig &) override
    {
        return next();
    }

    double lastCallSeconds() const override { return call_seconds_; }

    int calls() const { return static_cast<int>(cursor_); }

  private:
    double next()
    {
        const double v = powers_.at(cursor_ % powers_.size());
        ++cursor_;
        if (std::isinf(v))
            throw model::MeasurementError(model::MeasureErrc::Transient,
                                          "scripted transient");
        return v;
    }

    std::vector<double> powers_;
    double call_seconds_;
    std::size_t cursor_ = 0;
};

TEST(Resilient, BackoffDependsOnlyOnTheCellSeed)
{
    // Three transients over three calls. The jitter stream runs on
    // across the calls of a cell and restarts at reseed(), so the
    // total delay is a function of the cell seed alone.
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<double> script{inf,   inf,   100.0,
                                     inf,   100.2, 99.9};
    const auto backoff = [&](model::ResilientBackend &shield,
                             std::uint64_t seed) {
        const double before = shield.counters().backoff_total_s;
        shield.reseed(seed);
        EXPECT_TRUE(
                shield.tryMeasurePower(moderateKernel(), kRef, 3, 1.0)
                        .ok());
        return shield.counters().backoff_total_s - before;
    };
    ScriptedBackend in_a(script), in_b(script), in_c(script);
    model::ResilientBackend a(in_a), b(in_b), c(in_c);
    const double at_9 = backoff(a, 9);
    EXPECT_EQ(a.counters().retries, 3);
    EXPECT_EQ(backoff(b, 9), at_9);
    EXPECT_NE(backoff(c, 10), at_9);
    // A cell measured after another one draws the same delays (the
    // running total rounds the difference, hence DOUBLE_EQ).
    EXPECT_DOUBLE_EQ(backoff(c, 9), at_9);
}

TEST(Resilient, RetryDelaysGrowGeometricallyToTheCap)
{
    // n transients before one call succeeds: n retries whose delays
    // are 0.05 * 2^k s, capped at 5 s, each jittered by +/-25%.
    const double inf = std::numeric_limits<double>::infinity();
    double nominal = 0.0;
    for (int n = 1; n <= 10; ++n) {
        nominal += std::min(5.0, 0.05 * std::pow(2.0, n - 1));
        std::vector<double> script(n, inf);
        script.push_back(100.0);
        script.push_back(100.2);
        ScriptedBackend inner(script);
        model::ResilientBackend shield(inner, 10);
        ASSERT_TRUE(
                shield.tryMeasurePower(moderateKernel(), kRef, 2, 1.0)
                        .ok());
        EXPECT_EQ(shield.counters().retries, n);
        EXPECT_GE(shield.counters().backoff_total_s, 0.75 * nominal);
        EXPECT_LE(shield.counters().backoff_total_s, 1.25 * nominal);
    }
}

TEST(Resilient, RetriesRecoverableFailuresAndSucceeds)
{
    // inf entries script transient throws; the retry loop must ride
    // them out and aggregate the good samples.
    const double inf = std::numeric_limits<double>::infinity();
    ScriptedBackend inner({inf, 100.0, inf, inf, 100.4, 99.8});
    model::ResilientBackend shield(inner);

    auto e = shield.tryMeasurePower(moderateKernel(), kRef, 3, 1.0);
    ASSERT_TRUE(e.ok());
    EXPECT_DOUBLE_EQ(e.value().power_w, 100.0);
    EXPECT_EQ(shield.counters().retries, 3);
    EXPECT_GT(shield.counters().backoff_total_s, 0.0);
    EXPECT_EQ(shield.counters().call_failures, 0);
}

TEST(Resilient, FatalErrorsAreNotRetried)
{
    class FatalBackend : public ScriptedBackend
    {
      public:
        FatalBackend() : ScriptedBackend({0.0}) {}
        nvml::PowerMeasurement measurePower(const sim::KernelDemand &,
                                            const gpu::FreqConfig &,
                                            int, double) override
        {
            ++attempts;
            throw model::MeasurementError(model::MeasureErrc::Fatal,
                                          "sensor gone");
        }
        int attempts = 0;
    } inner;
    model::ResilientBackend shield(inner);
    auto e = shield.tryMeasurePower(moderateKernel(), kRef, 3, 1.0);
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.error().code, model::MeasureErrc::Fatal);
    EXPECT_EQ(inner.attempts, 1);
    EXPECT_EQ(shield.counters().retries, 0);
}

TEST(Resilient, DeadlineAbandonsWedgedCalls)
{
    // Every call "takes" 90 virtual seconds against a 30 s deadline:
    // all attempts time out, the call fails, and with a threshold of
    // two failed calls the configuration lands in quarantine.
    ScriptedBackend inner({100.0}, 90.0);
    model::ResilientBackend shield(inner, 2);

    auto e = shield.tryMeasurePower(moderateKernel(), kRef, 2, 1.0);
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(shield.counters().timeouts, shield.counters().attempts);
    EXPECT_GE(shield.counters().call_failures, 2);
    EXPECT_TRUE(shield.isQuarantined(kRef));
}

TEST(Resilient, QuarantineFailsFast)
{
    // Every attempt times out, so both calls of one measurement (at
    // least two repetitions) exhaust their retries: the second
    // exhausted call quarantines the configuration.
    ScriptedBackend inner({100.0}, 90.0);
    model::ResilientBackend shield(inner, 1);

    ASSERT_FALSE(
            shield.tryMeasurePower(moderateKernel(), kRef, 1, 1.0)
                    .ok());
    EXPECT_EQ(shield.counters().call_failures, 2);
    ASSERT_TRUE(shield.isQuarantined(kRef));
    ASSERT_EQ(shield.quarantined().size(), 1u);
    EXPECT_EQ(shield.quarantined()[0], kRef);

    const int calls_before = inner.calls();
    auto e = shield.tryMeasurePower(moderateKernel(), kRef, 1, 1.0);
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.error().code, model::MeasureErrc::Quarantined);
    // Fail-fast: the inner backend was never called again.
    EXPECT_EQ(inner.calls(), calls_before);
    EXPECT_GT(shield.counters().quarantined_calls, 0);
    // Other configurations stay measurable.
    EXPECT_FALSE(shield.isQuarantined({595, 810}));
}

TEST(Resilient, MadRejectsSpikesAndNansFromPowerMedian)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    ScriptedBackend inner({100.0, 100.4, 600.0, 99.8, nan, 100.2});
    model::ResilientBackend shield(inner);

    auto e = shield.tryMeasurePower(moderateKernel(), kRef, 6, 1.0);
    ASSERT_TRUE(e.ok());
    // Median of the four survivors {100.0, 100.4, 99.8, 100.2}.
    EXPECT_DOUBLE_EQ(e.value().power_w, 100.1);
    EXPECT_EQ(shield.counters().outliers_rejected, 1);
    EXPECT_EQ(shield.counters().corrupt_samples, 1);
}

TEST(Resilient, TooFewSurvivorsIsACorruptSampleFailure)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    ScriptedBackend inner({nan, nan, nan, 100.0});
    model::ResilientBackend shield(inner);
    auto e = shield.tryMeasurePower(moderateKernel(), kRef, 4, 1.0);
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.error().code, model::MeasureErrc::CorruptSample);
}

TEST(Resilient, ConsensusProfilingOutvotesDroppedEvents)
{
    // One of three collections reads l2_rd_bytes = 0 (a dropped event
    // group); the field-wise median keeps the intact value.
    ScriptedBackend inner({4e9, 0.0, 4e9});
    model::ResilientBackend shield(inner);
    auto e = shield.tryProfileKernel(moderateKernel(), kRef);
    ASSERT_TRUE(e.ok());
    EXPECT_DOUBLE_EQ(e.value().l2_rd_bytes, 4e9);
    EXPECT_DOUBLE_EQ(e.value().acycles, 1e9);
}

TEST(Resilient, IdlePowerUsesSamePolicy)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    ScriptedBackend inner({30.0, nan, 30.2, 29.8});
    model::ResilientBackend shield(inner);
    auto e = shield.tryMeasureIdlePower(kRef, 4);
    ASSERT_TRUE(e.ok());
    EXPECT_DOUBLE_EQ(e.value(), 30.0);
    EXPECT_EQ(shield.counters().corrupt_samples, 1);
}

TEST(Resilient, ExpectedAccessorsAssert)
{
    model::Expected<double, model::Status> good(1.0);
    EXPECT_TRUE(good.ok());
    EXPECT_DOUBLE_EQ(good.value(), 1.0);
    EXPECT_THROW(good.error(), std::logic_error);
    model::Expected<double, model::Status> bad(
            model::Status{model::MeasureErrc::Transient, "x"});
    EXPECT_FALSE(bad.ok());
    EXPECT_TRUE(bad.error().recoverable());
    EXPECT_THROW(bad.value(), std::logic_error);
}

TEST(Resilient, OptionValidationPanics)
{
    ScriptedBackend inner({100.0});
    EXPECT_THROW(model::ResilientBackend(inner, -1), std::logic_error);
}

} // namespace
