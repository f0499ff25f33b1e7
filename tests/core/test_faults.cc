/**
 * @file
 * Tests of the deterministic fault-injecting backend decorator.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/faults.hh"

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

/** Spec injecting nothing; the decorator must be transparent. */
model::FaultSpec
quietSpec()
{
    return model::FaultSpec{};
}

TEST(Faults, ZeroRateSpecIsTransparent)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    model::SimulatedBackend bare(board, 5);
    model::SimulatedBackend inner(board, 5);
    model::FaultInjectingBackend wrapped(inner, quietSpec());

    const auto d = moderateKernel();
    const auto m0 = bare.measurePower(d, kRef, 3, 1.0);
    const auto m1 = wrapped.measurePower(d, kRef, 3, 1.0);
    EXPECT_DOUBLE_EQ(m0.power_w, m1.power_w);

    const auto r0 = bare.profileKernel(d, kRef);
    const auto r1 = wrapped.profileKernel(d, kRef);
    EXPECT_DOUBLE_EQ(r0.acycles, r1.acycles);
    EXPECT_DOUBLE_EQ(r0.dram_rd_bytes, r1.dram_rd_bytes);
    EXPECT_EQ(wrapped.injected().total(), 0);
}

TEST(Faults, UniformSpecSpreadsTotalRate)
{
    const auto s = model::FaultSpec::uniform(0.10, 7);
    EXPECT_EQ(s.seed, 7u);
    const double sum = s.transient_rate + s.clock_reject_rate +
                       s.stuck_rate + s.spike_rate + s.nan_rate +
                       s.drop_event_rate + s.hang_rate;
    EXPECT_NEAR(sum, 0.10, 1e-12);
    EXPECT_THROW(model::FaultSpec::uniform(1.5), std::logic_error);
}

TEST(Faults, InjectionIsDeterministicPerSeed)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    const auto spec = model::FaultSpec::uniform(0.5, 99);
    const auto d = moderateKernel();

    const auto run = [&](model::FaultInjectingBackend &fb) {
        std::vector<double> powers;
        for (int i = 0; i < 40; ++i) {
            try {
                const double p =
                        fb.measurePower(d, kRef, 1, 1.0).power_w;
                // NaN never compares equal; canonicalize injected
                // NaN samples so the sequences stay comparable.
                powers.push_back(std::isnan(p) ? -2.0 : p);
            } catch (const model::MeasurementError &) {
                powers.push_back(-1.0);
            }
        }
        return powers;
    };

    model::SimulatedBackend in_a(board, 5), in_b(board, 5);
    model::FaultInjectingBackend a(in_a, spec), b(in_b, spec);
    const auto pa = run(a), pb = run(b);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i)
        EXPECT_DOUBLE_EQ(pa[i], pb[i]);
    EXPECT_EQ(a.injected().total(), b.injected().total());
    EXPECT_GT(a.injected().total(), 0);

    // reseed() replays the stream from that seed.
    a.reseed(123);
    const auto p1 = run(a);
    a.reseed(123);
    const auto p2 = run(a);
    for (std::size_t i = 0; i < p1.size(); ++i)
        EXPECT_DOUBLE_EQ(p1[i], p2[i]);
}

TEST(Faults, NanSampleCorruptsPower)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    model::SimulatedBackend inner(board, 5);
    model::FaultSpec spec;
    spec.nan_rate = 1.0;
    model::FaultInjectingBackend fb(inner, spec);
    const auto m = fb.measurePower(moderateKernel(), kRef, 1, 1.0);
    EXPECT_TRUE(std::isnan(m.power_w));
    EXPECT_EQ(fb.injected().of(model::FaultKind::NanSample), 1);
}

TEST(Faults, PowerSpikeScalesPower)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    model::SimulatedBackend clean(board, 5), inner(board, 5);
    model::FaultSpec spec;
    spec.spike_rate = 1.0;
    model::FaultInjectingBackend fb(inner, spec);
    const auto d = moderateKernel();
    const double truth = clean.measurePower(d, kRef, 1, 1.0).power_w;
    const auto m = fb.measurePower(d, kRef, 1, 1.0);
    EXPECT_DOUBLE_EQ(m.power_w, 6.0 * truth);
}

TEST(Faults, StuckSensorRepeatsPreviousReading)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    model::SimulatedBackend clean(board, 5), inner(board, 5);
    model::FaultSpec spec;
    spec.stuck_rate = 1.0;
    model::FaultInjectingBackend fb(inner, spec);
    const auto d = moderateKernel();
    // First call has no previous reading to be stuck at.
    const double first = fb.measurePower(d, kRef, 1, 1.0).power_w;
    const double fresh_first =
            clean.measurePower(d, kRef, 1, 1.0).power_w;
    EXPECT_DOUBLE_EQ(first, fresh_first);
    // The second reading is the first call's fresh value again.
    const double second = fb.measurePower(d, kRef, 1, 1.0).power_w;
    EXPECT_DOUBLE_EQ(second, fresh_first);
    EXPECT_EQ(fb.injected().of(model::FaultKind::StuckSensor), 1);
}

TEST(Faults, DroppedEventsZeroMemoryCounters)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    model::SimulatedBackend inner(board, 5);
    model::FaultSpec spec;
    spec.drop_event_rate = 1.0;
    model::FaultInjectingBackend fb(inner, spec);
    const auto rm = fb.profileKernel(moderateKernel(), kRef);
    EXPECT_DOUBLE_EQ(rm.l2_rd_bytes, 0.0);
    EXPECT_DOUBLE_EQ(rm.dram_rd_bytes, 0.0);
    EXPECT_GT(rm.acycles, 0.0);
}

TEST(Faults, HangInflatesVirtualCallDuration)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    model::SimulatedBackend inner(board, 5);
    model::FaultSpec spec;
    spec.hang_rate = 1.0;
    model::FaultInjectingBackend fb(inner, spec);
    fb.measurePower(moderateKernel(), kRef, 1, 1.0);
    // The run itself plus the 60 s a hung call consumes.
    EXPECT_GT(fb.lastCallSeconds(), 60.0);
    EXPECT_EQ(fb.injected().of(model::FaultKind::Hang), 1);
}

TEST(Faults, TransientAndClockFaultsThrowTypedErrors)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    model::SimulatedBackend inner(board, 5);
    model::FaultSpec spec;
    spec.transient_rate = 1.0;
    model::FaultInjectingBackend fb(inner, spec);
    try {
        fb.measurePower(moderateKernel(), kRef, 1, 1.0);
        FAIL() << "expected MeasurementError";
    } catch (const model::MeasurementError &e) {
        EXPECT_EQ(e.code(), model::MeasureErrc::Transient);
        EXPECT_TRUE(e.recoverable());
    }

    model::FaultSpec clocks;
    clocks.clock_reject_rate = 1.0;
    model::FaultInjectingBackend fc(inner, clocks);
    try {
        fc.profileKernel(moderateKernel(), kRef);
        FAIL() << "expected MeasurementError";
    } catch (const model::MeasurementError &e) {
        EXPECT_EQ(e.code(), model::MeasureErrc::ClockRejected);
    }
}

TEST(Faults, BrokenConfigFailsEveryCall)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    model::SimulatedBackend inner(board, 5);
    model::FaultSpec spec;
    const gpu::FreqConfig bad{595, 810};
    spec.broken_configs = {bad};
    model::FaultInjectingBackend fb(inner, spec);
    const auto d = moderateKernel();
    for (int i = 0; i < 5; ++i)
        EXPECT_THROW(fb.measurePower(d, bad, 1, 1.0),
                     model::MeasurementError);
    EXPECT_EQ(fb.injected().of(model::FaultKind::BrokenConfig), 5);
    // Other configurations are unaffected.
    EXPECT_NO_THROW(fb.measurePower(d, kRef, 1, 1.0));
}

TEST(Faults, ErrcTaxonomyClassifiesRecoverability)
{
    using model::MeasureErrc;
    EXPECT_TRUE(model::isRecoverable(MeasureErrc::Transient));
    EXPECT_TRUE(model::isRecoverable(MeasureErrc::ClockRejected));
    EXPECT_TRUE(model::isRecoverable(MeasureErrc::Timeout));
    EXPECT_FALSE(model::isRecoverable(MeasureErrc::Fatal));
    EXPECT_EQ(model::measureErrcName(MeasureErrc::Transient),
              "Transient");
    EXPECT_EQ(model::faultKindName(model::FaultKind::NanSample),
              "NanSample");
}

} // namespace
