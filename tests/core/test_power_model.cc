/**
 * @file
 * Tests of the Eq. 6-7 power model: hand-computed predictions,
 * breakdown consistency and serialization.
 */

#include <gtest/gtest.h>

#include "core/model_io.hh"
#include "core/power_model.hh"

namespace
{

using namespace gpupm;
using gpu::Component;
using gpu::componentIndex;

model::DvfsPowerModel
sampleModel()
{
    model::ModelParams p;
    p.beta0 = 30.0;
    p.beta1 = 15.0;
    p.beta2 = 10.0;
    p.beta3 = 11.0;
    p.omega[componentIndex(Component::Int)] = 50.0;
    p.omega[componentIndex(Component::SP)] = 60.0;
    p.omega[componentIndex(Component::DP)] = 75.0;
    p.omega[componentIndex(Component::SF)] = 40.0;
    p.omega[componentIndex(Component::Shared)] = 22.0;
    p.omega[componentIndex(Component::L2)] = 35.0;
    p.omega[componentIndex(Component::Dram)] = 18.0;
    model::DvfsPowerModel m(gpu::DeviceKind::GtxTitanX, {975, 3505},
                            p);
    m.setVoltages({975, 3505}, {1.0, 1.0});
    m.setVoltages({595, 3505}, {0.9, 1.0});
    m.setVoltages({595, 810}, {0.9, 0.95});
    return m;
}

TEST(PowerModel, Eq6Eq7HandComputedAtReference)
{
    const auto m = sampleModel();
    gpu::ComponentArray u{};
    u[componentIndex(Component::SP)] = 0.5;
    u[componentIndex(Component::Dram)] = 0.8;
    const auto p = m.predict(u, {975, 3505});
    // Pcore = 30*1 + 1*0.975*(15 + 60*0.5) = 30 + 43.875
    // Pmem  = 10*1 + 1*3.505*(11 + 18*0.8) = 10 + 89.027
    EXPECT_NEAR(p.core_w, 73.875, 1e-9);
    EXPECT_NEAR(p.mem_w, 99.027, 1e-6);
    EXPECT_NEAR(p.total_w, 172.902, 1e-6);
    EXPECT_NEAR(p.constant_w,
                30.0 + 0.975 * 15.0 + 10.0 + 3.505 * 11.0, 1e-9);
}

TEST(PowerModel, VoltageEntersSquaredOnDynamicTerms)
{
    const auto m = sampleModel();
    gpu::ComponentArray u{};
    u[componentIndex(Component::SP)] = 1.0;
    const auto p = m.predict(u, {595, 3505});
    // Dynamic SP term: Vc^2 * fc * omega = 0.81 * 0.595 * 60.
    EXPECT_NEAR(p.component_w[componentIndex(Component::SP)],
                0.81 * 0.595 * 60.0, 1e-9);
    // Static term is linear in Vc: 30 * 0.9.
    const auto idle = m.predict(gpu::ComponentArray{}, {595, 3505});
    EXPECT_NEAR(idle.core_w, 30.0 * 0.9 + 0.81 * 0.595 * 15.0, 1e-9);
}

TEST(PowerModel, ComponentBreakdownSumsToTotal)
{
    const auto m = sampleModel();
    gpu::ComponentArray u{};
    for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
        u[i] = 0.1 * static_cast<double>(i + 1);
    const auto p = m.predict(u, {595, 810});
    double s = p.constant_w;
    for (double w : p.component_w)
        s += w;
    EXPECT_NEAR(s, p.total_w, 1e-9);
    EXPECT_NEAR(p.core_w + p.mem_w, p.total_w, 1e-9);
}

TEST(PowerModel, DramIsTheOnlyMemoryDomainComponent)
{
    const auto m = sampleModel();
    gpu::ComponentArray u{};
    u[componentIndex(Component::Dram)] = 1.0;
    const auto base = m.predict(gpu::ComponentArray{}, {975, 3505});
    const auto load = m.predict(u, {975, 3505});
    EXPECT_NEAR(load.mem_w - base.mem_w, 3.505 * 18.0, 1e-9);
    EXPECT_NEAR(load.core_w, base.core_w, 1e-9);
}

TEST(PowerModel, MissingVoltagesPanics)
{
    const auto m = sampleModel();
    EXPECT_FALSE(m.hasVoltages({1164, 3505}));
    EXPECT_THROW(m.predict(gpu::ComponentArray{}, {1164, 3505}),
                 std::logic_error);
}

TEST(PowerModel, PredictWithExplicitVoltages)
{
    const auto m = sampleModel();
    gpu::ComponentArray u{};
    const auto a = m.predictWithVoltages(u, {975, 3505}, {1.0, 1.0});
    const auto b = m.predict(u, {975, 3505});
    EXPECT_NEAR(a.total_w, b.total_w, 1e-12);
}

TEST(PowerModel, SerializeDeserializeRoundTrip)
{
    const auto m = sampleModel();
    const auto parsed =
            model::tryParse<model::DvfsPowerModel>(model::serialize(m));
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const auto &n = parsed.value();

    EXPECT_EQ(n.deviceKind(), m.deviceKind());
    EXPECT_EQ(n.reference(), m.reference());
    EXPECT_DOUBLE_EQ(n.params().beta0, m.params().beta0);
    EXPECT_DOUBLE_EQ(n.params().beta3, m.params().beta3);
    for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
        EXPECT_DOUBLE_EQ(n.params().omega[i], m.params().omega[i]);
    EXPECT_EQ(n.voltageTable().size(), m.voltageTable().size());

    gpu::ComponentArray u{};
    u[componentIndex(Component::L2)] = 0.4;
    u[componentIndex(Component::Dram)] = 0.7;
    EXPECT_NEAR(n.predict(u, {595, 810}).total_w,
                m.predict(u, {595, 810}).total_w, 1e-9);
}

TEST(PowerModel, DeserializeRejectsGarbage)
{
    EXPECT_EQ(model::tryParse<model::DvfsPowerModel>("not a model")
                      .error()
                      .code,
              model::IoErrc::ParseError);
    // A hostile payload surfaces as a typed parse error, never as an
    // assertion abort.
    EXPECT_EQ(model::tryParse<model::DvfsPowerModel>(
                      "gpupm-model v1\ndevice 9\n")
                      .error()
                      .code,
              model::IoErrc::ParseError);
}

TEST(PowerModel, NonPositiveVoltagePanics)
{
    auto m = sampleModel();
    EXPECT_THROW(m.setVoltages({975, 3505}, {0.0, 1.0}),
                 std::logic_error);
}

} // namespace
