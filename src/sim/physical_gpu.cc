#include "physical_gpu.hh"

#include "common/logging.hh"
#include "common/numio.hh"
#include "obs/standard.hh"
#include "obs/trace.hh"

namespace gpupm
{
namespace sim
{

using gpu::Component;
using gpu::componentIndex;

namespace
{

/**
 * Ground-truth calibration. The absolute watt values are chosen so the
 * GTX Titan X reproduces the paper's anchor observations: ~80 W
 * constant power at the (975, 3505) reference (Fig. 10), ~50 W at
 * (975, 810), BlackScholes ~181 W dropping ~52% when fmem goes
 * 3505 -> 810, CUTCP ~135 W dropping ~24% (Fig. 2). The other devices
 * scale those coefficients by generation efficiency and TDP.
 */
GroundTruth
truthTitanXp()
{
    GroundTruth t;
    t.static_core_w = 16.0;
    t.idle_core_w_ghz = 11.0;
    t.static_mem_w = 9.0;
    t.idle_mem_w_ghz = 5.5;
    t.gamma_w_ghz[componentIndex(Component::Int)] = 30.0;
    t.gamma_w_ghz[componentIndex(Component::SP)] = 36.0;
    t.gamma_w_ghz[componentIndex(Component::DP)] = 48.0;
    t.gamma_w_ghz[componentIndex(Component::SF)] = 25.0;
    t.gamma_w_ghz[componentIndex(Component::Shared)] = 14.0;
    t.gamma_w_ghz[componentIndex(Component::L2)] = 22.0;
    t.gamma_w_ghz[componentIndex(Component::Dram)] = 9.5;
    t.gamma_issue_w_ghz = 6.0;
    t.gamma_active_w_ghz = 7.0;
    // Fig. 6b: flat below ~1.1 GHz, then linear to the 1911 MHz top.
    t.core_voltage = VoltageCurve::twoRegion(1088.0, 0.81, 1.31, 1911.0);
    t.mem_voltage = VoltageCurve::constant(1.35);
    return t;
}

GroundTruth
truthGtxTitanX()
{
    GroundTruth t;
    t.static_core_w = 15.0;
    t.idle_core_w_ghz = 13.0;
    t.static_mem_w = 8.0;
    t.idle_mem_w_ghz = 11.0;
    t.gamma_w_ghz[componentIndex(Component::Int)] = 50.0;
    t.gamma_w_ghz[componentIndex(Component::SP)] = 60.0;
    t.gamma_w_ghz[componentIndex(Component::DP)] = 75.0;
    t.gamma_w_ghz[componentIndex(Component::SF)] = 40.0;
    t.gamma_w_ghz[componentIndex(Component::Shared)] = 22.0;
    t.gamma_w_ghz[componentIndex(Component::L2)] = 35.0;
    t.gamma_w_ghz[componentIndex(Component::Dram)] = 18.0;
    t.gamma_issue_w_ghz = 9.0;
    t.gamma_active_w_ghz = 10.0;
    // Fig. 6a: flat below ~0.7 GHz, then linear to the 1164 MHz top.
    t.core_voltage = VoltageCurve::twoRegion(696.0, 0.95, 1.24, 1164.0);
    t.mem_voltage = VoltageCurve::constant(1.35);
    return t;
}

GroundTruth
truthTeslaK40c()
{
    GroundTruth t;
    t.static_core_w = 20.0;
    t.idle_core_w_ghz = 18.0;
    t.static_mem_w = 10.0;
    t.idle_mem_w_ghz = 12.0;
    t.gamma_w_ghz[componentIndex(Component::Int)] = 55.0;
    t.gamma_w_ghz[componentIndex(Component::SP)] = 66.0;
    t.gamma_w_ghz[componentIndex(Component::DP)] = 95.0;
    t.gamma_w_ghz[componentIndex(Component::SF)] = 45.0;
    t.gamma_w_ghz[componentIndex(Component::Shared)] = 26.0;
    t.gamma_w_ghz[componentIndex(Component::L2)] = 40.0;
    t.gamma_w_ghz[componentIndex(Component::Dram)] = 20.0;
    t.gamma_issue_w_ghz = 10.0;
    t.gamma_active_w_ghz = 12.0;
    // Kepler-era boards scale voltage with frequency over the whole
    // (narrow) range [4]; a knee at the bottom level makes the curve
    // effectively linear.
    t.core_voltage = VoltageCurve::twoRegion(666.0, 0.92, 1.06, 875.0);
    t.mem_voltage = VoltageCurve::constant(1.5);
    return t;
}

} // namespace

GroundTruth
PhysicalGpu::defaultGroundTruth(gpu::DeviceKind kind)
{
    switch (kind) {
      case gpu::DeviceKind::TitanXp: return truthTitanXp();
      case gpu::DeviceKind::GtxTitanX: return truthGtxTitanX();
      case gpu::DeviceKind::TeslaK40c: return truthTeslaK40c();
    }
    GPUPM_PANIC("unknown device kind");
}

PhysicalGpu::PhysicalGpu(gpu::DeviceKind kind)
    : desc_(gpu::DeviceDescriptor::get(kind)),
      truth_(defaultGroundTruth(kind)),
      perf_()
{}

PhysicalGpu::PhysicalGpu(const gpu::DeviceDescriptor &desc,
                         GroundTruth truth, AnalyticPerfModel perf)
    : desc_(desc), truth_(std::move(truth)), perf_(perf)
{}

ExecutionProfile
PhysicalGpu::execute(const KernelDemand &demand,
                     const gpu::FreqConfig &cfg) const
{
    GPUPM_ASSERT(desc_.supports(cfg), "unsupported config (",
                 cfg.core_mhz, ", ", cfg.mem_mhz, ") on ", desc_.name);
    GPUPM_TRACE_SPAN_NAMED(span, "sim", "sim.execute");
    if (span.armed()) {
        span.arg("device", desc_.name);
        span.arg("config", numio::formatLong(cfg.core_mhz) + "/" +
                                   numio::formatLong(cfg.mem_mhz));
    }
    ExecutionProfile prof = perf_.execute(desc_, demand, cfg);
    obs::simKernelExecutionsTotal().inc();
    obs::simKernelTimeSeconds().observe(prof.time_s);
    return prof;
}

double
PhysicalGpu::trueCoreVoltageNorm(int core_mhz) const
{
    return truth_.core_voltage.normalized(core_mhz,
                                          desc_.default_core_mhz);
}

double
PhysicalGpu::trueMemVoltageNorm(int mem_mhz) const
{
    return truth_.mem_voltage.normalized(mem_mhz, desc_.default_mem_mhz);
}

TruePowerBreakdown
PhysicalGpu::truePower(const ExecutionProfile &prof,
                       const gpu::FreqConfig &cfg) const
{
    const double vc = trueCoreVoltageNorm(cfg.core_mhz);
    const double vm = trueMemVoltageNorm(cfg.mem_mhz);
    const double fc = 1e-3 * cfg.core_mhz; // GHz
    const double fm = 1e-3 * cfg.mem_mhz;  // GHz

    TruePowerBreakdown b;
    b.constant_w = truth_.static_core_w * vc +
                   vc * vc * fc * truth_.idle_core_w_ghz +
                   truth_.static_mem_w * vm +
                   vm * vm * fm * truth_.idle_mem_w_ghz;

    for (std::size_t i = 0; i < gpu::kNumComponents; ++i) {
        const bool is_dram =
                i == componentIndex(Component::Dram);
        const double vsq_f = is_dram ? vm * vm * fm : vc * vc * fc;
        b.component_w[i] = vsq_f * truth_.gamma_w_ghz[i] * prof.util[i];
        if (is_dram)
            b.mem_dynamic_w += b.component_w[i];
        else
            b.core_dynamic_w += b.component_w[i];
    }

    b.hidden_w = vc * vc * fc * truth_.gamma_issue_w_ghz *
                 prof.util_issue;
    if (prof.time_s > 0.0)
        b.hidden_w += vc * vc * fc * truth_.gamma_active_w_ghz;
    b.total_w = b.constant_w + b.core_dynamic_w + b.mem_dynamic_w +
                b.hidden_w;
    b.temperature_c = truth_.ambient_c;

    // Thermal feedback: the steady-state temperature raises leakage,
    // which raises temperature — a linear fixed point solved
    // iteratively. The static (constant) share carries the
    // temperature dependence.
    if (truth_.thermal_resistance_c_w > 0.0 &&
        truth_.leakage_temp_coeff > 0.0) {
        const double non_static = b.total_w - b.constant_w;
        const double base_static = b.constant_w;
        double total = b.total_w;
        for (int i = 0; i < 8; ++i) {
            const double temp =
                    truth_.ambient_c +
                    truth_.thermal_resistance_c_w * total;
            const double hot_static =
                    base_static *
                    (1.0 + truth_.leakage_temp_coeff *
                                   (temp - truth_.ambient_c));
            total = non_static + hot_static;
        }
        b.temperature_c = truth_.ambient_c +
                          truth_.thermal_resistance_c_w * total;
        b.constant_w = total - non_static;
        b.total_w = total;
    }
    return b;
}

TruePowerBreakdown
PhysicalGpu::idlePower(const gpu::FreqConfig &cfg) const
{
    return truePower(ExecutionProfile{}, cfg);
}

} // namespace sim
} // namespace gpupm
