#include "faults.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace gpupm
{
namespace model
{

std::string_view
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::TransientFailure: return "TransientFailure";
      case FaultKind::ClockRejection: return "ClockRejection";
      case FaultKind::Hang: return "Hang";
      case FaultKind::StuckSensor: return "StuckSensor";
      case FaultKind::PowerSpike: return "PowerSpike";
      case FaultKind::NanSample: return "NanSample";
      case FaultKind::DroppedEvents: return "DroppedEvents";
      case FaultKind::BrokenConfig: return "BrokenConfig";
    }
    GPUPM_PANIC("unknown FaultKind");
}

FaultSpec
FaultSpec::uniform(double total_rate, std::uint64_t seed)
{
    GPUPM_ASSERT(total_rate >= 0.0 && total_rate <= 1.0,
                 "fault rate ", total_rate, " outside [0, 1]");
    FaultSpec s;
    s.seed = seed;
    s.transient_rate = 0.30 * total_rate;
    s.clock_reject_rate = 0.15 * total_rate;
    s.stuck_rate = 0.15 * total_rate;
    s.spike_rate = 0.15 * total_rate;
    s.nan_rate = 0.10 * total_rate;
    s.drop_event_rate = 0.10 * total_rate;
    s.hang_rate = 0.05 * total_rate;
    return s;
}

FaultInjectingBackend::FaultInjectingBackend(MeasurementBackend &inner,
                                             FaultSpec spec)
    : inner_(inner), spec_(std::move(spec)), rng_(spec_.seed)
{}

const gpu::DeviceDescriptor &
FaultInjectingBackend::descriptor() const
{
    return inner_.descriptor();
}

void
FaultInjectingBackend::reseed(std::uint64_t seed)
{
    // Mix the cell seed with the spec seed so two specs that differ
    // only in seed inject at different cells of the same campaign.
    inner_.reseed(seed);
    rng_ = Rng(spec_.seed ^ (seed * 0x9e3779b97f4a7c15ull));
    stale_power_w_ = -1.0;
}

bool
FaultInjectingBackend::roll(double rate)
{
    // Always draw, even for rate 0, so enabling one fault kind does
    // not shift every other kind's decisions within a cell.
    const double u = rng_.uniform();
    return rate > 0.0 && u < rate;
}

void
FaultInjectingBackend::throwEntryFaults(const gpu::FreqConfig &cfg)
{
    const bool broken =
            std::find(spec_.broken_configs.begin(),
                      spec_.broken_configs.end(),
                      cfg) != spec_.broken_configs.end();
    if (broken) {
        note(FaultKind::BrokenConfig);
        throw MeasurementError(
                MeasureErrc::Transient,
                detail::concat("injected: persistent failure at (",
                               cfg.core_mhz, ", ", cfg.mem_mhz,
                               ") MHz"));
    }
    if (roll(spec_.transient_rate)) {
        note(FaultKind::TransientFailure);
        throw MeasurementError(MeasureErrc::Transient,
                               "injected: transient measurement "
                               "failure");
    }
    if (roll(spec_.clock_reject_rate)) {
        note(FaultKind::ClockRejection);
        throw MeasurementError(
                MeasureErrc::ClockRejected,
                detail::concat("injected: driver rejected clocks (",
                               cfg.core_mhz, ", ", cfg.mem_mhz,
                               ") MHz"));
    }
}

cupti::RawMetrics
FaultInjectingBackend::profileKernel(const sim::KernelDemand &kernel,
                                     const gpu::FreqConfig &cfg)
{
    throwEntryFaults(cfg);
    const bool hang = roll(spec_.hang_rate);
    const bool drop = roll(spec_.drop_event_rate);

    cupti::RawMetrics rm = inner_.profileKernel(kernel, cfg);

    // A full Table I collection replays the kernel once per event
    // group (~5 passes).
    last_call_s_ = 5.0 * rm.time_s;
    if (hang) {
        note(FaultKind::Hang);
        last_call_s_ += spec_.hang_latency_s;
    }
    if (drop) {
        note(FaultKind::DroppedEvents);
        // A dropped event group reads back zero: the memory-side
        // counters are the flakiest on real stacks.
        rm.l2_rd_bytes = 0.0;
        rm.l2_wr_bytes = 0.0;
        rm.dram_rd_bytes = 0.0;
        rm.dram_wr_bytes = 0.0;
    }
    return rm;
}

double
FaultInjectingBackend::faultySample(const gpu::FreqConfig &cfg,
                                    const std::function<double()> &read)
{
    throwEntryFaults(cfg);
    const bool hang = roll(spec_.hang_rate);
    const bool stuck = roll(spec_.stuck_rate);
    const bool spike = roll(spec_.spike_rate);
    const bool nan = roll(spec_.nan_rate);

    const double fresh = read();
    if (hang) {
        note(FaultKind::Hang);
        last_call_s_ += spec_.hang_latency_s;
    }

    double p = fresh;
    if (nan) {
        note(FaultKind::NanSample);
        p = std::numeric_limits<double>::quiet_NaN();
    } else if (spike) {
        note(FaultKind::PowerSpike);
        p *= spec_.spike_factor;
    } else if (stuck && stale_power_w_ >= 0.0) {
        note(FaultKind::StuckSensor);
        p = stale_power_w_;
    }
    stale_power_w_ = fresh;
    return p;
}

nvml::PowerMeasurement
FaultInjectingBackend::measurePower(const sim::KernelDemand &kernel,
                                    const gpu::FreqConfig &cfg,
                                    int repetitions,
                                    double min_duration_s)
{
    nvml::PowerMeasurement m;
    const double p = faultySample(cfg, [&] {
        m = inner_.measurePower(kernel, cfg, repetitions,
                                min_duration_s);
        last_call_s_ = m.run_duration_s * repetitions;
        return m.power_w;
    });
    m.power_w = p;
    return m;
}

double
FaultInjectingBackend::measureIdlePower(const gpu::FreqConfig &cfg)
{
    return faultySample(cfg, [&] {
        const double p = inner_.measureIdlePower(cfg);
        // Idle sampling is a short fixed sensor window.
        last_call_s_ = 0.5;
        return p;
    });
}

} // namespace model
} // namespace gpupm
