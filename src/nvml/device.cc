#include "device.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/stats.hh"

namespace gpupm
{
namespace nvml
{

Device::Device(const sim::PhysicalGpu &board, std::uint64_t seed)
    : board_(board),
      clocks_(board.descriptor().referenceConfig()),
      power_limit_w_(board.descriptor().tdp_w),
      noise_(Rng(seed).split(7))
{}

std::string_view
nvmlStatusName(NvmlStatus status)
{
    switch (status) {
      case NvmlStatus::Success: return "Success";
      case NvmlStatus::UnsupportedClocks: return "UnsupportedClocks";
      case NvmlStatus::PowerLimitOutOfRange:
        return "PowerLimitOutOfRange";
    }
    GPUPM_PANIC("unknown NvmlStatus");
}

NvmlStatus
Device::trySetPowerLimit(double watts)
{
    const double tdp = board_.descriptor().tdp_w;
    if (watts < 100.0 || watts > tdp)
        return NvmlStatus::PowerLimitOutOfRange;
    power_limit_w_ = watts;
    return NvmlStatus::Success;
}

void
Device::setPowerLimit(double watts)
{
    GPUPM_FATAL_IF(trySetPowerLimit(watts) != NvmlStatus::Success,
                   "power limit ", watts, " W outside [100, ",
                   board_.descriptor().tdp_w, "] W");
}

NvmlStatus
Device::trySetApplicationClocks(int mem_mhz, int core_mhz)
{
    const gpu::FreqConfig cfg{core_mhz, mem_mhz};
    if (!board_.descriptor().supports(cfg))
        return NvmlStatus::UnsupportedClocks;
    clocks_ = cfg;
    return NvmlStatus::Success;
}

void
Device::setApplicationClocks(int mem_mhz, int core_mhz)
{
    GPUPM_FATAL_IF(trySetApplicationClocks(mem_mhz, core_mhz) !=
                           NvmlStatus::Success,
                   "unsupported application clocks (", core_mhz, ", ",
                   mem_mhz, ") MHz on ", board_.descriptor().name);
}

void
Device::reseed(std::uint64_t seed)
{
    noise_ = Rng(seed).split(7);
}

double
Device::refreshPeriodMs() const
{
    // Estimated sensor refresh periods from Sec. V-A.
    switch (board_.descriptor().kind) {
      case gpu::DeviceKind::TitanXp: return 35.0;
      case gpu::DeviceKind::GtxTitanX: return 100.0;
      case gpu::DeviceKind::TeslaK40c: return 15.0;
    }
    GPUPM_PANIC("unknown device kind");
}

double
Device::sensorMean(double true_power_w, int readings)
{
    // Each reading carries proportional noise plus a small absolute
    // floor, N(P, sigma^2). The mean of n independent readings is
    // exactly N(P, sigma^2 / n), so one draw stands for the run.
    const double sigma = 0.006 * true_power_w + 0.3;
    return true_power_w + sigma / std::sqrt(readings) * noise_.normal();
}

Device::Fallback
Device::powerLimitFallback(const sim::KernelDemand &demand) const
{
    const gpu::DeviceDescriptor &desc = board_.descriptor();
    Fallback f;
    f.effective = clocks_;
    // Walk down the core table until the true power respects TDP
    // (the driver's automatic fallback observed in Fig. 9). When even
    // the lowest level violates it, the board throttles there: the
    // walk ends on that level's run.
    auto it = std::find(desc.core_freqs_mhz.rbegin(),
                        desc.core_freqs_mhz.rend(), clocks_.core_mhz);
    GPUPM_ASSERT(it != desc.core_freqs_mhz.rend(),
                 "current core clock not in table");
    for (; it != desc.core_freqs_mhz.rend(); ++it) {
        f.effective.core_mhz = *it;
        f.profile = board_.execute(demand, f.effective);
        f.true_power_w =
                board_.truePower(f.profile, f.effective).total_w;
        if (f.true_power_w <= power_limit_w_)
            break;
    }
    return f;
}

PowerMeasurement
Device::measureKernelPower(const sim::KernelDemand &demand,
                           int repetitions, double min_duration_s)
{
    GPUPM_ASSERT(repetitions >= 1, "repetitions must be >= 1");
    GPUPM_ASSERT(!demand.empty(),
                 "measureKernelPower needs a kernel; use "
                 "measureIdlePower for the idle case");

    const gpu::DeviceDescriptor &desc = board_.descriptor();

    // The walk's last run is the kernel at the effective clocks; the
    // model draws no randomness, so running it again would return the
    // same profile.
    const Fallback f = powerLimitFallback(demand);
    PowerMeasurement m;
    m.effective = f.effective;
    m.tdp_limited = m.effective.core_mhz != clocks_.core_mhz;
    m.kernel_time_s = f.profile.time_s;

    // Pick the repetition count so the run lasts at least
    // min_duration_s at the *fastest* configuration (Sec. V-A), so the
    // same count works across the whole sweep. That run depends only
    // on the demand's contents, so a sweep over one kernel makes it
    // once.
    if (demand != sized_demand_) {
        const gpu::FreqConfig fastest{desc.maxCoreMhz(),
                                      desc.mem_freqs_mhz.front()};
        sized_time_s_ = board_.execute(demand, fastest).time_s;
        sized_demand_ = demand;
    }
    const auto reps = static_cast<int>(
            std::ceil(min_duration_s / std::max(sized_time_s_, 1e-9)));
    m.run_duration_s = f.profile.time_s * reps;

    const double refresh_s = refreshPeriodMs() / 1000.0;
    m.samples_per_run = std::max(
            1, static_cast<int>(m.run_duration_s / refresh_s));

    std::vector<double> run_means(repetitions);
    for (double &run_mean : run_means)
        run_mean = sensorMean(f.true_power_w, m.samples_per_run);
    m.power_w = stats::median(run_means);
    return m;
}

double
Device::measureIdlePower(int samples)
{
    GPUPM_ASSERT(samples >= 1, "samples must be >= 1");
    return sensorMean(board_.idlePower(clocks_).total_w, samples);
}

} // namespace nvml
} // namespace gpupm
