/**
 * @file
 * NVML-style host facade over the simulated board.
 *
 * Mirrors how the paper drives real devices (Sec. V-A): application
 * clocks are set only to entries of the supported tables (the voltage
 * follows automatically and invisibly), power is read from a sensor
 * that refreshes every 35 ms (Titan Xp), 100 ms (GTX Titan X) or 15 ms
 * (Tesla K40c), kernels are repeated until the run lasts at least one
 * second at the fastest configuration, the run's samples are averaged,
 * and the whole measurement is repeated 10 times with the median
 * reported. A run's average is drawn in one step from the exact
 * distribution of the mean of its samples. The board also enforces
 * TDP by automatically falling back to the closest core frequency
 * that does not violate it (the Fig. 9 footnote behaviour).
 */

#ifndef GPUPM_NVML_DEVICE_HH
#define GPUPM_NVML_DEVICE_HH

#include <string_view>

#include "common/random.hh"
#include "sim/physical_gpu.hh"

namespace gpupm
{
namespace nvml
{

/**
 * Typed outcome of a recoverable NVML-facade request.
 *
 * The real driver rejects off-table clock requests and out-of-range
 * power limits with an error code rather than killing the process; a
 * measurement harness must be able to observe the rejection and move
 * on (skip the configuration, retry, re-enumerate the tables). Panics
 * remain reserved for programmer errors — e.g. measuring an empty
 * kernel.
 */
enum class NvmlStatus
{
    Success,
    UnsupportedClocks,     ///< (mem, core) pair not in the tables
    PowerLimitOutOfRange,  ///< outside the board's [min, TDP] window
};

/** Display name of a status code. */
std::string_view nvmlStatusName(NvmlStatus status);

/** One averaged power measurement of a kernel at a configuration. */
struct PowerMeasurement
{
    double power_w = 0.0;        ///< median-of-runs average power
    double kernel_time_s = 0.0;  ///< single-launch execution time
    double run_duration_s = 0.0; ///< total repeated-run duration
    int samples_per_run = 0;     ///< sensor samples averaged per run
    gpu::FreqConfig effective;   ///< clocks after any TDP fallback
    bool tdp_limited = false;    ///< true when the board down-clocked
};

/** Host-side handle to one simulated device. */
class Device
{
  public:
    /**
     * @param board  simulated board to drive.
     * @param seed   seeds the sensor-noise stream.
     */
    explicit Device(const sim::PhysicalGpu &board,
                    std::uint64_t seed = 99);

    /** Device descriptor (Table II data). */
    const gpu::DeviceDescriptor &descriptor() const
    {
        return board_.descriptor();
    }

    /**
     * Set application clocks. Returns UnsupportedClocks (leaving the
     * current clocks untouched) when the pair is not in the supported
     * tables — the NVIDIA driver rejects such requests.
     */
    NvmlStatus trySetApplicationClocks(int mem_mhz, int core_mhz);

    /**
     * Convenience wrapper over trySetApplicationClocks that treats a
     * rejection as fatal, for call sites that only ever request
     * table entries.
     */
    void setApplicationClocks(int mem_mhz, int core_mhz);

    /** Currently requested clocks. */
    gpu::FreqConfig currentClocks() const { return clocks_; }

    /**
     * Board power-management limit (the NVML
     * SetPowerManagementLimit facility). Defaults to the TDP; the
     * board's automatic clock fallback honours the lower of the two.
     * Returns PowerLimitOutOfRange (limit unchanged) outside the
     * board's supported range [100 W, TDP].
     */
    NvmlStatus trySetPowerLimit(double watts);

    /** Fatal-on-rejection wrapper over trySetPowerLimit. */
    void setPowerLimit(double watts);

    /** Current power-management limit, watts. */
    double powerLimit() const { return power_limit_w_; }

    /** Sensor refresh period for this device, milliseconds. */
    double refreshPeriodMs() const;

    /**
     * Measure the average power of a kernel at the current clocks,
     * following the paper's methodology (repeat to >= min_duration at
     * the fastest configuration, average samples, median of
     * repetitions). Runs the simulated kernel once per step of the TDP
     * fallback walk, plus once at the fastest configuration when the
     * demand differs from the previous call's: once per cell when a
     * sweep measures one kernel and the clocks respect the power
     * limit.
     */
    PowerMeasurement measureKernelPower(const sim::KernelDemand &demand,
                                        int repetitions = 10,
                                        double min_duration_s = 1.0);

    /**
     * Average of `samples` idle sensor readings at the current clocks
     * (awake, no kernel).
     */
    double measureIdlePower(int samples = 20);

    /**
     * Reset the sensor-noise stream to the state a freshly
     * constructed Device(board, seed) would have. Campaign
     * checkpoint/resume re-seeds per measurement cell so an
     * interrupted run replays the exact byte-identical noise the
     * uninterrupted run would have drawn.
     */
    void reseed(std::uint64_t seed);

  private:
    /** Where the board's TDP fallback settles for one kernel. */
    struct Fallback
    {
        gpu::FreqConfig effective;    ///< clocks actually applied
        sim::ExecutionProfile profile; ///< the kernel run at them
        double true_power_w = 0.0;    ///< its noise-free power
    };

    /**
     * Walk down the core table from the requested clocks to the
     * highest entry whose true power respects the power limit (the
     * lowest entry when none does), running the kernel once per step.
     */
    Fallback powerLimitFallback(const sim::KernelDemand &demand) const;

    /**
     * Mean of `readings` noisy sensor readings of a true power, drawn
     * as one normal from the mean's exact distribution.
     */
    double sensorMean(double true_power_w, int readings);

    const sim::PhysicalGpu &board_;
    gpu::FreqConfig clocks_;
    double power_limit_w_;
    Rng noise_;
    /** Last demand run at the fastest configuration, and its time. */
    sim::KernelDemand sized_demand_;
    double sized_time_s_ = 0.0;
};

} // namespace nvml
} // namespace gpupm

#endif // GPUPM_NVML_DEVICE_HH
