/**
 * @file
 * Host-side measurement backend abstraction.
 *
 * The training campaign needs exactly three capabilities from the
 * machine it runs on: profile a kernel's Table I events at a
 * configuration, measure a kernel's average power at a configuration
 * (Sec. V-A methodology), and measure idle power. This interface
 * isolates those capabilities so the same campaign code drives either
 * the simulated substrate (SimulatedBackend, used throughout this
 * repository) or a real CUDA/CUPTI/NVML stack (a deployment
 * implements MeasurementBackend over the vendor libraries and
 * dispatches kernels by their KernelDemand name).
 */

#ifndef GPUPM_CORE_BACKEND_HH
#define GPUPM_CORE_BACKEND_HH

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "cupti/profiler.hh"
#include "nvml/device.hh"

namespace gpupm
{
namespace model
{

/**
 * Failure taxonomy of the measurement contract. Real stacks fail in
 * recoverable ways (a flaky counter collection, a driver-rejected
 * clock request, a wedged sampling thread) that a campaign must
 * survive; only Fatal marks conditions where retrying is pointless.
 */
enum class MeasureErrc
{
    Transient,       ///< one-off failure; retrying is reasonable
    ClockRejected,   ///< the driver refused the V-F request
    Timeout,         ///< the call exceeded its deadline
    CorruptSample,   ///< data came back unusable (NaN / impossible)
    Quarantined,     ///< configuration already quarantined; fail fast
    Fatal,           ///< unrecoverable; do not retry
};

/** Display name of a measurement error code. */
std::string_view measureErrcName(MeasureErrc code);

/** True when a retry of the failed call could plausibly succeed. */
bool isRecoverable(MeasureErrc code);

/** Typed failure description of a measurement call, as a value. */
struct Status
{
    MeasureErrc code = MeasureErrc::Fatal;
    std::string message;

    bool recoverable() const { return isRecoverable(code); }
};

/** Typed failure thrown by measurement backends. */
class MeasurementError : public std::runtime_error
{
  public:
    MeasurementError(MeasureErrc code, const std::string &what)
        : std::runtime_error(what), code_(code)
    {}

    MeasureErrc code() const { return code_; }
    bool recoverable() const { return isRecoverable(code_); }

  private:
    MeasureErrc code_;
};

/** Abstract host measurement stack. */
class MeasurementBackend
{
  public:
    virtual ~MeasurementBackend() = default;

    /** Device under measurement. */
    virtual const gpu::DeviceDescriptor &descriptor() const = 0;

    /** Collect the aggregated Table I metrics of one kernel launch. */
    virtual cupti::RawMetrics
    profileKernel(const sim::KernelDemand &kernel,
                  const gpu::FreqConfig &cfg) = 0;

    /**
     * Median average power of the kernel at the configuration,
     * following the Sec. V-A repetition/sampling methodology.
     */
    virtual nvml::PowerMeasurement
    measurePower(const sim::KernelDemand &kernel,
                 const gpu::FreqConfig &cfg, int repetitions,
                 double min_duration_s) = 0;

    /** Average idle power at the configuration. */
    virtual double measureIdlePower(const gpu::FreqConfig &cfg) = 0;

    /**
     * Reset every stochastic stream of the stack (sensor noise,
     * counter noise, injected faults) to the state a fresh backend
     * constructed with this seed would have. Checkpointable campaigns
     * call this before every measurement cell so results depend only
     * on (seed, cell) — never on how much of the campaign already ran
     * in this process — which is what makes an interrupted-and-resumed
     * run bit-identical to an uninterrupted one. The default is a
     * no-op: real hardware has no replayable entropy.
     */
    virtual void reseed(std::uint64_t seed) { (void)seed; }

    /**
     * Virtual duration of the most recent call, seconds. The
     * simulated substrate has no wall clock, so a backend that can
     * account for how long its last call "took" (kernel repetitions,
     * sensor windows, injected hangs) reports it here, and the
     * resilient layer enforces its per-call deadline against it. The
     * default 0 never trips the deadline.
     */
    virtual double lastCallSeconds() const { return 0.0; }
};

/** The backend over the simulated substrate. */
class SimulatedBackend : public MeasurementBackend
{
  public:
    /**
     * @param board  simulated device.
     * @param seed   seeds the profiling and sensor noise streams.
     */
    explicit SimulatedBackend(const sim::PhysicalGpu &board,
                              std::uint64_t seed = 42);

    const gpu::DeviceDescriptor &descriptor() const override;

    cupti::RawMetrics profileKernel(const sim::KernelDemand &kernel,
                                    const gpu::FreqConfig &cfg)
            override;

    nvml::PowerMeasurement measurePower(const sim::KernelDemand &kernel,
                                        const gpu::FreqConfig &cfg,
                                        int repetitions,
                                        double min_duration_s)
            override;

    double measureIdlePower(const gpu::FreqConfig &cfg) override;

    void reseed(std::uint64_t seed) override;

  private:
    /** Apply clocks or throw a typed ClockRejected error. */
    void applyClocks(const gpu::FreqConfig &cfg);

    const sim::PhysicalGpu &board_;
    cupti::Profiler profiler_;
    nvml::Device device_;
};

} // namespace model
} // namespace gpupm

#endif // GPUPM_CORE_BACKEND_HH
