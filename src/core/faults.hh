/**
 * @file
 * Deterministic fault injection for measurement backends.
 *
 * Real measurement stacks are flaky in well-documented ways: power
 * sensors return stale or impossible samples, CUPTI collections drop
 * event values, the driver rejects clock requests under contention,
 * and calls occasionally wedge until a watchdog gives up. The
 * FaultInjectingBackend decorator reproduces those failure modes on
 * top of any MeasurementBackend from an explicitly seeded stream, so
 * resilience machinery can be exercised — and its recovery behaviour
 * asserted bit-for-bit — without real broken hardware.
 *
 * All fault decisions derive from the FaultSpec seed (re-derivable via
 * reseed()), never from wall-clock state, keeping every injected
 * campaign reproducible and checkpoint/resume exact.
 */

#ifndef GPUPM_CORE_FAULTS_HH
#define GPUPM_CORE_FAULTS_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/random.hh"
#include "core/backend.hh"

namespace gpupm
{
namespace model
{

/** The injectable failure modes. */
enum class FaultKind
{
    TransientFailure, ///< call throws a recoverable Transient error
    ClockRejection,   ///< call throws ClockRejected
    Hang,             ///< call succeeds but consumes hang_latency_s
    StuckSensor,      ///< power result replaced by the previous one
    PowerSpike,       ///< power result multiplied by spike_factor
    NanSample,        ///< power result replaced by NaN
    DroppedEvents,    ///< some profiled metric fields read back zero
    BrokenConfig,     ///< persistent failure at a listed V-F config
};

/** Number of FaultKind values (for per-kind counters). */
inline constexpr std::size_t kNumFaultKinds = 8;

/** Display name of a fault kind. */
std::string_view faultKindName(FaultKind kind);

/** Per-call injection probabilities; all default to "never". */
struct FaultSpec
{
    /** Seeds the fault-decision stream. */
    std::uint64_t seed = 2026;

    double transient_rate = 0.0;
    double clock_reject_rate = 0.0;
    double hang_rate = 0.0;
    /** Virtual latency a hung call consumes before returning. */
    double hang_latency_s = 60.0;
    double stuck_rate = 0.0;
    double spike_rate = 0.0;
    /** Multiplier a PowerSpike applies to the measured power. */
    double spike_factor = 6.0;
    double nan_rate = 0.0;
    double drop_event_rate = 0.0;

    /**
     * Configurations that fail on every call (a dead sensor rail, a
     * clock pair the board silently cannot hold). These are what the
     * resilient layer's quarantine exists for.
     */
    std::vector<gpu::FreqConfig> broken_configs;

    /**
     * A spec whose per-call probability of *some* fault is
     * approximately `total_rate`, spread over all transient kinds in
     * realistic proportions (mostly transients and bad samples, a few
     * hangs).
     */
    static FaultSpec uniform(double total_rate,
                             std::uint64_t seed = 2026);
};

/** How many faults of each kind a backend has injected. */
struct FaultCounters
{
    long by_kind[kNumFaultKinds] = {};

    long of(FaultKind kind) const
    {
        return by_kind[static_cast<std::size_t>(kind)];
    }

    long total() const
    {
        long s = 0;
        for (long c : by_kind)
            s += c;
        return s;
    }
};

/** Decorator injecting seeded faults around any backend. */
class FaultInjectingBackend : public MeasurementBackend
{
  public:
    /** Wraps (does not own) an inner backend. */
    FaultInjectingBackend(MeasurementBackend &inner, FaultSpec spec);

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

    /** Re-derives the fault stream and forwards to the inner stack. */
    void reseed(std::uint64_t seed) override;

    double lastCallSeconds() const override { return last_call_s_; }

    /** Injection tally since construction (reseed preserves it). */
    const FaultCounters &injected() const { return counters_; }

  private:
    /** Throwing faults shared by every call at a configuration. */
    void throwEntryFaults(const gpu::FreqConfig &cfg);

    /**
     * One power reading through the sample faults. The entry faults,
     * then hang, stuck, spike and nan are drawn (each always, in that
     * order) before `read` runs; `read` returns the fresh reading and
     * sets the call's virtual duration.
     */
    double faultySample(const gpu::FreqConfig &cfg,
                        const std::function<double()> &read);

    /** Uniform fault-decision draw. */
    bool roll(double rate);

    void note(FaultKind kind)
    {
        ++counters_.by_kind[static_cast<std::size_t>(kind)];
    }

    MeasurementBackend &inner_;
    FaultSpec spec_;
    Rng rng_;
    FaultCounters counters_;
    double last_call_s_ = 0.0;
    /** Last power the sensor returned, for StuckSensor staleness. */
    double stale_power_w_ = -1.0;
};

} // namespace model
} // namespace gpupm

#endif // GPUPM_CORE_FAULTS_HH
