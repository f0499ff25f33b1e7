/**
 * @file
 * Online sampling loop behind `gpupm monitor`.
 *
 * The paper's model is a *run-time* power model: its operational use
 * (sensorless estimation, DVFS management) consumes predictions as a
 * live, continuously sampled signal. The Sampler provides that
 * signal: each tick walks one step of a round-robin (application,
 * V-F configuration) schedule, calls a probe that measures and
 * predicts one cell, and feeds the resulting residual into the
 * accuracy aggregators (obs::residuals / obs::scoreboard), the
 * metrics registry, the flight recorder, the tsdb and the alert
 * engine. Each sample goes to the recorder once, with its NDJSON line
 * while the recorder has an event log open.
 *
 * The Sampler owns no thread and no clock for its ticks: its caller
 * ticks it. `gpupm monitor`'s main loop ticks on the wall clock
 * between its signal polls; `gpupm alerts`/`traces`, the benches and
 * the tests tick it on a virtual clock. Only the HTTP handlers read
 * it from another thread (ticks, staleness, the residual window).
 *
 * The probe is injected as a callback so this layer stays free of
 * simulator/predictor dependencies (obs must not depend on core);
 * the CLI wires in the simulated NVML device + Predictor.
 */

#ifndef GPUPM_OBS_SAMPLER_HH
#define GPUPM_OBS_SAMPLER_HH

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "gpu/device.hh"
#include "obs/flight_recorder.hh"
#include "obs/residuals.hh"
#include "obs/scoreboard.hh"

namespace gpupm
{
namespace obs
{
class AlertEngine;
class Tsdb;
} // namespace obs
} // namespace gpupm

namespace gpupm
{
namespace obs
{

/** One live measured-vs-predicted observation from the probe. */
struct MonitorSample
{
    std::string app;
    gpu::FreqConfig cfg{};
    double measured_w = 0.0;
    double predicted_w = 0.0;
    bool ok = true;    ///< false: error is set, sample is discarded
    std::string error; ///< probe failure description
};

/** Measure + predict one (application, configuration) cell. Runs on
 *  the ticking thread; must be safe to call back to back. */
using SampleProbe = std::function<MonitorSample(
        const std::string &app, const gpu::FreqConfig &cfg)>;

/** One schedule entry; ticks round-robin over the schedule. */
struct SchedulePoint
{
    std::string app;
    gpu::FreqConfig cfg{};
};

struct SamplerOptions
{
    int period_ms = 250;      ///< tick period (staleness threshold)
    /** Residuals in the rolling-MAE window feeding
     *  gpupm_accuracy_rolling_mae_pct (and the drift rule). */
    std::size_t rolling_window = 64;

    /** Identity stamped onto scoreboard snapshots. */
    int device = 0;
    std::string device_name;
    gpu::FreqConfig reference{};
};

/** Measure→predict→audit, one tick per call of its caller. */
class Sampler
{
  public:
    /** Residuals retained (a ring): the window the scoreboard reads. */
    static constexpr std::size_t kMaxResiduals = 10'000;

    Sampler(SampleProbe probe, std::vector<SchedulePoint> schedule,
            SamplerOptions opts, FlightRecorder *recorder = nullptr,
            Tsdb *tsdb = nullptr, AlertEngine *alerts = nullptr);

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    /**
     * Run exactly one tick on the calling thread at time `t_us`
     * (stamped onto tsdb points and alert evaluation), advancing the
     * schedule round-robin. Callers on a virtual clock make two runs
     * at the same device seed byte-identical — the determinism the
     * alerts/traces goldens rely on. One thread ticks at a time.
     */
    void tickSynchronously(std::int64_t t_us);

    /** Ticks completed (successful or failed probes). */
    long ticks() const { return ticks_.load(std::memory_order_relaxed); }

    /** Seconds since the last completed sample; +inf before any. */
    double lastSampleAgeSeconds() const;

    /**
     * Sampler staleness: true once the last completed sample is older
     * than max(5 periods, 2 s). A fresh sampler is not stale (age is
     * measured from construction until the first sample lands).
     */
    bool stale() const;

    /** Copy of the retained residual window, oldest first. */
    std::vector<ResidualSample> residualsSnapshot() const;

    /** Live scoreboard over the retained residual window. */
    Scoreboard scoreboardSnapshot() const;

  private:
    /** A successful sample into the residuals, metrics and recorder. */
    void audit(const MonitorSample &s, const SchedulePoint &pt,
               double probe_seconds);
    /** The sample's NDJSON event-log line. */
    std::string eventLine(const MonitorSample &s, double abs_err_pct,
                          double probe_seconds) const;
    void updateRollingMae();

    SampleProbe probe_;
    std::vector<SchedulePoint> schedule_;
    SamplerOptions opts_;
    FlightRecorder *recorder_; ///< optional, not owned
    Tsdb *tsdb_;               ///< optional, not owned
    AlertEngine *alerts_;      ///< optional, not owned

    std::atomic<long> ticks_{0};
    std::size_t index_ = 0; ///< next schedule point, round-robin

    mutable std::mutex data_mu_;
    std::deque<ResidualSample> residuals_; ///< guarded by data_mu_
    std::chrono::steady_clock::time_point started_ =
            std::chrono::steady_clock::now();
    std::atomic<std::int64_t> last_sample_us_{-1}; ///< since started_
};

} // namespace obs
} // namespace gpupm

#endif // GPUPM_OBS_SAMPLER_HH
