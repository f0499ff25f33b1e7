/**
 * @file
 * Outside-in layer timers of the traced run. Nothing here reaches
 * into the program: each timer wraps a public interface the program
 * already offers and times the calls that cross it.
 *
 *  - TimedBackend decorates a MeasurementBackend, so the campaign
 *    (core.campaign) drives it exactly as it drives SimulatedBackend
 *    while every cupti profile and nvml measurement is timed;
 *  - TimedObserver is an EstimatorObserver that timestamps the
 *    estimator's iteration callbacks (core.estimator).
 *
 * trainModel() runs a campaign and a fit through them.
 */

#ifndef GPUPM_PERFBENCH_LAYERS_HH
#define GPUPM_PERFBENCH_LAYERS_HH

#include "core/campaign.hh"
#include "harness.hh"
#include "obs/convergence.hh"

namespace perfbench
{

/** Per-call timings of the measurement layers beneath a campaign. */
struct BackendTimings
{
    Samples profile_us; ///< cupti: one kernel profile
    Samples measure_us; ///< nvml: one kernel power measurement
    long idle_calls = 0;
};

/** Times every call into a wrapped backend; forwards unchanged. */
class TimedBackend : public gpupm::model::MeasurementBackend
{
  public:
    TimedBackend(gpupm::model::MeasurementBackend &inner,
                 BackendTimings &out)
        : inner_(inner), out_(out)
    {}

    const gpupm::gpu::DeviceDescriptor &descriptor() const override
    {
        return inner_.descriptor();
    }

    gpupm::cupti::RawMetrics
    profileKernel(const gpupm::sim::KernelDemand &kernel,
                  const gpupm::gpu::FreqConfig &cfg) override
    {
        const auto t0 = Clock::now();
        auto rm = inner_.profileKernel(kernel, cfg);
        out_.profile_us.add(usBetween(t0, Clock::now()));
        return rm;
    }

    gpupm::nvml::PowerMeasurement
    measurePower(const gpupm::sim::KernelDemand &kernel,
                 const gpupm::gpu::FreqConfig &cfg, int repetitions,
                 double min_duration_s) override
    {
        const auto t0 = Clock::now();
        auto pm = inner_.measurePower(kernel, cfg, repetitions,
                                      min_duration_s);
        out_.measure_us.add(usBetween(t0, Clock::now()));
        return pm;
    }

    double measureIdlePower(const gpupm::gpu::FreqConfig &cfg) override
    {
        ++out_.idle_calls;
        return inner_.measureIdlePower(cfg);
    }

    void reseed(std::uint64_t seed) override { inner_.reseed(seed); }

  private:
    gpupm::model::MeasurementBackend &inner_;
    BackendTimings &out_;
};

/**
 * Timestamps the estimator's iteration callbacks. Construct it right
 * before tryEstimate(): the time to the first callback (iteration 0,
 * the Eq. 11 initialization) is the init cost, and the gaps between
 * later callbacks are the per-iteration costs.
 */
class TimedObserver : public gpupm::obs::EstimatorObserver
{
  public:
    explicit TimedObserver(Samples &iter_ms)
        : iter_ms_(iter_ms), last_(Clock::now())
    {}

    void onIteration(const gpupm::obs::IterationRecord &rec) override
    {
        const auto now = Clock::now();
        const double ms = usBetween(last_, now) / 1000.0;
        if (rec.iteration == 0)
            init_ms_ = ms;
        else
            iter_ms_.add(ms);
        last_ = now;
    }

    double initMs() const { return init_ms_; }

  private:
    Samples &iter_ms_;
    Clock::time_point last_;
    double init_ms_ = 0.0;
};

/** Layer timings of training runs, accumulated over calls. */
struct TrainTimings
{
    BackendTimings backend;
    double campaign_ms = 0.0;
    double estimator_ms = 0.0;
    double init_ms = 0.0;
    Samples iter_ms;
};

/**
 * The Sec. V-A campaign on a simulated board, then the Sec. III-D fit.
 * With `timings`, both run through the layer timers above; without,
 * they run exactly as a user's code would.
 */
inline gpupm::model::FitResult
trainModel(const gpupm::sim::PhysicalGpu &board,
           const std::vector<gpupm::ubench::Microbenchmark> &suite,
           const gpupm::model::CampaignOptions &copts,
           TrainTimings *timings)
{
    using namespace gpupm;
    model::SimulatedBackend sim_backend(board, copts.seed);
    model::EstimatorOptions eopts;
    if (!timings)
        return model::ModelEstimator(eopts).tryEstimate(
                model::runTrainingCampaign(sim_backend, suite, copts));

    auto t0 = Clock::now();
    TimedBackend timed(sim_backend, timings->backend);
    const model::TrainingData data =
            model::runTrainingCampaign(timed, suite, copts);
    timings->campaign_ms += usBetween(t0, Clock::now()) / 1000.0;
    TimedObserver observer(timings->iter_ms);
    eopts.observer = &observer;
    t0 = Clock::now();
    auto fit = model::ModelEstimator(eopts).tryEstimate(data);
    timings->estimator_ms += usBetween(t0, Clock::now()) / 1000.0;
    timings->init_ms += observer.initMs();
    return fit;
}

} // namespace perfbench

#endif // GPUPM_PERFBENCH_LAYERS_HH
