/**
 * @file
 * The fault-tolerant training campaign and the decorator it drives.
 *
 * The Sec. V-A training procedure (campaign.hh) assumes every NVML
 * read and CUPTI collection succeeds; production measurement stacks
 * do not. The ResilientBackend decorator turns a flaky
 * MeasurementBackend into a dependable one:
 *
 *  - bounded retries with exponential backoff and seeded jitter for
 *    recoverable failures (transients, rejected clock requests);
 *  - per-call deadlines enforced against the backend's virtual
 *    lastCallSeconds(), so a wedged call is abandoned and retried;
 *  - robust power aggregation: repetitions are collected one by one
 *    and MAD-based outlier rejection discards spikes, stale sensor
 *    readings and NaN samples before the median is taken;
 *  - consensus profiling: event collections are repeated and combined
 *    field-wise by median, so a dropped event group cannot zero a
 *    utilization;
 *  - quarantine: a configuration that keeps failing after retries is
 *    excluded from further measurement and reported, instead of
 *    wedging the campaign.
 *
 * runResilientTrainingCampaign runs the Sec. V-A grid through it,
 * checkpointing as it goes, and degrades the grid instead of aborting.
 * Failures surface as typed Expected results, never as
 * process-killing panics.
 */

#ifndef GPUPM_CORE_RESILIENT_HH
#define GPUPM_CORE_RESILIENT_HH

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "core/campaign.hh"
#include "core/expected.hh"
#include "core/io_status.hh"

namespace gpupm
{
namespace model
{

/** What the resilience layer had to do, cumulatively. */
struct ResilienceCounters
{
    long attempts = 0;          ///< backend calls issued
    long retries = 0;           ///< attempts beyond each call's first
    long timeouts = 0;          ///< attempts abandoned at the deadline
    long call_failures = 0;     ///< calls that exhausted their retries
    long corrupt_samples = 0;   ///< NaN / non-finite power samples
    long outliers_rejected = 0; ///< finite samples rejected by MAD
    long quarantined_calls = 0; ///< calls refused against quarantine
    double backoff_total_s = 0.0; ///< virtual seconds spent backing off
};

/**
 * Resilient decorator; wraps (does not own) an inner backend. Its
 * policy is fixed (see resilient.cc) apart from the retry budget.
 */
class ResilientBackend
{
  public:
    /** @param max_retries  retries per call after the first attempt. */
    explicit ResilientBackend(MeasurementBackend &inner,
                              int max_retries = 4);

    /** Consensus profile: repeated collections, field-wise median. */
    Expected<cupti::RawMetrics, Status>
    tryProfileKernel(const sim::KernelDemand &kernel,
                     const gpu::FreqConfig &cfg);

    /**
     * Robust power measurement: `repetitions` single-run measurements
     * collected independently (each with retries), MAD outlier
     * rejection, median of the survivors.
     */
    Expected<nvml::PowerMeasurement, Status>
    tryMeasurePower(const sim::KernelDemand &kernel,
                    const gpu::FreqConfig &cfg, int repetitions,
                    double min_duration_s);

    /** Robust idle-power measurement (same policy). */
    Expected<double, Status>
    tryMeasureIdlePower(const gpu::FreqConfig &cfg, int repetitions);

    /**
     * Reseed the inner stack and the backoff jitter stream for one
     * measurement cell, so the cell's delays depend on `seed` alone.
     */
    void reseed(std::uint64_t seed);

    bool isQuarantined(const gpu::FreqConfig &cfg) const;

    /** Quarantined configurations, in quarantine order. */
    const std::vector<gpu::FreqConfig> &quarantined() const
    {
        return quarantined_;
    }

    const ResilienceCounters &counters() const { return counters_; }

  private:
    /** Median of the samples MAD keeps, and the first kept index. */
    struct Survivors
    {
        double median = 0.0;
        std::size_t first = 0;
    };

    /** One call with retries, backoff and the deadline. */
    template <typename T>
    Expected<T, Status> runWithRetries(const gpu::FreqConfig &cfg,
                                       const std::function<T()> &call);

    /**
     * `n` calls, each with retries; fails early on a fatal or
     * quarantined error, and when no call succeeded.
     */
    template <typename T>
    Expected<std::vector<T>, Status>
    repeat(const gpu::FreqConfig &cfg, int n,
           const std::function<T()> &call);

    /**
     * The MAD filter of both power calls: counts what it rejects and
     * fails (a CorruptSample naming `what`) when too few survive.
     */
    Expected<Survivors, Status>
    filterSamples(const gpu::FreqConfig &cfg,
                  const std::vector<double> &samples, const char *what);

    /** Record an exhausted-retry failure; maybe quarantine. */
    void notePersistentFailure(const gpu::FreqConfig &cfg);

    MeasurementBackend &inner_;
    int max_retries_;
    Rng jitter_rng_;
    ResilienceCounters counters_;
    std::map<std::pair<int, int>, int> persistent_failures_;
    std::vector<gpu::FreqConfig> quarantined_;
};

/** Per-microbenchmark resilience accounting. */
struct BenchmarkReport
{
    std::string name;
    long retries = 0;           ///< retried attempts for this row
    long call_failures = 0;     ///< calls that exhausted retries
    long timeouts = 0;          ///< deadline-abandoned attempts
    long outliers_rejected = 0; ///< MAD-rejected power repetitions
    long corrupt_samples = 0;   ///< NaN / non-finite repetitions
    long faults_injected = 0;   ///< faults hit (when injection is on)
};

/** What a resilient campaign had to survive. */
struct CampaignReport
{
    long cells_total = 0;    ///< profiling + power cells in the grid
    long cells_done = 0;     ///< measured (this run or a prior one)
    long cells_resumed = 0;  ///< restored from a checkpoint, not re-run
    long cells_failed = 0;   ///< unrecoverable after the full policy
    long faults_injected = 0;
    ResilienceCounters totals;
    /** Configurations excluded from the training data. */
    std::vector<gpu::FreqConfig> quarantined;
    std::vector<BenchmarkReport> benchmarks;

    /**
     * Human-readable multi-line summary, including the resilience
     * totals (retries, timeouts, outliers, corrupt samples,
     * exhausted calls, quarantine refusals) and the per-benchmark
     * rows that needed recovery.
     */
    std::string summary() const;

    /** The same data as a JSON object (CLI --json output). */
    std::string toJson() const;
};

/** Knobs of the fault-tolerant campaign runner. */
struct ResilientCampaignOptions
{
    CampaignOptions base;
    /** Retries per measurement call after the first attempt. */
    int max_retries = 4;
    /**
     * When non-empty, progress is checkpointed to this file before the
     * first cell and periodically after, and a pre-existing checkpoint
     * there is resumed from.
     * Because the backend is re-seeded per measurement cell, a
     * resumed campaign produces bit-identical training data to an
     * uninterrupted one.
     */
    std::string checkpoint_path;
    /** Cells between periodic checkpoint writes. */
    int checkpoint_every = 256;
    /**
     * Stop (checkpointing) after this many cells measured in this
     * process; 0 = run to completion. Lets operators split a long
     * campaign across sessions, and lets tests exercise
     * interruption/resume deterministically.
     */
    long max_cells = 0;
};

/** Outcome of a resilient campaign run. */
struct ResilientCampaignResult
{
    /**
     * Training data over the surviving grid: quarantined or
     * persistently failing configurations are dropped (the estimator's
     * per-configuration voltage fit tolerates the sparser grid).
     * Meaningful only when `complete` is true.
     */
    TrainingData data;
    CampaignReport report;
    /**
     * False when the run stopped before the grid was done or left no
     * usable data (either error below).
     */
    bool complete = true;
    /**
     * Set when the checkpoint could not be written (the run stopped)
     * or belongs to another campaign (a validation-error: nothing ran
     * and the file was left as it was).
     */
    std::optional<IoStatus> checkpoint_error;
    /**
     * Set when the reference configuration could not be measured:
     * without it there is nothing to normalize against (Eq. 5) and no
     * model can be trained.
     */
    std::optional<Status> reference_error;
};

/**
 * Persistent snapshot of a partially executed campaign. The full
 * dense grid is stored alongside per-cell done flags; values of
 * not-yet-measured cells are zero and ignored. Serialized as JSON by
 * model_io so interrupted campaigns can continue where they stopped.
 */
struct CampaignCheckpoint
{
    std::uint64_t seed = 0;
    gpu::DeviceKind device = gpu::DeviceKind::GtxTitanX;
    gpu::FreqConfig reference{};
    std::vector<gpu::FreqConfig> configs;
    std::vector<std::string> benchmark_names;
    std::vector<char> utils_done;            ///< per benchmark
    std::vector<gpu::ComponentArray> utils;
    std::vector<std::vector<char>> power_done; ///< [benchmark][config]
    std::vector<std::vector<double>> power_w;
    CampaignReport report;
};

/**
 * Fault-tolerant training campaign over any backend. The backend is
 * wrapped in a ResilientBackend (retries, backoff, deadlines, MAD
 * outlier rejection, quarantine); failures degrade the grid instead
 * of aborting the campaign. Only a *reference* configuration that
 * cannot be measured, or a checkpoint that cannot be used, stops it,
 * and then with a typed error in the result.
 */
ResilientCampaignResult runResilientTrainingCampaign(
        MeasurementBackend &backend,
        const std::vector<ubench::Microbenchmark> &suite,
        const ResilientCampaignOptions &opts = {});

} // namespace model
} // namespace gpupm

#endif // GPUPM_CORE_RESILIENT_HH
