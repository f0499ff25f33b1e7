/**
 * @file
 * Measurement campaigns: the host-side procedure of Sec. V-A.
 *
 * A training campaign executes the whole microbenchmark suite on the
 * simulated board: performance events are collected through the CUPTI
 * facade at the reference configuration only, and average power is
 * measured through the NVML facade at every supported V-F
 * configuration (kernels repeated to at least one second at the
 * fastest configuration, samples averaged, median of repeated runs).
 * A validation measurement does the same for a single application.
 */

#ifndef GPUPM_CORE_CAMPAIGN_HH
#define GPUPM_CORE_CAMPAIGN_HH

#include <optional>
#include <string>
#include <vector>

#include "core/backend.hh"
#include "core/estimator.hh"
#include "core/io_status.hh"
#include "core/resilient.hh"
#include "cupti/profiler.hh"
#include "nvml/device.hh"
#include "sim/physical_gpu.hh"
#include "ubench/suite.hh"

namespace gpupm
{
namespace model
{

/** Campaign knobs. */
struct CampaignOptions
{
    /** Measurement repetitions per configuration (paper: 10). */
    int power_repetitions = 10;
    /** Minimum run duration at the fastest configuration, seconds. */
    double min_duration_s = 1.0;
    /** Seed of the sensor / counter noise streams. */
    std::uint64_t seed = 42;
    /**
     * When non-empty, restrict the measured grid to these
     * configurations (the reference configuration is always kept, and
     * device grid order is preserved); empty measures the full grid.
     * Fleet campaigns use small subsets to bound per-device cost.
     */
    std::vector<gpu::FreqConfig> config_subset;
};

/** Ground-truth-free view of one measured application. */
struct AppMeasurement
{
    std::string name;
    /** Eq. 8-10 utilizations profiled at the reference config. */
    gpu::ComponentArray util{};
    /** Configurations measured (requested clocks). */
    std::vector<gpu::FreqConfig> configs;
    /** Median measured average power per configuration, W. */
    std::vector<double> power_w;
    /** Clocks the board actually ran (TDP fallback), per config. */
    std::vector<gpu::FreqConfig> effective;
};

/** Run the full training campaign for a suite on a board. */
TrainingData runTrainingCampaign(
        const sim::PhysicalGpu &board,
        const std::vector<ubench::Microbenchmark> &suite,
        const CampaignOptions &opts = {});

/**
 * Backend-generic training campaign: the same procedure over any
 * MeasurementBackend (simulated or a real CUDA/CUPTI/NVML stack).
 */
TrainingData runTrainingCampaign(
        MeasurementBackend &backend,
        const std::vector<ubench::Microbenchmark> &suite,
        const CampaignOptions &opts = {});

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
    ResilientOptions resilience;
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

/** Measure one application over a set of configurations. */
AppMeasurement measureApp(const sim::PhysicalGpu &board,
                          const sim::KernelDemand &demand,
                          const std::vector<gpu::FreqConfig> &configs,
                          const CampaignOptions &opts = {});

/**
 * Measure a multi-kernel application. Following Sec. V-A, the
 * application's power at each configuration is the average of the
 * kernels' powers weighted by their relative execution times, and the
 * reported utilization vector is the same time-weighted combination
 * of the per-kernel utilizations at the reference configuration.
 */
AppMeasurement measureKernelSequence(
        const sim::PhysicalGpu &board, const std::string &name,
        const std::vector<sim::KernelDemand> &kernels,
        const std::vector<gpu::FreqConfig> &configs,
        const CampaignOptions &opts = {});

} // namespace model
} // namespace gpupm

#endif // GPUPM_CORE_CAMPAIGN_HH
