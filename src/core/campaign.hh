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
 * The fault-tolerant runner of the same procedure is in resilient.hh.
 */

#ifndef GPUPM_CORE_CAMPAIGN_HH
#define GPUPM_CORE_CAMPAIGN_HH

#include <string>
#include <vector>

#include "core/backend.hh"
#include "core/estimator.hh"
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

/**
 * The measured grid: the device's full configuration list, or its
 * intersection with opts.config_subset (the reference configuration
 * is always kept, and device order is preserved so campaigns stay
 * deterministic).
 */
std::vector<gpu::FreqConfig>
campaignGrid(const gpu::DeviceDescriptor &desc,
             const CampaignOptions &opts);

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
