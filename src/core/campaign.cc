#include "campaign.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/metrics.hh"
#include "obs/standard.hh"
#include "obs/trace.hh"

namespace gpupm
{
namespace model
{

std::vector<gpu::FreqConfig>
campaignGrid(const gpu::DeviceDescriptor &desc,
             const CampaignOptions &opts)
{
    const std::vector<gpu::FreqConfig> all = desc.allConfigs();
    if (opts.config_subset.empty())
        return all;
    const gpu::FreqConfig ref = desc.referenceConfig();
    std::vector<gpu::FreqConfig> grid;
    for (const gpu::FreqConfig &cfg : all) {
        const bool wanted =
                cfg == ref ||
                std::find(opts.config_subset.begin(),
                          opts.config_subset.end(),
                          cfg) != opts.config_subset.end();
        if (wanted)
            grid.push_back(cfg);
    }
    return grid;
}

TrainingData
runTrainingCampaign(MeasurementBackend &backend,
                    const std::vector<ubench::Microbenchmark> &suite,
                    const CampaignOptions &opts)
{
    GPUPM_ASSERT(!suite.empty(), "empty microbenchmark suite");
    const gpu::DeviceDescriptor &desc = backend.descriptor();
    obs::campaignRunsTotal().inc();

    GPUPM_TRACE_SPAN_NAMED(span, "campaign", "campaign.training");
    span.arg("device", desc.name);
    span.arg("benchmarks", (long)suite.size());

    TrainingData data;
    data.device = desc.kind;
    data.reference = desc.referenceConfig();
    data.configs = campaignGrid(desc, opts);

    // Performance events at the reference configuration only.
    for (const auto &mb : suite) {
        if (mb.demand.empty()) {
            data.utils.push_back(gpu::ComponentArray{});
            continue;
        }
        GPUPM_TRACE_SPAN_NAMED(pspan, "campaign", "campaign.profile");
        pspan.arg("benchmark", mb.name);
        const auto rm =
                backend.profileKernel(mb.demand, data.reference);
        data.utils.push_back(
                utilizationsFromMetrics(rm, desc, data.reference));
    }

    // Power at every configuration.
    data.power_w.assign(suite.size(), {});
    for (std::size_t b = 0; b < suite.size(); ++b) {
        GPUPM_TRACE_SPAN_NAMED(bspan, "campaign", "campaign.power");
        bspan.arg("benchmark", suite[b].name);
        data.power_w[b].reserve(data.configs.size());
        for (const gpu::FreqConfig &cfg : data.configs) {
            if (suite[b].demand.empty()) {
                data.power_w[b].push_back(
                        backend.measureIdlePower(cfg));
            } else {
                const auto m = backend.measurePower(
                        suite[b].demand, cfg,
                        opts.power_repetitions, opts.min_duration_s);
                data.power_w[b].push_back(m.power_w);
            }
        }
    }
    return data;
}

TrainingData
runTrainingCampaign(const sim::PhysicalGpu &board,
                    const std::vector<ubench::Microbenchmark> &suite,
                    const CampaignOptions &opts)
{
    SimulatedBackend backend(board, opts.seed);
    return runTrainingCampaign(backend, suite, opts);
}

AppMeasurement
measureApp(const sim::PhysicalGpu &board,
           const sim::KernelDemand &demand,
           const std::vector<gpu::FreqConfig> &configs,
           const CampaignOptions &opts)
{
    GPUPM_ASSERT(!demand.empty(), "cannot measure an empty kernel");
    GPUPM_TRACE_SPAN_NAMED(span, "campaign", "campaign.app");
    span.arg("app", demand.name);
    const gpu::DeviceDescriptor &desc = board.descriptor();

    AppMeasurement m;
    m.name = demand.name;
    m.configs = configs;

    cupti::Profiler profiler(board, opts.seed + 1000);
    const auto rm = profiler.profile(demand, desc.referenceConfig());
    m.util = utilizationsFromMetrics(rm, desc, desc.referenceConfig());

    nvml::Device dev(board, opts.seed + 2000);
    for (const gpu::FreqConfig &cfg : configs) {
        dev.setApplicationClocks(cfg.mem_mhz, cfg.core_mhz);
        const auto pm = dev.measureKernelPower(
                demand, opts.power_repetitions, opts.min_duration_s);
        m.power_w.push_back(pm.power_w);
        m.effective.push_back(pm.effective);
    }
    return m;
}

AppMeasurement
measureKernelSequence(const sim::PhysicalGpu &board,
                      const std::string &name,
                      const std::vector<sim::KernelDemand> &kernels,
                      const std::vector<gpu::FreqConfig> &configs,
                      const CampaignOptions &opts)
{
    GPUPM_ASSERT(!kernels.empty(), "application has no kernels");
    const gpu::DeviceDescriptor &desc = board.descriptor();
    const gpu::FreqConfig ref = desc.referenceConfig();

    AppMeasurement m;
    m.name = name;
    m.configs = configs;

    // Reference-configuration profiling of every kernel; the
    // application-level utilization is the time-weighted combination.
    cupti::Profiler profiler(board, opts.seed + 3000);
    std::vector<double> ref_time(kernels.size());
    double ref_total = 0.0;
    std::vector<gpu::ComponentArray> per_kernel_util(kernels.size());
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        GPUPM_ASSERT(!kernels[k].empty(), "empty kernel in sequence");
        const auto rm = profiler.profile(kernels[k], ref);
        per_kernel_util[k] = utilizationsFromMetrics(rm, desc, ref);
        ref_time[k] = rm.time_s;
        ref_total += rm.time_s;
    }
    for (std::size_t k = 0; k < kernels.size(); ++k)
        for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
            m.util[i] += per_kernel_util[k][i] * ref_time[k] /
                         ref_total;

    // Power at each configuration: per-kernel measurements weighted by
    // the kernels' relative execution times at that configuration.
    nvml::Device dev(board, opts.seed + 4000);
    for (const gpu::FreqConfig &cfg : configs) {
        dev.setApplicationClocks(cfg.mem_mhz, cfg.core_mhz);
        double weighted_power = 0.0;
        double total_time = 0.0;
        gpu::FreqConfig effective = cfg;
        for (const auto &kernel : kernels) {
            const auto pm = dev.measureKernelPower(
                    kernel, opts.power_repetitions,
                    opts.min_duration_s);
            weighted_power += pm.power_w * pm.kernel_time_s;
            total_time += pm.kernel_time_s;
            if (pm.tdp_limited)
                effective = pm.effective;
        }
        m.power_w.push_back(weighted_power / total_time);
        m.effective.push_back(effective);
    }
    return m;
}

} // namespace model
} // namespace gpupm
