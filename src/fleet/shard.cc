#include "shard.hh"

#include <algorithm>
#include <cmath>
#include <exception>
#include <string>

#include "common/logging.hh"
#include "core/backend.hh"
#include "core/campaign.hh"
#include "core/estimator.hh"
#include "core/faults.hh"
#include "core/predictor.hh"
#include "obs/residuals.hh"
#include "obs/scoreboard.hh"
#include "sim/jitter.hh"
#include "sim/physical_gpu.hh"
#include "ubench/suite.hh"
#include "workloads/workloads.hh"

namespace gpupm
{
namespace fleet
{

namespace
{

/** Shared read-only suite/workloads (thread-safe local statics). */
const std::vector<ubench::Microbenchmark> &
fullSuite()
{
    static const std::vector<ubench::Microbenchmark> suite =
            ubench::buildSuite();
    return suite;
}

const std::vector<workloads::Workload> &
validationApps()
{
    static const std::vector<workloads::Workload> apps =
            workloads::validationSet();
    return apps;
}

/** Strided suite subset: every idle row plus every kSuiteStride-th
 *  other. */
std::vector<ubench::Microbenchmark>
fleetSuite()
{
    std::vector<ubench::Microbenchmark> out;
    int nonidle = 0;
    for (const auto &mb : fullSuite())
    {
        if (mb.family == ubench::Family::Idle)
            out.push_back(mb);
        else if (nonidle++ % kSuiteStride == 0)
            out.push_back(mb);
    }
    return out;
}

bool
finiteTrainingData(const model::TrainingData &data)
{
    for (const auto &row : data.power_w)
        for (double w : row)
            if (!std::isfinite(w))
                return false;
    for (const auto &u : data.utils)
        for (double x : u)
            if (!std::isfinite(x))
                return false;
    return true;
}

DeviceOutcome
failedOutcome(const DeviceSpec &spec, DeviceFailKind kind,
              std::string message)
{
    DeviceOutcome out;
    out.id = spec.id;
    out.kind = spec.kind;
    out.ok = false;
    out.fail = kind;
    out.message = std::move(message);
    return out;
}

} // namespace

std::vector<gpu::FreqConfig>
fleetConfigSubset(const gpu::DeviceDescriptor &desc)
{
    const gpu::FreqConfig ref = desc.referenceConfig();

    // Reference memory clock first, then the lowest different one:
    // two memory levels keep the memory-domain terms identifiable.
    std::vector<int> mems = {ref.mem_mhz};
    for (auto it = desc.mem_freqs_mhz.rbegin();
         it != desc.mem_freqs_mhz.rend(); ++it)
        if (*it != ref.mem_mhz)
        {
            mems.push_back(*it);
            break;
        }

    // Core clocks spread across the supported range.
    static_assert(kMaxConfigs / 2 >= 3,
                  "the Eq. 11 initialization needs the reference plus "
                  "two more core levels per memory clock");
    const int per_mem = kMaxConfigs / static_cast<int>(mems.size());
    const auto &cores_all = desc.core_freqs_mhz;
    std::vector<int> cores;
    for (int i = 0; i < per_mem; ++i)
    {
        const std::size_t idx =
                (static_cast<std::size_t>(i) * (cores_all.size() - 1)) /
                static_cast<std::size_t>(per_mem - 1);
        const int mhz = cores_all[idx];
        if (std::find(cores.begin(), cores.end(), mhz) ==
            cores.end())
            cores.push_back(mhz);
    }
    if (std::find(cores.begin(), cores.end(), ref.core_mhz) ==
        cores.end())
        cores.push_back(ref.core_mhz);

    std::vector<gpu::FreqConfig> subset;
    for (int m : mems)
        for (int c : cores)
            subset.push_back({c, m});
    return subset;
}

DeviceOutcome
runDevice(const DeviceSpec &spec, const FleetOptions &,
          const CancelToken &token)
{
    if (cancelled(token))
        return failedOutcome(spec, DeviceFailKind::Cancelled,
                             "attempt cancelled before start");

    const gpu::DeviceDescriptor &desc =
            gpu::DeviceDescriptor::get(spec.kind);
    const sim::PhysicalGpu board(
            desc, sim::jitteredGroundTruth(spec.kind, spec.seed,
                                           kJitterFrac));

    model::CampaignOptions copts;
    copts.power_repetitions = kPowerRepetitions;
    copts.min_duration_s = kMinDurationS;
    copts.seed = spec.seed;
    copts.config_subset = fleetConfigSubset(desc);

    // Train. Poisoned devices fail here (broken reference config) or
    // at the data check below (NaN sensor rail).
    model::TrainingData data;
    try
    {
        model::SimulatedBackend inner(board, spec.seed);
        if (spec.poison_nan || spec.poison_config)
        {
            model::FaultSpec fspec;
            fspec.seed = spec.seed;
            if (spec.poison_nan)
                fspec.nan_rate = 1.0;
            if (spec.poison_config)
                fspec.broken_configs = {desc.referenceConfig()};
            model::FaultInjectingBackend faulty(inner, fspec);
            data = model::runTrainingCampaign(faulty, fleetSuite(),
                                              copts);
        }
        else
        {
            data = model::runTrainingCampaign(inner, fleetSuite(),
                                              copts);
        }
    }
    catch (const model::MeasurementError &e)
    {
        return failedOutcome(
                spec, DeviceFailKind::MeasureFailed,
                std::string(model::measureErrcName(e.code())) + ": " +
                        e.what());
    }
    catch (const std::exception &e)
    {
        return failedOutcome(spec, DeviceFailKind::MeasureFailed,
                             e.what());
    }

    if (!finiteTrainingData(data))
        return failedOutcome(
                spec, DeviceFailKind::CorruptData,
                "non-finite values in campaign data");

    // Fit.
    const model::FitResult fit =
            model::ModelEstimator().tryEstimate(data);
    if (!fit.ok())
        return failedOutcome(
                spec, DeviceFailKind::FitFailed,
                std::string(model::fitErrcName(fit.error().code)) +
                        ": " + fit.error().message);

    // Validate: a small audit over held-out applications.
    const model::Predictor predictor(fit.value().model);
    std::vector<gpu::FreqConfig> val_cfgs;
    for (const auto &cfg : data.configs)
    {
        val_cfgs.push_back(cfg);
        if (static_cast<int>(val_cfgs.size()) >= kValidationConfigs)
            break;
    }

    const auto &apps = validationApps();
    const int n_apps = std::min<int>(kValidationApps,
                                     static_cast<int>(apps.size()));
    std::vector<obs::ResidualSample> samples;
    for (int a = 0; a < n_apps; ++a)
    {
        const auto &wl = apps[static_cast<std::size_t>(a)];
        const model::AppMeasurement meas =
                model::measureApp(board, wl.demand, val_cfgs, copts);
        for (std::size_t c = 0; c < meas.configs.size(); ++c)
        {
            const model::PowerPrediction pred =
                    predictor.at(meas.util, meas.configs[c]);
            obs::ResidualSample s;
            s.app = wl.name;
            s.cfg = meas.configs[c];
            s.measured_w = meas.power_w[c];
            s.predicted_w = pred.total_w;
            s.constant_w = pred.constant_w;
            s.component_w = pred.component_w;
            samples.push_back(std::move(s));
        }
    }

    std::vector<const obs::ResidualSample *> group;
    group.reserve(samples.size());
    for (const auto &s : samples)
        group.push_back(&s);

    DeviceOutcome out;
    out.id = spec.id;
    out.kind = spec.kind;
    out.ok = true;
    out.fail = DeviceFailKind::None;
    out.stats = obs::scoreOf(group);
    out.fit_rmse_w = fit.value().rmse_w;
    out.fit_iterations = fit.value().iterations;
    return out;
}

ShardAttemptResult
runShardAttempt(const ShardSpec &shard, const FleetOptions &opts,
                const CancelToken &token)
{
    ShardAttemptResult result;
    for (const DeviceSpec &spec : shard.devices)
    {
        if (cancelled(token))
        {
            result.cancelled = true;
            result.outcomes.push_back(failedOutcome(
                    spec, DeviceFailKind::Cancelled,
                    "shard attempt cancelled by watchdog"));
            continue;
        }
        result.outcomes.push_back(runDevice(spec, opts, token));
        if (result.outcomes.back().fail == DeviceFailKind::Cancelled)
            result.cancelled = true;
    }
    return result;
}

} // namespace fleet
} // namespace gpupm
