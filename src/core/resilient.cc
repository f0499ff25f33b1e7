#include "resilient.hh"

#include <algorithm>
#include <cmath>

#include "common/numio.hh"
#include "common/stats.hh"
#include "obs/standard.hh"
#include "obs/trace.hh"

namespace gpupm
{
namespace model
{

namespace
{

std::pair<int, int>
key(const gpu::FreqConfig &cfg)
{
    return {cfg.core_mhz, cfg.mem_mhz};
}

/** All the double fields of a RawMetrics, for field-wise medians. */
constexpr double cupti::RawMetrics::*kMetricFields[] = {
    &cupti::RawMetrics::acycles,
    &cupti::RawMetrics::l2_rd_bytes,
    &cupti::RawMetrics::l2_wr_bytes,
    &cupti::RawMetrics::shared_ld_bytes,
    &cupti::RawMetrics::shared_st_bytes,
    &cupti::RawMetrics::dram_rd_bytes,
    &cupti::RawMetrics::dram_wr_bytes,
    &cupti::RawMetrics::warps_sp_int,
    &cupti::RawMetrics::warps_dp,
    &cupti::RawMetrics::warps_sf,
    &cupti::RawMetrics::inst_int,
    &cupti::RawMetrics::inst_sp,
    &cupti::RawMetrics::time_s,
};

} // namespace

ResilientBackend::ResilientBackend(MeasurementBackend &inner,
                                   ResilientOptions opts)
    : inner_(inner),
      timer_(dynamic_cast<const CallTimer *>(&inner)),
      opts_(std::move(opts)),
      jitter_rng_(opts_.jitter_seed)
{
    GPUPM_ASSERT(opts_.max_retries >= 0, "negative retry budget");
    GPUPM_ASSERT(opts_.backoff_factor >= 1.0, "backoff must not decay");
    GPUPM_ASSERT(opts_.jitter_frac >= 0.0 && opts_.jitter_frac < 1.0,
                 "jitter fraction outside [0, 1)");
    GPUPM_ASSERT(opts_.min_valid_repetitions >= 1,
                 "need at least one valid repetition");
    GPUPM_ASSERT(opts_.profile_repetitions >= 1,
                 "need at least one profile collection");
}

const gpu::DeviceDescriptor &
ResilientBackend::descriptor() const
{
    return inner_.descriptor();
}

void
ResilientBackend::reseed(std::uint64_t seed)
{
    inner_.reseed(seed);
    jitter_rng_ =
            Rng(opts_.jitter_seed ^ (seed * 0x9e3779b97f4a7c15ull));
}

bool
ResilientBackend::isQuarantined(const gpu::FreqConfig &cfg) const
{
    auto it = quarantine_.find(key(cfg));
    return it != quarantine_.end() && it->second;
}

void
ResilientBackend::notePersistentFailure(const gpu::FreqConfig &cfg)
{
    const int n = ++persistent_failures_[key(cfg)];
    if (n >= opts_.quarantine_threshold && !isQuarantined(cfg)) {
        quarantine_[key(cfg)] = true;
        quarantine_order_.push_back(cfg);
        obs::resilientQuarantinedConfigsTotal().inc();
        warn("quarantining configuration (", cfg.core_mhz, ", ",
             cfg.mem_mhz, ") MHz after ", n,
             " persistent measurement failures");
    }
}

std::vector<double>
ResilientBackend::backoffSchedule(const ResilientOptions &opts,
                                  std::uint64_t seed, int n)
{
    Rng rng(opts.jitter_seed ^ (seed * 0x9e3779b97f4a7c15ull));
    std::vector<double> delays;
    delays.reserve(static_cast<std::size_t>(std::max(0, n)));
    for (int i = 0; i < n; ++i) {
        double d = std::min(opts.backoff_max_s,
                            opts.backoff_base_s *
                                    std::pow(opts.backoff_factor, i));
        d *= 1.0 + opts.jitter_frac * (2.0 * rng.uniform() - 1.0);
        delays.push_back(d);
    }
    return delays;
}

template <typename T>
Expected<T>
ResilientBackend::runWithRetries(const gpu::FreqConfig &cfg,
                                 const std::function<T()> &call)
{
    if (isQuarantined(cfg)) {
        ++counters_.quarantined_calls;
        obs::resilientQuarantinedCallsTotal().inc();
        return Status{MeasureErrc::Quarantined,
                      detail::concat("configuration (", cfg.core_mhz,
                                     ", ", cfg.mem_mhz,
                                     ") MHz is quarantined")};
    }

    Status last{MeasureErrc::Transient, "no attempt made"};
    for (int attempt = 0; attempt <= opts_.max_retries; ++attempt) {
        if (attempt > 0) {
            // Exponential backoff with seeded jitter; the delay is
            // virtual (accounted, not slept) — the simulated substrate
            // has no wall clock to wait on.
            ++counters_.retries;
            obs::resilientRetriesTotal().inc();
            double d = std::min(
                    opts_.backoff_max_s,
                    opts_.backoff_base_s *
                            std::pow(opts_.backoff_factor,
                                     attempt - 1));
            d *= 1.0 +
                 opts_.jitter_frac * (2.0 * jitter_rng_.uniform() - 1.0);
            counters_.backoff_total_s += d;
            obs::resilientBackoffSecondsTotal().inc(d);
        }
        ++counters_.attempts;
        obs::resilientAttemptsTotal().inc();
        try {
            T result = call();
            if (timer_ &&
                timer_->lastCallSeconds() > opts_.call_timeout_s) {
                // The call wedged past its deadline; a real harness
                // would have killed it, so its result is discarded.
                ++counters_.timeouts;
                obs::resilientTimeoutsTotal().inc();
                last = Status{
                    MeasureErrc::Timeout,
                    detail::concat("call exceeded the ",
                                   opts_.call_timeout_s,
                                   " s deadline")};
                continue;
            }
            return result;
        } catch (const MeasurementError &e) {
            last = Status{e.code(), e.what()};
            if (!e.recoverable())
                return last;
        }
    }
    ++counters_.call_failures;
    obs::resilientCallFailuresTotal().inc();
    notePersistentFailure(cfg);
    return last;
}

Expected<cupti::RawMetrics>
ResilientBackend::tryProfileKernel(const sim::KernelDemand &kernel,
                                   const gpu::FreqConfig &cfg)
{
    GPUPM_TRACE_SPAN_NAMED(span, "backend", "backend.profile");
    if (span.armed()) {
        span.arg("kernel", kernel.name);
        span.arg("config", numio::formatLong(cfg.core_mhz) + "/" +
                                   numio::formatLong(cfg.mem_mhz));
    }
    std::vector<cupti::RawMetrics> collections;
    Status last{MeasureErrc::Transient, "no collection succeeded"};
    for (int r = 0; r < opts_.profile_repetitions; ++r) {
        auto e = runWithRetries<cupti::RawMetrics>(cfg, [&] {
            return inner_.profileKernel(kernel, cfg);
        });
        if (e.ok()) {
            collections.push_back(e.value());
        } else {
            last = e.error();
            if (!last.recoverable() ||
                last.code == MeasureErrc::Quarantined)
                return last;
        }
    }
    if (collections.empty())
        return last;

    // Field-wise median across collections: a dropped event group
    // zeroes fields in one collection only, and the median ignores it
    // as long as most collections are intact.
    cupti::RawMetrics combined;
    std::vector<double> vals(collections.size());
    for (auto field : kMetricFields) {
        for (std::size_t i = 0; i < collections.size(); ++i)
            vals[i] = collections[i].*field;
        combined.*field = stats::median(vals);
    }
    return combined;
}

Expected<nvml::PowerMeasurement>
ResilientBackend::tryMeasurePower(const sim::KernelDemand &kernel,
                                  const gpu::FreqConfig &cfg,
                                  int repetitions,
                                  double min_duration_s)
{
    GPUPM_TRACE_SPAN_NAMED(span, "backend", "backend.power");
    if (span.armed()) {
        span.arg("kernel", kernel.name);
        span.arg("config", numio::formatLong(cfg.core_mhz) + "/" +
                                   numio::formatLong(cfg.mem_mhz));
    }
    const int reps =
            std::max(repetitions, opts_.min_valid_repetitions);
    std::vector<nvml::PowerMeasurement> runs;
    Status last{MeasureErrc::Transient, "no repetition succeeded"};
    for (int r = 0; r < reps; ++r) {
        // One run per call (the inner backend's own median-of-one is
        // the run mean); robustness comes from this layer's MAD
        // rejection across runs, which the inner plain median lacks.
        auto e = runWithRetries<nvml::PowerMeasurement>(cfg, [&] {
            return inner_.measurePower(kernel, cfg, 1,
                                       min_duration_s);
        });
        if (e.ok()) {
            runs.push_back(e.value());
        } else {
            last = e.error();
            if (!last.recoverable() ||
                last.code == MeasureErrc::Quarantined)
                return last;
        }
    }
    if (runs.empty())
        return last;

    std::vector<double> powers(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
        powers[i] = runs[i].power_w;
    const auto outlier =
            stats::madOutlierMask(powers, opts_.mad_threshold);

    std::vector<double> survivors;
    std::size_t representative = runs.size();
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (outlier[i]) {
            if (std::isfinite(powers[i])) {
                ++counters_.outliers_rejected;
                obs::resilientOutliersRejectedTotal().inc();
            } else {
                ++counters_.corrupt_samples;
                obs::resilientCorruptSamplesTotal().inc();
            }
        } else {
            if (representative == runs.size())
                representative = i;
            survivors.push_back(powers[i]);
        }
    }
    if (static_cast<int>(survivors.size()) <
        opts_.min_valid_repetitions) {
        notePersistentFailure(cfg);
        return Status{MeasureErrc::CorruptSample,
                      detail::concat("only ", survivors.size(), " of ",
                                     runs.size(),
                                     " repetitions survived outlier "
                                     "rejection")};
    }

    nvml::PowerMeasurement result = runs[representative];
    result.power_w = stats::median(survivors);
    return result;
}

Expected<double>
ResilientBackend::tryMeasureIdlePower(const gpu::FreqConfig &cfg,
                                      int repetitions)
{
    GPUPM_TRACE_SPAN_NAMED(span, "backend", "backend.idle-power");
    if (span.armed())
        span.arg("config", numio::formatLong(cfg.core_mhz) + "/" +
                                   numio::formatLong(cfg.mem_mhz));
    const int reps =
            std::max(repetitions, opts_.min_valid_repetitions);
    std::vector<double> samples;
    Status last{MeasureErrc::Transient, "no repetition succeeded"};
    for (int r = 0; r < reps; ++r) {
        auto e = runWithRetries<double>(cfg, [&] {
            return inner_.measureIdlePower(cfg);
        });
        if (e.ok()) {
            samples.push_back(e.value());
        } else {
            last = e.error();
            if (!last.recoverable() ||
                last.code == MeasureErrc::Quarantined)
                return last;
        }
    }
    if (samples.empty())
        return last;

    const auto outlier =
            stats::madOutlierMask(samples, opts_.mad_threshold);
    std::vector<double> survivors;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        if (outlier[i]) {
            if (std::isfinite(samples[i])) {
                ++counters_.outliers_rejected;
                obs::resilientOutliersRejectedTotal().inc();
            } else {
                ++counters_.corrupt_samples;
                obs::resilientCorruptSamplesTotal().inc();
            }
        } else {
            survivors.push_back(samples[i]);
        }
    }
    if (static_cast<int>(survivors.size()) <
        opts_.min_valid_repetitions) {
        notePersistentFailure(cfg);
        return Status{MeasureErrc::CorruptSample,
                      detail::concat("only ", survivors.size(), " of ",
                                     samples.size(),
                                     " idle repetitions survived "
                                     "outlier rejection")};
    }
    return stats::median(survivors);
}

cupti::RawMetrics
ResilientBackend::profileKernel(const sim::KernelDemand &kernel,
                                const gpu::FreqConfig &cfg)
{
    auto e = tryProfileKernel(kernel, cfg);
    if (!e.ok())
        throw MeasurementError(e.error().code, e.error().message);
    return e.value();
}

nvml::PowerMeasurement
ResilientBackend::measurePower(const sim::KernelDemand &kernel,
                               const gpu::FreqConfig &cfg,
                               int repetitions, double min_duration_s)
{
    auto e = tryMeasurePower(kernel, cfg, repetitions, min_duration_s);
    if (!e.ok())
        throw MeasurementError(e.error().code, e.error().message);
    return e.value();
}

double
ResilientBackend::measureIdlePower(const gpu::FreqConfig &cfg)
{
    auto e = tryMeasureIdlePower(
            cfg, std::max(3, opts_.min_valid_repetitions));
    if (!e.ok())
        throw MeasurementError(e.error().code, e.error().message);
    return e.value();
}

} // namespace model
} // namespace gpupm
