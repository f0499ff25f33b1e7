#include "standard.hh"

#include <atomic>
#include <chrono>

#include "common/provenance.hh"

namespace gpupm
{
namespace obs
{

namespace
{

/**
 * The catalog of unlabelled standard metrics, one row each:
 * X(type, accessor, name, help, buckets). It defines the accessors
 * and is the list registerStandardMetrics() walks; `buckets` names a
 * layout from metrics.hh for a Histogram and is nullptr otherwise.
 */
#define GPUPM_STANDARD_METRICS(X)                                             \
    X(Counter, estimatorFitsTotal, "gpupm_estimator_fits_total",              \
      "Completed Sec. III-D fits", nullptr)                                   \
    X(Counter, estimatorFitFailuresTotal,                                     \
      "gpupm_estimator_fit_failures_total",                                   \
      "Fits that returned a typed FitError", nullptr)                         \
    X(Counter, estimatorIterationsTotal, "gpupm_estimator_iterations_total",  \
      "Outer ALS iterations across all fits", nullptr)                        \
    X(Gauge, estimatorLastIterations, "gpupm_estimator_last_iterations",      \
      "Outer iterations of the most recent fit", nullptr)                     \
    X(Gauge, estimatorLastRmseW, "gpupm_estimator_last_rmse_watts",           \
      "Final fit RMSE of the most recent fit, W", nullptr)                    \
    X(Gauge, estimatorLastCondition, "gpupm_estimator_last_condition",        \
      "Design-matrix condition estimate of the most recent fit", nullptr)     \
    X(Histogram, estimatorIterationsPerFit,                                   \
      "gpupm_estimator_iterations_per_fit",                                   \
      "Outer iterations needed per fit", iterationBuckets)                    \
    X(Counter, resilientAttemptsTotal, "gpupm_resilient_attempts_total",      \
      "Backend calls issued (incl. retries)", nullptr)                        \
    X(Counter, resilientRetriesTotal, "gpupm_resilient_retries_total",        \
      "Attempts beyond each call's first", nullptr)                           \
    X(Counter, resilientTimeoutsTotal, "gpupm_resilient_timeouts_total",      \
      "Attempts abandoned at the deadline", nullptr)                          \
    X(Counter, resilientCallFailuresTotal,                                    \
      "gpupm_resilient_call_failures_total",                                  \
      "Calls that exhausted their retry budget", nullptr)                     \
    X(Counter, resilientOutliersRejectedTotal,                                \
      "gpupm_resilient_outliers_rejected_total",                              \
      "Finite power samples rejected by MAD", nullptr)                        \
    X(Counter, resilientCorruptSamplesTotal,                                  \
      "gpupm_resilient_corrupt_samples_total",                                \
      "NaN / non-finite power samples discarded", nullptr)                    \
    X(Counter, resilientQuarantinedCallsTotal,                                \
      "gpupm_resilient_quarantined_calls_total",                              \
      "Calls refused against quarantined configs", nullptr)                   \
    X(Counter, resilientQuarantinedConfigsTotal,                              \
      "gpupm_resilient_quarantined_configs_total",                            \
      "Configurations placed in quarantine", nullptr)                         \
    X(Counter, resilientBackoffSecondsTotal,                                  \
      "gpupm_resilient_backoff_seconds_total",                                \
      "Virtual seconds spent backing off", nullptr)                           \
    X(Counter, campaignRunsTotal, "gpupm_campaign_runs_total",                \
      "Training-campaign invocations", nullptr)                               \
    X(Counter, campaignCellsDoneTotal, "gpupm_campaign_cells_done_total",     \
      "Measurement cells completed", nullptr)                                 \
    X(Counter, campaignCellsFailedTotal,                                      \
      "gpupm_campaign_cells_failed_total",                                    \
      "Cells unrecoverable after the full policy", nullptr)                   \
    X(Counter, campaignCellsResumedTotal,                                     \
      "gpupm_campaign_cells_resumed_total",                                   \
      "Cells restored from a checkpoint", nullptr)                            \
    X(Counter, campaignFaultsInjectedTotal,                                   \
      "gpupm_campaign_faults_injected_total",                                 \
      "Faults injected during campaigns", nullptr)                            \
    X(Counter, ioLoadsTotal, "gpupm_io_loads_total",                          \
      "Artifact loads that succeeded", nullptr)                               \
    X(Counter, ioLoadFailuresTotal, "gpupm_io_load_failures_total",           \
      "Artifact loads that returned a typed error", nullptr)                  \
    X(Counter, ioSavesTotal, "gpupm_io_saves_total",                          \
      "Artifact saves that succeeded", nullptr)                               \
    X(Counter, ioSaveFailuresTotal, "gpupm_io_save_failures_total",           \
      "Artifact saves that failed", nullptr)                                  \
    X(Counter, simKernelExecutionsTotal,                                      \
      "gpupm_sim_kernel_executions_total",                                    \
      "Simulated kernel executions", nullptr)                                 \
    X(Histogram, simKernelTimeSeconds, "gpupm_sim_kernel_time_seconds",       \
      "Simulated kernel execution time, seconds", secondsBuckets)             \
    X(Counter, accuracyAuditsTotal, "gpupm_accuracy_audits_total",            \
      "Prediction audits (gpupm audit runs)", nullptr)                        \
    X(Counter, accuracySamplesTotal, "gpupm_accuracy_samples_total",          \
      "Residual samples collected across audits", nullptr)                    \
    X(Gauge, accuracyLastMaePct, "gpupm_accuracy_last_mae_percent",           \
      "Overall MAE of the most recent audit, %", nullptr)                     \
    X(Gauge, accuracyLastRmseW, "gpupm_accuracy_last_rmse_watts",             \
      "Overall RMSE of the most recent audit, W", nullptr)                    \
    X(Gauge, accuracyLastMaxErrPct, "gpupm_accuracy_last_max_error_percent",  \
      "Largest absolute error of the most recent audit, %", nullptr)          \
    X(Histogram, accuracyAbsErrPct, "gpupm_accuracy_abs_error_percent",       \
      "Per-sample absolute prediction error, %", errorPctBuckets)             \
    X(Gauge, processUptimeSeconds, "gpupm_process_uptime_seconds",            \
      "Seconds since process start", nullptr)                                 \
    X(Counter, httpRequestsRejectedTotal,                                     \
      "gpupm_http_requests_rejected_total",                                   \
      "Requests refused before dispatch (parse error, unknown path, bad "     \
      "method, oversize)", nullptr)                                           \
    X(Counter, monitorTicksTotal, "gpupm_monitor_ticks_total",                \
      "Sampling-loop ticks completed", nullptr)                               \
    X(Counter, monitorProbeFailuresTotal,                                     \
      "gpupm_monitor_probe_failures_total",                                   \
      "Sampling-loop probes that failed", nullptr)                            \
    X(Gauge, monitorLastMeasuredW, "gpupm_monitor_last_measured_watts",       \
      "Most recent measured average power, W", nullptr)                       \
    X(Gauge, monitorLastPredictedW, "gpupm_monitor_last_predicted_watts",     \
      "Most recent model prediction, W", nullptr)                             \
    X(Gauge, monitorSampleAgeSeconds, "gpupm_monitor_sample_age_seconds",     \
      "Seconds since the last completed sample", nullptr)                     \
    X(Histogram, monitorSampleSeconds, "gpupm_monitor_sample_seconds",        \
      "Wall-clock cost of one probe, seconds", secondsBuckets)                \
    X(Gauge, accuracyRollingMaePct, "gpupm_accuracy_rolling_mae_pct",         \
      "MAE over the sampler's rolling residual window, percent", nullptr)     \
    X(Gauge, tsdbSeriesCount, "gpupm_tsdb_series",                            \
      "Live series in the embedded time-series store", nullptr)               \
    X(Gauge, tsdbMemoryBytes, "gpupm_tsdb_memory_bytes",                      \
      "Accounted tsdb memory footprint, bytes", nullptr)                      \
    X(Counter, tsdbPointsTotal, "gpupm_tsdb_points_total",                    \
      "Points appended to the time-series store", nullptr)                    \
    X(Counter, tsdbEvictionsTotal, "gpupm_tsdb_evictions_total",              \
      "Series evicted at the cardinality cap (LRU by write)", nullptr)        \
    X(Counter, alertTransitionsTotal, "gpupm_alert_transitions_total",        \
      "Alert state transitions across all rules", nullptr)                    \
    X(Gauge, traceStoreTraces, "gpupm_trace_store_traces",                    \
      "Assembled traces resident in the trace store", nullptr)                \
    X(Gauge, traceStoreMemoryBytes, "gpupm_trace_store_memory_bytes",         \
      "Accounted trace-store memory footprint, bytes", nullptr)               \
    X(Gauge, traceStoreOfferedTotal, "gpupm_trace_store_offered_total",       \
      "Completed traces offered to the store", nullptr)                       \
    X(Gauge, traceStoreEvictedTotal, "gpupm_trace_store_evicted_total",       \
      "Traces evicted by tail sampling (boring-first)", nullptr)              \
    X(Counter, profilerRunsTotal, "gpupm_profiler_runs_total",                \
      "Completed CPU-profiling runs", nullptr)                                \
    X(Counter, profilerSamplesTotal, "gpupm_profiler_samples_total",          \
      "CPU samples retained across profiling runs", nullptr)                  \
    X(Counter, profilerSamplesDroppedTotal,                                   \
      "gpupm_profiler_samples_dropped_total",                                 \
      "CPU samples lost to ring overflow", nullptr)                           \
    X(Gauge, profilerLastAttributedPct,                                       \
      "gpupm_profiler_last_attributed_percent",                               \
      "Span-attributed share of the most recent profile, %", nullptr)         \
    X(Counter, fleetCampaignsTotal, "gpupm_fleet_campaigns_total",            \
      "Fleet campaigns run", nullptr)                                         \
    X(Gauge, fleetDevicesTotal, "gpupm_fleet_devices",                        \
      "Device instances in the last fleet campaign", nullptr)                 \
    X(Gauge, fleetDevicesFailed, "gpupm_fleet_devices_failed",                \
      "Devices without a usable model in the last campaign", nullptr)         \
    X(Counter, fleetShardRetriesTotal, "gpupm_fleet_shard_retries_total",     \
      "Shard attempts beyond each shard's first", nullptr)                    \
    X(Counter, fleetShardsQuarantinedTotal,                                   \
      "gpupm_fleet_shards_quarantined_total",                                 \
      "Shards abandoned after the retry budget", nullptr)                     \
    X(Counter, fleetChaosKillsTotal, "gpupm_fleet_chaos_kills_total",         \
      "Chaos-injected shard kills", nullptr)                                  \
    X(Counter, fleetChaosStallsTotal, "gpupm_fleet_chaos_stalls_total",       \
      "Chaos-injected shard stalls", nullptr)                                 \
    X(Counter, fleetDeadlineFiresTotal, "gpupm_fleet_watchdog_fires_total",   \
      "Shard attempts cancelled at the watchdog deadline", nullptr)           \
    X(Gauge, fleetOverallMaePct, "gpupm_fleet_mae_pct",                       \
      "Merged validation MAE over healthy devices, percent", nullptr)

enum class Kind { Counter, Gauge, Histogram };

struct Spec
{
    Kind kind;
    const char *name;
    const char *help;
    std::vector<double> (*buckets)();
};

#define GPUPM_SPEC(type, fn, name, help, buckets) \
    {Kind::type, name, help, buckets},
const Spec kCatalog[] = {GPUPM_STANDARD_METRICS(GPUPM_SPEC)};
#undef GPUPM_SPEC

#define GPUPM_ID(type, fn, name, help, buckets) k_##fn,
enum Id : std::size_t { GPUPM_STANDARD_METRICS(GPUPM_ID) kCatalogSize };
#undef GPUPM_ID

/**
 * A catalog row's resolved metric, valid while `generation` equals the
 * registry's: the metric is published before its generation, so a
 * reader that sees the generation sees the metric.
 */
struct Slot
{
    std::atomic<std::uint64_t> generation{0};
    std::atomic<void *> metric{nullptr};
};

Slot g_slots[kCatalogSize];

Registry &
reg()
{
    return Registry::global();
}

/** The row's metric; registers it only on first use after a reset. */
void *
resolve(std::size_t id)
{
    Registry &r = reg();
    const std::uint64_t gen = r.generation();
    Slot &slot = g_slots[id];
    if (slot.generation.load(std::memory_order_acquire) == gen)
        return slot.metric.load(std::memory_order_relaxed);
    const Spec &s = kCatalog[id];
    void *m = nullptr;
    switch (s.kind) {
      case Kind::Counter: m = &r.counter(s.name, s.help); break;
      case Kind::Gauge: m = &r.gauge(s.name, s.help); break;
      case Kind::Histogram:
        m = &r.histogram(s.name, s.help, s.buckets());
        break;
    }
    slot.metric.store(m, std::memory_order_relaxed);
    slot.generation.store(gen, std::memory_order_release);
    return m;
}

/** Static-init capture; close enough to process start for uptime. */
const std::chrono::steady_clock::time_point g_process_start =
        std::chrono::steady_clock::now();
} // namespace

#define GPUPM_ACCESSOR(type, fn, name, help, buckets) \
    type &fn() { return *static_cast<type *>(resolve(k_##fn)); }
GPUPM_STANDARD_METRICS(GPUPM_ACCESSOR)
#undef GPUPM_ACCESSOR

Gauge &
buildInfo()
{
    const auto p = common::collectProvenance();
    const auto esc = Registry::labelEscape;
    Gauge &g = reg().gauge(
            "gpupm_build_info",
            "version=\"" + esc(p.version) + "\",build_type=\"" +
                    esc(p.build_type) + "\",git_sha=\"" +
                    esc(p.git_sha) + "\",compiler=\"" +
                    esc(p.compiler) + "\",device=\"" + esc(p.device) +
                    "\"",
            "Build provenance (constant 1; identity in labels)");
    g.set(1.0);
    return g;
}

void
touchProcessMetrics()
{
    const auto now = std::chrono::steady_clock::now();
    processUptimeSeconds().set(
            std::chrono::duration<double>(now - g_process_start)
                    .count());
}

Counter &
httpRequestsTotal(const std::string &path)
{
    return reg().counter(
            "gpupm_http_requests_total",
            "path=\"" + Registry::labelEscape(path) + "\"",
            "HTTP requests served, by endpoint");
}

Histogram &
httpRequestSeconds(const std::string &path)
{
    return reg().histogram(
            "gpupm_http_request_seconds",
            "path=\"" + Registry::labelEscape(path) + "\"",
            "HTTP request handling latency, by endpoint",
            secondsBuckets());
}

Gauge &
alertsFiring(const std::string &rule)
{
    return reg().gauge(
            "gpupm_alerts_firing",
            "rule=\"" + Registry::labelEscape(rule) + "\"",
            "1 while the rule is firing, 0 otherwise");
}

Gauge &
fleetArchMaePct(const std::string &arch)
{
    return reg().gauge(
            "gpupm_fleet_arch_mae_pct",
            "arch=\"" + Registry::labelEscape(arch) + "\"",
            "Per-architecture validation MAE, percent");
}

Gauge &
fleetArchDevicesOk(const std::string &arch)
{
    return reg().gauge(
            "gpupm_fleet_arch_devices_ok",
            "arch=\"" + Registry::labelEscape(arch) + "\"",
            "Per-architecture healthy-device count");
}

void
registerStandardMetrics()
{
    for (std::size_t id = 0; id < kCatalogSize; ++id)
        resolve(id);
    buildInfo();
}

} // namespace obs
} // namespace gpupm
