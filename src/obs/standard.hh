/**
 * @file
 * The standard gpupm metric catalog.
 *
 * Every metric the pipeline instruments lives here as a named
 * accessor, so instrument sites cannot typo a name and the whole
 * catalog can be pre-registered (registerStandardMetrics) before a
 * dump — a `gpupm metrics` run or a `--metrics-out` file always shows
 * the full schema, with zeros for paths that did not run.
 *
 * An unlabelled accessor registers its metric on first use and again
 * only after Registry::reset(); every other call is a few atomic
 * loads, with no lock, map lookup or string. The labelled accessors
 * (HTTP, alerts, fleet arch) and buildInfo() look up by name on every
 * call.
 */

#ifndef GPUPM_OBS_STANDARD_HH
#define GPUPM_OBS_STANDARD_HH

#include "obs/metrics.hh"

namespace gpupm
{
namespace obs
{

// -- Estimator (Sec. III-D fit) --------------------------------------

Counter &estimatorFitsTotal();
Counter &estimatorFitFailuresTotal();
Counter &estimatorIterationsTotal();
Gauge &estimatorLastIterations();
Gauge &estimatorLastRmseW();
Gauge &estimatorLastCondition();
Histogram &estimatorIterationsPerFit();

// -- Resilient measurement backend -----------------------------------

Counter &resilientAttemptsTotal();
Counter &resilientRetriesTotal();
Counter &resilientTimeoutsTotal();
Counter &resilientCallFailuresTotal();
Counter &resilientOutliersRejectedTotal();
Counter &resilientCorruptSamplesTotal();
Counter &resilientQuarantinedCallsTotal();
Counter &resilientQuarantinedConfigsTotal();
Counter &resilientBackoffSecondsTotal();

// -- Campaigns -------------------------------------------------------

Counter &campaignRunsTotal();
Counter &campaignCellsDoneTotal();
Counter &campaignCellsFailedTotal();
Counter &campaignCellsResumedTotal();
Counter &campaignFaultsInjectedTotal();

// -- Artifact I/O ----------------------------------------------------

Counter &ioLoadsTotal();
Counter &ioLoadFailuresTotal();
Counter &ioSavesTotal();
Counter &ioSaveFailuresTotal();

// -- Simulator -------------------------------------------------------

Counter &simKernelExecutionsTotal();
Histogram &simKernelTimeSeconds();

// -- Prediction accuracy (gpupm audit) -------------------------------

Counter &accuracyAuditsTotal();
Counter &accuracySamplesTotal();
Gauge &accuracyLastMaePct();
Gauge &accuracyLastRmseW();
Gauge &accuracyLastMaxErrPct();
Histogram &accuracyAbsErrPct();

// -- Process identity & liveness -------------------------------------

/**
 * `gpupm_build_info{version=...,build_type=...,git_sha=...,
 * compiler=...,device=...} 1` — the Prometheus build-info convention:
 * constant value 1, identity in the labels, so every scrape is
 * attributable to the build that produced it. The device label is the
 * process-wide provenance device at first registration.
 */
Gauge &buildInfo();

/** `gpupm_process_uptime_seconds` (set by touchProcessMetrics). */
Gauge &processUptimeSeconds();

/**
 * Refresh the process-liveness gauges (uptime). Call before any
 * exposition render; the /metrics endpoint and the CLI dumps do.
 */
void touchProcessMetrics();

// -- Embedded HTTP exporter (gpupm monitor) --------------------------

/** Per-endpoint request counter: `gpupm_http_requests_total{path=..}`. */
Counter &httpRequestsTotal(const std::string &path);
/** Per-endpoint latency histogram, seconds. */
Histogram &httpRequestSeconds(const std::string &path);
/** Requests refused before dispatch (parse error, 404, 405, 431). */
Counter &httpRequestsRejectedTotal();

// -- Live sampling loop (gpupm monitor) ------------------------------

Counter &monitorTicksTotal();
Counter &monitorProbeFailuresTotal();
Gauge &monitorLastMeasuredW();
Gauge &monitorLastPredictedW();
Gauge &monitorSampleAgeSeconds();
Histogram &monitorSampleSeconds();
/** Rolling MAE over the sampler's last-N residual window, percent. */
Gauge &accuracyRollingMaePct();

// -- Time-series store & alerting (src/obs/tsdb, src/obs/alerts) -----

Gauge &tsdbSeriesCount();
Gauge &tsdbMemoryBytes();
Counter &tsdbPointsTotal();
Counter &tsdbEvictionsTotal();
/** 1 while `rule` is firing, 0 otherwise: `gpupm_alerts_firing{rule=..}`. */
Gauge &alertsFiring(const std::string &rule);
/** Every alert state transition (pending, firing, resolved, ...). */
Counter &alertTransitionsTotal();

// -- Trace store (src/obs/trace_store) -------------------------------

Gauge &traceStoreTraces();
Gauge &traceStoreMemoryBytes();
Gauge &traceStoreOfferedTotal();
Gauge &traceStoreEvictedTotal();

// -- Sampling CPU profiler (src/obs/profiler) ------------------------

Counter &profilerRunsTotal();
Counter &profilerSamplesTotal();
Counter &profilerSamplesDroppedTotal();
Gauge &profilerLastAttributedPct();

// -- Fleet campaigns (src/fleet) -------------------------------------

Counter &fleetCampaignsTotal();
Gauge &fleetDevicesTotal();
Gauge &fleetDevicesFailed();
Counter &fleetShardRetriesTotal();
Counter &fleetShardsQuarantinedTotal();
Counter &fleetChaosKillsTotal();
Counter &fleetChaosStallsTotal();
Counter &fleetDeadlineFiresTotal();
Gauge &fleetOverallMaePct();
/** Per-architecture marginal MAE, labelled arch="Pascal"|... */
Gauge &fleetArchMaePct(const std::string &arch);
/** Per-architecture healthy-device count, labelled like above. */
Gauge &fleetArchDevicesOk(const std::string &arch);

/**
 * Register the whole catalog in Registry::global(). Idempotent;
 * called by the CLI before any dump.
 */
void registerStandardMetrics();

} // namespace obs
} // namespace gpupm

#endif // GPUPM_OBS_STANDARD_HH
