/**
 * @file
 * The fleet-campaign supervisor (tentpole of DESIGN.md §12).
 *
 * runFleetCampaign() instantiates N simulated device instances,
 * splits them into shards that `threads` plain workers take from one
 * shared counter, and survives injected failure at every level of the
 * stack:
 *
 *  - a shard attempt that hangs is cancelled at its deadline (the
 *    watchdog), which the attempt checks before each device;
 *  - a failed or cancelled attempt is retried by the same worker
 *    under seeded exponential backoff up to the shard retry budget;
 *  - a shard past its budget is quarantined — its devices appear in
 *    the report as shard-quarantined failures, never silently gone;
 *  - completed shards are checkpointed crash-safely (v2 fleetshard
 *    envelope, write-to-temp + atomic rename) and resumed on the
 *    next run, so a killed fleet campaign re-runs only what it lost;
 *  - poisoned devices (chaos) fail their own mini campaign and are
 *    reported per-device without taking their shard down.
 *
 * The merged scoreboard is deterministic: outcomes depend only on
 * the DeviceSpec and the merge sorts by device id, so completion
 * order, thread count, retries and chaos leave the accuracy payload
 * bit-identical over the surviving devices.
 */

#ifndef GPUPM_FLEET_SUPERVISOR_HH
#define GPUPM_FLEET_SUPERVISOR_HH

#include <string>
#include <vector>

#include "fleet/fleet.hh"
#include "fleet/merge.hh"

namespace gpupm
{
namespace obs
{
class Tsdb;
} // namespace obs

namespace fleet
{

/** Retries per shard beyond its first attempt; past them the shard
 *  is quarantined. */
inline constexpr int kShardRetryBudget = 3;

/** Everything a fleet campaign produced and survived. */
struct FleetResult
{
    FleetScoreboard scoreboard;
    /** Per-shard results, ascending shard index. */
    std::vector<ShardResult> shards;

    long shard_retries = 0;
    int shards_quarantined = 0;
    int shards_resumed = 0;
    long watchdog_fires = 0;
    long chaos_kills = 0;
    long chaos_stalls = 0;
    /** Always 0: no shard moves between workers. Kept for readers
     *  of the field; nothing writes it. */
    long pool_steals = 0;

    /** Human-readable campaign + scoreboard summary. */
    std::string summary() const;

    /** Full JSON report (accuracy + failure + supervisor counters). */
    std::string toJson() const;
};

/**
 * The fleet's device instances: architectures round-robined in the
 * paper's device order, per-instance seeds derived from (fleet seed,
 * id), poison flags drawn from the chaos spec.
 */
std::vector<DeviceSpec> buildFleetSpecs(const FleetOptions &opts);

/** Contiguous near-even sharding of the device list. */
std::vector<ShardSpec> shardDevices(
        const std::vector<DeviceSpec> &devices, int shards);

/** Run a fleet campaign over buildFleetSpecs(opts). */
FleetResult runFleetCampaign(const FleetOptions &opts);

/**
 * Run a fleet campaign over an explicit device list (the chaos gate
 * re-runs exactly the surviving devices of a chaos run).
 */
FleetResult runFleetCampaign(const FleetOptions &opts,
                             const std::vector<DeviceSpec> &devices);

/** Publish gpupm_fleet_* metrics to Registry::global(). */
void publishFleetMetrics(const FleetResult &result);

/**
 * Publish per-architecture aggregate series into a time-series store
 * (`gpupm fleet --serve`): for each architecture, the per-device MAE
 * (`gpupm_fleet_device_mae_pct{arch=...}`) and the cumulative
 * sample-weighted marginal as devices accrue in id order
 * (`gpupm_fleet_arch_mae_pct{arch=...}`), plus the fleet-wide
 * cumulative MAE (`gpupm_fleet_mae_pct`). Device index stands in for
 * time (device i lands at t = (i+1) s), so the series are a pure
 * function of the merged scoreboard — queryable drift over the fleet,
 * deterministic across runs.
 */
void publishFleetSeries(const FleetResult &result, obs::Tsdb &tsdb);

} // namespace fleet
} // namespace gpupm

#endif // GPUPM_FLEET_SUPERVISOR_HH
