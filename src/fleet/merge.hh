/**
 * @file
 * Deterministic merge of shard results into the fleet scoreboard.
 *
 * Shards finish in whatever order the plain workers and their
 * in-place retries produce; the merge sorts every device outcome by
 * fleet id before aggregating, so the merged scoreboard is a pure
 * function of the outcome *set* — the chaos gate compares the
 * accuracy JSON of a chaos-battered run bit-for-bit against a
 * fault-free run over the surviving devices.
 *
 * Aggregation reuses the single-GPU accuracy vocabulary: per-device
 * ScoreStats roll up into per-architecture marginals and an overall
 * row via obs::combineScoreStats (exact, sample-weighted), and
 * devices whose MAE is a robust (MAD) outlier among their peers are
 * flagged — the fleet-health signal that a board's model fit quietly
 * went bad even though nothing threw.
 */

#ifndef GPUPM_FLEET_MERGE_HH
#define GPUPM_FLEET_MERGE_HH

#include <string>
#include <vector>

#include "fleet/fleet.hh"

namespace gpupm
{
namespace fleet
{

/** One healthy device's row of the fleet scoreboard. */
struct DeviceScore
{
    long id = 0;
    gpu::DeviceKind kind = gpu::DeviceKind::GtxTitanX;
    obs::ScoreStats stats;
    double fit_rmse_w = 0.0;
    int fit_iterations = 0;
};

/** Accuracy marginal of one architecture (healthy devices). */
struct ArchAggregate
{
    std::string arch;
    long devices_ok = 0;
    obs::ScoreStats stats;
};

/** One failed device's accounting row. */
struct DeviceFailure
{
    long id = 0;
    gpu::DeviceKind kind = gpu::DeviceKind::GtxTitanX;
    DeviceFailKind fail = DeviceFailKind::None;
    std::string message;
};

/** The merged fleet-wide result. */
struct FleetScoreboard
{
    long devices_total = 0;
    long devices_ok = 0;
    long devices_failed = 0;

    /** Healthy devices, ascending id. */
    std::vector<DeviceScore> devices;
    /** Sample-weighted accuracy over every healthy device. */
    obs::ScoreStats overall;
    /** Architectures in the paper's order; only those present. */
    std::vector<ArchAggregate> per_arch;
    /** Ids of healthy devices whose MAE is a MAD outlier. */
    std::vector<long> outliers;

    /** Failed devices, ascending id (explicit accounting). */
    std::vector<DeviceFailure> failures;
    /** (failure kind name, count), nonzero kinds only. */
    std::vector<std::pair<std::string, long>> failures_by_kind;

    /**
     * JSON object. include_failures=false emits only the
     * accuracy-bearing fields (healthy devices, overall, marginals,
     * outliers) — the deterministic payload the chaos gate compares
     * bit-for-bit; true adds the failure accounting, which
     * legitimately differs between a chaos run and a clean one.
     */
    std::string toJson(bool include_failures) const;

    /** Human-readable fleet summary tables. */
    std::string summaryText() const;
};

/**
 * Merge shard results (any order, duplicates by shard index are a
 * programming error) into the fleet scoreboard.
 */
FleetScoreboard mergeShardResults(
        const std::vector<ShardResult> &shards);

} // namespace fleet
} // namespace gpupm

#endif // GPUPM_FLEET_MERGE_HH
