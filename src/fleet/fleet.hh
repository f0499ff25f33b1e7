/**
 * @file
 * Shared vocabulary of the fleet-campaign subsystem (ROADMAP item 5).
 *
 * The paper trains one model per physical GPU; a fleet campaign
 * scales that to N simulated device instances — three architectures
 * with seeded per-instance ground-truth jitter — split into shards
 * that plain worker threads take in turn, under a supervisor that
 * treats failure as the expected case: per-attempt deadlines with
 * cooperative cancellation, seeded retry/backoff per shard,
 * quarantine past the retry budget, and crash-safe per-shard
 * checkpoints merged deterministically into one fleet scoreboard. A
 * fleet never silently shrinks: every device that did not produce a
 * usable model appears in the report with a typed failure kind.
 */

#ifndef GPUPM_FLEET_FLEET_HH
#define GPUPM_FLEET_FLEET_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/chaos.hh"
#include "gpu/device.hh"
#include "obs/scoreboard.hh"

namespace gpupm
{
namespace fleet
{

/** One simulated device instance of the fleet. */
struct DeviceSpec
{
    long id = 0; ///< stable fleet-wide identifier
    gpu::DeviceKind kind = gpu::DeviceKind::GtxTitanX;
    /** Drives ground-truth jitter and all measurement noise. */
    std::uint64_t seed = 0;
    /** Chaos: every power read returns NaN. */
    bool poison_nan = false;
    /** Chaos: the reference configuration always fails. */
    bool poison_config = false;

    bool operator==(const DeviceSpec &) const = default;
};

/** Why a device has no usable model (the failure taxonomy). */
enum class DeviceFailKind
{
    None,             ///< device is healthy
    MeasureFailed,    ///< campaign threw (broken config, dead rail)
    CorruptData,      ///< campaign data contains non-finite values
    FitFailed,        ///< estimator returned a typed FitError
    ShardQuarantined, ///< its shard exhausted the retry budget
    Cancelled,        ///< the attempt's deadline passed mid-shard
};

/** Display name of a failure kind. */
std::string_view deviceFailKindName(DeviceFailKind kind);

/** Parse deviceFailKindName output; None on unknown input. */
DeviceFailKind deviceFailKindOf(std::string_view name);

/** Per-device result: a validation score or a typed failure. */
struct DeviceOutcome
{
    long id = -1;
    gpu::DeviceKind kind = gpu::DeviceKind::GtxTitanX;
    bool ok = false;
    DeviceFailKind fail = DeviceFailKind::None;
    /** One deterministic line of failure context ("" when ok). */
    std::string message;
    /** Validation accuracy of the fitted model (ok devices only). */
    obs::ScoreStats stats;
    double fit_rmse_w = 0.0;
    int fit_iterations = 0;

    bool operator==(const DeviceOutcome &) const = default;
};

/** The contiguous slice of the fleet one worker runs at a time. */
struct ShardSpec
{
    int index = 0;
    std::vector<DeviceSpec> devices;
};

/** One shard's merged-ready result. */
struct ShardResult
{
    int index = -1;
    int attempts = 1; ///< attempts consumed incl. the successful one
    bool resumed = false; ///< loaded from a checkpoint, not re-run
    std::vector<DeviceOutcome> outcomes;
};

/**
 * Knobs of a fleet campaign. The per-device campaign shape
 * (shard.hh) and the retry policy (supervisor.hh) are constants.
 */
struct FleetOptions
{
    long devices = 12;
    int shards = 4;
    /**
     * Worker threads, never more than one per shard; 0 =
     * min(shards, max(2, hardware_concurrency)).
     */
    int threads = 0;
    /** Base seed; per-device seeds derive from (seed, device id). */
    std::uint64_t seed = 42;

    /** Wall-clock deadline per shard attempt, seconds. */
    double watchdog_deadline_s = 120.0;

    /**
     * When non-empty: per-shard checkpoints (v2 "fleetshard"
     * envelope, write-to-temp + atomic rename) are written here and
     * matching ones resumed from, so an interrupted fleet campaign
     * re-runs only its unfinished shards.
     */
    std::string checkpoint_dir;

    ChaosSpec chaos;
};

} // namespace fleet
} // namespace gpupm

#endif // GPUPM_FLEET_FLEET_HH
