/**
 * @file
 * The per-shard / per-device work of a fleet campaign.
 *
 * One device instance runs the full single-GPU pipeline in miniature:
 * a strided microbenchmark campaign over a strided V-F configuration
 * subset on its jittered simulated board, a model fit through the
 * typed estimator, and a small validation audit scored exactly like
 * `gpupm audit`. Every failure is classified into DeviceFailKind —
 * a device never disappears from the fleet silently.
 *
 * Everything here is a pure function of the DeviceSpec:
 * no shared mutable state, and the wall clock is read only to compare
 * it with an attempt's deadline. That purity is what the chaos gate
 * leans on — a killed-and-retried shard reproduces its outcomes
 * bit-for-bit, so the merged fleet scoreboard of a chaos run equals
 * the fault-free run over the surviving devices.
 */

#ifndef GPUPM_FLEET_SHARD_HH
#define GPUPM_FLEET_SHARD_HH

#include <chrono>
#include <limits>
#include <vector>

#include "fleet/fleet.hh"
#include "gpu/device.hh"

namespace gpupm
{
namespace fleet
{

/**
 * A shard attempt's deadline, checked cooperatively where the shard
 * polls it (before each device), so a stalled attempt unwinds at the
 * next poll instead of being destroyed mid-write. A default token
 * has no deadline and is never cancelled.
 */
struct CancelToken
{
    std::chrono::steady_clock::time_point deadline =
            std::chrono::steady_clock::time_point::max();
};

/**
 * A token whose deadline is `deadline_s` seconds from now (negative
 * counts as now); infinite, NaN or past what the clock can hold means
 * no deadline.
 */
inline CancelToken
makeCancelToken(
        double deadline_s = std::numeric_limits<double>::infinity())
{
    using Clock = std::chrono::steady_clock;
    CancelToken token;
    // A nanosecond steady_clock overflows past ~292 years.
    if (deadline_s < 1e9)
        token.deadline =
                Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                                deadline_s < 0.0 ? 0.0 : deadline_s));
    return token;
}

/** True once the token's deadline has passed. */
inline bool
cancelled(const CancelToken &token)
{
    return std::chrono::steady_clock::now() >= token.deadline;
}

/*
 * The per-device mini campaign. The full paper campaign costs ~83
 * microbenchmarks x the whole V-F grid; at fleet scale each instance
 * trains on a strided suite subset over a strided configuration
 * subset, which is still identifiable (reference always kept, >= 2
 * memory clocks when the device has them). fleetFingerprint() hashes
 * every one of these, so changing one invalidates old checkpoints.
 */
inline constexpr int kPowerRepetitions = 2;
inline constexpr double kMinDurationS = 0.1; ///< minimum run, seconds
/** Every idle row plus every kSuiteStride-th other microbenchmark. */
inline constexpr int kSuiteStride = 7;
inline constexpr int kMaxConfigs = 6;
/** Held-out applications audited, each at kValidationConfigs. */
inline constexpr int kValidationApps = 2;
inline constexpr int kValidationConfigs = 3;
/** Per-instance ground-truth jitter fraction (sim/jitter). */
inline constexpr double kJitterFrac = 0.05;

/**
 * The strided V-F configuration subset a fleet device trains on:
 * the reference memory clock plus one other (when the device has
 * one), each with core clocks spread across the supported range,
 * reference configuration always included — small but still
 * identifiable by the bilinear estimator.
 */
std::vector<gpu::FreqConfig>
fleetConfigSubset(const gpu::DeviceDescriptor &desc);

/**
 * Run one device's mini campaign + fit + validation audit, shaped by
 * the constants above; no field of `opts` changes the outcome.
 * Cancellation is polled at entry; a cancelled device reports
 * DeviceFailKind::Cancelled without touching the board.
 */
DeviceOutcome runDevice(const DeviceSpec &spec,
                        const FleetOptions &opts,
                        const CancelToken &token);

/** One shard attempt's outcome. */
struct ShardAttemptResult
{
    /** True when the attempt's deadline passed mid-shard. */
    bool cancelled = false;
    std::vector<DeviceOutcome> outcomes;
};

/**
 * Run every device of a shard, polling the deadline between
 * devices. On cancellation the remaining devices are marked
 * Cancelled and the attempt is flagged; the supervisor discards a
 * cancelled attempt's outcomes and retries the whole shard.
 */
ShardAttemptResult runShardAttempt(const ShardSpec &shard,
                                   const FleetOptions &opts,
                                   const CancelToken &token);

} // namespace fleet
} // namespace gpupm

#endif // GPUPM_FLEET_SHARD_HH
