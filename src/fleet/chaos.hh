/**
 * @file
 * The fleet chaos harness: seeded failure injection one level above
 * core/faults. Where FaultInjectingBackend corrupts individual
 * measurement calls, ChaosSpec attacks the campaign *infrastructure*:
 * it kills shard attempts mid-checkpoint (leaving a torn file for the
 * retry to trip over), stalls attempts until their deadline passes,
 * and poisons whole device instances (a NaN sensor rail or a
 * reference configuration the board cannot hold).
 *
 * Every decision is a pure function of (spec seed, shard, attempt) or
 * (spec seed, device id) — no global RNG state — so a chaos run is
 * exactly reproducible and the chaos-gate test can predict which
 * devices the fault-free comparison run must exclude.
 */

#ifndef GPUPM_FLEET_CHAOS_HH
#define GPUPM_FLEET_CHAOS_HH

#include <cstdint>

namespace gpupm
{
namespace fleet
{

/**
 * Attempts of a shard that chaos may kill or stall; every later
 * attempt runs clean, so a retried shard eventually gets to run. It
 * is below the supervisor's retry budget (kShardRetryBudget), so
 * chaos alone never quarantines a shard.
 */
inline constexpr int kMaxFaultyAttempts = 2;

/** Chaos-injection knobs of a fleet campaign. */
struct ChaosSpec
{
    /** Seeds every chaos decision stream. */
    std::uint64_t seed = 2026;

    /**
     * Probability that a shard attempt is killed mid-checkpoint: the
     * shard's work completes, a torn (truncated) checkpoint is left
     * at the shard's path, and the attempt reports failure.
     */
    double shard_kill_rate = 0.0;

    /**
     * Probability that a shard attempt hangs until its deadline
     * passes (exercises deadline + retry).
     */
    double shard_stall_rate = 0.0;

    /** Fraction of device instances that are poisoned. */
    double poison_fraction = 0.0;
};

/** What chaos does to one (shard, attempt). */
struct ChaosDecision
{
    bool kill = false;  ///< die mid-checkpoint after the work
    bool stall = false; ///< hang until the deadline passes
};

/** Deterministic decision for one shard attempt (0-based). */
ChaosDecision chaosForAttempt(const ChaosSpec &spec, int shard,
                              int attempt);

/** True when chaos poisons this device instance. */
bool chaosPoisonsDevice(const ChaosSpec &spec, long device_id);

/**
 * Poison flavor for a poisoned device: true = NaN sensor rail (every
 * power read is non-finite), false = broken reference configuration
 * (the board rejects the clocks the campaign must normalize against).
 */
bool chaosPoisonIsNan(const ChaosSpec &spec, long device_id);

} // namespace fleet
} // namespace gpupm

#endif // GPUPM_FLEET_CHAOS_HH
