#include "chaos.hh"

#include "common/random.hh"

namespace gpupm
{
namespace fleet
{

namespace
{

/** Uniform [0,1) derived from a decision key. */
double
unit(std::uint64_t key)
{
    return static_cast<double>(mix64(key) >> 11) * 0x1.0p-53;
}

} // namespace

ChaosDecision
chaosForAttempt(const ChaosSpec &spec, int shard, int attempt)
{
    ChaosDecision d;
    if (attempt >= kMaxFaultyAttempts)
        return d;
    const std::uint64_t key =
            mix64(spec.seed ^ 0xc4a05u) ^
            (static_cast<std::uint64_t>(shard) << 20) ^
            static_cast<std::uint64_t>(attempt);
    // One draw decides both, mutually exclusively, so the combined
    // fault rate is simply kill + stall.
    const double roll = unit(key);
    d.kill = roll < spec.shard_kill_rate;
    d.stall = !d.kill &&
              roll < spec.shard_kill_rate + spec.shard_stall_rate;
    return d;
}

bool
chaosPoisonsDevice(const ChaosSpec &spec, long device_id)
{
    if (spec.poison_fraction <= 0.0)
        return false;
    const std::uint64_t key = mix64(spec.seed ^ 0xde7ec7u) ^
                              static_cast<std::uint64_t>(device_id);
    return unit(key) < spec.poison_fraction;
}

bool
chaosPoisonIsNan(const ChaosSpec &spec, long device_id)
{
    const std::uint64_t key = mix64(spec.seed ^ 0xf1a7u) ^
                              static_cast<std::uint64_t>(device_id);
    return (mix64(key) & 1u) == 0u;
}

} // namespace fleet
} // namespace gpupm
