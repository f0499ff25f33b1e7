/**
 * @file
 * Tests of the chaos harness: every injection decision is a pure
 * function of the spec seed and its coordinates, so a chaos run is
 * exactly reproducible and the chaos-gate test can predict which
 * devices the fault-free comparison run must exclude.
 */

#include <gtest/gtest.h>

#include "fleet/chaos.hh"

namespace
{

using namespace gpupm;

TEST(Chaos, DecisionsAreDeterministic)
{
    fleet::ChaosSpec spec;
    spec.seed = 99;
    spec.shard_kill_rate = 0.3;
    spec.shard_stall_rate = 0.3;
    for (int shard = 0; shard < 16; ++shard)
        for (int attempt = 0; attempt < 2; ++attempt) {
            const auto a =
                    fleet::chaosForAttempt(spec, shard, attempt);
            const auto b =
                    fleet::chaosForAttempt(spec, shard, attempt);
            EXPECT_EQ(a.kill, b.kill);
            EXPECT_EQ(a.stall, b.stall);
            // One roll decides both, mutually exclusively.
            EXPECT_FALSE(a.kill && a.stall);
        }
}

TEST(Chaos, ZeroRatesInjectNothing)
{
    fleet::ChaosSpec spec; // all rates default to zero
    for (int shard = 0; shard < 32; ++shard) {
        const auto d = fleet::chaosForAttempt(spec, shard, 0);
        EXPECT_FALSE(d.kill);
        EXPECT_FALSE(d.stall);
        EXPECT_FALSE(fleet::chaosPoisonsDevice(spec, shard));
    }
}

TEST(Chaos, MaxFaultyAttemptsGuaranteesACleanAttempt)
{
    EXPECT_EQ(fleet::kMaxFaultyAttempts, 2);
    fleet::ChaosSpec spec;
    spec.shard_kill_rate = 1.0;
    spec.shard_stall_rate = 1.0;
    for (int shard = 0; shard < 8; ++shard) {
        // Attempts before the cap are always faulty at rate 1.
        for (int attempt = 0; attempt < fleet::kMaxFaultyAttempts;
             ++attempt) {
            const auto d =
                    fleet::chaosForAttempt(spec, shard, attempt);
            EXPECT_TRUE(d.kill || d.stall);
        }
        // At and past the cap chaos backs off entirely.
        for (int attempt = fleet::kMaxFaultyAttempts;
             attempt < fleet::kMaxFaultyAttempts + 3; ++attempt) {
            const auto d =
                    fleet::chaosForAttempt(spec, shard, attempt);
            EXPECT_FALSE(d.kill);
            EXPECT_FALSE(d.stall);
        }
    }
}

TEST(Chaos, PoisonFractionIsRoughlyHonored)
{
    fleet::ChaosSpec spec;
    spec.seed = 7;
    spec.poison_fraction = 0.25;
    int poisoned = 0;
    for (long id = 0; id < 2000; ++id)
        if (fleet::chaosPoisonsDevice(spec, id))
            ++poisoned;
    // 2000 draws at p=0.25: a ±5 sigma band is [403, 597].
    EXPECT_GT(poisoned, 400);
    EXPECT_LT(poisoned, 600);

    spec.poison_fraction = 1.0;
    for (long id = 0; id < 64; ++id)
        EXPECT_TRUE(fleet::chaosPoisonsDevice(spec, id));
}

TEST(Chaos, PoisonFlavorIsDeterministicAndMixed)
{
    fleet::ChaosSpec spec;
    spec.seed = 5;
    int nan = 0, config = 0;
    for (long id = 0; id < 256; ++id) {
        const bool flavor = fleet::chaosPoisonIsNan(spec, id);
        EXPECT_EQ(flavor, fleet::chaosPoisonIsNan(spec, id));
        (flavor ? nan : config)++;
    }
    // Both poison flavors actually occur.
    EXPECT_GT(nan, 0);
    EXPECT_GT(config, 0);
}

} // namespace
