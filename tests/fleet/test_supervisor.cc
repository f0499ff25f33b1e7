/**
 * @file
 * Tests of the fleet supervisor: clean runs, sharding, deadline +
 * retry recovery from stalled attempts, quarantine past the retry
 * budget with explicit accounting, checkpoint resume, and a thread
 * count that never changes accuracy.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <set>
#include <string>
#include <thread>

#include "fleet/chaos.hh"
#include "fleet/shard.hh"
#include "fleet/supervisor.hh"
#include "obs/metrics.hh"

namespace
{

using namespace gpupm;

/** Small-but-real fleet options sized for a unit test. */
fleet::FleetOptions
fastOpts()
{
    fleet::FleetOptions opts;
    opts.devices = 6;
    opts.shards = 3;
    opts.threads = 3;
    opts.seed = 42;
    return opts;
}

class FleetSupervisorTest : public ::testing::Test
{
  protected:
    void SetUp() override { obs::Registry::global().reset(); }
    void TearDown() override { obs::Registry::global().reset(); }
};

TEST_F(FleetSupervisorTest, ShardingIsContiguousAndNearEven)
{
    fleet::FleetOptions opts;
    opts.devices = 7;
    const auto specs = fleet::buildFleetSpecs(opts);
    ASSERT_EQ(specs.size(), 7u);
    const auto shards = fleet::shardDevices(specs, 3);
    ASSERT_EQ(shards.size(), 3u);
    EXPECT_EQ(shards[0].devices.size(), 3u);
    EXPECT_EQ(shards[1].devices.size(), 2u);
    EXPECT_EQ(shards[2].devices.size(), 2u);
    long next = 0;
    for (const auto &shard : shards)
        for (const auto &spec : shard.devices)
            EXPECT_EQ(spec.id, next++);
    // More shards than devices collapses to one device per shard.
    EXPECT_EQ(fleet::shardDevices(specs, 100).size(), 7u);
}

TEST_F(FleetSupervisorTest, SpecsRotateArchitecturesWithUniqueSeeds)
{
    fleet::FleetOptions opts;
    opts.devices = 9;
    const auto specs = fleet::buildFleetSpecs(opts);
    std::set<std::uint64_t> seeds;
    for (long id = 0; id < 9; ++id) {
        EXPECT_EQ(specs[static_cast<std::size_t>(id)].kind,
                  gpu::kAllDevices[static_cast<std::size_t>(id) %
                                   gpu::kAllDevices.size()]);
        seeds.insert(specs[static_cast<std::size_t>(id)].seed);
    }
    EXPECT_EQ(seeds.size(), 9u); // per-instance jitter differs
}

TEST_F(FleetSupervisorTest, CleanFleetTrainsEveryDevice)
{
    const auto result = fleet::runFleetCampaign(fastOpts());
    EXPECT_EQ(result.scoreboard.devices_total, 6);
    EXPECT_EQ(result.scoreboard.devices_ok, 6);
    EXPECT_EQ(result.scoreboard.devices_failed, 0);
    ASSERT_EQ(result.scoreboard.per_arch.size(), 3u);
    for (const auto &agg : result.scoreboard.per_arch) {
        EXPECT_EQ(agg.devices_ok, 2);
        EXPECT_GT(agg.stats.samples, 0);
        EXPECT_GT(agg.stats.mae_pct, 0.0);
        EXPECT_LT(agg.stats.mae_pct, 50.0);
    }
    EXPECT_EQ(result.shard_retries, 0);
    EXPECT_EQ(result.shards_quarantined, 0);
    EXPECT_EQ(result.chaos_kills, 0);
    EXPECT_EQ(result.watchdog_fires, 0);

    // The report JSON carries the supervisor counters.
    const std::string json = result.toJson();
    EXPECT_NE(json.find("\"schema\":\"gpupm_fleet_report_v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"shards_quarantined\":0"),
              std::string::npos);
}

TEST_F(FleetSupervisorTest, StalledShardsRecoverThroughRetry)
{
    fleet::FleetOptions opts = fastOpts();
    opts.devices = 3;
    opts.shards = 3;
    opts.watchdog_deadline_s = 0.25;
    opts.chaos.shard_stall_rate = 1.0;
    const auto result = fleet::runFleetCampaign(opts);

    // Every shard stalled on each of its kMaxFaultyAttempts (2)
    // attempts, was cancelled by the watchdog and retried, and then
    // completed: full accuracy, no quarantine.
    static_assert(fleet::kMaxFaultyAttempts == 2);
    EXPECT_EQ(result.scoreboard.devices_ok, 3);
    EXPECT_EQ(result.chaos_stalls, 6);
    EXPECT_GE(result.watchdog_fires, 6);
    EXPECT_GE(result.shard_retries, 6);
    EXPECT_EQ(result.shards_quarantined, 0);
    for (const auto &shard : result.shards)
        EXPECT_GE(shard.attempts, 3); // two stalls, then a clean one
}

TEST_F(FleetSupervisorTest, QuarantineKeepsExplicitAccounting)
{
    fleet::FleetOptions opts = fastOpts();
    opts.devices = 4;
    opts.shards = 2;
    // A deadline that has passed when each attempt starts: every
    // attempt is cancelled, so each shard spends its retry budget.
    opts.watchdog_deadline_s = 0.0;
    const auto result = fleet::runFleetCampaign(opts);

    EXPECT_EQ(result.shards_quarantined, 2);
    EXPECT_EQ(result.shard_retries, 2 * fleet::kShardRetryBudget);
    ASSERT_EQ(result.shards.size(), 2u);
    for (const auto &shard : result.shards)
        EXPECT_EQ(shard.attempts, fleet::kShardRetryBudget + 1);
    EXPECT_EQ(result.scoreboard.devices_ok, 0);
    EXPECT_EQ(result.scoreboard.devices_failed, 4);
    ASSERT_EQ(result.scoreboard.failures.size(), 4u);
    for (const auto &failure : result.scoreboard.failures) {
        EXPECT_EQ(failure.fail,
                  fleet::DeviceFailKind::ShardQuarantined);
        EXPECT_NE(failure.message.find("retry budget exhausted"),
                  std::string::npos);
    }
    ASSERT_EQ(result.scoreboard.failures_by_kind.size(), 1u);
    EXPECT_EQ(result.scoreboard.failures_by_kind[0].first,
              "shard-quarantined");
    EXPECT_EQ(result.scoreboard.failures_by_kind[0].second, 4);

    // Degradation is loud in both renderings.
    EXPECT_NE(result.summary().find("shard-quarantined=4"),
              std::string::npos);
    EXPECT_NE(result.scoreboard.toJson(true).find(
                      "\"devices_failed\":4"),
              std::string::npos);
}

TEST_F(FleetSupervisorTest, CheckpointedFleetResumesWithoutRerun)
{
    const std::string dir =
            (std::filesystem::temp_directory_path() /
             "gpupm_fleet_resume_test")
                    .string();
    std::filesystem::remove_all(dir);

    fleet::FleetOptions opts = fastOpts();
    opts.checkpoint_dir = dir;
    const auto first = fleet::runFleetCampaign(opts);
    EXPECT_EQ(first.shards_resumed, 0);
    EXPECT_EQ(first.scoreboard.devices_ok, 6);

    const auto second = fleet::runFleetCampaign(opts);
    EXPECT_EQ(second.shards_resumed, 3);
    for (const auto &shard : second.shards)
        EXPECT_TRUE(shard.resumed);
    EXPECT_EQ(second.scoreboard.toJson(true),
              first.scoreboard.toJson(true));

    // A reconfigured fleet must not resume stale checkpoints.
    fleet::FleetOptions reseeded = opts;
    reseeded.seed = opts.seed + 1;
    const auto third = fleet::runFleetCampaign(reseeded);
    EXPECT_EQ(third.shards_resumed, 0);
    EXPECT_EQ(third.scoreboard.devices_ok, 6);
    std::filesystem::remove_all(dir);
}

TEST_F(FleetSupervisorTest, ThreadCountNeverChangesAccuracy)
{
    fleet::FleetOptions opts = fastOpts();
    opts.shards = 6; // one device per shard: up to 6 workers
    opts.threads = 1;
    const std::string serial =
            fleet::runFleetCampaign(opts).scoreboard.toJson(false);
    for (int threads : {2, 4, 8}) {
        opts.threads = threads;
        const auto result = fleet::runFleetCampaign(opts);
        EXPECT_EQ(result.scoreboard.devices_ok, 6);
        // Scheduling changes completion order, never accuracy.
        EXPECT_EQ(result.scoreboard.toJson(false), serial)
                << threads << " threads";
    }
}

TEST(CancelToken, CancelledOnlyPastItsDeadline)
{
    using Clock = std::chrono::steady_clock;
    fleet::CancelToken past;
    past.deadline = Clock::now() - std::chrono::milliseconds(1);
    EXPECT_TRUE(fleet::cancelled(past));
    EXPECT_TRUE(fleet::cancelled(fleet::makeCancelToken(0.0)));
    EXPECT_TRUE(fleet::cancelled(fleet::makeCancelToken(-5.0)));

    const fleet::CancelToken soon = fleet::makeCancelToken(3600.0);
    EXPECT_FALSE(fleet::cancelled(soon));
    const fleet::CancelToken brief = fleet::makeCancelToken(0.02);
    EXPECT_FALSE(fleet::cancelled(brief));
    std::this_thread::sleep_until(brief.deadline);
    EXPECT_TRUE(fleet::cancelled(brief));

    // No deadline: default-constructed, the default argument, and
    // values the clock cannot hold.
    EXPECT_FALSE(fleet::cancelled(fleet::CancelToken{}));
    EXPECT_FALSE(fleet::cancelled(fleet::makeCancelToken()));
    EXPECT_FALSE(fleet::cancelled(fleet::makeCancelToken(1e300)));
    EXPECT_FALSE(fleet::cancelled(
            fleet::makeCancelToken(std::nan(""))));
}

} // namespace
