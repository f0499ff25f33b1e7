/**
 * @file
 * Tests of crash-safe shard persistence: round trip through the v2
 * fleetshard envelope, fingerprint rejection of stale checkpoints,
 * and the torn-write sweep — a checkpoint truncated at *every* byte
 * boundary must come back as a typed error (or, only when whole, the
 * original result), never abort.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "fleet/shard_io.hh"

namespace
{

using namespace gpupm;

fleet::FleetOptions
testOpts()
{
    fleet::FleetOptions opts;
    opts.devices = 4;
    opts.shards = 2;
    opts.seed = 1234;
    return opts;
}

fleet::ShardSpec
testShard(const fleet::FleetOptions &opts)
{
    fleet::ShardSpec shard;
    shard.index = 1;
    for (long id = 2; id < opts.devices; ++id) {
        fleet::DeviceSpec spec;
        spec.id = id;
        spec.kind = gpu::kAllDevices[static_cast<std::size_t>(id) %
                                     gpu::kAllDevices.size()];
        spec.seed = 1000u + static_cast<std::uint64_t>(id);
        shard.devices.push_back(spec);
    }
    return shard;
}

/** The checkpoint file of `result`, as the supervisor writes it. */
std::string
shardText(const fleet::ShardResult &result,
          const fleet::FleetOptions &opts, const fleet::ShardSpec &shard)
{
    return model::serialize(fleet::ShardCheckpoint{
            fleet::fleetFingerprint(opts, shard), result});
}

/** A shard result with one healthy and one failed device. */
fleet::ShardResult
testResult()
{
    fleet::ShardResult result;
    result.index = 1;
    result.attempts = 2;

    fleet::DeviceOutcome ok;
    ok.id = 2;
    ok.kind = gpu::kAllDevices[2 % gpu::kAllDevices.size()];
    ok.ok = true;
    ok.stats.samples = 6;
    ok.stats.mae_pct = 7.25;
    ok.stats.rmse_w = 11.5;
    ok.stats.max_err_pct = 19.75;
    ok.stats.mean_measured_w = 145.125;
    ok.fit_rmse_w = 3.5;
    ok.fit_iterations = 12;
    result.outcomes.push_back(ok);

    fleet::DeviceOutcome bad;
    bad.id = 3;
    bad.kind = gpu::kAllDevices[0];
    bad.ok = false;
    bad.fail = fleet::DeviceFailKind::CorruptData;
    bad.message = "campaign produced non-finite samples";
    result.outcomes.push_back(bad);
    return result;
}

TEST(ShardIo, RoundTripPreservesEveryField)
{
    const auto opts = testOpts();
    const auto shard = testShard(opts);
    const auto result = testResult();

    const std::string text = shardText(result, opts, shard);
    auto parsed = fleet::tryParseShardResult(text, opts, shard);
    ASSERT_TRUE(parsed.ok())
            << model::ioErrcName(parsed.error().code) << ": "
            << parsed.error().message;

    const fleet::ShardResult &rt = parsed.value();
    EXPECT_EQ(rt.index, result.index);
    EXPECT_EQ(rt.attempts, result.attempts);
    EXPECT_TRUE(rt.resumed); // loaded, not re-run
    ASSERT_EQ(rt.outcomes.size(), result.outcomes.size());
    for (std::size_t i = 0; i < rt.outcomes.size(); ++i) {
        fleet::DeviceOutcome expect = result.outcomes[i];
        EXPECT_EQ(rt.outcomes[i], expect)
                << "outcome " << i << " changed across the round "
                << "trip";
    }
}

TEST(ShardIo, FingerprintRejectsAForeignConfiguration)
{
    const auto opts = testOpts();
    const auto shard = testShard(opts);
    const std::string text = shardText(testResult(), opts, shard);

    // Another fleet seed invalidates the file.
    fleet::FleetOptions other = opts;
    other.seed = opts.seed + 1;
    auto stale = fleet::tryParseShardResult(text, other, shard);
    ASSERT_FALSE(stale.ok());
    EXPECT_EQ(stale.error().code, model::IoErrc::ValidationError);

    // A different device membership is a different shard.
    fleet::ShardSpec moved = shard;
    moved.devices[0].seed ^= 1;
    EXPECT_EQ(fleet::tryParseShardResult(text, opts, moved)
                      .error()
                      .code,
              model::IoErrc::ValidationError);
}

TEST(ShardIo, CorpusCheckpointStillVerifies)
{
    // tests/golden/artifacts/shard-1.ck holds testResult() as an
    // earlier build saved it under testOpts() and testShard(). It
    // still loads only while the fingerprint hashes the fleet seed
    // and the per-device campaign constants as that build did.
    const auto opts = testOpts();
    const auto shard = testShard(opts);
    const auto loaded = fleet::tryLoadShardResult(
            std::string(GPUPM_REPO_DIR) +
                    "/tests/golden/artifacts/shard-1.ck",
            opts, shard);
    ASSERT_TRUE(loaded.ok())
            << model::ioErrcName(loaded.error().code) << ": "
            << loaded.error().message;
    EXPECT_EQ(loaded.value().outcomes, testResult().outcomes);
}

TEST(ShardIo, TruncationAtEveryByteIsATypedError)
{
    const auto opts = testOpts();
    const auto shard = testShard(opts);
    const std::string full = shardText(testResult(), opts, shard);
    ASSERT_GT(full.size(), 100u);

    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        auto torn = fleet::tryParseShardResult(full.substr(0, cut),
                                               opts, shard);
        ASSERT_FALSE(torn.ok()) << "prefix of " << cut
                                << " bytes parsed as complete";
        const model::IoErrc code = torn.error().code;
        EXPECT_TRUE(code == model::IoErrc::ParseError ||
                    code == model::IoErrc::ChecksumMismatch ||
                    code == model::IoErrc::VersionMismatch ||
                    code == model::IoErrc::ValidationError)
                << "cut=" << cut << " gave "
                << model::ioErrcName(code);
    }
}

TEST(ShardIo, CorruptedPayloadByteIsDetected)
{
    const auto opts = testOpts();
    const auto shard = testShard(opts);
    std::string text = shardText(testResult(), opts, shard);
    text[text.size() / 2] ^= 0x20;
    auto corrupt = fleet::tryParseShardResult(text, opts, shard);
    ASSERT_FALSE(corrupt.ok());
    EXPECT_EQ(corrupt.error().code,
              model::IoErrc::ChecksumMismatch);
}

TEST(ShardIo, RejectsPayloadsAValidEnvelopeWouldCarry)
{
    // Each edit is re-wrapped in a valid envelope, so it gets past
    // the CRC32 to the payload reader, which must refuse it: a resumed
    // fleet merges whatever this reader lets through.
    const auto opts = testOpts();
    const auto shard = testShard(opts);
    const std::string text = shardText(testResult(), opts, shard);
    const std::string payload = text.substr(text.find('\n') + 1);
    struct Case
    {
        const char *what;
        std::string from, to;
        model::IoErrc want;
    };
    const Case cases[] = {
            {"nan statistic", " 7.25 ", " nan ",
             model::IoErrc::ParseError},
            {"negative sample count", "none 6 ", "none -6 ",
             model::IoErrc::ParseError},
            {"trailing token on a device line", " 12\n", " 12 99\n",
             model::IoErrc::ParseError},
            {"trailing line after the last device", "samples\n",
             "samples\nmessage again\n", model::IoErrc::ParseError},
            {"repeated device id", "device 3 ", "device 2 ",
             model::IoErrc::ValidationError},
            {"device id not in the shard", "device 3 ", "device 7 ",
             model::IoErrc::ValidationError},
            {"kind other than the spec's", "device 2 2 ", "device 2 1 ",
             model::IoErrc::ValidationError},
            {"ok device with a failure kind", " 1 none ",
             " 1 fit-failed ", model::IoErrc::ParseError},
    };
    for (const Case &c : cases) {
        std::string edited = payload;
        const std::size_t at = edited.find(c.from);
        ASSERT_NE(at, std::string::npos) << c.what;
        edited.replace(at, c.from.size(), c.to);
        const auto res = fleet::tryParseShardResult(
                model::wrapEnvelope(model::FileKind::FleetShard, edited),
                opts, shard);
        ASSERT_FALSE(res.ok()) << c.what << " was accepted";
        EXPECT_EQ(res.error().code, c.want)
                << c.what << ": " << res.error().message;
    }
}

TEST(ShardIo, SaveAndLoadThroughAFile)
{
    const auto opts = testOpts();
    const auto shard = testShard(opts);
    const auto result = testResult();
    const std::string dir =
            (std::filesystem::temp_directory_path() /
             "gpupm_shard_io_test")
                    .string();
    std::filesystem::create_directories(dir);
    const std::string path =
            fleet::shardCheckpointPath(dir, shard.index);

    const fleet::ShardCheckpoint ck{fleet::fleetFingerprint(opts, shard),
                                    result};
    ASSERT_TRUE(model::trySave(ck, path).ok());
    auto loaded = fleet::tryLoadShardResult(path, opts, shard);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().outcomes, result.outcomes);

    // A missing file is a typed IoError, not a crash.
    auto missing = fleet::tryLoadShardResult(dir + "/shard-99.ck",
                                             opts, shard);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code, model::IoErrc::IoError);
    std::filesystem::remove_all(dir);
}

} // namespace
