/**
 * @file
 * Torn-write checkpoint recovery: a v2 campaign checkpoint truncated
 * at every byte boundary must come back from the typed loader as a
 * clean error (or the full checkpoint when whole) — never an abort —
 * and a campaign resumed over a torn or valid checkpoint must end up
 * bit-identical to an uninterrupted run with every cell counted
 * exactly once.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "../resilient_test_util.hh"
#include "core/campaign.hh"
#include "core/model_io.hh"
#include "core/resilient.hh"
#include "ubench/suite.hh"

namespace
{

using namespace gpupm;
using testutil::checkpointPrefix;
using testutil::usable;

/** A deliberately tiny campaign: 3 benchmarks x 4 configurations. */
struct TinyCampaign
{
    sim::PhysicalGpu board{gpu::DeviceKind::GtxTitanX};
    std::vector<ubench::Microbenchmark> suite;
    model::ResilientCampaignOptions opts;

    TinyCampaign()
    {
        const auto full = ubench::buildSuite();
        suite = {full[0], full[1], full.back()};
        const auto &desc = board.descriptor();
        const gpu::FreqConfig ref = desc.referenceConfig();
        for (std::size_t i = 0; i < desc.core_freqs_mhz.size();
             i += desc.core_freqs_mhz.size() / 3 + 1)
            opts.base.config_subset.push_back(
                    {desc.core_freqs_mhz[i], ref.mem_mhz});
        opts.base.config_subset.push_back(ref);
        opts.base.power_repetitions = 2;
        opts.base.min_duration_s = 0.1;
    }

    /** A run on a fresh backend, checkpointing to `path`. */
    model::ResilientCampaignResult
    run(const std::string &path) const
    {
        model::ResilientCampaignOptions o = opts;
        o.checkpoint_path = path;
        model::SimulatedBackend backend(board, opts.base.seed);
        return model::runResilientTrainingCampaign(backend, suite, o);
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

TEST(CheckpointRecovery, TruncationAtEveryByteIsATypedError)
{
    TinyCampaign tc;
    const std::string dir =
            (std::filesystem::temp_directory_path() /
             "gpupm_ck_recovery_test")
                    .string();
    std::filesystem::create_directories(dir);
    ASSERT_TRUE(usable(tc.run(dir + "/whole.ck")));

    const std::string full = readFile(dir + "/whole.ck");
    ASSERT_GT(full.size(), 100u);

    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        auto torn = model::tryParse<model::CampaignCheckpoint>(
                full.substr(0, cut));
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
    // The whole file still loads.
    EXPECT_TRUE(model::tryParse<model::CampaignCheckpoint>(full).ok());
    std::filesystem::remove_all(dir);
}

TEST(CheckpointRecovery, ResumeNeverDoubleCountsCells)
{
    TinyCampaign tc;
    const std::string dir =
            (std::filesystem::temp_directory_path() /
             "gpupm_ck_resume_test")
                    .string();
    std::filesystem::create_directories(dir);

    // Reference: one uninterrupted run.
    const auto whole = tc.run(dir + "/whole.ck");
    ASSERT_TRUE(usable(whole));
    ASSERT_EQ(whole.report.cells_done, whole.report.cells_total);

    // Its checkpoint as a run stopped after 5 cells would have left
    // it, resumed on a fresh backend.
    const auto finished =
            model::tryLoad<model::CampaignCheckpoint>(dir + "/whole.ck");
    ASSERT_TRUE(finished.ok());
    ASSERT_TRUE(model::trySave(checkpointPrefix(finished.value(), 5),
                               dir + "/split.ck")
                        .ok());
    const auto resumed = tc.run(dir + "/split.ck");
    ASSERT_TRUE(usable(resumed));
    // Exactly-once accounting: the resumed cells are the first
    // run's, the rest were measured now, the sum is the grid.
    EXPECT_EQ(resumed.report.cells_resumed, 5);
    EXPECT_EQ(resumed.report.cells_done,
              resumed.report.cells_total);
    EXPECT_EQ(model::serialize(resumed.data),
              model::serialize(whole.data));
    std::filesystem::remove_all(dir);
}

TEST(CheckpointRecovery, TornCheckpointFallsBackToAFreshStart)
{
    TinyCampaign tc;
    const std::string dir =
            (std::filesystem::temp_directory_path() /
             "gpupm_ck_torn_test")
                    .string();
    std::filesystem::create_directories(dir);

    const auto whole = tc.run(dir + "/whole.ck");
    ASSERT_TRUE(usable(whole));

    // Leave a half-written checkpoint where the resume looks.
    {
        const std::string full = readFile(dir + "/whole.ck");
        std::ofstream out(dir + "/torn.ck", std::ios::binary);
        out.write(full.data(),
                  static_cast<std::streamsize>(full.size() / 2));
    }

    // The torn file is discarded (typed warning, fresh start) and
    // the campaign still converges to the uninterrupted result.
    const auto recovered = tc.run(dir + "/torn.ck");
    ASSERT_TRUE(usable(recovered));
    EXPECT_EQ(recovered.report.cells_resumed, 0);
    EXPECT_EQ(model::serialize(recovered.data),
              model::serialize(whole.data));
    std::filesystem::remove_all(dir);
}

} // namespace
