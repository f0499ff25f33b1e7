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

#include "core/campaign.hh"
#include "core/model_io.hh"
#include "core/resilient.hh"
#include "ubench/suite.hh"

namespace
{

using namespace gpupm;

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
        opts.checkpoint_every = 1;
    }
};

TEST(CheckpointRecovery, TruncationAtEveryByteIsATypedError)
{
    TinyCampaign tc;
    const std::string dir =
            (std::filesystem::temp_directory_path() /
             "gpupm_ck_recovery_test")
                    .string();
    std::filesystem::create_directories(dir);
    tc.opts.checkpoint_path = dir + "/partial.ck";
    tc.opts.max_cells = 5; // stop with the grid half-measured
    model::SimulatedBackend be0(tc.board, tc.opts.base.seed);
    const auto partial = model::runResilientTrainingCampaign(
            be0, tc.suite, tc.opts);
    ASSERT_FALSE(partial.complete);

    std::ifstream in(tc.opts.checkpoint_path, std::ios::binary);
    ASSERT_TRUE(in.good());
    const std::string full(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
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
    model::SimulatedBackend be_whole(tc.board, tc.opts.base.seed);
    const auto whole = model::runResilientTrainingCampaign(
            be_whole, tc.suite, tc.opts);
    ASSERT_TRUE(whole.complete);
    ASSERT_EQ(whole.report.cells_done, whole.report.cells_total);

    // Interrupted run + resume over the checkpoint.
    model::ResilientCampaignOptions split = tc.opts;
    split.checkpoint_path = dir + "/split.ck";
    split.max_cells = 5;
    model::SimulatedBackend be_first(tc.board, tc.opts.base.seed);
    const auto first = model::runResilientTrainingCampaign(
            be_first, tc.suite, split);
    ASSERT_FALSE(first.complete);
    EXPECT_EQ(first.report.cells_done, 5);

    split.max_cells = 0;
    model::SimulatedBackend be_resume(tc.board, tc.opts.base.seed);
    const auto resumed = model::runResilientTrainingCampaign(
            be_resume, tc.suite, split);
    ASSERT_TRUE(resumed.complete);
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

    model::SimulatedBackend be_ref(tc.board, tc.opts.base.seed);
    const auto whole = model::runResilientTrainingCampaign(
            be_ref, tc.suite, tc.opts);
    ASSERT_TRUE(whole.complete);

    // Leave a half-written checkpoint where the resume looks.
    model::ResilientCampaignOptions torn_opts = tc.opts;
    torn_opts.checkpoint_path = dir + "/torn.ck";
    {
        model::ResilientCampaignOptions probe = tc.opts;
        probe.checkpoint_path = dir + "/probe.ck";
        probe.max_cells = 5;
        model::SimulatedBackend be_probe(tc.board,
                                         tc.opts.base.seed);
        (void)model::runResilientTrainingCampaign(be_probe,
                                                  tc.suite, probe);
        std::ifstream in(probe.checkpoint_path, std::ios::binary);
        const std::string full(
                (std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
        std::ofstream out(torn_opts.checkpoint_path,
                          std::ios::binary);
        out.write(full.data(),
                  static_cast<std::streamsize>(full.size() / 2));
    }

    // The torn file is discarded (typed warning, fresh start) and
    // the campaign still converges to the uninterrupted result.
    model::SimulatedBackend be_rec(tc.board, tc.opts.base.seed);
    const auto recovered = model::runResilientTrainingCampaign(
            be_rec, tc.suite, torn_opts);
    ASSERT_TRUE(recovered.complete);
    EXPECT_EQ(recovered.report.cells_resumed, 0);
    EXPECT_EQ(model::serialize(recovered.data),
              model::serialize(whole.data));
    std::filesystem::remove_all(dir);
}

} // namespace
