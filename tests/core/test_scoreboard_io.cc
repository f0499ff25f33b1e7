/**
 * @file
 * Scoreboard persistence tests: v2 envelope round-trips (with and
 * without raw residuals), legacy raw-JSON compatibility, malformed
 * input handling (truncation, checksum, version), and the
 * validate-on-load defense against hand-edited headline numbers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>

#include "core/model_io.hh"
#include "core/validate.hh"
#include "obs/scoreboard.hh"

namespace
{

using namespace gpupm;

obs::ResidualSample
sample(const std::string &app, int core, int mem, double meas,
       double pred)
{
    obs::ResidualSample s;
    s.app = app;
    s.cfg = {core, mem};
    s.measured_w = meas;
    s.predicted_w = pred;
    s.constant_w = 40.0;
    for (std::size_t i = 0; i < s.component_w.size(); ++i)
        s.component_w[i] = 0.25 * static_cast<double>(i + 1);
    s.baseline_w = {{"abe", meas * 1.1}, {"cubic", meas * 0.9}};
    return s;
}

obs::Scoreboard
handScoreboard()
{
    std::vector<obs::ResidualSample> v;
    for (int core : {600, 1000})
        for (int mem : {800, 3500}) {
            v.push_back(sample("stream", core, mem, 100.0, 107.0));
            v.push_back(sample("dgemm", core, mem, 180.0, 171.0));
        }
    return obs::Scoreboard::fromSamples(1, "GTX Titan X",
                                        {1000, 3500}, std::move(v));
}

std::string
tempPath(const char *name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

TEST(ScoreboardIo, V2RoundTripWithSamples)
{
    const auto sb = handScoreboard();
    const auto text = model::serializeScoreboard(sb, true);
    EXPECT_EQ(text.rfind("gpupm-file scoreboard v2 crc32 ", 0), 0u)
            << text.substr(0, 60);
    auto back = model::tryParseScoreboard(text);
    ASSERT_TRUE(back.ok()) << back.error().message;
    const auto &b = back.value();
    EXPECT_EQ(b.device, sb.device);
    EXPECT_EQ(b.device_name, sb.device_name);
    EXPECT_EQ(b.reference, sb.reference);
    EXPECT_EQ(b.overall.samples, sb.overall.samples);
    EXPECT_DOUBLE_EQ(b.overall.mae_pct, sb.overall.mae_pct);
    EXPECT_DOUBLE_EQ(b.overall.rmse_w, sb.overall.rmse_w);
    ASSERT_EQ(b.per_app.size(), sb.per_app.size());
    EXPECT_EQ(b.per_app[0].app, sb.per_app[0].app);
    EXPECT_EQ(b.per_config.size(), sb.per_config.size());
    EXPECT_EQ(b.core_marginal.size(), sb.core_marginal.size());
    EXPECT_EQ(b.mem_marginal.size(), sb.mem_marginal.size());
    ASSERT_EQ(b.baselines.size(), sb.baselines.size());
    EXPECT_EQ(b.baselines[0].name, sb.baselines[0].name);
    EXPECT_DOUBLE_EQ(b.baselines[0].mae_pct, sb.baselines[0].mae_pct);
    ASSERT_EQ(b.samples.size(), sb.samples.size());
    EXPECT_EQ(b.samples[0].app, sb.samples[0].app);
    EXPECT_DOUBLE_EQ(b.samples[0].measured_w,
                     sb.samples[0].measured_w);
    ASSERT_EQ(b.samples[0].baseline_w.size(), 2u);
    EXPECT_EQ(b.samples[0].baseline_w[0].first, "abe");
}

TEST(ScoreboardIo, SummaryOnlyFormDropsResidualsKeepsAggregates)
{
    const auto sb = handScoreboard();
    auto back = model::tryParseScoreboard(
            model::serializeScoreboard(sb, false));
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_TRUE(back.value().samples.empty());
    EXPECT_EQ(back.value().overall.samples, sb.overall.samples);
    EXPECT_DOUBLE_EQ(back.value().overall.mae_pct,
                     sb.overall.mae_pct);
    ASSERT_EQ(back.value().per_app.size(), sb.per_app.size());
    ASSERT_EQ(back.value().baselines.size(), sb.baselines.size());
}

TEST(ScoreboardIo, KindDetectionCoversEnvelopeAndRawJson)
{
    const auto sb = handScoreboard();
    auto enveloped =
            model::detectFileKind(model::serializeScoreboard(sb));
    ASSERT_TRUE(enveloped.ok());
    EXPECT_EQ(enveloped.value(), model::FileKind::Scoreboard);
    // The raw JSON payload (what `gpupm audit --json` prints and the
    // goldens store) is recognized without the envelope.
    auto raw = model::detectFileKind(sb.toJson(false));
    ASSERT_TRUE(raw.ok());
    EXPECT_EQ(raw.value(), model::FileKind::Scoreboard);
}

TEST(ScoreboardIo, LegacyRawJsonLoadsByDefaultButNotUnderStrict)
{
    const auto sb = handScoreboard();
    const auto raw = sb.toJson(true);
    auto back = model::tryParseScoreboard(raw);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(back.value().overall.samples, sb.overall.samples);

    const model::LoadOptions strict{.allow_legacy = false,
                                    .validate = false};
    auto rejected = model::tryParseScoreboard(raw, strict);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.error().code, model::IoErrc::VersionMismatch);
}

TEST(ScoreboardIo, TruncationIsAParseError)
{
    const auto text =
            model::serializeScoreboard(handScoreboard(), true);
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{5}, text.size() / 2,
          text.size() - 1}) {
        auto res = model::tryParseScoreboard(text.substr(0, keep));
        ASSERT_FALSE(res.ok()) << "kept " << keep << " bytes";
        EXPECT_EQ(res.error().code, model::IoErrc::ParseError)
                << res.error().message;
    }
}

TEST(ScoreboardIo, PayloadBitFlipIsAChecksumMismatch)
{
    auto text = model::serializeScoreboard(handScoreboard(), true);
    const auto pos = text.find("mae_pct") + 2;
    ASSERT_LT(pos, text.size());
    text[pos] = text[pos] == 'x' ? 'y' : 'x';
    auto res = model::tryParseScoreboard(text);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, model::IoErrc::ChecksumMismatch)
            << res.error().message;
}

TEST(ScoreboardIo, WrongVersionIsAVersionMismatch)
{
    auto text = model::serializeScoreboard(handScoreboard());
    text.replace(text.find(" v2 "), 4, " v9 ");
    auto res = model::tryParseScoreboard(text);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, model::IoErrc::VersionMismatch);
}

TEST(ScoreboardIo, PayloadErrorsNameTheirArtifact)
{
    // A scoreboard without its provenance block.
    std::string raw = handScoreboard().toJson(false);
    const auto from = raw.find(",\n\"provenance\":");
    const auto to = raw.find(",\n\"device\":");
    ASSERT_NE(from, std::string::npos);
    ASSERT_NE(to, std::string::npos);
    raw.erase(from, to - from);
    auto sb = model::tryParseScoreboard(raw);
    ASSERT_FALSE(sb.ok());
    EXPECT_EQ(sb.error().code, model::IoErrc::ParseError);
    EXPECT_EQ(sb.error().message,
              "scoreboard: missing field 'provenance'");

    // The same defect in a checkpoint names the checkpoint.
    auto ck = model::tryParseCampaignCheckpoint(
            "{\"format\":\"gpupm-checkpoint\",\"version\":1}");
    ASSERT_FALSE(ck.ok());
    EXPECT_EQ(ck.error().code, model::IoErrc::ParseError);
    EXPECT_EQ(ck.error().message, "checkpoint: missing field 'seed'");
}

TEST(ScoreboardIo, GarbageIsATypedParseError)
{
    auto res = model::tryParseScoreboard("not a scoreboard");
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, model::IoErrc::ParseError);
    auto empty = model::tryParseScoreboard("");
    ASSERT_FALSE(empty.ok());
}

TEST(ScoreboardIo, TamperedHeadlineMaeFailsValidateOnLoad)
{
    auto sb = handScoreboard();
    sb.overall.mae_pct += 3.0; // hand-edited headline number
    const auto report = model::validateScoreboard(sb);
    EXPECT_FALSE(report.ok());

    const auto text = model::serializeScoreboard(sb, true);
    // Parses fine when validation is off...
    EXPECT_TRUE(model::tryParseScoreboard(text).ok());
    // ...but a --validate load rejects it.
    const model::LoadOptions checked{.allow_legacy = true,
                                     .validate = true};
    auto res = model::tryParseScoreboard(text, checked);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, model::IoErrc::ValidationError);
    EXPECT_NE(res.error().message.find("summary-samples-inconsistent"),
              std::string::npos)
            << res.error().message;
}

TEST(ScoreboardIo, ValidateFlagsNonFiniteAndNegativeStats)
{
    auto sb = handScoreboard();
    sb.per_app[0].stats.rmse_w = -1.0;
    EXPECT_FALSE(model::validateScoreboard(sb).ok());
    auto sb2 = handScoreboard();
    sb2.overall.mae_pct = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(model::validateScoreboard(sb2).ok());
    // The untampered scoreboard validates cleanly.
    EXPECT_TRUE(model::validateScoreboard(handScoreboard()).ok());
}

TEST(ScoreboardIo, FileRoundTripViaTypedSaveAndLoad)
{
    const std::string path = tempPath("gpupm_test.scoreboard");
    const auto sb = handScoreboard();
    auto saved = model::trySaveScoreboard(sb, path);
    ASSERT_TRUE(saved.ok()) << saved.error().message;
    auto loaded = model::tryLoadScoreboard(
            path, {.allow_legacy = true, .validate = true});
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_DOUBLE_EQ(loaded.value().overall.mae_pct,
                     sb.overall.mae_pct);
    std::remove(path.c_str());

    auto missing = model::tryLoadScoreboard("/nonexistent/x.sb");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code, model::IoErrc::IoError);
}

} // namespace
