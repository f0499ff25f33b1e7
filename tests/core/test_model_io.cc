/**
 * @file
 * Tests of model / campaign persistence and off-grid voltage
 * interpolation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/campaign.hh"
#include "core/model_io.hh"
#include "core/resilient.hh"

namespace
{

using namespace gpupm;
using gpu::Component;
using gpu::componentIndex;

const model::TrainingData &
campaign()
{
    static const model::TrainingData data = [] {
        sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
        model::CampaignOptions o;
        o.power_repetitions = 2;
        return model::runTrainingCampaign(board, ubench::buildSuite(),
                                          o);
    }();
    return data;
}

std::string
tempPath(const char *name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

TEST(ModelIo, CampaignRoundTripsExactly)
{
    const auto &data = campaign();
    const auto res =
            model::tryParse<model::TrainingData>(model::serialize(data));
    ASSERT_TRUE(res.ok()) << res.error().message;
    const auto &parsed = res.value();
    EXPECT_EQ(parsed.device, data.device);
    EXPECT_EQ(parsed.reference, data.reference);
    ASSERT_EQ(parsed.configs.size(), data.configs.size());
    ASSERT_EQ(parsed.utils.size(), data.utils.size());
    for (std::size_t b = 0; b < data.utils.size(); ++b) {
        for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
            EXPECT_NEAR(parsed.utils[b][i], data.utils[b][i], 1e-9);
        for (std::size_t c = 0; c < data.configs.size(); ++c)
            EXPECT_NEAR(parsed.power_w[b][c], data.power_w[b][c],
                        1e-6);
    }
}

TEST(ModelIo, CampaignFileRoundTrip)
{
    const std::string path = tempPath("gpupm_test.campaign");
    ASSERT_TRUE(model::trySave(campaign(), path).ok());
    const auto loaded = model::tryLoad<model::TrainingData>(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_EQ(loaded.value().configs.size(), campaign().configs.size());
    std::remove(path.c_str());
}

TEST(ModelIo, ModelFileRoundTrip)
{
    const auto fit = model::ModelEstimator().estimate(campaign());
    const std::string path = tempPath("gpupm_test.model");
    ASSERT_TRUE(model::trySave(fit.model, path).ok());
    const auto res = model::tryLoad<model::DvfsPowerModel>(path);
    ASSERT_TRUE(res.ok()) << res.error().message;
    const auto &loaded = res.value();
    gpu::ComponentArray u{};
    u[componentIndex(Component::SP)] = 0.6;
    u[componentIndex(Component::Dram)] = 0.4;
    for (const auto &cfg :
         gpu::DeviceDescriptor::get(gpu::DeviceKind::GtxTitanX)
                 .allConfigs()) {
        EXPECT_NEAR(loaded.predict(u, cfg).total_w,
                    fit.model.predict(u, cfg).total_w, 1e-6);
    }
    std::remove(path.c_str());
}

TEST(ModelIo, MissingFilesAreFatal)
{
    // Fatal to the load, not to the process: typed errors.
    EXPECT_EQ(model::tryLoad<model::DvfsPowerModel>(
                      "/nonexistent/path.model")
                      .error()
                      .code,
              model::IoErrc::IoError);
    EXPECT_EQ(model::tryLoad<model::TrainingData>(
                      "/nonexistent/c.campaign")
                      .error()
                      .code,
              model::IoErrc::IoError);
    EXPECT_EQ(model::tryParse<model::TrainingData>("garbage")
                      .error()
                      .code,
              model::IoErrc::ParseError);
}

TEST(Interpolation, ExactOnGridPointsMatchesTable)
{
    const auto fit = model::ModelEstimator().estimate(campaign());
    for (const auto &[key, v] : fit.model.voltageTable()) {
        const auto iv = fit.model.voltagesInterpolated(
                {key.first, key.second});
        EXPECT_DOUBLE_EQ(iv.core, v.core);
        EXPECT_DOUBLE_EQ(iv.mem, v.mem);
    }
}

TEST(Interpolation, BetweenGridPointsIsBracketed)
{
    const auto fit = model::ModelEstimator().estimate(campaign());
    // Between the 937 and 975 MHz core levels at the reference
    // memory clock.
    const auto lo = fit.model.voltages({937, 3505});
    const auto hi = fit.model.voltages({975, 3505});
    const auto mid = fit.model.voltagesInterpolated({956, 3505});
    EXPECT_GE(mid.core, std::min(lo.core, hi.core) - 1e-12);
    EXPECT_LE(mid.core, std::max(lo.core, hi.core) + 1e-12);
}

TEST(Interpolation, ClampsBeyondTableEdges)
{
    const auto fit = model::ModelEstimator().estimate(campaign());
    const auto below = fit.model.voltagesInterpolated({100, 3505});
    EXPECT_DOUBLE_EQ(below.core,
                     fit.model.voltages({595, 3505}).core);
    const auto above = fit.model.voltagesInterpolated({3000, 3505});
    EXPECT_DOUBLE_EQ(above.core,
                     fit.model.voltages({1164, 3505}).core);
}

TEST(Interpolation, HeldOutConfigsPredictAccurately)
{
    // Train on the even-indexed core clocks only; predict the odd
    // ones through interpolation. The accuracy should degrade only
    // mildly versus the fully fitted model — the use case 4
    // "fine-grained V-F perturbations" scenario.
    const auto &full = campaign();
    model::TrainingData sparse;
    sparse.device = full.device;
    sparse.reference = full.reference;
    std::vector<std::size_t> kept;
    const auto &dev =
            gpu::DeviceDescriptor::get(gpu::DeviceKind::GtxTitanX);
    for (std::size_t ci = 0; ci < full.configs.size(); ++ci) {
        const auto &cfg = full.configs[ci];
        const auto it = std::find(dev.core_freqs_mhz.begin(),
                                  dev.core_freqs_mhz.end(),
                                  cfg.core_mhz);
        const auto idx = std::distance(dev.core_freqs_mhz.begin(), it);
        if (idx % 2 == 0 || cfg == full.reference) {
            sparse.configs.push_back(cfg);
            kept.push_back(ci);
        }
    }
    sparse.utils = full.utils;
    sparse.power_w.resize(full.utils.size());
    for (std::size_t b = 0; b < full.utils.size(); ++b)
        for (std::size_t ci : kept)
            sparse.power_w[b].push_back(full.power_w[b][ci]);

    const auto fit = model::ModelEstimator().estimate(sparse);

    // Evaluate the fit on the held-out configurations of the full
    // campaign via interpolated voltages.
    double err = 0.0;
    std::size_t n = 0;
    for (std::size_t b = 0; b < full.utils.size(); ++b) {
        for (std::size_t ci = 0; ci < full.configs.size(); ++ci) {
            const auto &cfg = full.configs[ci];
            if (fit.model.hasVoltages(cfg))
                continue; // not held out
            const double pred = fit.model
                                        .predictInterpolated(
                                                full.utils[b], cfg)
                                        .total_w;
            err += std::abs(pred - full.power_w[b][ci]) /
                   full.power_w[b][ci];
            ++n;
        }
    }
    ASSERT_GT(n, 0u);
    EXPECT_LT(100.0 * err / n, 10.0);
}

model::CampaignCheckpoint
sampleCheckpoint()
{
    model::CampaignCheckpoint ck;
    ck.seed = 42;
    ck.device = gpu::DeviceKind::GtxTitanX;
    ck.reference = {975, 3505};
    ck.configs = {{975, 3505}, {595, 810}};
    ck.benchmark_names = {"mb_a", "mb \"quoted\"\n"};
    ck.utils_done = {1, 0};
    ck.utils.assign(2, gpu::ComponentArray{});
    ck.utils[0][0] = 0.123456789012345678;
    ck.utils[0][1] = 1.0 / 3.0;
    ck.power_done = {{1, 0}, {0, 1}};
    ck.power_w = {{101.25, 0.0}, {0.0, 57.0 / 7.0}};
    ck.report.cells_total = 6;
    ck.report.cells_done = 3;
    ck.report.cells_failed = 1;
    ck.report.faults_injected = 9;
    ck.report.totals.retries = 4;
    ck.report.totals.backoff_total_s = 0.7071067811865476;
    ck.report.quarantined = {{595, 810}};
    ck.report.benchmarks.resize(2);
    ck.report.benchmarks[0].name = "mb_a";
    ck.report.benchmarks[0].retries = 3;
    ck.report.benchmarks[1].name = "mb \"quoted\"\n";
    ck.report.benchmarks[1].corrupt_samples = 2;
    return ck;
}

TEST(ModelIo, CampaignCheckpointRoundTripsExactly)
{
    const auto ck = sampleCheckpoint();
    const auto res =
            model::tryParse<model::CampaignCheckpoint>(model::serialize(ck));
    ASSERT_TRUE(res.ok()) << res.error().message;
    const auto &back = res.value();

    EXPECT_EQ(back.seed, ck.seed);
    EXPECT_EQ(back.device, ck.device);
    EXPECT_EQ(back.reference, ck.reference);
    EXPECT_EQ(back.configs, ck.configs);
    EXPECT_EQ(back.benchmark_names, ck.benchmark_names);
    EXPECT_EQ(back.utils_done, ck.utils_done);
    EXPECT_EQ(back.power_done, ck.power_done);
    // Doubles round-trip bit-exactly (precision-17 serialization).
    for (std::size_t b = 0; b < ck.utils.size(); ++b)
        for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
            EXPECT_DOUBLE_EQ(back.utils[b][i], ck.utils[b][i]);
    for (std::size_t b = 0; b < ck.power_w.size(); ++b)
        for (std::size_t c = 0; c < ck.power_w[b].size(); ++c)
            EXPECT_DOUBLE_EQ(back.power_w[b][c], ck.power_w[b][c]);
    EXPECT_EQ(back.report.cells_done, ck.report.cells_done);
    EXPECT_EQ(back.report.cells_failed, ck.report.cells_failed);
    EXPECT_EQ(back.report.faults_injected, ck.report.faults_injected);
    EXPECT_EQ(back.report.totals.retries, ck.report.totals.retries);
    EXPECT_DOUBLE_EQ(back.report.totals.backoff_total_s,
                     ck.report.totals.backoff_total_s);
    ASSERT_EQ(back.report.quarantined.size(), 1u);
    EXPECT_EQ(back.report.quarantined[0], ck.report.quarantined[0]);
    ASSERT_EQ(back.report.benchmarks.size(), 2u);
    EXPECT_EQ(back.report.benchmarks[1].name,
              ck.report.benchmarks[1].name);
    EXPECT_EQ(back.report.benchmarks[1].corrupt_samples, 2);
}

TEST(ModelIo, CheckpointSaveIsAtomicAndLoadable)
{
    const auto path =
            (std::filesystem::temp_directory_path() /
             "gpupm_test_checkpoint.json")
                    .string();
    const auto ck = sampleCheckpoint();
    ASSERT_TRUE(model::trySave(ck, path).ok());
    // No temporary file is left behind by the rename-into-place.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    const auto back = model::tryLoad<model::CampaignCheckpoint>(path);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(back.value().seed, ck.seed);
    EXPECT_EQ(back.value().configs, ck.configs);
    std::filesystem::remove(path);
}

TEST(ModelIo, CheckpointRejectsGarbage)
{
    EXPECT_EQ(model::tryParse<model::CampaignCheckpoint>("not json")
                      .error()
                      .code,
              model::IoErrc::ParseError);
    EXPECT_EQ(model::tryParse<model::CampaignCheckpoint>(
                      "{\"format\":\"something-else\"}")
                      .error()
                      .code,
              model::IoErrc::VersionMismatch);
}

// ---- v2 envelope, legacy compatibility and malformed-file corpus ----

/** A hand-built model (cheaper than fitting one per test). */
model::DvfsPowerModel
handModel()
{
    model::ModelParams p;
    p.beta0 = 52.0;
    p.beta1 = 10.5;
    p.beta2 = 15.0;
    p.beta3 = 7.25;
    for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
        p.omega[i] = 3.0 + static_cast<double>(i);
    model::DvfsPowerModel m(gpu::DeviceKind::GtxTitanX, {975, 3505},
                            p);
    m.setVoltages({975, 3505}, {1.0, 1.0});
    m.setVoltages({595, 3505}, {0.85, 1.0});
    return m;
}

/** Strip the envelope header line, leaving the legacy v0 payload. */
std::string
legacyOf(const std::string &enveloped)
{
    return enveloped.substr(enveloped.find('\n') + 1);
}

/** Corrupt the crc32 field of an envelope header in place. */
std::string
stompCrc(std::string text)
{
    const auto pos = text.find("crc32 ") + 6;
    text.replace(pos, 8, text.compare(pos, 8, "00000000") == 0
                                 ? "ffffffff"
                                 : "00000000");
    return text;
}

TEST(ModelIoV2, EnvelopeShapeAndKindDetection)
{
    const auto m = model::serialize(handModel());
    const auto c = model::serialize(campaign());
    const auto k = model::serialize(sampleCheckpoint());
    EXPECT_EQ(m.rfind("gpupm-file model v2 crc32 ", 0), 0u) << m;
    EXPECT_EQ(c.rfind("gpupm-file campaign v2 crc32 ", 0), 0u);
    EXPECT_EQ(k.rfind("gpupm-file checkpoint v2 crc32 ", 0), 0u);

    EXPECT_EQ(model::detectFileKind(m).value(),
              model::FileKind::Model);
    EXPECT_EQ(model::detectFileKind(c).value(),
              model::FileKind::Campaign);
    EXPECT_EQ(model::detectFileKind(k).value(),
              model::FileKind::Checkpoint);
    // Legacy forms are still recognized.
    EXPECT_EQ(model::detectFileKind(legacyOf(m)).value(),
              model::FileKind::Model);
    EXPECT_EQ(model::detectFileKind(legacyOf(c)).value(),
              model::FileKind::Campaign);
    EXPECT_EQ(model::detectFileKind(legacyOf(k)).value(),
              model::FileKind::Checkpoint);
    // Unrecognizable content is a typed error, not a crash.
    auto bad = model::detectFileKind("what even is this");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, model::IoErrc::ParseError);
    EXPECT_FALSE(model::detectFileKind("").ok());
}

TEST(ModelIoV2, TypedRoundTripsAllThreeFormats)
{
    const auto m0 = handModel();
    auto m = model::tryParse<model::DvfsPowerModel>(model::serialize(m0));
    ASSERT_TRUE(m.ok()) << m.error().message;
    EXPECT_DOUBLE_EQ(m.value().params().beta0, m0.params().beta0);
    EXPECT_EQ(m.value().voltageTable().size(),
              m0.voltageTable().size());

    auto c = model::tryParse<model::TrainingData>(
            model::serialize(campaign()));
    ASSERT_TRUE(c.ok()) << c.error().message;
    EXPECT_EQ(c.value().configs, campaign().configs);

    auto k = model::tryParse<model::CampaignCheckpoint>(
            model::serialize(sampleCheckpoint()));
    ASSERT_TRUE(k.ok()) << k.error().message;
    EXPECT_EQ(k.value().benchmark_names,
              sampleCheckpoint().benchmark_names);
}

TEST(ModelIoV2, LegacyFilesLoadByDefaultButNotUnderStrict)
{
    const model::LoadOptions strict{.allow_legacy = false,
                                    .validate = false};
    const auto lm = legacyOf(model::serialize(handModel()));
    const auto lc = legacyOf(model::serialize(campaign()));
    const auto lk = legacyOf(model::serialize(sampleCheckpoint()));

    EXPECT_TRUE(model::tryParse<model::DvfsPowerModel>(lm).ok());
    EXPECT_TRUE(model::tryParse<model::TrainingData>(lc).ok());
    EXPECT_TRUE(model::tryParse<model::CampaignCheckpoint>(lk).ok());

    for (const auto *legacy : {&lm, &lc, &lk}) {
        model::IoExpected<model::FileKind> kind =
                model::detectFileKind(*legacy);
        ASSERT_TRUE(kind.ok());
        model::IoStatus err = [&] {
            switch (kind.value()) {
              case model::FileKind::Model:
                return model::tryParse<model::DvfsPowerModel>(*legacy,
                                                              strict)
                        .error();
              case model::FileKind::Campaign:
                return model::tryParse<model::TrainingData>(*legacy,
                                                            strict)
                        .error();
              default:
                return model::tryParse<model::CampaignCheckpoint>(
                               *legacy, strict)
                        .error();
            }
        }();
        EXPECT_EQ(err.code, model::IoErrc::VersionMismatch)
                << err.message;
        EXPECT_NE(err.message.find("legacy"), std::string::npos);
    }
}

TEST(ModelIoV2, TruncationIsAParseError)
{
    const auto text = model::serialize(handModel());
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{5}, text.size() / 2,
          text.size() - 1}) {
        auto res = model::tryParse<model::DvfsPowerModel>(
                text.substr(0, keep));
        ASSERT_FALSE(res.ok()) << "kept " << keep << " bytes";
        EXPECT_EQ(res.error().code, model::IoErrc::ParseError)
                << res.error().message;
    }
}

TEST(ModelIoV2, PayloadBitFlipIsAChecksumMismatch)
{
    auto text = model::serialize(campaign());
    // Stomp a payload byte without changing the size.
    const auto pos = text.find('\n') + 10;
    ASSERT_LT(pos, text.size());
    text[pos] = text[pos] == 'x' ? 'y' : 'x';
    auto res = model::tryParse<model::TrainingData>(text);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, model::IoErrc::ChecksumMismatch)
            << res.error().message;
}

TEST(ModelIoV2, WrongVersionIsAVersionMismatch)
{
    auto text = model::serialize(handModel());
    text.replace(text.find(" v2 "), 4, " v9 ");
    auto res = model::tryParse<model::DvfsPowerModel>(text);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, model::IoErrc::VersionMismatch);
}

TEST(ModelIoV2, WrongChecksumFieldIsAChecksumMismatch)
{
    auto res = model::tryParse<model::CampaignCheckpoint>(stompCrc(
            model::serialize(sampleCheckpoint())));
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, model::IoErrc::ChecksumMismatch);
}

TEST(ModelIoV2, KindMismatchIsAParseError)
{
    auto res = model::tryParse<model::TrainingData>(
            model::serialize(handModel()));
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, model::IoErrc::ParseError);
    EXPECT_NE(res.error().message.find("expected a campaign"),
              std::string::npos)
            << res.error().message;
}

TEST(ModelIoV2, SmuggledNanIsAParseError)
{
    auto res = model::tryParse<model::DvfsPowerModel>(
            "gpupm-model v1\ndevice 0\nreference 975 3505\n"
            "beta nan 1 1 1\n");
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, model::IoErrc::ParseError);

    // JSON checkpoints cannot smuggle non-finite values either.
    auto ck = model::tryParse<model::CampaignCheckpoint>(
            "{\"format\":\"gpupm-checkpoint\",\"version\":1,"
            "\"seed\":nan}");
    ASSERT_FALSE(ck.ok());
    EXPECT_EQ(ck.error().code, model::IoErrc::ParseError);
}

TEST(ModelIoV2, HostileSizesAndDepthsAreParseErrors)
{
    // A fuzzed count field must not drive a giant allocation.
    auto big = model::tryParse<model::TrainingData>(
            "gpupm-campaign v1\ndevice 0\nreference 975 3505\n"
            "configs 999999999\n");
    ASSERT_FALSE(big.ok());
    EXPECT_EQ(big.error().code, model::IoErrc::ParseError);

    // Deep JSON nesting must not blow the stack.
    auto deep =
            model::tryParse<model::CampaignCheckpoint>(std::string(300, '['));
    ASSERT_FALSE(deep.ok());
    EXPECT_EQ(deep.error().code, model::IoErrc::ParseError);

    // Out-of-range literals surface as parse errors, not UB.
    auto huge = model::tryParse<model::DvfsPowerModel>(
            "gpupm-model v1\ndevice 0\nreference 975 3505\n"
            "beta 1e999 1 1 1\n");
    ASSERT_FALSE(huge.ok());
    EXPECT_EQ(huge.error().code, model::IoErrc::ParseError);
}

TEST(ModelIoV2, ValidateOnLoadRejectsImplausibleModels)
{
    auto bad = handModel();
    bad.params().beta1 = -5.0; // negative coefficient: unphysical
    const model::LoadOptions opts{.allow_legacy = true,
                                  .validate = true};
    auto res =
            model::tryParse<model::DvfsPowerModel>(model::serialize(bad),
                                                   opts);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, model::IoErrc::ValidationError);
    EXPECT_NE(res.error().message.find("coefficient-negative"),
              std::string::npos)
            << res.error().message;

    // The same artifact still parses when validation is off.
    EXPECT_TRUE(
            model::tryParse<model::DvfsPowerModel>(model::serialize(bad))
                    .ok());
}

TEST(ModelIoV2, MissingFileIsATypedIoError)
{
    auto res = model::tryLoad<model::DvfsPowerModel>(
            "/nonexistent/dir/x.model");
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, model::IoErrc::IoError);
    // The path appears in the message for diagnosability.
    EXPECT_NE(res.error().message.find("/nonexistent/dir/x.model"),
              std::string::npos);
}

TEST(ModelIoV2, TypedSaveAndLoadRoundTrip)
{
    const std::string path = tempPath("gpupm_test_typed.model");
    auto saved = model::trySave(handModel(), path);
    ASSERT_TRUE(saved.ok()) << saved.error().message;
    auto loaded = model::tryLoad<model::DvfsPowerModel>(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_DOUBLE_EQ(loaded.value().params().beta3,
                     handModel().params().beta3);
    std::remove(path.c_str());
}

} // namespace
