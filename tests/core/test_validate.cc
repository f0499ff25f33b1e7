/**
 * @file
 * Tests of the physical-plausibility validation subsystem: campaign,
 * model and checkpoint checks, severity policy, and report output.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/json.hh"
#include "core/resilient.hh"
#include "core/validate.hh"

namespace
{

using namespace gpupm;

bool
hasIssue(const model::ValidationReport &r, const std::string &code)
{
    return std::any_of(r.issues.begin(), r.issues.end(),
                       [&](const model::ValidationIssue &i) {
                           return i.code == code;
                       });
}

/** A small, healthy campaign: idle row, axis-aligned grid. */
model::TrainingData
goodCampaign()
{
    model::TrainingData data;
    data.device = gpu::DeviceKind::GtxTitanX;
    data.reference = {975, 3505};
    data.configs = {{975, 3505}, {595, 3505}, {975, 810},
                    {595, 810}};
    data.utils.push_back(gpu::ComponentArray{}); // idle
    for (int b = 1; b < 3; ++b) {
        gpu::ComponentArray u{};
        for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
            u[i] = 0.1 * static_cast<double>(b + i);
        data.utils.push_back(u);
    }
    for (std::size_t b = 0; b < data.utils.size(); ++b) {
        std::vector<double> row;
        // Power rises with core clock within each memory clock.
        row.push_back(120.0 + 10.0 * b); // (975, 3505)
        row.push_back(90.0 + 10.0 * b);  // (595, 3505)
        row.push_back(100.0 + 10.0 * b); // (975, 810)
        row.push_back(70.0 + 10.0 * b);  // (595, 810)
        data.power_w.push_back(row);
    }
    return data;
}

/** A small, healthy model: monotone voltages, reference at (1, 1). */
model::DvfsPowerModel
goodModel()
{
    model::ModelParams p;
    p.beta0 = 40.0;
    p.beta1 = 12.0;
    p.beta2 = 11.0;
    p.beta3 = 8.0;
    for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
        p.omega[i] = 5.0 + static_cast<double>(i);
    model::DvfsPowerModel m(gpu::DeviceKind::GtxTitanX, {975, 3505},
                            p);
    m.setVoltages({975, 3505}, {1.0, 1.0});
    m.setVoltages({595, 3505}, {0.86, 1.0});
    m.setVoltages({975, 810}, {1.0, 0.95});
    m.setVoltages({595, 810}, {0.86, 0.95});
    return m;
}

TEST(ValidateCampaign, HealthyCampaignPasses)
{
    const auto r = model::validateTrainingData(goodCampaign());
    EXPECT_TRUE(r.ok()) << r.summary();
    EXPECT_EQ(r.errorCount(), 0u);
    EXPECT_EQ(r.subject, "campaign");
}

TEST(ValidateCampaign, UtilizationOutOfRangeIsAnError)
{
    auto data = goodCampaign();
    data.utils[1][2] = 1.7;
    const auto r = model::validateTrainingData(data);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasIssue(r, "util-out-of-range")) << r.summary();

    data = goodCampaign();
    data.utils[1][0] = -0.2;
    EXPECT_TRUE(hasIssue(model::validateTrainingData(data),
                         "util-out-of-range"));
}

TEST(ValidateCampaign, NonFiniteValuesAreErrors)
{
    auto data = goodCampaign();
    data.utils[2][1] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(hasIssue(model::validateTrainingData(data),
                         "util-not-finite"));

    data = goodCampaign();
    data.power_w[1][0] = std::numeric_limits<double>::infinity();
    EXPECT_TRUE(hasIssue(model::validateTrainingData(data),
                         "power-not-finite"));
}

TEST(ValidateCampaign, NegativePowerIsAnError)
{
    auto data = goodCampaign();
    data.power_w[0][1] = -4.0;
    const auto r = model::validateTrainingData(data);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasIssue(r, "power-negative"));
}

TEST(ValidateCampaign, MissingReferenceIsAnError)
{
    auto data = goodCampaign();
    data.reference = {1164, 3505};
    EXPECT_TRUE(hasIssue(model::validateTrainingData(data),
                         "reference-missing"));
}

TEST(ValidateCampaign, DuplicateConfigIsAnError)
{
    auto data = goodCampaign();
    data.configs[2] = data.configs[1];
    EXPECT_TRUE(hasIssue(model::validateTrainingData(data),
                         "config-duplicate"));
}

TEST(ValidateCampaign, UnderidentifiedGridIsAnError)
{
    // Both non-reference configs perturb both domains at once: the
    // Eq. 11 initialization has no axis-aligned handle.
    auto data = goodCampaign();
    data.configs = {{975, 3505}, {595, 810}, {700, 2000}};
    for (auto &row : data.power_w)
        row.resize(3);
    const auto r = model::validateTrainingData(data);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasIssue(r, "grid-underidentified")) << r.summary();
}

TEST(ValidateCampaign, RowSizeMismatchIsAnError)
{
    auto data = goodCampaign();
    data.power_w[1].pop_back();
    EXPECT_TRUE(hasIssue(model::validateTrainingData(data),
                         "row-size-mismatch"));
}

TEST(ValidateCampaign, MissingIdleRowIsOnlyAWarning)
{
    auto data = goodCampaign();
    data.utils.erase(data.utils.begin());
    data.power_w.erase(data.power_w.begin());
    const auto r = model::validateTrainingData(data);
    EXPECT_TRUE(r.ok()) << r.summary(); // warnings don't fail
    EXPECT_TRUE(hasIssue(r, "no-idle-row"));
    EXPECT_GE(r.warningCount(), 1u);
}

TEST(ValidateModel, HealthyModelPasses)
{
    const auto r = model::validateModel(goodModel());
    EXPECT_TRUE(r.ok()) << r.summary();
    EXPECT_EQ(r.subject, "model");
}

TEST(ValidateModel, NegativeCoefficientIsAnError)
{
    auto m = goodModel();
    m.params().beta1 = -3.0;
    const auto r = model::validateModel(m);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasIssue(r, "coefficient-negative"));

    auto m2 = goodModel();
    m2.params().omega[2] = -0.5;
    EXPECT_TRUE(hasIssue(model::validateModel(m2),
                         "coefficient-negative"));
}

TEST(ValidateModel, NonFiniteCoefficientIsAnError)
{
    auto m = goodModel();
    m.params().beta0 = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(hasIssue(model::validateModel(m),
                         "param-not-finite"));
}

TEST(ValidateModel, NonMonotoneVoltageIsAnError)
{
    auto m = goodModel();
    // Core voltage drops when the core clock rises: violates Eq. 12.
    m.setVoltages({595, 3505}, {1.05, 1.0});
    const auto r = model::validateModel(m);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasIssue(r, "voltage-nonmonotone")) << r.summary();
}

TEST(ValidateModel, MissingReferenceVoltagesIsAnError)
{
    model::DvfsPowerModel m(gpu::DeviceKind::GtxTitanX, {975, 3505},
                            goodModel().params());
    m.setVoltages({595, 3505}, {0.9, 1.0});
    EXPECT_TRUE(hasIssue(model::validateModel(m),
                         "reference-voltages-missing"));
}

TEST(ValidateModel, ImplausibleVoltageIsAWarning)
{
    auto m = goodModel();
    m.setVoltages({1164, 3505}, {4.5, 1.0});
    const auto r = model::validateModel(m);
    EXPECT_TRUE(hasIssue(r, "voltage-implausible"));
}

TEST(ValidateModel, EmptyVoltageTableIsAnError)
{
    model::DvfsPowerModel m(gpu::DeviceKind::GtxTitanX, {975, 3505},
                            goodModel().params());
    EXPECT_TRUE(hasIssue(model::validateModel(m),
                         "voltage-table-empty"));
}

TEST(ValidateCheckpoint, ConsistentCheckpointPasses)
{
    model::CampaignCheckpoint ck;
    ck.device = gpu::DeviceKind::GtxTitanX;
    ck.reference = {975, 3505};
    ck.configs = {{975, 3505}, {595, 3505}};
    ck.benchmark_names = {"a", "b"};
    ck.utils_done = {1, 0};
    ck.utils.assign(2, gpu::ComponentArray{});
    ck.power_done = {{1, 1}, {1, 0}};
    ck.power_w = {{120.0, 95.0}, {110.0, 0.0}};
    ck.report.cells_total = 4;
    ck.report.cells_done = 3;
    const auto r = model::validateCheckpoint(ck);
    EXPECT_TRUE(r.ok()) << r.summary();
    EXPECT_EQ(r.subject, "checkpoint");
}

TEST(ValidateCheckpoint, BookkeepingMismatchIsAnError)
{
    model::CampaignCheckpoint ck;
    ck.device = gpu::DeviceKind::GtxTitanX;
    ck.reference = {975, 3505};
    ck.configs = {{975, 3505}};
    ck.benchmark_names = {"a", "b"};
    ck.utils_done = {1}; // one flag for two benchmarks
    ck.utils.assign(2, gpu::ComponentArray{});
    ck.power_done = {{1}, {1}};
    ck.power_w = {{120.0}, {110.0}};
    const auto r = model::validateCheckpoint(ck);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasIssue(r, "row-count-mismatch"));
}

TEST(ValidateCheckpoint, OverdoneCellCountIsAWarning)
{
    model::CampaignCheckpoint ck;
    ck.device = gpu::DeviceKind::GtxTitanX;
    ck.reference = {975, 3505};
    ck.configs = {{975, 3505}};
    ck.benchmark_names = {"a"};
    ck.utils_done = {1};
    ck.utils.assign(1, gpu::ComponentArray{});
    ck.power_done = {{1}};
    ck.power_w = {{120.0}};
    ck.report.cells_total = 1;
    ck.report.cells_done = 5;
    const auto r = model::validateCheckpoint(ck);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(hasIssue(r, "report-inconsistent"));
}

TEST(ValidationReport, SummaryAndJsonShapes)
{
    model::ValidationReport r;
    r.subject = "model";
    EXPECT_TRUE(r.ok());
    EXPECT_NE(r.summary().find("model: OK"), std::string::npos);
    EXPECT_NE(r.toJson().find("\"ok\":true"), std::string::npos);

    r.addWarning("odd-thing", "looks odd");
    r.addError("bad-thing", "value \"x\" is bad");
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.errorCount(), 1u);
    EXPECT_EQ(r.warningCount(), 1u);
    const auto s = r.summary();
    EXPECT_NE(s.find("error [bad-thing]"), std::string::npos);
    EXPECT_NE(s.find("warning [odd-thing]"), std::string::npos);
    const auto j = r.toJson();
    EXPECT_NE(j.find("\"ok\":false"), std::string::npos);
    EXPECT_NE(j.find("\\\"x\\\""), std::string::npos); // escaping
}

TEST(ValidationReport, JsonWithControlBytesParsesBack)
{
    model::ValidationReport r;
    r.subject = "model";
    std::string message = "version '";
    for (char c = 0x01; c < 0x20; ++c)
        message += c;
    message += "'";
    r.addError("version-bad", message);

    json::Value doc;
    json::Error err;
    ASSERT_TRUE(json::parse(r.toJson(), doc, err)) << err.message();
    const json::Value *issues = doc.find("issues");
    ASSERT_NE(issues, nullptr);
    ASSERT_EQ(issues->array.size(), 1u);
    EXPECT_EQ(issues->array[0].find("message")->str, message);
}

} // namespace
