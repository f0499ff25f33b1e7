/**
 * @file
 * Tests of the online sampler with a fake probe: tick accounting,
 * residual/scoreboard snapshots, probe-failure handling, staleness,
 * and the sample lines the sampler hands the flight recorder's NDJSON
 * event log, rotation included. The caller ticks, so every test
 * drives tickSynchronously() on a virtual clock.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "obs/alerts.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "obs/standard.hh"
#include "obs/tsdb.hh"

namespace
{

using namespace gpupm;

class SamplerTest : public ::testing::Test
{
  protected:
    void SetUp() override { obs::Registry::global().reset(); }
    void TearDown() override { obs::Registry::global().reset(); }

    std::vector<obs::SchedulePoint> schedule_{
            {"APP1", {595, 3505}},
            {"APP2", {1000, 3505}},
    };
};

obs::SamplerOptions
fastOptions()
{
    obs::SamplerOptions o;
    o.period_ms = 5;
    o.device = 1;
    o.device_name = "Fake GPU";
    o.reference = {1000, 3505};
    return o;
}

/** Tick `sampler` `n` times, one 5 ms virtual period apart. */
void
tick(obs::Sampler &sampler, int n)
{
    for (int t = 0; t < n; ++t)
        sampler.tickSynchronously((sampler.ticks() + 1) * 5000);
}

TEST_F(SamplerTest, TicksRoundRobinAndAggregate)
{
    int calls = 0;
    auto probe = [&](const std::string &app,
                     const gpu::FreqConfig &cfg) {
        ++calls;
        obs::MonitorSample s;
        s.app = app;
        s.cfg = cfg;
        s.measured_w = 100.0;
        s.predicted_w = app == "APP1" ? 110.0 : 100.0;
        return s;
    };
    obs::Sampler sampler(probe, schedule_, fastOptions());
    tick(sampler, 6);
    EXPECT_EQ(calls, 6);
    EXPECT_EQ(sampler.ticks(), 6L);

    const auto residuals = sampler.residualsSnapshot();
    ASSERT_EQ(residuals.size(), 6u);
    // Round-robin: consecutive samples alternate over the schedule.
    EXPECT_EQ(residuals[0].app, "APP1");
    EXPECT_EQ(residuals[1].app, "APP2");
    EXPECT_EQ(residuals[2].app, "APP1");

    const auto sb = sampler.scoreboardSnapshot();
    EXPECT_EQ(sb.device_name, "Fake GPU");
    EXPECT_EQ(sb.overall.samples,
              static_cast<long>(residuals.size()));
    // APP1 errs by 10%, APP2 by 0% — overall MAE sits in between.
    EXPECT_GT(sb.overall.mae_pct, 0.0);
    EXPECT_LT(sb.overall.mae_pct, 10.1);
    EXPECT_FALSE(sampler.stale());
    EXPECT_LT(sampler.lastSampleAgeSeconds(), 5.0);
}

TEST_F(SamplerTest, ProbeFailuresAreCountedNotAggregated)
{
    obs::FlightRecorder recorder(16);
    auto probe = [](const std::string &app,
                    const gpu::FreqConfig &cfg) -> obs::MonitorSample {
        if (app == "APP2")
            throw std::runtime_error("sensor detached");
        obs::MonitorSample s;
        s.app = app;
        s.cfg = cfg;
        s.measured_w = 50.0;
        s.predicted_w = 50.0;
        return s;
    };
    obs::Sampler sampler(probe, schedule_, fastOptions(), &recorder);
    tick(sampler, 4);

    const auto residuals = sampler.residualsSnapshot();
    ASSERT_EQ(residuals.size(), 2u);
    for (const auto &r : residuals)
        EXPECT_EQ(r.app, "APP1"); // failures never become residuals
    EXPECT_EQ(obs::monitorProbeFailuresTotal().value(), 2.0);

    bool saw_failure_record = false;
    for (const auto &rec : recorder.snapshot())
        if (rec.name == "monitor.probe_failure")
            saw_failure_record = true;
    EXPECT_TRUE(saw_failure_record);
}

TEST_F(SamplerTest, EventLogIsWellFormedNdjson)
{
    const std::string path = "sampler_events_test.ndjson";
    auto probe = [](const std::string &app,
                    const gpu::FreqConfig &cfg) {
        obs::MonitorSample s;
        s.app = app;
        s.cfg = cfg;
        s.measured_w = 123.5;
        s.predicted_w = 120.25;
        return s;
    };
    obs::FlightRecorder recorder(16);
    std::string err;
    ASSERT_TRUE(recorder.openLog(path, 0, 1, &err)) << err;
    obs::Sampler sampler(probe, schedule_, fastOptions(), &recorder);
    tick(sampler, 3);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    int lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"app\":\"APP"), std::string::npos);
        EXPECT_NE(line.find("\"measured_w\":123.5"),
                  std::string::npos);
        EXPECT_NE(line.find("\"predicted_w\":120.25"),
                  std::string::npos);
        EXPECT_NE(line.find("\"abs_err_pct\":"), std::string::npos);
    }
    EXPECT_EQ(lines, 3);
    in.close();
    std::remove(path.c_str());
}

TEST_F(SamplerTest, ResidualWindowIsBounded)
{
    double n = 0.0; // the k-th sample measures k W
    auto probe = [&n](const std::string &app,
                      const gpu::FreqConfig &cfg) {
        obs::MonitorSample s;
        s.app = app;
        s.cfg = cfg;
        s.measured_w = ++n;
        s.predicted_w = n;
        return s;
    };
    obs::Sampler sampler(probe, schedule_, fastOptions());
    tick(sampler, static_cast<int>(obs::Sampler::kMaxResiduals) + 8);
    const auto residuals = sampler.residualsSnapshot();
    ASSERT_EQ(residuals.size(), obs::Sampler::kMaxResiduals);
    // The oldest 8 fell off the front.
    EXPECT_DOUBLE_EQ(residuals.front().measured_w, 9.0);
    EXPECT_DOUBLE_EQ(residuals.back().measured_w, n);
}

TEST_F(SamplerTest, EventLogRotatesAtByteCapWithoutSplittingLines)
{
    const std::string path = "sampler_rotate_test.ndjson";
    const long max_bytes = 600; // a handful of ~190-byte lines
    auto probe = [](const std::string &app,
                    const gpu::FreqConfig &cfg) {
        obs::MonitorSample s;
        s.app = app;
        s.cfg = cfg;
        s.measured_w = 100.0;
        s.predicted_w = 90.0;
        return s;
    };
    obs::FlightRecorder recorder(16);
    std::string err;
    ASSERT_TRUE(recorder.openLog(path, max_bytes, 1, &err)) << err;
    obs::Sampler sampler(probe, schedule_, fastOptions(), &recorder);
    tick(sampler, 30);
    EXPECT_GE(recorder.logRotations(), 1L);

    // Both generations exist; every line in both is an intact JSON
    // object (rotation never splits a line) and the live file stays
    // within the cap plus at most one line.
    long total_lines = 0;
    for (const std::string &file : {path + ".1", path}) {
        std::ifstream in(file);
        ASSERT_TRUE(in.good()) << file;
        std::string line;
        long bytes = 0;
        while (std::getline(in, line)) {
            ++total_lines;
            bytes += static_cast<long>(line.size()) + 1;
            EXPECT_EQ(line.front(), '{') << file;
            EXPECT_EQ(line.back(), '}') << file;
            EXPECT_NE(line.find("\"tick\":"), std::string::npos);
        }
        EXPECT_LE(bytes, max_bytes + 250) << file;
    }
    // One generation of history: rotation keeps recent lines, not
    // all 30 ticks.
    EXPECT_GE(total_lines, 2L);
    EXPECT_LT(total_lines, 30L);
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
}

TEST_F(SamplerTest, EventLogKeepsMultipleRotatedGenerations)
{
    const std::string path = "sampler_rotate_gens_test.ndjson";
    const long max_bytes = 600;
    const int max_files = 3; // keep .1 .2 .3 behind the live file
    auto probe = [](const std::string &app,
                    const gpu::FreqConfig &cfg) {
        obs::MonitorSample s;
        s.app = app;
        s.cfg = cfg;
        s.measured_w = 100.0;
        s.predicted_w = 90.0;
        return s;
    };
    obs::FlightRecorder recorder(16);
    std::string err;
    ASSERT_TRUE(recorder.openLog(path, max_bytes, max_files, &err))
            << err;
    obs::Sampler sampler(probe, schedule_, fastOptions(), &recorder);
    tick(sampler, 60);
    // Enough ticks to roll through every generation at least once.
    EXPECT_GE(recorder.logRotations(), 4L);

    // All four files exist; every line everywhere is an intact JSON
    // object and each file respects the byte cap (+ one line slack).
    long total_lines = 0;
    for (const std::string &file :
         {path + ".3", path + ".2", path + ".1", path}) {
        std::ifstream in(file);
        ASSERT_TRUE(in.good()) << file;
        std::string line;
        long bytes = 0;
        while (std::getline(in, line)) {
            ++total_lines;
            bytes += static_cast<long>(line.size()) + 1;
            EXPECT_EQ(line.front(), '{') << file;
            EXPECT_EQ(line.back(), '}') << file;
            EXPECT_NE(line.find("\"tick\":"), std::string::npos);
        }
        EXPECT_LE(bytes, max_bytes + 250) << file;
    }
    // Three generations of history hold strictly more of the past
    // than one, but rotation still discards the oldest ticks.
    EXPECT_GE(total_lines, 8L);
    EXPECT_LT(total_lines, 60L);
    for (const char *suffix : {"", ".1", ".2", ".3"})
        std::remove((path + suffix).c_str());
}

TEST_F(SamplerTest, SynchronousTicksFeedTsdbAndAlerts)
{
    auto o = fastOptions();
    o.rolling_window = 4;
    auto probe = [](const std::string &app,
                    const gpu::FreqConfig &cfg) {
        obs::MonitorSample s;
        s.app = app;
        s.cfg = cfg;
        s.measured_w = 100.0;
        s.predicted_w = 80.0; // 20% error, deterministic
        return s;
    };

    obs::Tsdb tsdb;
    obs::AlertRule rule;
    rule.name = "mae_high";
    rule.series = "gpupm_accuracy_rolling_mae_pct";
    rule.op = obs::AlertOp::Gt;
    rule.threshold = 10.0;
    rule.window_us = 1'000'000;
    rule.for_us = 0;
    rule.cooldown_us = 0;
    obs::AlertEngine engine(tsdb, {rule});
    obs::Sampler sampler(probe, schedule_, o, nullptr, &tsdb,
                         &engine);

    // Virtual time: tick t lands at (t+1) * 100 ms, no wall clock.
    for (int t = 0; t < 20; ++t)
        sampler.tickSynchronously((t + 1) * 100'000);

    EXPECT_EQ(sampler.ticks(), 20L);
    EXPECT_EQ(engine.lastEvaluatedUs(), 20 * 100'000);
    // The registry snapshot landed every tick: the MAE series holds
    // one point per tick at exactly 20% error.
    obs::TsQuery q;
    q.series = "gpupm_accuracy_rolling_mae_pct";
    q.start_us = 0;
    q.end_us = 2'000'000;
    q.step_us = 100'000;
    const auto res = tsdb.query(q);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.points.size(), 20u);
    EXPECT_DOUBLE_EQ(res.points.back().avg(), 20.0);
    // 20% > 10% with no hysteresis: the rule fires.
    EXPECT_TRUE(engine.anyFiring());
    EXPECT_GE(obs::tsdbPointsTotal().value(), 20.0);
}

TEST_F(SamplerTest, AgeIsInfiniteBeforeAnySample)
{
    // The staleness clock starts at construction: a sampler that has
    // not ticked yet is not stale until max(5 periods, 2 s) passes.
    auto probe = [](const std::string &app,
                    const gpu::FreqConfig &cfg) {
        obs::MonitorSample s;
        s.app = app;
        s.cfg = cfg;
        return s;
    };
    obs::Sampler sampler(probe, schedule_, fastOptions());
    EXPECT_TRUE(std::isinf(sampler.lastSampleAgeSeconds()));
    EXPECT_FALSE(sampler.stale());
}

} // namespace
