/**
 * @file
 * Tests of the alert rule engine: the pending/firing/resolved state
 * machine with hysteresis, flapping suppression, empty-window and
 * NaN-sample behaviour, rate rules, the built-in Fig. 7 drift rule,
 * evaluation across downsampling-tier boundaries, and the transition
 * side-channels (gauge, flight recorder and its NDJSON event log,
 * history).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>

#include "obs/alerts.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/standard.hh"
#include "obs/tsdb.hh"

namespace
{

using namespace gpupm;

constexpr std::int64_t kSec = 1'000'000;

class AlertsTest : public ::testing::Test
{
  protected:
    void SetUp() override { obs::Registry::global().reset(); }
    void TearDown() override { obs::Registry::global().reset(); }

    /** Threshold rule: mean(s[now-10s, now]) > 5, for 3 s, cool 5 s. */
    obs::AlertRule thresholdRule() const
    {
        obs::AlertRule r;
        r.name = "high";
        r.series = "s";
        r.kind = obs::AlertKind::Threshold;
        r.op = obs::AlertOp::Gt;
        r.threshold = 5.0;
        r.window_us = 10 * kSec;
        r.for_us = 3 * kSec;
        r.cooldown_us = 5 * kSec;
        return r;
    }
};

TEST_F(AlertsTest, ThresholdLifecyclePendingFiringResolved)
{
    obs::Tsdb db;
    obs::AlertEngine eng(db, {thresholdRule()});

    // Healthy for 5 ticks: inactive throughout.
    for (int t = 1; t <= 5; ++t) {
        db.append("s", t * kSec, 1.0);
        eng.evaluate(t * kSec);
    }
    auto st = eng.snapshot();
    ASSERT_EQ(st.size(), 1u);
    EXPECT_EQ(st[0].state, obs::AlertState::Inactive);
    EXPECT_TRUE(st[0].evaluated);

    // Degraded: pending immediately, firing only after for_us.
    // The 10 s window still averages in the five 1.0 points, so the
    // injected level must overwhelm them (100 >> 5).
    db.append("s", 6 * kSec, 100.0);
    eng.evaluate(6 * kSec);
    EXPECT_EQ(eng.snapshot()[0].state, obs::AlertState::Pending);
    EXPECT_FALSE(eng.anyFiring());

    db.append("s", 8 * kSec, 100.0);
    eng.evaluate(8 * kSec);
    EXPECT_EQ(eng.snapshot()[0].state, obs::AlertState::Pending);

    db.append("s", 9 * kSec, 100.0);
    eng.evaluate(9 * kSec); // held for 3 s -> firing
    EXPECT_EQ(eng.snapshot()[0].state, obs::AlertState::Firing);
    EXPECT_EQ(eng.firingRuleNames(),
              std::vector<std::string>{"high"});

    // Recovered: the degraded points stay inside the 10 s window
    // until t=20, then the cooldown runs — resolved at t=25.
    for (int t = 10; t <= 26; ++t) {
        db.append("s", t * kSec, 1.0);
        eng.evaluate(t * kSec);
    }
    EXPECT_EQ(eng.snapshot()[0].state, obs::AlertState::Resolved);
    EXPECT_FALSE(eng.anyFiring());

    // History holds the full lifecycle in order.
    const auto h = eng.snapshot()[0].history;
    ASSERT_EQ(h.size(), 3u);
    EXPECT_EQ(h[0].state, obs::AlertState::Pending);
    EXPECT_EQ(h[1].state, obs::AlertState::Firing);
    EXPECT_EQ(h[2].state, obs::AlertState::Resolved);
}

TEST_F(AlertsTest, FlappingIsHeldOffByHysteresis)
{
    obs::Tsdb db;

    // The signal crosses the threshold every other second — each
    // clear tick resets the pending clock, so the rule never fires.
    // A 1 µs window keeps each evaluation on the instantaneous value
    // (the window is inclusive, so 1 s would average two ticks).
    auto rule = thresholdRule();
    rule.window_us = 1;
    obs::AlertEngine flappy(db, {rule});
    for (int t = 1; t <= 30; ++t) {
        db.append("s", t * kSec, t % 2 == 0 ? 100.0 : 1.0);
        flappy.evaluate(t * kSec);
        EXPECT_NE(flappy.snapshot()[0].state,
                  obs::AlertState::Firing)
                << "fired at t=" << t;
    }
    EXPECT_GE(obs::alertTransitionsTotal().value(), 2.0);
}

TEST_F(AlertsTest, EmptyWindowAtStartupIsNotAnAlert)
{
    obs::Tsdb db;
    obs::AlertEngine eng(db, {thresholdRule()});
    eng.evaluate(1 * kSec);
    eng.evaluate(2 * kSec);
    const auto st = eng.snapshot();
    EXPECT_EQ(st[0].state, obs::AlertState::Inactive);
    EXPECT_FALSE(st[0].evaluated);
    EXPECT_TRUE(std::isnan(st[0].last_value));
    EXPECT_TRUE(st[0].history.empty());
    EXPECT_NE(eng.renderText(2 * kSec).find("(no data)"),
              std::string::npos);
    EXPECT_NE(eng.renderJson(2 * kSec).find("\"last_value\":null"),
              std::string::npos);
}

TEST_F(AlertsTest, EmptyWindowFreezesFiringAndDropsPending)
{
    obs::Tsdb db;
    obs::AlertEngine eng(db, {thresholdRule()});
    for (int t = 1; t <= 6; ++t) {
        db.append("s", t * kSec, 100.0);
        eng.evaluate(t * kSec);
    }
    ASSERT_EQ(eng.snapshot()[0].state, obs::AlertState::Firing);

    // The probe wedges: no samples land, the window goes empty.
    // Missing data must not quietly resolve a real problem.
    eng.evaluate(100 * kSec);
    EXPECT_EQ(eng.snapshot()[0].state, obs::AlertState::Firing);

    // A pending rule, in contrast, loses its evidence.
    obs::Tsdb db2;
    obs::AlertEngine eng2(db2, {thresholdRule()});
    db2.append("s", 1 * kSec, 100.0);
    eng2.evaluate(1 * kSec);
    ASSERT_EQ(eng2.snapshot()[0].state, obs::AlertState::Pending);
    eng2.evaluate(100 * kSec);
    EXPECT_EQ(eng2.snapshot()[0].state, obs::AlertState::Inactive);
}

TEST_F(AlertsTest, NaNSamplesNeverReachTheEngine)
{
    obs::Tsdb db;
    obs::AlertEngine eng(db, {thresholdRule()});
    db.append("s", 1 * kSec,
              std::numeric_limits<double>::quiet_NaN());
    eng.evaluate(1 * kSec);
    const auto st = eng.snapshot();
    EXPECT_FALSE(st[0].evaluated); // the window stayed empty
    EXPECT_EQ(st[0].state, obs::AlertState::Inactive);
    EXPECT_EQ(db.droppedNotFinite(), 1u);
}

TEST_F(AlertsTest, RateRuleCatchesClimbs)
{
    obs::AlertRule r;
    r.name = "climbing";
    r.series = "s";
    r.kind = obs::AlertKind::Rate;
    r.op = obs::AlertOp::Gt;
    r.threshold = 2.0; // units per second
    r.window_us = 8 * kSec;
    r.for_us = 0;
    r.cooldown_us = 0;

    obs::Tsdb db;
    obs::AlertEngine eng(db, {r});
    // Flat: rate 0, inactive.
    for (int t = 1; t <= 8; ++t)
        db.append("s", t * kSec, 10.0);
    eng.evaluate(8 * kSec);
    EXPECT_EQ(eng.snapshot()[0].state, obs::AlertState::Inactive);

    // Climb at 5 units/s: fires (for_us = 0 fires immediately).
    for (int t = 9; t <= 16; ++t)
        db.append("s", t * kSec, 10.0 + 5.0 * (t - 8));
    eng.evaluate(16 * kSec);
    EXPECT_EQ(eng.snapshot()[0].state, obs::AlertState::Firing);
    EXPECT_GT(eng.snapshot()[0].last_value, 2.0);
}

TEST_F(AlertsTest, DriftRuleCarriesTheFig7Envelope)
{
    EXPECT_DOUBLE_EQ(*obs::fig7EnvelopePct("titanxp"), 6.6);
    EXPECT_DOUBLE_EQ(*obs::fig7EnvelopePct("titanx"), 5.5);
    EXPECT_DOUBLE_EQ(*obs::fig7EnvelopePct("k40c"), 12.2);
    EXPECT_FALSE(obs::fig7EnvelopePct("gtx9000").has_value());

    const auto r = obs::makeDriftRule("k40c", 2.0, 30 * kSec,
                                      10 * kSec, 30 * kSec);
    EXPECT_EQ(r.name, "accuracy_drift_k40c");
    EXPECT_EQ(r.series, "gpupm_accuracy_rolling_mae_pct");
    EXPECT_EQ(r.kind, obs::AlertKind::Drift);
    EXPECT_DOUBLE_EQ(r.envelope_pct, 12.2);
    EXPECT_DOUBLE_EQ(r.threshold, 14.2);

    // A golden-refreshed envelope overrides the hard-coded one.
    const auto o =
            obs::makeDriftRule("k40c", 2.0, 30 * kSec, 10 * kSec,
                               30 * kSec, 12.201);
    EXPECT_DOUBLE_EQ(o.threshold, 14.201);
}

TEST_F(AlertsTest, EvaluatesAcrossTierBoundaries)
{
    // A 600 s window at one point a second reaches past the raw
    // ring's 240 points, so the windowed mean must come from the
    // downsampled tiers (step window+1 -> tier 2).
    static_assert(obs::Tsdb::kRawCapacity == 240);
    obs::Tsdb db;

    obs::AlertRule r = thresholdRule();
    r.window_us = 600 * kSec;
    r.for_us = 0;
    obs::AlertEngine eng(db, {r});

    // 100 over the first 360 s, 0 over the 240 s the raw ring keeps.
    for (int t = 1; t <= 600; ++t)
        db.append("s", t * kSec, t <= 360 ? 100.0 : 0.0);
    eng.evaluate(600 * kSec);
    const auto st = eng.snapshot();
    EXPECT_EQ(st[0].state, obs::AlertState::Firing);
    // The mean covers the whole window, not just the raw points.
    EXPECT_DOUBLE_EQ(st[0].last_value, 60.0);
}

TEST_F(AlertsTest, TransitionsFeedGaugeRecorderAndSink)
{
    const std::string path = "alerts_sink_test.ndjson";
    obs::FlightRecorder recorder(32);
    std::string err;
    ASSERT_TRUE(recorder.openLog(path, 0, 1, &err)) << err;
    obs::Tsdb db;
    auto rule = thresholdRule();
    rule.for_us = 0;
    obs::AlertEngine eng(db, {rule}, &recorder);

    // The gauge exists at 0 before any transition.
    EXPECT_DOUBLE_EQ(obs::alertsFiring("high").value(), 0.0);

    db.append("s", 1 * kSec, 100.0);
    eng.evaluate(1 * kSec); // pending + firing in one tick
    EXPECT_DOUBLE_EQ(obs::alertsFiring("high").value(), 1.0);

    // The spike leaves the 10 s window at t=12; cooldown 5 s more.
    for (int t = 2; t <= 20; ++t) {
        db.append("s", t * kSec, 1.0);
        eng.evaluate(t * kSec);
    }
    EXPECT_DOUBLE_EQ(obs::alertsFiring("high").value(), 0.0);

    bool saw_alert_record = false;
    for (const auto &rec : recorder.snapshot())
        if (rec.kind == "alert" && rec.name == "alert.firing")
            saw_alert_record = true;
    EXPECT_TRUE(saw_alert_record);

    std::vector<std::string> lines;
    std::ifstream in(path);
    for (std::string l; std::getline(in, l);)
        lines.push_back(l);
    std::remove(path.c_str());
    ASSERT_GE(lines.size(), 3u);
    for (const auto &l : lines) {
        EXPECT_EQ(l.front(), '{');
        EXPECT_EQ(l.back(), '}');
        EXPECT_NE(l.find("\"event\":\"alert\""), std::string::npos);
        EXPECT_NE(l.find("\"rule\":\"high\""), std::string::npos);
    }
    EXPECT_NE(lines[0].find("\"state\":\"pending\""),
              std::string::npos);
    EXPECT_NE(lines[1].find("\"state\":\"firing\""),
              std::string::npos);
    EXPECT_NE(lines.back().find("\"state\":\"resolved\""),
              std::string::npos);
}

TEST_F(AlertsTest, RenderJsonIsDeterministic)
{
    auto build = [this] {
        obs::Tsdb db;
        obs::AlertEngine eng(db, {thresholdRule()});
        for (int t = 1; t <= 20; ++t) {
            db.append("s", t * kSec, t >= 5 && t < 12 ? 50.0 : 1.0);
            eng.evaluate(t * kSec);
        }
        return eng.renderJson(eng.lastEvaluatedUs());
    };
    const std::string a = build();
    EXPECT_EQ(a, build());
    EXPECT_NE(a.find("\"rules\":[{\"name\":\"high\""),
              std::string::npos);
}

} // namespace
