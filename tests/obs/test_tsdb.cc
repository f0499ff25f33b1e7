/**
 * @file
 * Tests of the embedded time-series store: raw-ring retention,
 * tiered downsampling, tier selection by query step, cardinality-cap
 * eviction (exact, global, counted in /metrics), NaN rejection,
 * bounded memory under a long soak, query error paths, the registry
 * snapshot's slot cache against appending every sample by name, and
 * concurrent append/query/snapshot (exercised under TSan).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "obs/standard.hh"
#include "obs/tsdb.hh"

namespace
{

using namespace gpupm;

constexpr std::int64_t kSec = 1'000'000;

TEST(TsdbTest, AppendAndRawQuery)
{
    obs::Tsdb db;
    db.append("s", 1 * kSec, 1.0);
    db.append("s", 2 * kSec, 3.0);
    db.append("s", 2 * kSec + 1000, 5.0);

    obs::TsQuery q;
    q.series = "s";
    q.start_us = 0;
    q.end_us = 3 * kSec;
    q.step_us = kSec;
    const auto res = db.query(q);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.tier, 0);
    ASSERT_EQ(res.points.size(), 2u);
    EXPECT_EQ(res.points[0].start_us, 1 * kSec);
    EXPECT_EQ(res.points[0].count, 1);
    EXPECT_DOUBLE_EQ(res.points[0].avg(), 1.0);
    // Both 2s-bucket points aggregate: min/max/sum/count.
    EXPECT_EQ(res.points[1].start_us, 2 * kSec);
    EXPECT_EQ(res.points[1].count, 2);
    EXPECT_DOUBLE_EQ(res.points[1].min, 3.0);
    EXPECT_DOUBLE_EQ(res.points[1].max, 5.0);
    EXPECT_DOUBLE_EQ(res.points[1].avg(), 4.0);
}

TEST(TsdbTest, TierSelectionFollowsStep)
{
    obs::Tsdb db;
    for (int i = 0; i < 300; ++i)
        db.append("s", i * kSec, static_cast<double>(i));

    obs::TsQuery q;
    q.series = "s";
    q.start_us = 0;
    q.end_us = 300 * kSec;

    q.step_us = kSec;
    EXPECT_EQ(db.query(q).tier, 0);
    q.step_us = 10 * kSec;
    EXPECT_EQ(db.query(q).tier, 1);
    q.step_us = 60 * kSec;
    EXPECT_EQ(db.query(q).tier, 2);
}

TEST(TsdbTest, DownsampledTiersOutliveTheRawRing)
{
    // One point a second, 60 more than the raw ring holds.
    constexpr int kPoints = obs::Tsdb::kRawCapacity + 60;
    obs::Tsdb db;
    for (int i = 0; i < kPoints; ++i)
        db.append("s", i * kSec, static_cast<double>(i));

    // Raw query over the whole range only sees the ring's tail...
    obs::TsQuery q;
    q.series = "s";
    q.start_us = 0;
    q.end_us = kPoints * kSec;
    q.step_us = kSec;
    auto res = db.query(q);
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.points.size(), obs::Tsdb::kRawCapacity);
    EXPECT_EQ(res.points.front().start_us, 60 * kSec);

    // ...but the 10 s tier still covers the evicted past.
    q.step_us = 10 * kSec;
    res = db.query(q);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.tier, 1);
    ASSERT_EQ(res.points.size(), static_cast<std::size_t>(kPoints / 10));
    EXPECT_EQ(res.points.front().start_us, 0);
    EXPECT_EQ(res.points.front().count, 10);
    // Bucket [0,10s) holds values 0..9.
    EXPECT_DOUBLE_EQ(res.points.front().min, 0.0);
    EXPECT_DOUBLE_EQ(res.points.front().max, 9.0);
    EXPECT_DOUBLE_EQ(res.points.front().avg(), 4.5);
}

TEST(TsdbTest, TierCapacityIsBounded)
{
    obs::Tsdb db;
    // 10 more distinct 10 s buckets than tier 1 holds; only the
    // newest kTierCapacity survive.
    constexpr int kBuckets = obs::Tsdb::kTierCapacity + 10;
    for (int i = 0; i < kBuckets; ++i)
        db.append("s", i * 10 * kSec, 1.0);

    obs::TsQuery q;
    q.series = "s";
    q.start_us = 0;
    q.end_us = kBuckets * 10 * kSec;
    q.step_us = 10 * kSec;
    const auto res = db.query(q);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.points.size(), obs::Tsdb::kTierCapacity);
    EXPECT_EQ(res.points.front().start_us, 100 * kSec);
}

TEST(TsdbTest, NonFiniteValuesAreDroppedAndCounted)
{
    obs::Tsdb db;
    db.append("s", kSec, std::numeric_limits<double>::quiet_NaN());
    db.append("s", 2 * kSec,
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(db.droppedNotFinite(), 2u);
    EXPECT_EQ(db.pointsAppended(), 0u);
    EXPECT_EQ(db.seriesCount(), 0u);

    db.append("s", 3 * kSec, 1.0);
    EXPECT_EQ(db.pointsAppended(), 1u);
    EXPECT_EQ(db.seriesCount(), 1u);
}

/** Series names that sort in the order of `i`. */
std::string
seriesName(std::size_t i)
{
    std::string digits = std::to_string(i);
    return "s" + std::string(4 - digits.size(), '0') + digits;
}

TEST(TsdbTest, CardinalityCapEvictsOldestWrite)
{
    constexpr std::size_t kCap = obs::Tsdb::kMaxSeries;
    obs::Tsdb db;
    for (std::size_t i = 0; i < kCap; ++i)
        db.append(seriesName(i), static_cast<std::int64_t>(i + 1) * kSec,
                  1.0);
    EXPECT_EQ(db.seriesCount(), kCap);
    EXPECT_EQ(db.evictions(), 0u);

    // The first series has the oldest last-write; one more evicts it.
    db.append(seriesName(kCap), static_cast<std::int64_t>(kCap + 1) * kSec,
              1.0);
    EXPECT_EQ(db.seriesCount(), kCap);
    EXPECT_EQ(db.evictions(), 1u);
    std::vector<std::string> survivors;
    for (std::size_t i = 1; i <= kCap; ++i)
        survivors.push_back(seriesName(i));
    EXPECT_EQ(db.seriesNames(), survivors);

    obs::TsQuery q;
    q.series = seriesName(0);
    q.start_us = 0;
    q.end_us = 10 * kSec;
    EXPECT_FALSE(db.query(q).ok);

    // Equal last writes break by name, not by insertion order: the
    // first name goes although it was written last.
    obs::Tsdb tied;
    for (std::size_t i = kCap; i-- > 0;)
        tied.append(seriesName(i), kSec, 1.0);
    tied.append(seriesName(kCap), 2 * kSec, 1.0);
    EXPECT_EQ(tied.seriesNames(), survivors);
}

TEST(TsdbTest, RegistryFedEvictionsReachTheMetricsExposition)
{
    obs::Registry::global().reset();
    obs::registerStandardMetrics();
    // More gauges than the store holds series, on top of the standard
    // catalog.
    for (std::size_t i = 0; i <= obs::Tsdb::kMaxSeries; ++i)
        obs::Registry::global()
                .gauge("gpupm_test_pad", "i=\"" + std::to_string(i) + "\"",
                       "padding")
                .set(1.0);
    obs::Tsdb db;
    db.recordRegistry(obs::Registry::global(), kSec);
    ASSERT_GT(db.evictions(), 0u);
    const std::string prom = obs::Registry::global().renderPrometheus();
    EXPECT_NE(prom.find("gpupm_tsdb_evictions_total " +
                        std::to_string(db.evictions()) + "\n"),
              std::string::npos)
            << prom;
    EXPECT_NE(prom.find("gpupm_tsdb_points_total " +
                        std::to_string(db.pointsAppended()) + "\n"),
              std::string::npos);
    obs::Registry::global().reset();
}

TEST(TsdbTest, MemoryStaysBoundedUnderSoak)
{
    obs::Tsdb db;

    // Fixed accounting: the bound is a function of the caps alone.
    const std::size_t cap_bound =
            sizeof(obs::Tsdb) +
            obs::Tsdb::kMaxSeries *
                    (obs::Tsdb::kRawCapacity * sizeof(obs::TsPoint) +
                     2 * obs::Tsdb::kTierCapacity * sizeof(obs::TsBucket) +
                     1024);

    std::size_t high_water = 0;
    for (int i = 0; i < 10'000; ++i) {
        // Every other append goes to one of 4 hot series, whose rings
        // wrap; the rest cycle through 20 more names than the cap, so
        // new series keep evicting the least recently written.
        const std::string name =
                i % 2 ? "gpupm_soak_hot_" + std::to_string(i % 8)
                      : "gpupm_soak_cold_" +
                                std::to_string(i / 2 %
                                               (obs::Tsdb::kMaxSeries + 20));
        db.append(name, i * kSec / 10, std::sin(i * 0.01));
        high_water = std::max(high_water, db.memoryBytes());
    }
    EXPECT_LE(db.seriesCount(), obs::Tsdb::kMaxSeries);
    EXPECT_GT(db.evictions(), 0u);
    EXPECT_LE(high_water, cap_bound)
            << "soak high-water " << high_water
            << " exceeded the bound " << cap_bound;
}

TEST(TsdbTest, QueryErrorPaths)
{
    obs::Tsdb db;
    db.append("s", kSec, 1.0);

    obs::TsQuery q;
    q.series = "missing";
    q.start_us = 0;
    q.end_us = kSec;
    EXPECT_FALSE(db.query(q).ok);

    q.series = "s";
    q.step_us = 0;
    EXPECT_FALSE(db.query(q).ok);

    q.step_us = kSec;
    q.start_us = 2 * kSec;
    q.end_us = kSec;
    EXPECT_FALSE(db.query(q).ok);

    // A hostile range/step pair must be rejected, not allocated.
    q.start_us = 0;
    q.end_us = 1'000'000'000 * kSec;
    q.step_us = 1;
    const auto res = db.query(q);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("too many buckets"), std::string::npos);
}

TEST(TsdbTest, LatestTimestampTracksAppends)
{
    obs::Tsdb db;
    EXPECT_EQ(db.latestTimestamp(),
              std::numeric_limits<std::int64_t>::min());
    db.append("s", 5 * kSec, 1.0);
    db.append("t", 9 * kSec, 1.0);
    db.append("s", 7 * kSec, 1.0); // out of order: max is kept
    EXPECT_EQ(db.latestTimestamp(), 9 * kSec);
}

TEST(TsdbTest, LatePointsLandInRawButNotSealedBuckets)
{
    obs::Tsdb db;
    db.append("s", 100 * kSec, 1.0);
    db.append("s", 5 * kSec, 99.0); // bucket [0,10s) is sealed

    obs::TsQuery q;
    q.series = "s";
    q.start_us = 0;
    q.end_us = 200 * kSec;
    q.step_us = kSec; // raw
    auto res = db.query(q);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.points.size(), 2u); // raw ring accepted both

    q.step_us = 10 * kSec; // tier 1
    res = db.query(q);
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.points.size(), 1u); // sealed bucket stayed sealed
    EXPECT_EQ(res.points[0].start_us, 100 * kSec);
}

TEST(TsdbTest, RecordRegistrySnapshotsEverySample)
{
    obs::Registry reg;
    reg.counter("demo_total", "d").inc(3.0);
    reg.gauge("demo_gauge", "x=\"1\"", "d").set(7.5);

    obs::Tsdb db;
    db.recordRegistry(reg, 4 * kSec);

    obs::TsQuery q;
    q.series = "demo_gauge{x=\"1\"}";
    q.start_us = 0;
    q.end_us = 10 * kSec;
    q.step_us = kSec;
    auto res = db.query(q);
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.points.size(), 1u);
    EXPECT_DOUBLE_EQ(res.points[0].avg(), 7.5);

    q.series = "demo_total";
    res = db.query(q);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_DOUBLE_EQ(res.points[0].avg(), 3.0);
}

TEST(TsdbTest, JsonRenderingIsDeterministic)
{
    auto build = [] {
        obs::Tsdb db;
        for (int i = 0; i < 50; ++i)
            db.append("s", i * kSec, 0.125 * i);
        obs::TsQuery q;
        q.series = "s";
        q.start_us = 0;
        q.end_us = 50 * kSec;
        q.step_us = 5 * kSec;
        return db.query(q).toJson("s");
    };
    const std::string a = build();
    const std::string b = build();
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"ok\":true"), std::string::npos);
    EXPECT_NE(a.find("\"points\":[{"), std::string::npos);
}

TEST(TsdbTest, ConcurrentAppendAndQuery)
{
    obs::Tsdb db;
    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w) {
        writers.emplace_back([&db, w] {
            const std::string own =
                    "writer_" + std::to_string(w);
            for (int i = 0; i < 2000; ++i) {
                db.append(own, i * 1000, static_cast<double>(i));
                db.append("shared", i * 1000 + w,
                          static_cast<double>(w));
            }
        });
    }
    std::thread reader([&db] {
        for (int i = 0; i < 200; ++i) {
            obs::TsQuery q;
            q.series = "shared";
            q.start_us = 0;
            q.end_us = 2'000'000;
            q.step_us = 100'000;
            (void)db.query(q);
            (void)db.seriesNames();
            (void)db.memoryBytes();
        }
    });
    for (auto &t : writers)
        t.join();
    reader.join();
    EXPECT_EQ(db.pointsAppended(), 4u * 2000u * 2u);
    EXPECT_EQ(db.seriesCount(), 5u);
}

/**
 * The reference snapshot: the registry walked with names and every
 * sample appended by name, which is what recordRegistry() must be
 * indistinguishable from.
 */
std::uint64_t
recordByName(obs::Tsdb &db, const obs::Registry &reg, std::int64_t t_us)
{
    std::vector<double> values;
    std::vector<std::string> names;
    reg.collectSamples(values, &names);
    const std::uint64_t before = db.pointsAppended();
    for (std::size_t i = 0; i < names.size(); ++i)
        db.append(names[i], t_us, values[i]);
    return db.pointsAppended() - before;
}

/** Every series' raw, tier-1 and tier-2 buckets and every counter. */
void
expectSameStore(const obs::Tsdb &got, const obs::Tsdb &want,
                std::int64_t end_us)
{
    const std::vector<std::string> names = want.seriesNames();
    ASSERT_EQ(got.seriesNames(), names);
    for (const std::string &name : names) {
        for (const std::int64_t step :
             {kSec, obs::Tsdb::kTier1ResUs, obs::Tsdb::kTier2ResUs}) {
            obs::TsQuery q;
            q.series = name;
            q.start_us = 0;
            q.end_us = end_us;
            q.step_us = step;
            const obs::TsQueryResult a = got.query(q);
            const obs::TsQueryResult b = want.query(q);
            ASSERT_TRUE(a.ok && b.ok) << name << ": " << a.error;
            ASSERT_EQ(a.tier, b.tier);
            ASSERT_EQ(a.points.size(), b.points.size()) << name;
            for (std::size_t i = 0; i < a.points.size(); ++i) {
                const obs::TsBucket &x = a.points[i];
                const obs::TsBucket &y = b.points[i];
                ASSERT_EQ(x.start_us, y.start_us) << name;
                ASSERT_EQ(x.min, y.min) << name;
                ASSERT_EQ(x.max, y.max) << name;
                ASSERT_EQ(x.sum, y.sum) << name;
                ASSERT_EQ(x.count, y.count) << name;
            }
        }
    }
    EXPECT_EQ(got.pointsAppended(), want.pointsAppended());
    EXPECT_EQ(got.evictions(), want.evictions());
    EXPECT_EQ(got.droppedNotFinite(), want.droppedNotFinite());
    EXPECT_EQ(got.latestTimestamp(), want.latestTimestamp());
    EXPECT_EQ(got.memoryBytes(), want.memoryBytes());
}

TEST(TsdbTest, RecordRegistryMatchesAppendingByName)
{
    obs::Registry reg;
    obs::Tsdb fast;
    obs::Tsdb ref;
    std::int64_t t = 0;
    const auto tick = [&] {
        t += kSec;
        const double total_before = obs::tsdbPointsTotal().value();
        fast.recordRegistry(reg, t);
        const double fast_points =
                obs::tsdbPointsTotal().value() - total_before;
        const std::uint64_t ref_points = recordByName(ref, reg, t);
        EXPECT_EQ(fast_points, static_cast<double>(ref_points))
                << "gpupm_tsdb_points_total at t=" << t;
        expectSameStore(fast, ref, t);
    };
    const double nan = std::numeric_limits<double>::quiet_NaN();

    // Steady ticks; one gauge is NaN at the fill, so it has no series.
    obs::Counter &total = reg.counter("demo_total", "d");
    obs::Gauge &level = reg.gauge("demo_level", "d");
    obs::Gauge &late = reg.gauge("demo_late", "d");
    reg.gauge("demo_lab", "x=\"1\"", "d").set(1.0);
    late.set(nan);
    for (int i = 0; i < 5; ++i) {
        total.inc(1.0 + i);
        level.set(0.5 * i);
        tick();
    }
    EXPECT_EQ(fast.layoutFills(), 1u);
    // It turns finite: the series is created in its place, by a fill.
    late.set(3.0);
    tick();
    EXPECT_EQ(fast.layoutFills(), 2u);
    late.set(nan);
    tick();
    late.set(4.0);
    tick();
    EXPECT_EQ(fast.layoutFills(), 2u);

    // A labelled child and a histogram arrive mid-run.
    reg.gauge("demo_lab", "x=\"2\"", "d").set(2.0);
    obs::Histogram &hist =
            reg.histogram("demo_seconds", "d", obs::secondsBuckets());
    for (int i = 0; i < 4; ++i) {
        hist.observe(0.01 * (i + 1));
        level.set(-1.0 * i);
        tick();
    }

    // reset(), then a different set of the same size (7 samples).
    std::vector<double> values;
    ASSERT_EQ(reg.collectSamples(values).samples, 7u);
    reg.reset();
    for (int i = 0; i < 7; ++i)
        reg.gauge("other_" + std::to_string(i), "d").set(10.0 + i);
    ASSERT_EQ(reg.collectSamples(values).samples, 7u);
    for (int i = 0; i < 3; ++i)
        tick();

    // More samples than the store holds series: every tick evicts.
    for (std::size_t i = 0; i < obs::Tsdb::kMaxSeries + 8; ++i)
        reg.gauge("pad", "i=\"" + std::to_string(i) + "\"", "d")
                .set(static_cast<double>(i));
    for (int i = 0; i < 3; ++i)
        tick();
    ASSERT_GT(ref.evictions(), 0u);

    // A small set again, then appends from outside the registry that
    // evict its series too.
    reg.reset();
    obs::Gauge &small = reg.gauge("small", "d");
    reg.gauge("small_late", "d").set(nan);
    for (int i = 0; i < 3; ++i) {
        small.set(i);
        tick();
    }
    const std::uint64_t evicted_before = ref.evictions();
    for (std::size_t i = 0; i < obs::Tsdb::kMaxSeries; ++i) {
        const std::string name = "ext_" + std::to_string(i);
        fast.append(name, t + kSec / 2, 1.0);
        ref.append(name, t + kSec / 2, 1.0);
    }
    EXPECT_EQ(ref.evictions() - evicted_before, obs::Tsdb::kMaxSeries);
    EXPECT_TRUE(ref.seriesNames() == fast.seriesNames());
    for (int i = 0; i < 3; ++i) {
        small.set(100.0 + i);
        tick();
    }
    reg.gauge("small_late", "d").set(5.0);
    for (int i = 0; i < 3; ++i)
        tick();
    // 27 ticks; the steady ones appended without resolving names.
    EXPECT_LT(fast.layoutFills(), 16u);
}

TEST(TsdbTest, RecordRegistryFillsOncePerLayout)
{
    obs::Registry reg;
    obs::Counter &total = reg.counter("demo_total", "d");
    reg.histogram("demo_seconds", "d", obs::secondsBuckets());
    reg.gauge("demo_lab", "x=\"1\"", "d");
    obs::Tsdb db;
    for (int i = 0; i < 1000; ++i) {
        total.inc();
        db.recordRegistry(reg, (i + 1) * kSec);
    }
    EXPECT_EQ(db.layoutFills(), 1u);
    EXPECT_EQ(db.pointsAppended(), 4000u);

    reg.gauge("demo_lab", "x=\"2\"", "d");
    for (int i = 1000; i < 1010; ++i)
        db.recordRegistry(reg, (i + 1) * kSec);
    EXPECT_EQ(db.layoutFills(), 2u);
    EXPECT_EQ(db.pointsAppended(), 4050u);
}

TEST(TsdbTest, MemoryBytesMatchesAWalkAfterChurn)
{
    obs::Tsdb db;
    EXPECT_EQ(db.memoryBytes(), sizeof(obs::Tsdb));
    // One series fixes the per-series charge; a walk over the live
    // names must then reproduce memoryBytes() in every state.
    const std::string first = "first";
    db.append(first, 0, 1.0);
    const std::size_t per_series = db.memoryBytes() - sizeof(obs::Tsdb) -
                                   std::string(first).capacity();
    const auto walk = [&] {
        std::size_t bytes = sizeof(obs::Tsdb);
        for (const std::string &name : db.seriesNames())
            bytes += per_series + std::string(name).capacity();
        return bytes;
    };
    obs::Registry reg;
    for (int i = 0; i < 40; ++i)
        reg.gauge("gpupm_churn_registry_series_with_a_long_name",
                  "i=\"" + std::to_string(i) + "\"", "d")
                .set(i);
    for (int i = 0; i < 3000; ++i) {
        // Short (inline) and long (heap) names, 100 more than the cap.
        const std::string name =
                i % 3 ? "s" + std::to_string(i % 301)
                      : "a_much_longer_series_name_" +
                                std::to_string(i % (obs::Tsdb::kMaxSeries +
                                                    101));
        db.append(name, i * kSec, 1.0);
        if (i % 250 == 0)
            db.recordRegistry(reg, i * kSec);
        ASSERT_EQ(db.memoryBytes(), walk()) << "after append " << i;
    }
    EXPECT_GT(db.evictions(), 0u);
}

TEST(TsdbTest, ConcurrentSnapshotQueryAndEvictingAppends)
{
    obs::Registry reg;
    obs::Tsdb db;
    constexpr int kTicks = 400;
    constexpr int kAppends = 3000;
    std::uint64_t snapshot_points = 0;
    std::thread ticker([&] {
        std::vector<double> values;
        for (int i = 0; i < kTicks; ++i) {
            if (i % 40 == 0)
                reg.gauge("conc_child", "i=\"" + std::to_string(i) + "\"",
                          "d")
                        .set(i);
            reg.counter("conc_ticks_total", "d").inc();
            snapshot_points += reg.collectSamples(values).samples;
            db.recordRegistry(reg, i * 1000);
        }
    });
    std::thread reader([&] {
        for (int i = 0; i < 200; ++i) {
            obs::TsQuery q;
            q.series = "conc_ticks_total";
            q.start_us = 0;
            q.end_us = kTicks * 1000;
            q.step_us = 100'000;
            (void)db.query(q);
            (void)reg.renderPrometheus();
            (void)obs::Registry::global().renderPrometheus();
            (void)db.seriesNames();
            (void)db.memoryBytes();
        }
    });
    std::thread appender([&] {
        for (int i = 0; i < kAppends; ++i)
            db.append("conc_ext_" + std::to_string(i), i * 150, 1.0);
    });
    ticker.join();
    reader.join();
    appender.join();
    EXPECT_EQ(db.pointsAppended(), snapshot_points + kAppends);
    EXPECT_GT(db.evictions(), 0u);
    EXPECT_LE(db.seriesCount(), obs::Tsdb::kMaxSeries);
}

} // namespace
