/**
 * @file
 * Tests of the flight recorder: capacity/wraparound semantics,
 * sequence ordering under concurrent writers, the JSON rendering,
 * clear(), and the NDJSON event log it writes once one is open.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hh"

namespace
{

using namespace gpupm;

/** `prefix` followed by the decimal `n`, built by appending. */
std::string
numbered(const std::string &prefix, long n)
{
    std::string s = prefix;
    s += std::to_string(n);
    return s;
}

obs::FlightRecord
rec(const std::string &name)
{
    obs::FlightRecord r;
    r.kind = "event";
    r.name = name;
    return r;
}

/** Lines of `path`, removing the file. */
std::vector<std::string>
takeLines(const std::string &path)
{
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        for (std::string l; std::getline(in, l);)
            lines.push_back(l);
    }
    std::remove(path.c_str());
    return lines;
}

TEST(FlightRecorder, RetainsEverythingUntilFull)
{
    obs::FlightRecorder fr(8);
    EXPECT_EQ(fr.capacity(), 8u);
    for (int i = 0; i < 5; ++i)
        fr.record(rec(numbered("e", i)));
    EXPECT_EQ(fr.recorded(), 5);
    const auto snap = fr.snapshot();
    ASSERT_EQ(snap.size(), 5u);
    for (std::size_t i = 0; i < snap.size(); ++i) {
        EXPECT_EQ(snap[i].seq, static_cast<std::int64_t>(i));
        EXPECT_EQ(snap[i].name, numbered("e", static_cast<long>(i)));
    }
}

TEST(FlightRecorder, WrapsAroundKeepingTheNewest)
{
    obs::FlightRecorder fr(8);
    // 2.5x capacity: the oldest 12 of 20 must be forgotten.
    for (int i = 0; i < 20; ++i)
        fr.record(rec(numbered("e", i)));
    EXPECT_EQ(fr.recorded(), 20);
    const auto snap = fr.snapshot();
    ASSERT_EQ(snap.size(), 8u);
    for (std::size_t i = 0; i < snap.size(); ++i) {
        EXPECT_EQ(snap[i].seq, static_cast<std::int64_t>(12 + i));
        EXPECT_EQ(snap[i].name,
                  numbered("e", static_cast<long>(12 + i)));
    }
}

TEST(FlightRecorder, TimestampsAreMonotonicAndStamped)
{
    obs::FlightRecorder fr(4);
    fr.recordSpan("a", 7, "first");
    fr.recordSpan("b", 9, "second");
    const auto snap = fr.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_GE(snap[0].ts_us, 0);
    EXPECT_GE(snap[1].ts_us, snap[0].ts_us);
    EXPECT_EQ(snap[0].dur_us, 7);
    EXPECT_EQ(snap[1].detail, "second");
    EXPECT_EQ(snap[0].kind, "span");
}

TEST(FlightRecorder, ConcurrentWritersLoseNothingButTheOldest)
{
    constexpr int kThreads = 4;
    constexpr int kPerThread = 1000;
    obs::FlightRecorder fr(256);
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t)
        writers.emplace_back([&fr, t] {
            const std::string prefix = numbered("w", t) + ".";
            for (int i = 0; i < kPerThread; ++i)
                fr.record(rec(numbered(prefix, i)));
        });
    for (auto &w : writers)
        w.join();

    EXPECT_EQ(fr.recorded(), kThreads * kPerThread);
    const auto snap = fr.snapshot();
    ASSERT_EQ(snap.size(), fr.capacity());
    // Exactly the last capacity() sequence numbers survive, each
    // once, in ascending order.
    std::set<std::int64_t> seqs;
    for (std::size_t i = 0; i < snap.size(); ++i) {
        if (i > 0) {
            EXPECT_EQ(snap[i].seq, snap[i - 1].seq + 1);
        }
        seqs.insert(snap[i].seq);
    }
    EXPECT_EQ(seqs.size(), fr.capacity());
    EXPECT_EQ(*seqs.rbegin(), kThreads * kPerThread - 1);
    EXPECT_EQ(*seqs.begin(),
              kThreads * kPerThread -
                      static_cast<std::int64_t>(fr.capacity()));
}

TEST(FlightRecorder, RenderJsonReportsDropsAndEscapes)
{
    obs::FlightRecorder fr(2);
    fr.recordSpan("first", 1);
    fr.recordSpan("second", 2);
    fr.recordSpan("quote", 3, "say \"hi\"\n");
    const std::string json = fr.renderJson();
    EXPECT_NE(json.find("\"capacity\":2"), std::string::npos);
    EXPECT_NE(json.find("\"recorded\":3"), std::string::npos);
    EXPECT_NE(json.find("\"dropped\":1"), std::string::npos);
    EXPECT_NE(json.find("\\\"hi\\\"\\n"), std::string::npos);
    EXPECT_EQ(json.find("\"name\":\"first\""), std::string::npos)
            << "dropped record leaked into the rendering";
    EXPECT_NE(json.find("\"name\":\"quote\""), std::string::npos);
}

TEST(FlightRecorder, ClearForgetsButSequenceContinues)
{
    obs::FlightRecorder fr(4);
    fr.recordSpan("a", 0);
    fr.recordSpan("b", 0);
    fr.clear();
    EXPECT_TRUE(fr.snapshot().empty());
    fr.recordSpan("c", 0);
    const auto snap = fr.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].seq, 2) << "clear() must not reuse sequences";
}

TEST(FlightRecorder, LogTakesTheLinesOfRecordsThatCarryOne)
{
    const std::string path = "flight_recorder_log_test.ndjson";
    obs::FlightRecorder fr(4);
    fr.record(rec("before"), "{\"n\":0}"); // no log open yet
    EXPECT_FALSE(fr.logOpen());
    std::string err;
    ASSERT_TRUE(fr.openLog(path, 0, 1, &err)) << err;
    EXPECT_TRUE(fr.logOpen());
    fr.record(rec("one"), "{\"n\":1}");
    fr.recordSpan("ring.only", 0);
    fr.record(rec("two"), "{\"n\":2}");

    EXPECT_EQ(fr.recorded(), 4);
    EXPECT_EQ(fr.logRotations(), 0);
    const auto lines = takeLines(path);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "{\"n\":1}");
    EXPECT_EQ(lines[1], "{\"n\":2}");
}

TEST(FlightRecorder, UnwritableLogIsRefusedByPath)
{
    const std::string path = "no_such_directory/events.ndjson";
    obs::FlightRecorder fr(4);
    std::string err;
    EXPECT_FALSE(fr.openLog(path, 0, 1, &err));
    EXPECT_NE(err.find("cannot open event log '" + path + "'"),
              std::string::npos)
            << err;
    EXPECT_FALSE(fr.logOpen());
    // The ring still takes the record; the line goes nowhere.
    fr.record(rec("kept"), "{\"n\":1}");
    ASSERT_EQ(fr.snapshot().size(), 1u);
    EXPECT_EQ(fr.snapshot()[0].name, "kept");
}

TEST(FlightRecorder, LogWritesStayWholeUnderAConcurrentRecorder)
{
    // As in the daemon: the tick thread records with lines while an
    // HTTP handler (/profilez) records spans on its own thread.
    const std::string path = "flight_recorder_concurrent_test.ndjson";
    constexpr int kPerThread = 500;
    obs::FlightRecorder fr(64);
    std::string err;
    ASSERT_TRUE(fr.openLog(path, 0, 1, &err)) << err;
    std::thread ticks([&fr] {
        for (int i = 0; i < kPerThread; ++i)
            fr.record(rec("tick"), "{\"tick\":" + std::to_string(i) + "}");
    });
    std::thread spans([&fr] {
        for (int i = 0; i < kPerThread; ++i)
            fr.recordSpan("monitor.profile", 0);
    });
    ticks.join();
    spans.join();

    EXPECT_EQ(fr.recorded(), 2 * kPerThread);
    const auto lines = takeLines(path);
    ASSERT_EQ(lines.size(), static_cast<std::size_t>(kPerThread));
    for (int i = 0; i < kPerThread; ++i)
        EXPECT_EQ(lines[static_cast<std::size_t>(i)],
                  "{\"tick\":" + std::to_string(i) + "}");
}

} // namespace
