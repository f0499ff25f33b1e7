#include "obs/profiler.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/trace.hh"

namespace
{

using gpupm::obs::CpuProfile;
using gpupm::obs::Profiler;
using gpupm::obs::ProfilerOptions;

/**
 * Burn CPU until at least `min_samples` landed in the ring (bounded
 * by a generous wall-clock cap so a loaded machine cannot hang the
 * suite). The volatile sink keeps the loop from being optimized out.
 */
void
burnUntil(long min_samples, int max_ms = 10000)
{
    volatile double sink = 0.0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(max_ms);
    while (Profiler::global().sampleCount() < min_samples &&
           std::chrono::steady_clock::now() < deadline) {
        for (int i = 1; i < 5000; ++i)
            sink = sink + 1.0 / static_cast<double>(i);
    }
    (void)sink;
}

TEST(Profiler, CapturesSpanAttributedSamples)
{
    ProfilerOptions opts;
    opts.hz = 997;
    std::string err;
    ASSERT_TRUE(Profiler::global().start(opts, &err)) << err;
    ASSERT_TRUE(Profiler::global().running());
    ASSERT_TRUE(Profiler::contextEnabled());
    {
        GPUPM_TRACE_SPAN("estimator", "fit.synthetic_burn");
        burnUntil(50);
    }
    Profiler::global().stop();
    EXPECT_FALSE(Profiler::global().running());
    EXPECT_FALSE(Profiler::contextEnabled());

    const CpuProfile prof = Profiler::global().collect();
    ASSERT_GE(prof.samples, 50);
    EXPECT_EQ(prof.hz, 997);
    // Everything burned inside the estimator span: attribution must
    // be near-total (a few ticks may land in test scaffolding).
    EXPECT_GE(prof.attributedPct(), 90.0);
    EXPECT_GT(prof.category_samples.at("estimator"), 0);
    EXPECT_GE(prof.categorySharePct("estimator"), 90.0);
    ASSERT_FALSE(prof.stacks.empty());
    // Stacks are sorted by weight; the heaviest one is the burn loop.
    EXPECT_EQ(prof.stacks.front().category, "estimator");
    ASSERT_FALSE(prof.stacks.front().frames.empty());
    EXPECT_EQ(prof.stacks.front().frames.front(),
              "fit.synthetic_burn");
}

TEST(Profiler, FoldedOutputIsWellFormed)
{
    std::string err;
    ASSERT_TRUE(Profiler::global().start({}, &err)) << err;
    {
        GPUPM_TRACE_SPAN("sim", "kernel.burn");
        burnUntil(20);
    }
    Profiler::global().stop();
    const CpuProfile prof = Profiler::global().collect();
    const std::string folded = prof.renderFolded();
    ASSERT_FALSE(folded.empty());

    std::istringstream is(folded);
    std::string line;
    long total = 0;
    bool saw_sim = false;
    while (std::getline(is, line)) {
        ASSERT_FALSE(line.empty());
        // `frames... count`: the suffix after the last space is the
        // sample count, the prefix is a ;-joined non-empty stack.
        const auto sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        ASSERT_GT(sp, 0u) << line;
        const std::string count = line.substr(sp + 1);
        ASSERT_FALSE(count.empty()) << line;
        for (char c : count)
            ASSERT_TRUE(c >= '0' && c <= '9') << line;
        total += std::stol(count);
        if (line.rfind("sim;", 0) == 0)
            saw_sim = true;
    }
    EXPECT_EQ(total, prof.samples);
    EXPECT_TRUE(saw_sim);
}

TEST(Profiler, JsonSummaryCarriesCategoriesAndTop)
{
    std::string err;
    ASSERT_TRUE(Profiler::global().start({}, &err)) << err;
    {
        GPUPM_TRACE_SPAN("io", "artifact.burn");
        burnUntil(20);
    }
    Profiler::global().stop();
    const std::string json = Profiler::global().collect().renderJson();
    EXPECT_NE(json.find("\"hz\":"), std::string::npos);
    EXPECT_NE(json.find("\"samples\":"), std::string::npos);
    EXPECT_NE(json.find("\"dropped\":"), std::string::npos);
    EXPECT_NE(json.find("\"attributed_pct\":"), std::string::npos);
    EXPECT_NE(json.find("\"categories\":{"), std::string::npos);
    EXPECT_NE(json.find("\"io\":{\"samples\":"), std::string::npos);
    EXPECT_NE(json.find("\"threads\":["), std::string::npos);
    EXPECT_NE(json.find("\"top\":["), std::string::npos);
    EXPECT_NE(json.find("\"self_pct\":"), std::string::npos);
}

TEST(Profiler, InnermostSpanWinsAttribution)
{
    std::string err;
    ASSERT_TRUE(Profiler::global().start({}, &err)) << err;
    {
        GPUPM_TRACE_SPAN("campaign", "outer");
        GPUPM_TRACE_SPAN("estimator", "inner");
        burnUntil(30);
    }
    Profiler::global().stop();
    const CpuProfile prof = Profiler::global().collect();
    ASSERT_GT(prof.samples, 0);
    EXPECT_GE(prof.categorySharePct("estimator"), 90.0);
    EXPECT_EQ(prof.category_samples.count("campaign"), 0u);
}

TEST(Profiler, SecondStartFailsWhileRunning)
{
    std::string err;
    ASSERT_TRUE(Profiler::global().start({}, &err)) << err;
    std::string err2;
    EXPECT_FALSE(Profiler::global().start({}, &err2));
    EXPECT_NE(err2.find("already running"), std::string::npos);
    Profiler::global().stop();
    // stop() is idempotent.
    Profiler::global().stop();
}

TEST(Profiler, RingOverflowCountsDrops)
{
    ProfilerOptions opts;
    opts.hz = 2000; // clamped rate floor is irrelevant; fill fast
    opts.max_samples = 64;
    std::string err;
    ASSERT_TRUE(Profiler::global().start(opts, &err)) << err;
    burnUntil(64);
    // Keep burning so ticks land after the ring is full.
    volatile double sink = 0.0;
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(200);
    while (std::chrono::steady_clock::now() < until)
        for (int i = 1; i < 5000; ++i)
            sink = sink + 1.0 / static_cast<double>(i);
    Profiler::global().stop();
    const CpuProfile prof = Profiler::global().collect();
    EXPECT_LE(prof.samples, 64);
    EXPECT_GT(prof.dropped, 0);
    (void)sink;
}

TEST(Profiler, PerThreadAttributionWithLabels)
{
    std::string err;
    ASSERT_TRUE(Profiler::global().start({}, &err)) << err;
    std::atomic<bool> stop{false};
    std::thread worker([&stop] {
        Profiler::setThreadLabel("test.worker0");
        GPUPM_TRACE_SPAN("fleet", "worker.burn");
        volatile double sink = 0.0;
        while (!stop.load(std::memory_order_relaxed))
            for (int i = 1; i < 5000; ++i)
                sink = sink + 1.0 / static_cast<double>(i);
        (void)sink;
    });
    burnUntil(80);
    stop.store(true, std::memory_order_relaxed);
    worker.join();
    Profiler::global().stop();

    const CpuProfile prof = Profiler::global().collect();
    bool labelled = false;
    for (const auto &kv : prof.thread_labels)
        if (kv.second == "test.worker0")
            labelled = true;
    // ITIMER_PROF delivery lands on whichever thread is on-CPU; with
    // two busy threads the worker must get a share eventually, but a
    // pathological scheduler could starve it — so only assert the
    // label plumbing when it did get samples.
    if (prof.category_samples.count("fleet") != 0) {
        EXPECT_TRUE(labelled);
        EXPECT_GE(prof.thread_samples.size(), 2u);
    }
}

TEST(Profiler, WallModeSamplesIdleProcess)
{
    ProfilerOptions opts;
    opts.wall = true;
    opts.hz = 499;
    std::string err;
    ASSERT_TRUE(Profiler::global().start(opts, &err)) << err;
    {
        GPUPM_TRACE_SPAN("monitor", "idle.wait");
        // No CPU burned: ITIMER_PROF would stay silent here, but
        // wall-clock sampling must still deliver ticks.
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
    Profiler::global().stop();
    const CpuProfile prof = Profiler::global().collect();
    EXPECT_TRUE(prof.wall);
    EXPECT_GT(prof.samples, 10);
    EXPECT_NE(prof.renderJson().find("\"mode\":\"wall\""),
              std::string::npos);
    // The process-directed signal lands on this (only) thread, which
    // sits inside the span the whole time.
    EXPECT_GE(prof.categorySharePct("monitor"), 90.0);
}

TEST(Profiler, WriteFoldedRoundTrips)
{
    std::string err;
    ASSERT_TRUE(Profiler::global().start({}, &err)) << err;
    {
        GPUPM_TRACE_SPAN("cli", "root.burn");
        burnUntil(10);
    }
    Profiler::global().stop();
    const CpuProfile prof = Profiler::global().collect();

    const std::string path = ::testing::TempDir() + "profile.folded";
    ASSERT_TRUE(prof.writeFolded(path));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), prof.renderFolded());
    EXPECT_FALSE(prof.writeFolded("/nonexistent-dir/x.folded"));
    std::remove(path.c_str());
}

TEST(Profiler, SpanGuardCostsNothingWhenIdle)
{
    ASSERT_FALSE(Profiler::global().running());
    ASSERT_FALSE(Profiler::contextEnabled());
    // Guards are inert with both the tracer and profiler off.
    for (int i = 0; i < 1000; ++i) {
        GPUPM_TRACE_SPAN("estimator", "noop");
    }
    const CpuProfile prof = Profiler::global().collect();
    // collect() after the last run only sees that run's ring.
    EXPECT_GE(prof.samples, 0);
}

/** Internal linkage: dladdr places it in this binary, unnamed. */
static int
unexportedStep(int x)
{
    return 3 * x + 1;
}

TEST(Profiler, UnnamedFramesPrintTheirObjectAndOffset)
{
    const std::string frame = gpupm::obs::symbolize(
            reinterpret_cast<const void *>(&unexportedStep));
    const std::string prefix = "obs_test_profiler+0x";
    ASSERT_EQ(frame.rfind(prefix, 0), 0u) << frame;
    const std::string offset = frame.substr(prefix.size());
    EXPECT_FALSE(offset.empty());
    EXPECT_EQ(offset.find_first_not_of("0123456789abcdef"),
              std::string::npos)
            << frame;
    EXPECT_NE(std::stoull(offset, nullptr, 16), 0u) << frame;
    EXPECT_EQ(unexportedStep(1), 4);

    // An exported function keeps its name; an address no object holds
    // stays a bare pc.
    EXPECT_EQ(gpupm::obs::symbolize(reinterpret_cast<const void *>(
                      &gpupm::obs::profilerPopSpan)),
              "gpupm::obs::profilerPopSpan()");
    EXPECT_EQ(gpupm::obs::symbolize(reinterpret_cast<const void *>(0x10)),
              "0x10");
}

} // namespace
