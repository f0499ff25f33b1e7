/**
 * @file
 * Tests of the assembled run-time pipeline (obs/live.hh): the one
 * tracer attachment protocol, the flight recorder as the pipeline's
 * one event sink (samples and alert transitions in one log, in tick
 * order, rotated together) and the data routes' duration bounds over
 * a live loopback server.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/live.hh"
#include "obs/metrics.hh"
#include "obs/standard.hh"
#include "obs/trace.hh"

namespace
{

using namespace gpupm;

constexpr std::int64_t kPeriodUs = 100'000;

/** Names of the tracer's retained events. */
std::vector<std::string>
eventNames()
{
    std::vector<std::string> names;
    for (const auto &ev : obs::Tracer::global().snapshot())
        names.push_back(ev.name);
    return names;
}

bool
contains(const std::vector<std::string> &names, const std::string &name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

class TraceStoreAttachmentTest : public ::testing::Test
{
  protected:
    void SetUp() override { reset(); }
    void TearDown() override { reset(); }

    static void reset()
    {
        auto &tracer = obs::Tracer::global();
        tracer.disable();
        tracer.attachStore(nullptr);
        tracer.setRetainEvents(true);
        tracer.clear();
        obs::Registry::global().reset();
    }
};

TEST_F(TraceStoreAttachmentTest, OwnsAnIdleTracerForItsLifetime)
{
    auto &tracer = obs::Tracer::global();
    obs::TraceStore store;
    std::uint64_t first_id = 0;
    {
        obs::TraceStoreAttachment tracing(store, 7, false);
        EXPECT_TRUE(tracer.enabled());
        first_id = tracer.mintId();
        {
            GPUPM_TRACE_SPAN("monitor", "attached.root");
        }
        // The trace reached the store, and retain-events is off: the
        // tracer's own event list stays empty.
        EXPECT_EQ(store.offeredTotal(), 1);
        EXPECT_EQ(tracer.eventCount(), 0u);
    }
    EXPECT_FALSE(tracer.enabled());

    // Detached, with retain-events back on: a span completed now goes
    // to the event list and not to the store.
    tracer.enable();
    {
        GPUPM_TRACE_SPAN("monitor", "detached.root");
    }
    tracer.disable();
    EXPECT_EQ(store.offeredTotal(), 1);
    EXPECT_TRUE(contains(eventNames(), "detached.root"));

    // The same seed mints the same IDs.
    obs::TraceStoreAttachment again(store, 7, false);
    EXPECT_EQ(tracer.mintId(), first_id);
}

TEST_F(TraceStoreAttachmentTest, LeavesAnEnabledTracerOn)
{
    // As --trace-out leaves it: enabled, with a completed span in the
    // event list and a root span still open.
    auto &tracer = obs::Tracer::global();
    tracer.enable();
    {
        GPUPM_TRACE_SPAN("cli", "before");
    }
    {
        GPUPM_TRACE_SPAN("cli", "straddle");
        obs::TraceStore store;
        obs::TraceStoreAttachment tracing(store, 7, true);
        EXPECT_TRUE(tracer.enabled());
    }
    EXPECT_TRUE(tracer.enabled());
    const auto names = eventNames();
    EXPECT_TRUE(contains(names, "before"));
    EXPECT_TRUE(contains(names, "straddle"));
}

/**
 * A pipeline over a synthetic probe whose prediction error is 4%, or
 * 30% inside ticks [from, to); `fail_tick` (if >= 0) fails its probe.
 * The rule fires on a rolling MAE above 10% and resolves one period
 * after it clears.
 */
struct DriftingPipeline
{
    DriftingPipeline(long from, long to, long fail_tick = -1)
        : pipe(
                  [this, from, to, fail_tick](const std::string &app,
                                              const gpu::FreqConfig &cfg) {
                      obs::MonitorSample s;
                      s.app = app;
                      s.cfg = cfg;
                      const long t = probe_tick++;
                      s.ok = t != fail_tick;
                      s.error = s.ok ? "" : "sensor offline";
                      s.measured_w = 100.0;
                      s.predicted_w = t >= from && t < to ? 130.0 : 104.0;
                      return s;
                  },
                  {{"APP1", {595, 3505}}, {"APP2", {1000, 3505}}},
                  obs::SamplerOptions{.period_ms = 100,
                                      .rolling_window = 4,
                                      .device = 1,
                                      .device_name = "Fake GPU",
                                      .reference = {1000, 3505}},
                  {rule()})
    {
    }

    static obs::AlertRule rule()
    {
        obs::AlertRule r;
        r.name = "mae_high";
        r.series = "gpupm_accuracy_rolling_mae_pct";
        r.threshold = 10.0;
        r.window_us = 2 * kPeriodUs;
        r.for_us = kPeriodUs;
        r.cooldown_us = kPeriodUs;
        return r;
    }

    void tick(int n)
    {
        for (int t = 0; t < n; ++t)
            pipe.sampler.tickSynchronously((pipe.sampler.ticks() + 1) *
                                           kPeriodUs);
    }

    long probe_tick = 0;
    obs::LivePipeline pipe;
};

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

/** The integer after `"key":` in `line`, or -1. */
long
field(const std::string &line, const std::string &key)
{
    const auto at = line.find("\"" + key + "\":");
    return at == std::string::npos
                   ? -1
                   : std::stol(line.substr(at + key.size() + 3));
}

/** The tick a log line belongs to: its "tick", or its alert's t_us. */
long
tickOf(const std::string &line)
{
    const long t_us = field(line, "t_us");
    return t_us >= 0 ? t_us / kPeriodUs : field(line, "tick");
}

class LivePipelineTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        obs::Registry::global().reset();
        obs::registerStandardMetrics();
    }
    void TearDown() override { obs::Registry::global().reset(); }
};

TEST_F(LivePipelineTest, SamplesAndAlertTransitionsShareOneLogInTickOrder)
{
    const std::string path = "live_one_sink_test.ndjson";
    DriftingPipeline live(10, 20);
    std::string err;
    ASSERT_TRUE(live.pipe.recorder.openLog(path, 0, 1, &err)) << err;
    live.tick(30);

    const auto lines = takeLines(path);
    long samples = 0;
    std::vector<std::string> states;
    long last_tick = 0;
    for (const std::string &line : lines) {
        const bool alert =
                line.find("\"event\":\"alert\"") != std::string::npos;
        // A transition is evaluated after its tick's sample, so a line
        // never belongs to an earlier tick than the one before it.
        EXPECT_GE(tickOf(line), last_tick) << line;
        last_tick = tickOf(line);
        if (alert)
            states.push_back(line.substr(line.find("\"state\":")));
        else
            ++samples;
    }
    EXPECT_EQ(samples, 30);
    ASSERT_EQ(states.size(), 3u);
    EXPECT_EQ(states[0].rfind("\"state\":\"pending\"", 0), 0u);
    EXPECT_EQ(states[1].rfind("\"state\":\"firing\"", 0), 0u);
    EXPECT_EQ(states[2].rfind("\"state\":\"resolved\"", 0), 0u);
    EXPECT_EQ(live.pipe.recorder.recorded(),
              static_cast<std::int64_t>(lines.size()));
}

TEST_F(LivePipelineTest, RotationCoversSampleAndAlertLines)
{
    const std::string path = "live_one_sink_rotate_test.ndjson";
    const long max_bytes = 600;
    const int max_files = 100; // enough to keep every line
    DriftingPipeline live(10, 20);
    std::string err;
    ASSERT_TRUE(live.pipe.recorder.openLog(path, max_bytes, max_files,
                                           &err))
            << err;
    live.tick(30);
    const long rotations = live.pipe.recorder.logRotations();
    ASSERT_GE(rotations, 4L);

    // Oldest generation first, the live file last: every line of the
    // run, in order, none split, each file within the cap plus one
    // line, and alert lines among the rotated ones.
    std::vector<std::string> all;
    bool rotated_alert = false;
    for (long g = rotations; g >= 0; --g) {
        const auto lines = takeLines(
                g ? path + "." + std::to_string(g) : path);
        EXPECT_FALSE(lines.empty()) << g;
        long bytes = 0;
        for (const std::string &line : lines) {
            bytes += static_cast<long>(line.size()) + 1;
            EXPECT_EQ(line.front(), '{');
            EXPECT_EQ(line.back(), '}');
            rotated_alert = rotated_alert ||
                            (g > 0 && line.find("\"event\":\"alert\"") !=
                                              std::string::npos);
            all.push_back(line);
        }
        EXPECT_LE(bytes, max_bytes + 250) << g;
    }
    EXPECT_TRUE(rotated_alert);
    EXPECT_EQ(all.size(), 33u); // 30 samples, 3 transitions
    for (std::size_t i = 1; i < all.size(); ++i)
        EXPECT_GE(tickOf(all[i]), tickOf(all[i - 1])) << all[i];
}

TEST_F(LivePipelineTest, ProbeFailureReachesTheRingNotTheLog)
{
    const std::string path = "live_probe_failure_test.ndjson";
    DriftingPipeline live(100, 100, 2); // no drift; tick 3 fails
    std::string err;
    ASSERT_TRUE(live.pipe.recorder.openLog(path, 0, 1, &err)) << err;
    live.tick(5);

    bool in_ring = false;
    for (const auto &rec : live.pipe.recorder.snapshot())
        in_ring = in_ring || (rec.name == "monitor.probe_failure" &&
                              rec.detail.find("sensor offline") !=
                                      std::string::npos);
    EXPECT_TRUE(in_ring);
    const auto lines = takeLines(path);
    ASSERT_EQ(lines.size(), 4u);
    for (const std::string &line : lines) {
        EXPECT_NE(field(line, "tick"), 3L) << line;
        EXPECT_EQ(line.find("sensor offline"), std::string::npos);
    }
}

/**
 * One GET against 127.0.0.1:`port` that gives up after 1 s; the
 * response's status code, or 0 when none arrived in time.
 */
int
getStatus(int port, const std::string &target, std::string *body)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    timeval timeout{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    std::string out;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) == 0) {
        const std::string req = "GET " + target + " HTTP/1.1\r\n\r\n";
        ::send(fd, req.data(), req.size(), 0);
        char chunk[2048];
        ssize_t n;
        while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0)
            out.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    if (body)
        *body = out;
    return out.rfind("HTTP/1.1 ", 0) == 0 ? std::stoi(out.substr(9)) : 0;
}

TEST_F(LivePipelineTest, DataRoutesRejectDurationsPastTheBound)
{
    obs::Tsdb tsdb;
    for (int t = 1; t <= 100; ++t)
        tsdb.append("s", t * kPeriodUs, 1.0);
    obs::TraceStore store;
    obs::HttpServer server;
    obs::serveData(server, tsdb, store);
    std::string err;
    ASSERT_TRUE(server.start(0, &err)) << err;

    // Each would cast past int64_t microseconds: a 400, promptly.
    for (const char *target :
         {"/api/query?series=s&range=1e14", "/api/query?series=s&step=1e14",
          "/api/traces?min_ms=1e300"}) {
        const auto start = std::chrono::steady_clock::now();
        EXPECT_EQ(getStatus(server.port(), target, nullptr), 400)
                << target;
        EXPECT_LT(std::chrono::steady_clock::now() - start,
                  std::chrono::seconds(1))
                << target;
    }
    // The bound itself is accepted, and the server still answers.
    EXPECT_EQ(getStatus(server.port(),
                        "/api/query?series=s&range=1e9&step=1e9", nullptr),
              200);
    std::string body;
    EXPECT_EQ(getStatus(server.port(), "/api/query?series=s&range=60s",
                        &body),
              200);
    EXPECT_NE(body.find("\"ok\":true"), std::string::npos) << body;
    server.stop();
}

} // namespace
