/**
 * @file
 * Tests of the metrics registry: counter/gauge/histogram semantics,
 * idempotent registration, the Prometheus and JSON renderings, a
 * multi-threaded increment smoke test (updates take no lock), and the
 * standard accessors' cached handles across Registry::reset().
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "obs/standard.hh"
#include "obs/trace.hh"

namespace
{

using namespace gpupm;

/** Isolate every test from the process-global registry. */
class MetricsTest : public ::testing::Test
{
  protected:
    void SetUp() override { obs::Registry::global().reset(); }
    void TearDown() override { obs::Registry::global().reset(); }
};

TEST_F(MetricsTest, CounterAccumulatesAndDropsNegatives)
{
    auto &c = obs::Registry::global().counter("t_total", "help");
    c.inc();
    c.inc(2.5);
    c.inc(-100.0); // monotonic: dropped
    EXPECT_DOUBLE_EQ(c.value(), 3.5);
}

TEST_F(MetricsTest, GaugeKeepsLastValue)
{
    auto &g = obs::Registry::global().gauge("t_gauge", "help");
    g.set(7.0);
    g.set(-2.0);
    EXPECT_DOUBLE_EQ(g.value(), -2.0);
}

TEST_F(MetricsTest, HistogramBucketsAreCumulative)
{
    auto &h = obs::Registry::global().histogram("t_hist", "help",
                                                {1.0, 10.0, 100.0});
    h.observe(0.5);   // <= 1
    h.observe(5.0);   // <= 10
    h.observe(50.0);  // <= 100
    h.observe(500.0); // overflow
    const auto cum = h.cumulativeCounts();
    ASSERT_EQ(cum.size(), 3u);
    EXPECT_DOUBLE_EQ(cum[0], 1.0);
    EXPECT_DOUBLE_EQ(cum[1], 2.0);
    EXPECT_DOUBLE_EQ(cum[2], 3.0);
    EXPECT_DOUBLE_EQ(h.count(), 4.0);
    EXPECT_DOUBLE_EQ(h.sum(), 555.5);
}

TEST_F(MetricsTest, RegistrationIsIdempotent)
{
    auto &a = obs::Registry::global().counter("t_same", "help");
    auto &b = obs::Registry::global().counter("t_same", "help");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(obs::Registry::global().size(), 1u);
}

TEST_F(MetricsTest, PrometheusRenderingHasHelpTypeAndInfBucket)
{
    auto &reg = obs::Registry::global();
    reg.counter("t_runs_total", "number of runs").inc(3);
    reg.histogram("t_lat_seconds", "latency", {0.1, 1.0}).observe(0.5);
    const std::string text = reg.renderPrometheus();
    EXPECT_NE(text.find("# HELP t_runs_total number of runs"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE t_runs_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("t_runs_total 3"), std::string::npos);
    EXPECT_NE(text.find("# TYPE t_lat_seconds histogram"),
              std::string::npos);
    EXPECT_NE(text.find("t_lat_seconds_bucket{le=\"+Inf\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("t_lat_seconds_count 1"), std::string::npos);
}

TEST_F(MetricsTest, JsonRenderingIsKeyedByName)
{
    auto &reg = obs::Registry::global();
    reg.counter("t_a_total", "a").inc();
    reg.gauge("t_b", "b").set(4.0);
    const std::string json = reg.renderJson();
    EXPECT_NE(json.find("\"t_a_total\""), std::string::npos);
    EXPECT_NE(json.find("\"t_b\""), std::string::npos);
    EXPECT_NE(json.find("\"type\":\"counter\""), std::string::npos);
    EXPECT_NE(json.find("\"type\":\"gauge\""), std::string::npos);
}

TEST_F(MetricsTest, ConcurrentIncrementsAreNotLost)
{
    auto &reg = obs::Registry::global();
    auto &c = reg.counter("t_conc_total", "concurrency smoke");
    auto &h = reg.histogram("t_conc_hist", "concurrency smoke",
                            {0.25, 0.5, 0.75});
    constexpr int kThreads = 8;
    constexpr int kIters = 5000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                c.inc();
                h.observe((t % 4) * 0.25);
                // Concurrent (idempotent) registration too.
                reg.counter("t_conc_total", "concurrency smoke");
                // A standard accessor: every thread races to resolve
                // its cached handle on first use.
                obs::simKernelExecutionsTotal().inc();
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_DOUBLE_EQ(c.value(),
                     static_cast<double>(kThreads) * kIters);
    EXPECT_DOUBLE_EQ(h.count(),
                     static_cast<double>(kThreads) * kIters);
    EXPECT_DOUBLE_EQ(obs::simKernelExecutionsTotal().value(),
                     static_cast<double>(kThreads) * kIters);
}

TEST_F(MetricsTest, FirstBucketObservationsInATraceLeaveAnExemplar)
{
    // Microsecond observations all land in the first seconds bucket,
    // as a monitor tick's probe timings do; that bucket holds the p99
    // rank, so the trace they were made in becomes the exemplar.
    auto &h = obs::Registry::global().histogram(
            "t_exemplar_seconds", "help", obs::secondsBuckets());
    std::uint64_t id = 0;
    double value = 0.0;
    {
        obs::TraceContextScope scope({0xabcdefull, 0xabcdefull});
        for (int i = 0; i < 12; ++i)
            h.observe(5e-6);
    }
    ASSERT_TRUE(h.exemplar(&id, &value));
    EXPECT_EQ(id, 0xabcdefull);
    EXPECT_DOUBLE_EQ(value, 5e-6);
}

TEST_F(MetricsTest, QuantileOfEmptyHistogramIsZero)
{
    auto &h = obs::Registry::global().histogram("t_q_empty", "help",
                                                {1.0, 10.0});
    EXPECT_DOUBLE_EQ(h.quantileEstimate(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.quantileEstimate(0.99), 0.0);
}

TEST_F(MetricsTest, QuantileInterpolatesWithinBucket)
{
    auto &h = obs::Registry::global().histogram("t_q_interp", "help",
                                                {10.0, 20.0});
    // 10 observations, all in the (10, 20] bucket.
    for (int i = 0; i < 10; ++i)
        h.observe(15.0);
    // Median rank 5 of 10 sits halfway through the second bucket.
    EXPECT_DOUBLE_EQ(h.quantileEstimate(0.5), 15.0);
    EXPECT_DOUBLE_EQ(h.quantileEstimate(1.0), 20.0);
    // q=0 clamps to the bucket's lower edge.
    EXPECT_DOUBLE_EQ(h.quantileEstimate(0.0), 10.0);
}

TEST_F(MetricsTest, QuantileSpreadAcrossBuckets)
{
    auto &h = obs::Registry::global().histogram(
            "t_q_spread", "help", {1.0, 2.0, 4.0, 8.0});
    // One observation per bucket: ranks split evenly.
    h.observe(0.5);
    h.observe(1.5);
    h.observe(3.0);
    h.observe(6.0);
    EXPECT_DOUBLE_EQ(h.quantileEstimate(0.25), 1.0);
    EXPECT_DOUBLE_EQ(h.quantileEstimate(0.5), 2.0);
    EXPECT_DOUBLE_EQ(h.quantileEstimate(1.0), 8.0);
}

TEST_F(MetricsTest, QuantileOverflowClampsToLargestBound)
{
    auto &h = obs::Registry::global().histogram("t_q_over", "help",
                                                {1.0, 10.0});
    h.observe(1000.0); // +Inf overflow bucket
    h.observe(2000.0);
    // histogram_quantile() convention: report the largest finite
    // bound rather than extrapolating into the open bucket.
    EXPECT_DOUBLE_EQ(h.quantileEstimate(0.99), 10.0);
    // Out-of-range q values clamp instead of misbehaving: q>1 acts
    // as q=1; q<0 acts as q=0, landing in the empty first bucket
    // whose upper bound is reported.
    EXPECT_DOUBLE_EQ(h.quantileEstimate(7.0), 10.0);
    EXPECT_DOUBLE_EQ(h.quantileEstimate(-3.0), 1.0);
}

TEST_F(MetricsTest, RenderingsCarrySummaryQuantiles)
{
    auto &reg = obs::Registry::global();
    auto &h = reg.histogram("t_q_render", "render", {1.0, 10.0});
    for (int i = 0; i < 100; ++i)
        h.observe(0.5);
    const std::string prom = reg.renderPrometheus();
    EXPECT_NE(prom.find("t_q_render{quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(prom.find("t_q_render{quantile=\"0.95\"}"),
              std::string::npos);
    EXPECT_NE(prom.find("t_q_render{quantile=\"0.99\"}"),
              std::string::npos);
    const std::string json = reg.renderJson();
    EXPECT_NE(json.find("\"p50\":"), std::string::npos);
    EXPECT_NE(json.find("\"p95\":"), std::string::npos);
    EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST_F(MetricsTest, QuantileTextAndJsonAgree)
{
    auto &reg = obs::Registry::global();
    auto &h = reg.histogram("t_q_agree", "agree", {1.0, 5.0, 25.0});
    // A skewed distribution so p50/p95/p99 land in three different
    // buckets — a text/JSON divergence cannot hide behind symmetry.
    for (int i = 0; i < 60; ++i)
        h.observe(0.5);
    for (int i = 0; i < 30; ++i)
        h.observe(3.0);
    for (int i = 0; i < 10; ++i)
        h.observe(20.0);
    const std::string prom = reg.renderPrometheus();
    const std::string json = reg.renderJson();

    auto promValue = [&](const char *label) {
        const std::string key =
                std::string("t_q_agree{quantile=\"") + label + "\"} ";
        const auto pos = prom.find(key);
        EXPECT_NE(pos, std::string::npos) << label;
        return pos == std::string::npos
                       ? -1.0
                       : std::atof(prom.c_str() + pos + key.size());
    };
    auto jsonValue = [&](const char *key) {
        const auto obj = json.find("\"t_q_agree\"");
        EXPECT_NE(obj, std::string::npos);
        const std::string k = std::string("\"") + key + "\":";
        const auto pos = json.find(k, obj);
        EXPECT_NE(pos, std::string::npos) << key;
        return pos == std::string::npos
                       ? -1.0
                       : std::atof(json.c_str() + pos + k.size());
    };
    // Both renderings format the same estimate, so the parsed values
    // agree exactly; the estimator itself agrees up to formatting.
    EXPECT_DOUBLE_EQ(promValue("0.5"), jsonValue("p50"));
    EXPECT_DOUBLE_EQ(promValue("0.95"), jsonValue("p95"));
    EXPECT_DOUBLE_EQ(promValue("0.99"), jsonValue("p99"));
    EXPECT_NEAR(promValue("0.5"), h.quantileEstimate(0.50), 1e-6);
    EXPECT_NEAR(promValue("0.95"), h.quantileEstimate(0.95), 1e-6);
    EXPECT_NEAR(promValue("0.99"), h.quantileEstimate(0.99), 1e-6);
}

TEST_F(MetricsTest, StandardAccessorFollowsRegistryReset)
{
    auto &reg = obs::Registry::global();
    obs::campaignCellsDoneTotal().inc(2);
    obs::simKernelTimeSeconds().observe(0.5);
    EXPECT_NE(reg.renderPrometheus().find(
                      "gpupm_campaign_cells_done_total 2"),
              std::string::npos);

    // After a reset the registry is empty until something registers;
    // the accessors then count into the new registry.
    reg.reset();
    EXPECT_EQ(reg.size(), 0u);
    obs::campaignCellsDoneTotal().inc(3);
    obs::simKernelTimeSeconds().observe(0.5);
    ASSERT_EQ(reg.size(), 2u); // a stale handle would dangle below
    EXPECT_DOUBLE_EQ(obs::campaignCellsDoneTotal().value(), 3.0);
    EXPECT_DOUBLE_EQ(obs::simKernelTimeSeconds().count(), 1.0);
    const std::string text = reg.renderPrometheus();
    EXPECT_NE(text.find("gpupm_campaign_cells_done_total 3"),
              std::string::npos);
    EXPECT_NE(text.find("gpupm_sim_kernel_time_seconds_count 1"),
              std::string::npos);
    EXPECT_EQ(&obs::campaignCellsDoneTotal(),
              &reg.counter("gpupm_campaign_cells_done_total",
                           "Measurement cells completed"));
}

TEST_F(MetricsTest, StandardCatalogPreRegistersEverything)
{
    obs::registerStandardMetrics();
    const std::string text =
            obs::Registry::global().renderPrometheus();
    // Untouched paths still appear, with zeros.
    EXPECT_NE(text.find("gpupm_estimator_iterations_total 0"),
              std::string::npos);
    EXPECT_NE(text.find("gpupm_resilient_retries_total 0"),
              std::string::npos);
    EXPECT_NE(text.find("gpupm_sim_kernel_executions_total 0"),
              std::string::npos);
    EXPECT_NE(text.find("gpupm_io_loads_total 0"),
              std::string::npos);
    EXPECT_NE(text.find("gpupm_campaign_runs_total 0"),
              std::string::npos);
}

} // namespace
