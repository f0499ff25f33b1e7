/**
 * @file
 * The instrumentation's off path allocates nothing. With the tracer
 * and the profiler off, a simulated kernel execution (its span, span
 * args and two standard metrics) and a span carrying the args
 * sim.execute attaches make no heap allocation. A counting global
 * operator new, replaced in this test binary only, checks it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "obs/profiler.hh"
#include "obs/standard.hh"
#include "obs/trace.hh"
#include "sim/physical_gpu.hh"
#include "workloads/workloads.hh"

namespace
{
std::atomic<long> g_allocations{0};
} // namespace

void *
operator new(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace gpupm;

long
allocations()
{
    return g_allocations.load(std::memory_order_relaxed);
}

std::string g_sink;

class OffPath : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        ASSERT_FALSE(obs::Tracer::global().enabled());
        ASSERT_FALSE(obs::Profiler::contextEnabled());
    }
};

TEST_F(OffPath, CounterSeesAHeapString)
{
    // The positive control: the replaced operator new is the one the
    // library's containers call.
    const long before = allocations();
    g_sink.assign(100, 'x');
    EXPECT_GT(allocations() - before, 0);
}

TEST_F(OffPath, ExecuteAllocatesNothing)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    const auto app = workloads::blackScholes();
    const auto cfg = board.descriptor().referenceConfig();
    // The first call registers the two sim metrics.
    double t = board.execute(app.demand, cfg).time_s;
    const long before = allocations();
    for (int i = 0; i < 1000; ++i)
        t += board.execute(app.demand, cfg).time_s;
    EXPECT_EQ(allocations() - before, 0);
    EXPECT_GT(t, 0.0);
}

TEST_F(OffPath, SpanWithArgsAllocatesNothing)
{
    // Name and device are longer than any small-string buffer, so a
    // copy of either would allocate.
    const std::string device = "NVIDIA GeForce GTX Titan X (Maxwell)";
    const long before = allocations();
    for (long i = 0; i < 1000; ++i) {
        GPUPM_TRACE_SPAN_NAMED(span, "sim", "sim.execute.off-path-check");
        span.arg("device", device);
        span.arg("config", 1000 + i);
        EXPECT_FALSE(span.armed());
    }
    EXPECT_EQ(allocations() - before, 0);
}

TEST_F(OffPath, StandardMetricUpdatesAllocateNothing)
{
    // Only the first use registers (and allocates).
    long before = allocations();
    obs::campaignCellsDoneTotal().inc();
    obs::estimatorIterationsPerFit().observe(3.0);
    EXPECT_GT(allocations() - before, 0);
    before = allocations();
    for (int i = 0; i < 1000; ++i) {
        obs::campaignCellsDoneTotal().inc();
        obs::estimatorIterationsPerFit().observe(i % 60);
    }
    EXPECT_EQ(allocations() - before, 0);
}

} // namespace
