/**
 * @file
 * Tests of the span tracer and its Chrome trace-event export:
 * disabled guards are inert, nesting yields balanced containment,
 * record order is monotonic, the rendered JSON is structurally
 * sound, and trace IDs propagate (root minting, child inheritance,
 * cross-thread adoption, store assembly).
 */

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "obs/trace.hh"
#include "obs/trace_store.hh"

namespace
{

using namespace gpupm;

/** Fresh tracer state per test (the tracer is process-global). */
class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override { obs::Tracer::global().enable(); }

    void TearDown() override
    {
        obs::Tracer::global().disable();
        obs::Tracer::global().clear();
    }
};

TEST_F(TraceTest, DisabledGuardRecordsNothing)
{
    obs::Tracer::global().disable();
    {
        GPUPM_TRACE_SPAN("cli", "should-not-appear");
    }
    EXPECT_EQ(obs::Tracer::global().eventCount(), 0u);
}

TEST_F(TraceTest, RecordsCompletedSpansWithArgs)
{
    {
        GPUPM_TRACE_SPAN_NAMED(span, "estimator", "fit");
        span.arg("device", "titanx");
    }
    const auto evs = obs::Tracer::global().snapshot();
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].name, "fit");
    EXPECT_EQ(evs[0].cat, "estimator");
    EXPECT_GE(evs[0].ts_us, 0);
    EXPECT_GE(evs[0].dur_us, 0);
    ASSERT_EQ(evs[0].args.size(), 1u);
    EXPECT_EQ(evs[0].args[0].first, "device");
    EXPECT_EQ(evs[0].args[0].second, "titanx");
}

TEST_F(TraceTest, NestedSpansAreBalancedAndContained)
{
    {
        GPUPM_TRACE_SPAN_NAMED(outer, "campaign", "outer");
        {
            GPUPM_TRACE_SPAN("backend", "inner");
        }
    }
    const auto evs = obs::Tracer::global().snapshot();
    ASSERT_EQ(evs.size(), 2u);
    // Inner completes (and so records) first; outer must contain it.
    const auto &inner = evs[0];
    const auto &outer = evs[1];
    EXPECT_EQ(inner.name, "inner");
    EXPECT_EQ(outer.name, "outer");
    EXPECT_LE(outer.ts_us, inner.ts_us);
    EXPECT_GE(outer.ts_us + outer.dur_us, inner.ts_us + inner.dur_us);
}

TEST_F(TraceTest, RecordOrderHasMonotonicEndTimes)
{
    for (int i = 0; i < 50; ++i) {
        GPUPM_TRACE_SPAN("sim", "k");
    }
    const auto evs = obs::Tracer::global().snapshot();
    ASSERT_EQ(evs.size(), 50u);
    for (std::size_t i = 1; i < evs.size(); ++i) {
        EXPECT_LE(evs[i - 1].ts_us + evs[i - 1].dur_us,
                  evs[i].ts_us + evs[i].dur_us);
        EXPECT_LE(evs[i - 1].ts_us, evs[i].ts_us);
    }
}

TEST_F(TraceTest, ThreadsGetDistinctSmallOrdinals)
{
    auto work = [] {
        GPUPM_TRACE_SPAN("backend", "threaded");
    };
    std::thread a(work), b(work);
    a.join();
    b.join();
    work();
    const auto evs = obs::Tracer::global().snapshot();
    ASSERT_EQ(evs.size(), 3u);
    // Three distinct threads -> three distinct ordinals, all small.
    EXPECT_NE(evs[0].tid, evs[1].tid);
    for (const auto &ev : evs) {
        EXPECT_GE(ev.tid, 0);
        EXPECT_LT(ev.tid, 3);
    }
}

TEST_F(TraceTest, ChromeTraceJsonIsStructurallySound)
{
    {
        GPUPM_TRACE_SPAN_NAMED(span, "io", "load");
        span.arg("path", "with \"quotes\" and \\slashes\\");
    }
    {
        GPUPM_TRACE_SPAN("estimator", "fit");
    }
    const std::string json =
            obs::Tracer::global().renderChromeTrace();

    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"io\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
    // The quote and backslash in the arg must come out escaped.
    EXPECT_NE(json.find("with \\\"quotes\\\" and \\\\slashes\\\\"),
              std::string::npos);

    // Balanced braces/brackets (no structural characters can appear
    // unescaped inside the strings used here).
    long braces = 0, brackets = 0;
    bool in_string = false, escaped = false;
    for (char c : json) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (c == '\\') {
            escaped = true;
            continue;
        }
        if (c == '"') {
            in_string = !in_string;
            continue;
        }
        if (in_string)
            continue;
        if (c == '{')
            ++braces;
        if (c == '}')
            --braces;
        if (c == '[')
            ++brackets;
        if (c == ']')
            --brackets;
        EXPECT_GE(braces, 0);
        EXPECT_GE(brackets, 0);
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
    EXPECT_FALSE(in_string);
}

TEST_F(TraceTest, EnableResetsEpochAndDropsOldSpans)
{
    {
        GPUPM_TRACE_SPAN("cli", "before");
    }
    EXPECT_EQ(obs::Tracer::global().eventCount(), 1u);
    obs::Tracer::global().enable();
    EXPECT_EQ(obs::Tracer::global().eventCount(), 0u);
    {
        GPUPM_TRACE_SPAN("cli", "after");
    }
    const auto evs = obs::Tracer::global().snapshot();
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].name, "after");
}

TEST_F(TraceTest, SpanStraddlingEnableIsDroppedNotTruncated)
{
    obs::Tracer::global().disable();
    {
        GPUPM_TRACE_SPAN("cli", "straddler");
        obs::Tracer::global().enable();
    }
    EXPECT_EQ(obs::Tracer::global().eventCount(), 0u);
}

TEST_F(TraceTest, RootMintsTraceIdChildrenInheritIt)
{
    {
        GPUPM_TRACE_SPAN_NAMED(root, "cli", "root");
        EXPECT_NE(root.traceId(), 0u);
        EXPECT_EQ(root.traceId(), root.spanId());
        {
            GPUPM_TRACE_SPAN_NAMED(child, "campaign", "child");
            EXPECT_EQ(child.traceId(), root.traceId());
            EXPECT_NE(child.spanId(), root.spanId());
            {
                GPUPM_TRACE_SPAN_NAMED(grand, "sim", "grandchild");
                EXPECT_EQ(grand.traceId(), root.traceId());
            }
        }
    }
    const auto evs = obs::Tracer::global().snapshot();
    ASSERT_EQ(evs.size(), 3u); // completion order: grand, child, root
    EXPECT_EQ(evs[0].parent_span_id, evs[1].span_id);
    EXPECT_EQ(evs[1].parent_span_id, evs[2].span_id);
    EXPECT_EQ(evs[2].parent_span_id, 0u);
    for (const auto &ev : evs)
        EXPECT_EQ(ev.trace_id, evs[2].span_id);
}

TEST_F(TraceTest, SeededIdsAreDeterministic)
{
    obs::Tracer::global().seedIds(42);
    {
        GPUPM_TRACE_SPAN("cli", "a");
    }
    {
        GPUPM_TRACE_SPAN("cli", "b");
    }
    const auto first = obs::Tracer::global().snapshot();
    ASSERT_EQ(first.size(), 2u);
    EXPECT_NE(first[0].span_id, first[1].span_id);

    obs::Tracer::global().clear();
    obs::Tracer::global().seedIds(42);
    {
        GPUPM_TRACE_SPAN("cli", "a");
    }
    {
        GPUPM_TRACE_SPAN("cli", "b");
    }
    const auto second = obs::Tracer::global().snapshot();
    ASSERT_EQ(second.size(), 2u);
    EXPECT_EQ(first[0].span_id, second[0].span_id);
    EXPECT_EQ(first[1].span_id, second[1].span_id);

    obs::Tracer::global().clear();
    obs::Tracer::global().seedIds(43);
    {
        GPUPM_TRACE_SPAN("cli", "a");
    }
    const auto other = obs::Tracer::global().snapshot();
    ASSERT_EQ(other.size(), 1u);
    EXPECT_NE(other[0].span_id, first[0].span_id);
}

TEST_F(TraceTest, ContextScopeHandsTraceAcrossThreads)
{
    obs::TraceContext root_ctx;
    std::uint64_t worker_trace = 0, worker_parent = 0;
    {
        GPUPM_TRACE_SPAN_NAMED(root, "fleet", "campaign-root");
        root_ctx = obs::currentTraceContext();
        std::thread worker([&] {
            // Without adoption the worker would start its own trace.
            obs::TraceContextScope handoff(root_ctx);
            GPUPM_TRACE_SPAN_NAMED(task, "fleet", "task");
            worker_trace = task.traceId();
            worker_parent = root_ctx.span_id;
        });
        worker.join();
        EXPECT_EQ(worker_trace, root.traceId());
        EXPECT_EQ(worker_parent, root.spanId());
    }
    const auto evs = obs::Tracer::global().snapshot();
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0].name, "task");
    EXPECT_EQ(evs[0].parent_span_id, evs[1].span_id);
}

TEST_F(TraceTest, EmptyContextScopeForcesFreshRoot)
{
    {
        GPUPM_TRACE_SPAN_NAMED(outer, "monitor", "daemon");
        obs::TraceContextScope fresh{obs::TraceContext{}};
        GPUPM_TRACE_SPAN_NAMED(tick, "monitor", "tick");
        // The tick is a new root, not a child of the daemon span.
        EXPECT_NE(tick.traceId(), outer.traceId());
        EXPECT_EQ(tick.traceId(), tick.spanId());
    }
    const auto evs = obs::Tracer::global().snapshot();
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0].parent_span_id, 0u);
    EXPECT_EQ(evs[1].parent_span_id, 0u);
}

TEST_F(TraceTest, MarkErrorFlagsTheEvent)
{
    {
        GPUPM_TRACE_SPAN_NAMED(span, "backend", "measure");
        span.markError();
    }
    const auto evs = obs::Tracer::global().snapshot();
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_TRUE(evs[0].error);
    EXPECT_NE(obs::Tracer::global().renderChromeTrace().find(
                      "\"error\":true"),
              std::string::npos);
}

TEST_F(TraceTest, AttachedStoreReceivesAssembledTraces)
{
    obs::TraceStore store;
    obs::Tracer::global().attachStore(&store);
    {
        GPUPM_TRACE_SPAN("monitor", "tick-root");
        {
            GPUPM_TRACE_SPAN("monitor", "probe");
        }
        {
            GPUPM_TRACE_SPAN_NAMED(audit, "monitor", "audit");
            audit.markError();
        }
    }
    obs::Tracer::global().attachStore(nullptr);

    EXPECT_EQ(store.offeredTotal(), 1L);
    const auto traces = store.query(obs::TraceQuery{});
    ASSERT_EQ(traces.size(), 1u);
    const auto &t = traces[0];
    EXPECT_EQ(t.root_name, "tick-root");
    EXPECT_EQ(t.root_cat, "monitor");
    EXPECT_TRUE(t.error); // audit error propagated to the trace
    ASSERT_EQ(t.spans.size(), 3u);
    // Spans arrive in completion order, the root last.
    EXPECT_EQ(t.spans[0].name, "probe");
    EXPECT_EQ(t.spans[1].name, "audit");
    EXPECT_TRUE(t.spans[1].error);
    EXPECT_EQ(t.spans[2].name, "tick-root");
    EXPECT_EQ(t.spans[2].parent_span_id, 0u);
    EXPECT_EQ(t.spans[0].parent_span_id, t.spans[2].span_id);
    EXPECT_EQ(t.trace_id, t.spans[2].span_id);
}

TEST_F(TraceTest, StoreAndEventListHoldTheSameSpans)
{
    // Both sinks at once: the event list and the store hold the same
    // span records, field for field.
    obs::TraceStore store;
    obs::Tracer::global().attachStore(&store);
    {
        GPUPM_TRACE_SPAN_NAMED(root, "monitor", "tick-root");
        root.arg("tick", 7L);
        {
            GPUPM_TRACE_SPAN_NAMED(probe, "monitor", "probe");
            probe.arg("app", "BLCKSC");
            probe.markError();
        }
        {
            GPUPM_TRACE_SPAN("monitor", "audit");
        }
    }
    obs::Tracer::global().attachStore(nullptr);

    const auto evs = obs::Tracer::global().snapshot();
    const auto traces = store.query(obs::TraceQuery{});
    ASSERT_EQ(traces.size(), 1u);
    const auto &spans = traces[0].spans;
    ASSERT_EQ(spans.size(), 3u);
    ASSERT_EQ(evs.size(), spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(spans[i].name, evs[i].name);
        EXPECT_EQ(spans[i].cat, evs[i].cat);
        EXPECT_EQ(spans[i].ts_us, evs[i].ts_us);
        EXPECT_EQ(spans[i].dur_us, evs[i].dur_us);
        EXPECT_EQ(spans[i].tid, evs[i].tid);
        EXPECT_EQ(spans[i].trace_id, evs[i].trace_id);
        EXPECT_EQ(spans[i].span_id, evs[i].span_id);
        EXPECT_EQ(spans[i].parent_span_id, evs[i].parent_span_id);
        EXPECT_EQ(spans[i].error, evs[i].error);
        EXPECT_EQ(spans[i].args, evs[i].args);
    }
    EXPECT_EQ(spans.back().name, "tick-root");
}

TEST_F(TraceTest, RetainEventsOffStillFeedsTheStore)
{
    obs::TraceStore store;
    obs::Tracer::global().attachStore(&store);
    obs::Tracer::global().setRetainEvents(false);
    for (int i = 0; i < 5; ++i) {
        GPUPM_TRACE_SPAN("monitor", "tick");
    }
    obs::Tracer::global().setRetainEvents(true);
    obs::Tracer::global().attachStore(nullptr);
    // Store-only mode: assembled traces land, raw events do not.
    EXPECT_EQ(store.offeredTotal(), 5L);
    EXPECT_EQ(obs::Tracer::global().eventCount(), 0u);
}

TEST_F(TraceTest, ConcurrentSpansMintGloballyUniqueIds)
{
    constexpr int kThreads = 4, kSpansPer = 200;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([] {
            for (int i = 0; i < kSpansPer; ++i) {
                GPUPM_TRACE_SPAN("sim", "k");
            }
        });
    for (auto &t : threads)
        t.join();
    const auto evs = obs::Tracer::global().snapshot();
    ASSERT_EQ(evs.size(),
              static_cast<std::size_t>(kThreads * kSpansPer));
    std::set<std::uint64_t> ids;
    for (const auto &ev : evs) {
        EXPECT_NE(ev.span_id, 0u);
        ids.insert(ev.span_id);
    }
    EXPECT_EQ(ids.size(), evs.size());
}

} // namespace
