/**
 * @file
 * Tests of the bounded trace store's tail-sampling policy: exact
 * byte accounting, bound enforcement, boring-first eviction, 100%
 * error-trace retention, the one slowest-trace reservoir, query
 * filters, and the JSON rendering. A differential test replays random
 * offer streams through the store and through a sort-per-eviction
 * reference of the same policy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/standard.hh"
#include "obs/trace_store.hh"

namespace
{

using namespace gpupm;

class TraceStoreTest : public ::testing::Test
{
  protected:
    void SetUp() override { obs::Registry::global().reset(); }
    void TearDown() override { obs::Registry::global().reset(); }
};

obs::StoredTrace
makeTrace(std::uint64_t id, const std::string &cat,
          std::int64_t dur_us, bool error = false,
          std::size_t extra_spans = 0)
{
    obs::StoredTrace t;
    t.trace_id = id;
    t.root_name = "root";
    t.root_cat = cat;
    t.start_us = static_cast<std::int64_t>(id);
    t.dur_us = dur_us;
    t.error = error;
    for (std::size_t i = 0; i < extra_spans; ++i) {
        obs::TraceEvent s;
        s.name = "child";
        s.cat = cat;
        s.span_id = id * 1000 + i + 1;
        s.parent_span_id = id;
        t.spans.push_back(s);
    }
    obs::TraceEvent root;
    root.name = t.root_name;
    root.cat = cat;
    root.span_id = id;
    root.error = error;
    t.spans.push_back(root);
    return t;
}

TEST_F(TraceStoreTest, FootprintCountsEveryStringAndSpan)
{
    auto t = makeTrace(1, "monitor", 100, false, 2);
    const std::size_t base = obs::TraceStore::footprint(t);
    t.spans[0].args.emplace_back("key", "0123456789");
    EXPECT_EQ(obs::TraceStore::footprint(t),
              base + sizeof(t.spans[0].args[0]) + 3 + 10);
}

TEST_F(TraceStoreTest, AccountingMatchesResidentTraces)
{
    obs::TraceStore store;
    std::size_t expected = 0;
    for (int i = 1; i <= 10; ++i) {
        auto t = makeTrace(static_cast<std::uint64_t>(i), "monitor",
                           i * 10, false, 3);
        expected += obs::TraceStore::footprint(t);
        store.offer(std::move(t));
    }
    EXPECT_EQ(store.memoryBytes(), expected);
    EXPECT_EQ(store.traceCount(), 10u);
    EXPECT_EQ(store.offeredTotal(), 10L);
    EXPECT_EQ(store.evictedTotal(), 0L);
    // The standard gauges track the store exactly.
    EXPECT_EQ(obs::traceStoreTraces().value(), 10.0);
    EXPECT_EQ(obs::traceStoreMemoryBytes().value(),
              static_cast<double>(expected));
}

TEST_F(TraceStoreTest, CountBoundEvictsOldestBoringFirst)
{
    obs::TraceStoreOptions opts;
    opts.max_traces = 4;
    opts.slow_kept = 1; // only the single slowest is protected
    obs::TraceStore store(opts);
    // id 1 is slowest (protected); ids 2..5 boring and fast.
    store.offer(makeTrace(1, "monitor", 1000));
    for (std::uint64_t id = 2; id <= 5; ++id)
        store.offer(makeTrace(id, "monitor", 10));
    EXPECT_EQ(store.traceCount(), 4u);
    EXPECT_EQ(store.evictedTotal(), 1L);
    // The evicted one is id 2 — the oldest non-protected trace.
    obs::TraceQuery q;
    q.trace_id = 2;
    EXPECT_TRUE(store.query(q).empty());
    q.trace_id = 1;
    EXPECT_EQ(store.query(q).size(), 1u);
}

TEST_F(TraceStoreTest, ByteBoundIsNeverExceeded)
{
    obs::TraceStoreOptions opts;
    opts.max_bytes = 4096;
    obs::TraceStore store(opts);
    for (std::uint64_t id = 1; id <= 200; ++id) {
        store.offer(makeTrace(id, "monitor", 50, false, 4));
        EXPECT_LE(store.memoryBytes(), opts.max_bytes);
    }
    EXPECT_GT(store.evictedTotal(), 0L);
    EXPECT_GT(store.traceCount(), 0u);
}

TEST_F(TraceStoreTest, ErrorTracesSurviveBoringChurn)
{
    obs::TraceStoreOptions opts;
    opts.max_traces = 8;
    opts.slow_kept = 2;
    obs::TraceStore store(opts);
    // Three early error traces, then a flood of boring ones.
    for (std::uint64_t id = 1; id <= 3; ++id)
        store.offer(makeTrace(id, "monitor", 10, true));
    for (std::uint64_t id = 4; id <= 100; ++id)
        store.offer(makeTrace(id, "monitor", 20));
    EXPECT_EQ(store.errorsOfferedTotal(), 3L);
    EXPECT_EQ(store.errorsEvictedTotal(), 0L);
    obs::TraceQuery q;
    q.error_only = true;
    q.limit = 100;
    EXPECT_EQ(store.query(q).size(), 3u);
}

TEST_F(TraceStoreTest, ErrorsEvictedOnlyAsLastResort)
{
    obs::TraceStoreOptions opts;
    opts.max_traces = 4;
    obs::TraceStore store(opts);
    for (std::uint64_t id = 1; id <= 6; ++id)
        store.offer(makeTrace(id, "monitor", 10, true));
    // Nothing but error traces: the bound still holds, oldest go.
    EXPECT_EQ(store.traceCount(), 4u);
    EXPECT_EQ(store.errorsEvictedTotal(), 2L);
    obs::TraceQuery q;
    q.trace_id = 1;
    EXPECT_TRUE(store.query(q).empty());
    q.trace_id = 6;
    EXPECT_EQ(store.query(q).size(), 1u);
}

TEST_F(TraceStoreTest, OneSlowReservoirAcrossCategories)
{
    obs::TraceStoreOptions opts;
    opts.max_traces = 4;
    opts.slow_kept = 1;
    obs::TraceStore store(opts);
    store.offer(makeTrace(1, "monitor", 900));
    store.offer(makeTrace(2, "fleet", 1000)); // takes the one slot
    for (std::uint64_t id = 3; id <= 30; ++id)
        store.offer(makeTrace(id, "monitor", 1));
    // The slowest trace survived the churn; the slowest "monitor"
    // trace lost its protection to it and was evicted.
    obs::TraceQuery q;
    q.trace_id = 2;
    EXPECT_EQ(store.query(q).size(), 1u);
    q.trace_id = 1;
    EXPECT_TRUE(store.query(q).empty());
}

TEST_F(TraceStoreTest, OversizedTraceIsRejectedAtTheDoor)
{
    obs::TraceStoreOptions opts;
    opts.max_bytes = 512;
    obs::TraceStore store(opts);
    auto huge = makeTrace(1, "monitor", 10, false, 50);
    ASSERT_GT(obs::TraceStore::footprint(huge), opts.max_bytes);
    store.offer(std::move(huge));
    EXPECT_EQ(store.traceCount(), 0u);
    EXPECT_EQ(store.evictedTotal(), 1L);
    EXPECT_EQ(store.memoryBytes(), 0u);
}

TEST_F(TraceStoreTest, QueryFiltersCompose)
{
    obs::TraceStore store;
    store.offer(makeTrace(1, "monitor", 100));
    store.offer(makeTrace(2, "monitor", 5000, true));
    store.offer(makeTrace(3, "fleet", 9000));

    obs::TraceQuery q;
    q.category = "monitor";
    q.limit = 10;
    EXPECT_EQ(store.query(q).size(), 2u);
    q.min_dur_us = 1000;
    EXPECT_EQ(store.query(q).size(), 1u);
    q.error_only = true;
    ASSERT_EQ(store.query(q).size(), 1u);
    EXPECT_EQ(store.query(q)[0].trace_id, 2u);
    // Newest first.
    obs::TraceQuery all;
    const auto res = store.query(all);
    ASSERT_EQ(res.size(), 3u);
    EXPECT_EQ(res[0].trace_id, 3u);
    EXPECT_EQ(res[2].trace_id, 1u);
    // Limit caps from the newest end.
    all.limit = 1;
    ASSERT_EQ(store.query(all).size(), 1u);
    EXPECT_EQ(store.query(all)[0].trace_id, 3u);
}

TEST_F(TraceStoreTest, RenderJsonCarriesHexIdsAndCounters)
{
    obs::TraceStore store;
    auto t = makeTrace(0xabcdef0123456789ull, "monitor", 42, true, 1);
    t.spans[0].args.emplace_back("app", "BLCKSC");
    store.offer(std::move(t));
    const std::string json = store.renderJson(obs::TraceQuery{});
    EXPECT_NE(json.find("\"trace_id\":\"abcdef0123456789\""),
              std::string::npos);
    EXPECT_NE(json.find("\"count\":1"), std::string::npos);
    EXPECT_NE(json.find("\"errors_offered\":1"), std::string::npos);
    EXPECT_NE(json.find("\"memory_bound_bytes\":"),
              std::string::npos);
    EXPECT_NE(json.find("\"error\":true"), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"app\":\"BLCKSC\"}"),
              std::string::npos);
    // Clearing zeroes the gauges and the resident set.
    store.clear();
    EXPECT_EQ(store.traceCount(), 0u);
    EXPECT_EQ(store.memoryBytes(), 0u);
    EXPECT_EQ(obs::traceStoreTraces().value(), 0.0);
}

/** One resident of the reference store: what its policy reads. */
struct RefTrace
{
    std::uint64_t id = 0;
    std::int64_t dur_us = 0;
    bool error = false;
    std::size_t bytes = 0;
    std::uint64_t seq = 0;
};

/**
 * The tail-sampling policy as a sort per eviction: rank the non-error
 * residents slowest first (older first on equal durations), protect
 * the first slow_kept, then evict the oldest unprotected non-error
 * trace, else the last-ranked protected one, else the oldest trace.
 */
struct RefStore
{
    obs::TraceStoreOptions opts;
    std::vector<RefTrace> traces; ///< arrival order
    std::size_t bytes = 0;
    std::uint64_t next_seq = 1;
    long evicted = 0;
    long errors_evicted = 0;

    void offer(RefTrace t)
    {
        if (t.bytes > opts.max_bytes) {
            ++evicted;
            errors_evicted += t.error;
            return;
        }
        t.seq = next_seq++;
        bytes += t.bytes;
        traces.push_back(std::move(t));
        while (bytes > opts.max_bytes || traces.size() > opts.max_traces)
            evictOne();
    }

    void evictOne()
    {
        std::vector<std::size_t> order;
        for (std::size_t i = 0; i < traces.size(); ++i)
            if (!traces[i].error)
                order.push_back(i);
        std::sort(order.begin(), order.end(),
                  [this](std::size_t a, std::size_t b) {
                      if (traces[a].dur_us != traces[b].dur_us)
                          return traces[a].dur_us > traces[b].dur_us;
                      return traces[a].seq < traces[b].seq;
                  });
        std::vector<bool> protected_slow(traces.size(), false);
        for (std::size_t k = 0; k < order.size() && k < opts.slow_kept; ++k)
            protected_slow[order[k]] = true;
        std::size_t victim = traces.size();
        for (std::size_t i = 0; i < traces.size() && victim == traces.size();
             ++i)
            if (!traces[i].error && !protected_slow[i])
                victim = i;
        if (victim == traces.size() && !order.empty())
            victim = order.back();
        if (victim == traces.size())
            victim = 0;
        ++evicted;
        errors_evicted += traces[victim].error;
        bytes -= traces[victim].bytes;
        traces.erase(traces.begin() + static_cast<std::ptrdiff_t>(victim));
    }
};

TEST_F(TraceStoreTest, EvictionMatchesTheSortPerEvictionReference)
{
    // Durations of 0-11 us make ties common; 10% of traces are
    // errors; a third of the rounds bind on bytes (2-8 KB) as well as
    // on the count, so one offer can evict several traces. Root
    // categories vary too, and the one reservoir ignores them.
    std::mt19937_64 rng(0x7a11u);
    const char *const cats[] = {"monitor", "fleet", "cli"};
    constexpr int kRounds = 256, kOffersPerRound = 400;
    for (int round = 0; round < kRounds; ++round) {
        obs::TraceStoreOptions opts;
        opts.max_traces = 1 + rng() % 24;
        opts.slow_kept = rng() % 5;
        if (round % 3 == 0)
            opts.max_bytes = 2048 + rng() % (6 * 1024 + 1);
        const std::size_t n_cats = 1 + rng() % 3;
        obs::TraceStore store(opts);
        RefStore ref;
        ref.opts = opts;
        for (int i = 0; i < kOffersPerRound; ++i) {
            const std::uint64_t id =
                    static_cast<std::uint64_t>(round) * kOffersPerRound +
                    static_cast<std::uint64_t>(i) + 1;
            const std::string cat = cats[rng() % n_cats];
            const auto dur = static_cast<std::int64_t>(rng() % 12);
            const bool error = rng() % 10 == 0;
            auto t = makeTrace(id, cat, dur, error, rng() % 6);
            ref.offer({id, dur, error,
                       obs::TraceStore::footprint(t), 0});
            store.offer(std::move(t));

            const auto resident = store.query(obs::TraceQuery{});
            ASSERT_EQ(resident.size(), ref.traces.size())
                    << "round " << round << " offer " << i;
            for (std::size_t k = 0; k < resident.size(); ++k)
                ASSERT_EQ(resident[k].trace_id,
                          ref.traces[ref.traces.size() - 1 - k].id)
                        << "round " << round << " offer " << i;
            ASSERT_EQ(store.evictedTotal(), ref.evicted);
            ASSERT_EQ(store.errorsEvictedTotal(), ref.errors_evicted);
            ASSERT_EQ(store.memoryBytes(), ref.bytes);
        }
    }
}

} // namespace
