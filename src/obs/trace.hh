/**
 * @file
 * Span-based tracer with request-correlated trace IDs and Chrome
 * trace-event export.
 *
 * Instrumented code opens RAII spans (GPUPM_TRACE_SPAN) around units
 * of work; the global Tracer collects one complete event ("ph":"X")
 * per span and exports them as Chrome trace-event JSON, loadable in
 * chrome://tracing and Perfetto. The tracer is off by default: a
 * disabled SpanGuard reads two relaxed atomics (tracer and profiler)
 * in its constructor and copies, formats and allocates nothing, so
 * instrumentation can stay in hot paths permanently. Call sites that
 * format an arg test armed() first; arg() itself copies only when
 * armed.
 *
 * Correlation (DESIGN.md §15): every armed span carries a 64-bit
 * span ID minted from a seeded splitmix64 counter (deterministic
 * under seedIds(), no rand()). A span opened with no active context
 * becomes a trace root — its trace ID equals its span ID — and
 * installs itself as the thread-local context; children inherit the
 * trace ID and record their parent's span ID. The context crosses
 * thread boundaries explicitly via TraceContextScope (each fleet
 * worker adopts its campaign's) and is reset per sampler tick so each
 * tick's measure→predict→audit→tsdb→alert chain is one trace.
 * Completed traces assemble in the Tracer and are offered to an
 * optional bounded TraceStore (trace_store.hh) for tail sampling.
 *
 * Span taxonomy (the `cat` field; see DESIGN.md §9):
 *
 *   cli        one root span per gpupm subcommand
 *   campaign   training-campaign passes and per-benchmark work
 *   backend    resilient measurement calls (profile / power / idle)
 *   sim        simulated kernel executions
 *   estimator  Sec. III-D fit, per-iteration spans
 *   io         artifact load / save / validation
 *   monitor    sampler ticks and monitor endpoints
 *   fleet      fleet campaigns, shard attempts and deadline fires
 */

#ifndef GPUPM_OBS_TRACE_HH
#define GPUPM_OBS_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gpupm
{
namespace obs
{

class TraceStore;

/**
 * One completed span, in the Chrome trace-event vocabulary. The one
 * span record: the tracer's event list, trace assembly and the
 * TraceStore (trace_store.hh) all hold it as recorded.
 */
struct TraceEvent
{
    std::string name;
    std::string cat;
    std::int64_t ts_us = 0;  ///< start, microseconds since enable()
    std::int64_t dur_us = 0; ///< duration, microseconds
    int tid = 0;             ///< small per-process thread ordinal
    std::uint64_t trace_id = 0; ///< nonzero for every armed span
    std::uint64_t span_id = 0;  ///< unique per span; == trace_id at root
    std::uint64_t parent_span_id = 0; ///< 0 for trace roots
    bool error = false; ///< markError(): trace is tail-kept
    /** Optional key/value annotations ("args" in the JSON). */
    std::vector<std::pair<std::string, std::string>> args;
};

/**
 * The propagated part of a span: which trace the current thread is
 * inside and which span is the would-be parent. An all-zero context
 * means "no active trace" — the next armed span becomes a root.
 */
struct TraceContext
{
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
};

/** The calling thread's current context ({0,0} outside any span). */
TraceContext currentTraceContext();

/** 64-bit ID as the canonical fixed-width lowercase hex string. */
std::string traceIdHex(std::uint64_t id);

/**
 * Write a span's args as `,"args":{"key":"value",...}` (keys and
 * values escaped), or nothing when it has none. Every JSON surface
 * that prints spans — the Chrome trace, /api/traces and `gpupm
 * traces --json` — writes them through this one function.
 */
void writeArgsJson(std::ostream &os, const TraceEvent &ev);

/**
 * RAII adoption of a trace context on the current thread: install
 * `ctx` (saving whatever was there), restore on destruction. Used to
 * hand a fleet campaign's context to each of its workers and — by
 * adopting an empty context — force a fresh root per sampler tick.
 */
class TraceContextScope
{
  public:
    explicit TraceContextScope(TraceContext ctx);
    ~TraceContextScope();

    TraceContextScope(const TraceContextScope &) = delete;
    TraceContextScope &operator=(const TraceContextScope &) = delete;

  private:
    TraceContext saved_;
};

/**
 * Process-global span sink. Thread-safe: spans may complete
 * concurrently from any thread; each is recorded under one lock.
 */
class Tracer
{
  public:
    static Tracer &global();

    /** Start collecting; resets the clock epoch and drops old spans. */
    void enable();

    /** Stop collecting (already-collected spans are kept). */
    void disable();

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Re-seed the deterministic span-ID counter. With the same seed
     * and the same (single-threaded) span order, a run mints the
     * same IDs — the `gpupm traces` replay leans on this.
     */
    void seedIds(std::uint64_t seed);

    /** Mint the next span ID (splitmix64, never 0). */
    std::uint64_t mintId();

    /**
     * Attach (or detach, with nullptr) a store that receives each
     * fully assembled trace when its root span completes. Pending
     * partial assemblies are dropped on re-attach.
     */
    void attachStore(TraceStore *store);

    /**
     * When false, record() feeds trace assembly (attachStore) only
     * and does not retain raw events — long-lived daemons keep the
     * tracer on without unbounded event growth. Default true.
     */
    void setRetainEvents(bool retain);

    /** Record one completed span. */
    void record(TraceEvent ev);

    /** Microseconds since the tracer's epoch (monotonic clock). */
    std::int64_t nowUs() const;

    /**
     * Small ordinal of the calling thread (0 = first seen), drawn
     * once per thread from an atomic counter; takes no lock.
     */
    int threadOrdinal();

    /** Copy of everything collected so far. */
    std::vector<TraceEvent> snapshot() const;

    std::size_t eventCount() const;

    /** Drop all collected spans (the epoch is kept). */
    void clear();

    /** The collected spans as a Chrome trace-event JSON document. */
    std::string renderChromeTrace() const;

    /** Write renderChromeTrace() to a file; false on I/O failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    Tracer();

    void assembleLocked(TraceEvent ev);

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_;
    std::atomic<std::uint64_t> id_counter_{1};
    std::uint64_t id_seed_ = 0x677075706d; // "gpupm"
    std::atomic<int> next_tid_{0};
    mutable std::mutex mu_;
    std::vector<TraceEvent> events_;
    bool retain_events_ = true;
    TraceStore *store_ = nullptr;
    /** Per-trace buckets of completed child spans awaiting the root. */
    std::map<std::uint64_t, std::vector<TraceEvent>> pending_;
};

/**
 * RAII span: captures the start time on construction, records one
 * complete event on destruction. When the tracer is disabled at
 * construction the guard is inert (its destructor does nothing), so
 * a span that straddles enable() is dropped rather than truncated.
 * An armed guard installs itself as the thread-local trace context
 * for its scope (see TraceContext above).
 *
 * Independently of the tracer, the guard maintains the sampling
 * profiler's thread-local span context (profiler.hh) while a
 * profiling run is active, so CPU samples are attributed to the
 * innermost open span — `--profile-out` works with the tracer off
 * and vice versa. Each gate is one relaxed atomic load.
 */
class SpanGuard
{
  public:
    /** `name` is copied only when the guard arms. */
    SpanGuard(const char *cat, std::string_view name);
    ~SpanGuard();

    SpanGuard(const SpanGuard &) = delete;
    SpanGuard &operator=(const SpanGuard &) = delete;

    /**
     * Annotate the span ("args" in the exported JSON). Copies nothing
     * when the span is not armed; the numeric form formats only then.
     */
    void arg(std::string_view key, std::string_view value);
    void arg(std::string_view key, long value);

    /** Flag the span (and so its trace) as an error for tail-keep. */
    void markError();

    bool armed() const { return armed_; }
    std::uint64_t traceId() const { return ev_.trace_id; }
    std::uint64_t spanId() const { return ev_.span_id; }

  private:
    bool armed_ = false;
    bool ctx_pushed_ = false;   ///< profiler span context pushed
    bool ctx_installed_ = false; ///< thread-local trace ctx swapped
    std::int64_t start_us_ = 0;
    TraceContext saved_ctx_;
    TraceEvent ev_;
};

// Two-level paste so __LINE__ expands before concatenation.
#define GPUPM_TRACE_CONCAT2(a, b) a##b
#define GPUPM_TRACE_CONCAT(a, b) GPUPM_TRACE_CONCAT2(a, b)

/** Anonymous scope span: GPUPM_TRACE_SPAN("io", "model.load"). */
#define GPUPM_TRACE_SPAN(cat, name) \
    ::gpupm::obs::SpanGuard GPUPM_TRACE_CONCAT(gpupm_span_, \
                                               __LINE__)(cat, name)

/** Named scope span, for attaching args: span.arg("k", "v"). */
#define GPUPM_TRACE_SPAN_NAMED(var, cat, name) \
    ::gpupm::obs::SpanGuard var(cat, name)

} // namespace obs
} // namespace gpupm

#endif // GPUPM_OBS_TRACE_HH
