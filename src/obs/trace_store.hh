/**
 * @file
 * Bounded in-memory store of completed traces with tail sampling.
 *
 * The Tracer (trace.hh) assembles each trace when its root span
 * completes and offers it here. The store keeps an exactly-accounted
 * memory footprint (tsdb-style: every string and span is counted)
 * under a configured byte bound and trace-count cap, and decides at
 * admission time which resident trace to evict — tail sampling:
 *
 *   1. "boring" traces first — no error span and not among the
 *      `slow_kept` slowest non-error traces — oldest first;
 *   2. then protected-slow traces, fastest first (the newer of two
 *      equally fast ones);
 *   3. error/alert traces only as a last resort, oldest first.
 *
 * Which traces are protected changes only when a trace arrives, so
 * offer() ranks the newcomer once against the residents and keeps the
 * answer as a flag; eviction is one forward scan with no sort and no
 * allocation (DESIGN.md §15 gives the invariant).
 *
 * So 100% of error traces are retained for as long as they alone fit
 * the bound, plus one reservoir of the slowest traces — the traces
 * worth asking about after the fact. The reservoir ignores the root
 * category: every store in the program receives one (`monitor.tick`
 * roots in the daemon and `gpupm traces`, one `fleet.campaign` trace
 * in a served fleet). Query surfaces
 * (/api/traces, `gpupm traces`) filter by category, minimum
 * duration, error flag and trace ID.
 */

#ifndef GPUPM_OBS_TRACE_STORE_HH
#define GPUPM_OBS_TRACE_STORE_HH

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hh"

namespace gpupm
{
namespace obs
{

/** A fully assembled trace (root + all recorded descendants). */
struct StoredTrace
{
    std::uint64_t trace_id = 0;
    std::string root_name;
    std::string root_cat;
    std::int64_t start_us = 0;
    std::int64_t dur_us = 0;
    bool error = false;  ///< any span marked error
    /** Among the slow_kept slowest non-error traces (set by the store). */
    bool slow = false;
    std::size_t bytes = 0; ///< exact accounted footprint
    /** Spans in completion order; the root is last. */
    std::vector<TraceEvent> spans;
};

struct TraceStoreOptions
{
    std::size_t max_bytes = 1u << 20; ///< hard memory bound
    std::size_t max_traces = 512;     ///< hard count bound
    std::size_t slow_kept = 8;        ///< slowest-trace reservoir
};

/** Filter for query()/renderJson(). Zero/empty fields match all. */
struct TraceQuery
{
    std::string category;       ///< match root category exactly
    std::int64_t min_dur_us = 0; ///< root duration at least this
    bool error_only = false;
    std::uint64_t trace_id = 0; ///< exact trace ID
    std::size_t limit = 50;     ///< newest-first result cap
};

/** Thread-safe bounded trace store; see the file comment. */
class TraceStore
{
  public:
    explicit TraceStore(TraceStoreOptions opts = TraceStoreOptions{});

    /** Admit one assembled trace, evicting per the tail policy. */
    void offer(StoredTrace trace);

    /** Matching traces, newest first, capped at q.limit. */
    std::vector<StoredTrace> query(const TraceQuery &q) const;

    /** The query result as a JSON document (IDs as hex strings). */
    std::string renderJson(const TraceQuery &q) const;

    const TraceStoreOptions &options() const { return opts_; }
    std::size_t memoryBytes() const;
    std::size_t memoryBoundBytes() const { return opts_.max_bytes; }
    std::size_t traceCount() const;
    long offeredTotal() const;
    long evictedTotal() const;
    long errorsOfferedTotal() const;
    long errorsEvictedTotal() const;

    void clear();

    /** Exact footprint accounting for one trace (strings included). */
    static std::size_t footprint(const StoredTrace &trace);

  private:
    void evictOneLocked();
    void publishLocked();

    TraceStoreOptions opts_;
    mutable std::mutex mu_;
    std::deque<StoredTrace> traces_; ///< arrival order, oldest first
    std::size_t bytes_ = 0;
    long offered_ = 0;
    long evicted_ = 0;
    long errors_offered_ = 0;
    long errors_evicted_ = 0;
};

} // namespace obs
} // namespace gpupm

#endif // GPUPM_OBS_TRACE_STORE_HH
