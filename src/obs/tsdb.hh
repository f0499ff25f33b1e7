/**
 * @file
 * Embedded time-series store for the live-telemetry daemon.
 *
 * A dependency-free, in-process store behind `gpupm monitor`: every
 * sampler tick snapshots the metrics registry (Registry::
 * collectSamples()) and appends one point per series. Series are keyed
 * by the rendered Prometheus sample name (`family{labels}`), so a
 * scrape of /metrics and a range query of /api/query name the same
 * signal identically.
 *
 * The names are resolved once per registry layout (SampleLayout), not
 * per tick: the first snapshot of a layout walks the registry with
 * names and appends each sample by name (the fill), keeping a pointer
 * to every series it wrote. Every later snapshot of that layout walks
 * values only and writes each one through its pointer, building no
 * string and searching no map. Anything that would make the by-name
 * append behave differently refills: a new layout, any eviction (the
 * pointers may dangle), or a sample that had no series at the fill
 * (its value was not finite) turning finite.
 *
 * Memory is bounded by construction, not by hope:
 *  - each series holds a fixed-capacity raw ring plus two capped
 *    downsampling tiers (10s and 1m buckets of min/max/sum/count);
 *    old data falls off the back, never reallocates;
 *  - total series cardinality is capped exactly (`kMaxSeries`); a new
 *    series past the cap evicts the one written least recently (ties
 *    break by name order), counted in gpupm_tsdb_evictions_total.
 *
 * One mutex guards one name-ordered map of series and the snapshot's
 * slot cache. One thread writes (the tick), every tick writes every
 * series, and the HTTP reader takes the same lock for one query.
 * Queries pick the coarsest tier whose resolution fits the requested
 * step (step >= 1m -> tier 2, >= 10s -> tier 1, else raw) and
 * aggregate into step-aligned buckets. DESIGN.md §14 documents the
 * layout and the retention math.
 */

#ifndef GPUPM_OBS_TSDB_HH
#define GPUPM_OBS_TSDB_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "metrics.hh"

namespace gpupm
{
namespace obs
{

/** One raw observation. */
struct TsPoint
{
    std::int64_t t_us = 0;
    double value = 0.0;
};

/** One downsampled bucket (min/max/sum/count over its interval). */
struct TsBucket
{
    std::int64_t start_us = 0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
    std::int64_t count = 0;

    void add(double v);
    void merge(const TsBucket &other);
    double avg() const { return count > 0 ? sum / count : 0.0; }
};

/** Range-query request: [start_us, end_us] at `step_us` resolution. */
struct TsQuery
{
    std::string series;
    std::int64_t start_us = 0;
    std::int64_t end_us = 0;
    std::int64_t step_us = 1'000'000;
};

/** Query result: step-aligned aggregate buckets, empty ones omitted. */
struct TsQueryResult
{
    bool ok = false;
    std::string error; ///< set when !ok (unknown series, bad range)
    int tier = 0;      ///< 0 raw, 1 = tier1, 2 = tier2
    std::int64_t start_us = 0;
    std::int64_t end_us = 0;
    std::int64_t step_us = 0;
    std::vector<TsBucket> points;

    /** Render as a JSON object (stable key order, NaN-free). */
    std::string toJson(const std::string &series) const;
};

/** The store. All methods are thread-safe under one lock. */
class Tsdb
{
  public:
    /*
     * The store's sizes. memoryBytes() charges every series its ring
     * and both tiers at full size, so kMaxSeries bounds the store. At
     * the monitor's default 250 ms period the raw ring keeps the last
     * 60 s, tier 1 20 min and tier 2 2 h.
     */
    static constexpr std::size_t kRawCapacity = 240; ///< raw points
    static constexpr std::size_t kTierCapacity = 120; ///< buckets/tier
    static constexpr std::int64_t kTier1ResUs = 10'000'000; ///< 10 s
    static constexpr std::int64_t kTier2ResUs = 60'000'000; ///< 1 min
    static constexpr std::size_t kMaxSeries = 512; ///< cardinality cap

    Tsdb() = default;

    Tsdb(const Tsdb &) = delete;
    Tsdb &operator=(const Tsdb &) = delete;

    /**
     * Append one point. Non-finite values are dropped (and counted);
     * out-of-order timestamps within a series are accepted into the
     * raw ring but only merge into the downsample tiers while their
     * bucket is still the newest.
     */
    void append(const std::string &series, std::int64_t t_us,
                double value);

    /**
     * Snapshot `reg` and append every sample at `t_us` — the sampler
     * hook. The same points, evictions and counters as appending each
     * sample by name, resolved once per layout (see file doc). Also
     * refreshes the tsdb self-metrics (series count, memory bytes,
     * points appended) so the store reports on itself.
     */
    void recordRegistry(const Registry &reg, std::int64_t t_us);

    /** Range query; picks the tier from `q.step_us` (see file doc). */
    TsQueryResult query(const TsQuery &q) const;

    /** Names of all live series, sorted. */
    std::vector<std::string> seriesNames() const;

    std::size_t seriesCount() const;

    /**
     * Fixed per-series accounting: ring + tier capacities at their
     * full sizes plus the name. An upper bound that is the same
     * number the cardinality cap bounds — what the soak test gates.
     * O(1): the name bytes are a running total.
     */
    std::size_t memoryBytes() const;

    /** Largest timestamp ever appended (INT64_MIN when empty). */
    std::int64_t latestTimestamp() const { return locked(latest_us_); }

    std::uint64_t pointsAppended() const
    {
        return locked(points_appended_);
    }

    std::uint64_t evictions() const { return locked(evictions_); }

    std::uint64_t droppedNotFinite() const
    {
        return locked(dropped_not_finite_);
    }

    /** recordRegistry() snapshots that resolved names (fills). */
    std::uint64_t layoutFills() const { return locked(fills_); }

  private:
    /** A copy of one counter, read under the lock. */
    template <typename T>
    T
    locked(const T &field) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return field;
    }

    struct Series
    {
        std::vector<TsPoint> raw; ///< preallocated ring
        std::size_t raw_head = 0; ///< index of oldest element
        std::size_t raw_size = 0;
        std::deque<TsBucket> tier1;
        std::deque<TsBucket> tier2;
        std::int64_t last_write_us = 0; ///< for LRU eviction
    };

    /** The series written, or nullptr when `value` was dropped. */
    Series *appendLocked(const std::string &series, std::int64_t t_us,
                         double value);
    void writeLocked(Series &s, std::int64_t t_us, double value);
    void fillLocked(const Registry &reg, std::int64_t t_us);
    static void bucketInto(std::deque<TsBucket> &tier,
                           std::int64_t res_us, std::int64_t t_us,
                           double value);

    mutable std::mutex mu_;
    std::map<std::string, Series, std::less<>> series_; ///< under mu_
    std::size_t name_bytes_ = 0; ///< capacity of every series_ key
    std::uint64_t points_appended_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t dropped_not_finite_ = 0;
    std::int64_t latest_us_ = std::numeric_limits<std::int64_t>::min();

    // recordRegistry()'s slot cache: the layout it was filled for
    // ({} = none), the series of each sample (nullptr when the fill
    // dropped it) and the reused value buffer.
    SampleLayout slots_layout_;
    std::vector<Series *> slots_;
    std::vector<double> values_;
    std::uint64_t fills_ = 0;
};

} // namespace obs
} // namespace gpupm

#endif // GPUPM_OBS_TSDB_HH
