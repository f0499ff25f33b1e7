/**
 * @file
 * Process-wide metrics registry.
 *
 * Counters (monotonic), gauges (set-to-latest) and histograms (fixed
 * bucket layouts chosen at registration). Updates are relaxed atomics
 * (CAS loops for the doubles) and take no lock. Looking a metric up by
 * name locks the registry, so the unlabelled standard accessors
 * (standard.hh) do it once per registry generation. The registry
 * renders them as Prometheus text exposition format
 * (`gpupm metrics`, `--metrics-out`) and as JSON (`gpupm metrics
 * --json`). Metric names follow the Prometheus conventions:
 * `gpupm_<subsystem>_<what>[_total|_seconds|...]` — the standard
 * names instrumented across the pipeline are listed in standard.hh
 * and DESIGN.md §9.
 */

#ifndef GPUPM_OBS_METRICS_HH
#define GPUPM_OBS_METRICS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gpupm
{
namespace obs
{

/** Monotonically increasing value (counts, cumulative seconds). */
class Counter
{
  public:
    /** Add `v` (must be >= 0; negative increments are dropped). */
    void inc(double v = 1.0);

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/** Last-written value. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/** Cumulative histogram over a fixed, sorted bucket layout. */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> upper_bounds);

    void observe(double v);

    const std::vector<double> &upperBounds() const { return bounds_; }

    /** Cumulative count of observations <= bounds()[i]. */
    std::vector<double> cumulativeCounts() const;

    double count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double sum() const { return sum_.load(std::memory_order_relaxed); }

    /**
     * Quantile estimate (q in [0, 1]) by linear interpolation inside
     * the bucket holding the target rank — the same estimate
     * Prometheus' histogram_quantile() would compute server-side, made
     * available locally so dumps can carry p50/p95/p99 summaries.
     * Observations in the overflow bucket clamp to the largest finite
     * bound; an empty histogram yields 0.
     */
    double quantileEstimate(double q) const;

    /**
     * Exemplar: the trace ID and value of the most recent observation
     * made inside an active trace (trace.hh context) whose bucket is
     * the one holding the p99 rank or a later one.
     * Closes the metric→trace loop: a scrape showing a latency
     * spike names a trace that exhibits it, fetchable from
     * /api/traces. Returns false while no exemplar was captured.
     */
    bool exemplar(std::uint64_t *trace_id, double *value) const;

  private:
    std::vector<double> bounds_; ///< sorted, exclusive of +Inf
    std::unique_ptr<std::atomic<double>[]> per_bucket_; ///< + overflow
    std::atomic<double> count_{0.0};
    std::atomic<double> sum_{0.0};
    std::atomic<std::uint64_t> exemplar_trace_{0};
    std::atomic<double> exemplar_value_{0.0};
};

/** Commonly useful bucket layouts. */
std::vector<double> secondsBuckets();   ///< 100us .. 100s, log-spaced
std::vector<double> countBuckets();     ///< 1 .. 10000, log-spaced
std::vector<double> iterationBuckets(); ///< 1 .. 50 fit iterations
std::vector<double> errorPctBuckets();  ///< 0.5 .. 50 percent error

/**
 * Identifies the layout of Registry::collectSamples(): which samples
 * it yields, and in what order. Registry entries are never removed
 * between reset()s, and every reset() draws a new generation, so two
 * walks with equal layouts yielded the same names in the same order.
 * The time-series store (tsdb.hh) resolves a layout's names to its
 * series once and then appends values only.
 */
struct SampleLayout
{
    std::uint64_t generation = 0; ///< 0 is no registry's generation
    std::size_t samples = 0;

    bool operator==(const SampleLayout &) const = default;
};

/**
 * Name -> metric map. Registration is idempotent: the first call
 * creates the metric, later calls return the same instance (a
 * differing help string or type on re-registration is a programming
 * error and panics).
 *
 * A metric family may carry label sets: the labelled overloads take a
 * pre-rendered Prometheus label body (`key="value",...`, caller
 * escapes values) and register one child per distinct body. All
 * children of a family share its kind and help; the exposition
 * renders HELP/TYPE once per family.
 */
class Registry
{
  public:
    static Registry &global();

    Counter &counter(const std::string &name, const std::string &help);
    Gauge &gauge(const std::string &name, const std::string &help);
    Histogram &histogram(const std::string &name,
                         const std::string &help,
                         std::vector<double> upper_bounds);

    /** Labelled children: `labels` is `key="value",...` (no braces). */
    Counter &counter(const std::string &name, const std::string &labels,
                     const std::string &help);
    Gauge &gauge(const std::string &name, const std::string &labels,
                 const std::string &help);
    Histogram &histogram(const std::string &name,
                         const std::string &labels,
                         const std::string &help,
                         std::vector<double> upper_bounds);

    /** Prometheus label-value escaping (backslash, quote, newline). */
    static std::string labelEscape(const std::string &s);

    /** Number of registered metric families. */
    std::size_t size() const;

    /** Prometheus text exposition format (HELP/TYPE + samples). */
    std::string renderPrometheus() const;

    /** The same data as a JSON object keyed by metric name. */
    std::string renderJson() const;

    /**
     * Read every numeric signal, under the registry lock, into
     * `values`: one sample per counter and gauge child, two per
     * histogram child (`name_sum`, `name_count` — the rates Prometheus
     * would derive; per-bucket series would multiply tsdb cardinality
     * for little alerting value). Ordered by family name then label
     * body, so consumers see a stable order. When `names` is given it
     * receives each sample's name as the Prometheus exposition renders
     * it (`family{key="value"}`), so a scrape and a tsdb query name the
     * same signal identically; without it no string is built. Returns
     * the layout the walk saw, read under the same lock.
     */
    SampleLayout collectSamples(std::vector<double> &values,
                                std::vector<std::string> *names =
                                        nullptr) const;

    /** Write renderPrometheus() to a file; false on I/O failure. */
    bool writePrometheus(const std::string &path) const;

    /**
     * Drop every metric (tests only; references die with them) and
     * bump generation(), so cached handles re-resolve.
     */
    void reset();

    /**
     * Never 0 and never shared: each registry and each reset() draws
     * the next value of one process-wide sequence, so a generation
     * names one registry's entries since its last reset.
     */
    std::uint64_t generation() const
    {
        return generation_.load(std::memory_order_acquire);
    }

  private:
    enum class Kind { Counter, Gauge, Histogram };

    struct Entry
    {
        Kind kind = Kind::Counter;
        std::string labels; ///< label body, "" for a bare metric
        std::string help;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Entry &entryOf(const std::string &name, const std::string &labels,
                   Kind kind, const std::string &help);
    static std::uint64_t nextGeneration();

    mutable std::mutex mu_;
    /** family name -> label body -> child (one "" child when bare). */
    std::map<std::string, std::map<std::string, Entry>> metrics_;
    std::atomic<std::uint64_t> generation_{nextGeneration()};
};

} // namespace obs
} // namespace gpupm

#endif // GPUPM_OBS_METRICS_HH
