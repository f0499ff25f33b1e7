#include "metrics.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/numio.hh"
#include "common/provenance.hh"
#include "obs/trace.hh"

namespace gpupm
{
namespace obs
{

namespace
{

/** Lock-free add for atomic<double> (no fetch_add before C++20 on
 *  all toolchains; CAS loop is portable and contention here is low). */
void
atomicAdd(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (!a.compare_exchange_weak(cur, cur + v,
                                    std::memory_order_relaxed)) {
    }
}

const double kSummaryQuantiles[] = {0.50, 0.95, 0.99};
const char *const kQuantileLabels[] = {"0.5", "0.95", "0.99"};
const char *const kQuantileJsonKeys[] = {"p50", "p95", "p99"};

} // namespace

void
Counter::inc(double v)
{
    if (v < 0.0)
        return;
    atomicAdd(value_, v);
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds))
{
    GPUPM_ASSERT(!bounds_.empty(), "histogram needs >= 1 bucket");
    GPUPM_ASSERT(std::is_sorted(bounds_.begin(), bounds_.end()),
                 "histogram bucket bounds must be sorted");
    per_bucket_ = std::make_unique<std::atomic<double>[]>(
            bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        per_bucket_[i].store(0.0, std::memory_order_relaxed);
}

void
Histogram::observe(double v)
{
    const auto it =
            std::lower_bound(bounds_.begin(), bounds_.end(), v);
    const std::size_t idx =
            static_cast<std::size_t>(it - bounds_.begin());
    atomicAdd(per_bucket_[idx], 1.0);
    atomicAdd(count_, 1.0);
    atomicAdd(sum_, v);
    // Exemplar capture: remember the trace behind the latest tail
    // observation, when one is active and enough mass exists for a
    // stable tail. Tail is the bucket holding the p99 rank or a later
    // one, not v >= the interpolated p99, which no observation in a
    // histogram whose mass sits in one bucket reaches (microsecond
    // probes under the 100 us first bound). The walk allocates nothing.
    const TraceContext ctx = currentTraceContext();
    if (!ctx.trace_id || count() < 10.0)
        return;
    double at_or_below = 0.0;
    for (std::size_t i = 0; i <= idx; ++i)
        at_or_below += per_bucket_[i].load(std::memory_order_relaxed);
    if (at_or_below >= 0.99 * count()) {
        exemplar_value_.store(v, std::memory_order_relaxed);
        exemplar_trace_.store(ctx.trace_id,
                              std::memory_order_relaxed);
    }
}

bool
Histogram::exemplar(std::uint64_t *trace_id, double *value) const
{
    const std::uint64_t id =
            exemplar_trace_.load(std::memory_order_relaxed);
    if (!id)
        return false;
    if (trace_id)
        *trace_id = id;
    if (value)
        *value = exemplar_value_.load(std::memory_order_relaxed);
    return true;
}

std::vector<double>
Histogram::cumulativeCounts() const
{
    std::vector<double> out(bounds_.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
        acc += per_bucket_[i].load(std::memory_order_relaxed);
        out[i] = acc;
    }
    return out;
}

double
Histogram::quantileEstimate(double q) const
{
    q = std::clamp(q, 0.0, 1.0);
    const double total = count();
    if (total <= 0.0)
        return 0.0;
    const double target = q * total;
    const auto cum = cumulativeCounts();
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
        if (cum[i] < target)
            continue;
        const double prev = i ? cum[i - 1] : 0.0;
        const double in_bucket = cum[i] - prev;
        const double lo = i ? bounds_[i - 1]
                            : std::min(0.0, bounds_[0]);
        const double hi = bounds_[i];
        if (in_bucket <= 0.0)
            return hi;
        return lo + (hi - lo) * (target - prev) / in_bucket;
    }
    // Rank falls into the +Inf overflow bucket: clamp to the largest
    // finite bound, as histogram_quantile() does.
    return bounds_.back();
}

std::vector<double>
secondsBuckets()
{
    return {1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0};
}

std::vector<double>
countBuckets()
{
    return {1, 10, 100, 1000, 10000};
}

std::vector<double>
iterationBuckets()
{
    return {1, 2, 5, 10, 20, 50};
}

std::vector<double>
errorPctBuckets()
{
    return {0.5, 1, 2, 5, 10, 20, 50};
}

Registry &
Registry::global()
{
    static Registry registry;
    return registry;
}

std::string
Registry::labelEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '\\' || c == '"')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

// Caller must hold mu_.
Registry::Entry &
Registry::entryOf(const std::string &name, const std::string &labels,
                  Kind kind, const std::string &help)
{
    auto &family = metrics_[name];
    auto it = family.find(labels);
    if (it != family.end()) {
        GPUPM_ASSERT(it->second.kind == kind,
                     "metric '", name, "' re-registered as a "
                     "different type");
        return it->second;
    }
    if (!family.empty())
        GPUPM_ASSERT(family.begin()->second.kind == kind,
                     "metric family '", name, "' holds children of a "
                     "different type");
    Entry e;
    e.kind = kind;
    e.labels = labels;
    e.help = help;
    return family.emplace(labels, std::move(e)).first->second;
}

Counter &
Registry::counter(const std::string &name, const std::string &help)
{
    return counter(name, "", help);
}

Counter &
Registry::counter(const std::string &name, const std::string &labels,
                  const std::string &help)
{
    std::lock_guard<std::mutex> lock(mu_);
    Entry &e = entryOf(name, labels, Kind::Counter, help);
    if (!e.counter)
        e.counter = std::make_unique<Counter>();
    return *e.counter;
}

Gauge &
Registry::gauge(const std::string &name, const std::string &help)
{
    return gauge(name, "", help);
}

Gauge &
Registry::gauge(const std::string &name, const std::string &labels,
                const std::string &help)
{
    std::lock_guard<std::mutex> lock(mu_);
    Entry &e = entryOf(name, labels, Kind::Gauge, help);
    if (!e.gauge)
        e.gauge = std::make_unique<Gauge>();
    return *e.gauge;
}

Histogram &
Registry::histogram(const std::string &name, const std::string &help,
                    std::vector<double> upper_bounds)
{
    return histogram(name, "", help, std::move(upper_bounds));
}

Histogram &
Registry::histogram(const std::string &name, const std::string &labels,
                    const std::string &help,
                    std::vector<double> upper_bounds)
{
    std::lock_guard<std::mutex> lock(mu_);
    Entry &e = entryOf(name, labels, Kind::Histogram, help);
    if (!e.histogram)
        e.histogram =
                std::make_unique<Histogram>(std::move(upper_bounds));
    return *e.histogram;
}

std::size_t
Registry::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto &[name, family] : metrics_)
        n += family.size();
    return n;
}

std::string
Registry::renderPrometheus() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream os;
    // Sample name of a child, with extra labels (le/quantile) merged
    // into the family's own label body.
    const auto sample = [](const std::string &name, const Entry &e,
                           const std::string &extra = "") {
        if (e.labels.empty() && extra.empty())
            return name;
        std::string body = e.labels;
        if (!extra.empty())
            body += (body.empty() ? "" : ",") + extra;
        return name + "{" + body + "}";
    };
    for (const auto &[name, family] : metrics_) {
        bool first = true;
        for (const auto &[labels, e] : family) {
            if (first) {
                os << "# HELP " << name << " " << e.help << "\n";
                os << "# TYPE " << name << " "
                   << (e.kind == Kind::Counter     ? "counter"
                       : e.kind == Kind::Gauge     ? "gauge"
                                                   : "histogram")
                   << "\n";
                first = false;
            }
            switch (e.kind) {
              case Kind::Counter:
                os << sample(name, e) << " "
                   << numio::formatDouble(
                              e.counter ? e.counter->value() : 0.0)
                   << "\n";
                break;
              case Kind::Gauge:
                os << sample(name, e) << " "
                   << numio::formatDouble(e.gauge ? e.gauge->value()
                                                  : 0.0)
                   << "\n";
                break;
              case Kind::Histogram: {
                if (!e.histogram)
                    break;
                const auto &bounds = e.histogram->upperBounds();
                const auto cum = e.histogram->cumulativeCounts();
                for (std::size_t i = 0; i < bounds.size(); ++i) {
                    os << sample(name + "_bucket", e,
                                 "le=\"" +
                                         numio::formatDouble(bounds[i]) +
                                         "\"")
                       << " " << numio::formatDouble(cum[i]) << "\n";
                }
                os << sample(name + "_bucket", e, "le=\"+Inf\"") << " "
                   << numio::formatDouble(e.histogram->count());
                // OpenMetrics exemplar on the +Inf bucket: the trace
                // behind the most recent tail observation.
                {
                    std::uint64_t ex_id = 0;
                    double ex_v = 0.0;
                    if (e.histogram->exemplar(&ex_id, &ex_v))
                        os << " # {trace_id=\"" << traceIdHex(ex_id)
                           << "\"} " << numio::formatDouble(ex_v);
                }
                os << "\n";
                os << sample(name + "_sum", e) << " "
                   << numio::formatDouble(e.histogram->sum()) << "\n";
                os << sample(name + "_count", e) << " "
                   << numio::formatDouble(e.histogram->count()) << "\n";
                for (std::size_t q = 0; q < 3; ++q) {
                    os << sample(name, e,
                                 std::string("quantile=\"") +
                                         kQuantileLabels[q] + "\"")
                       << " "
                       << numio::formatDouble(
                                  e.histogram->quantileEstimate(
                                          kSummaryQuantiles[q]))
                       << "\n";
                }
                break;
              }
            }
        }
    }
    return os.str();
}

std::string
Registry::renderJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream os;
    os << "{";
    os << "\n\"provenance\":"
       << common::toJson(common::collectProvenance());
    for (const auto &[family, children] : metrics_) {
      for (const auto &[labels, e] : children) {
        std::string name =
                labels.empty() ? family : family + "{" + labels + "}";
        os << ",";
        os << "\n\"" << json::escape(name) << "\":{";
        switch (e.kind) {
          case Kind::Counter:
            os << "\"type\":\"counter\",\"value\":"
               << numio::formatDouble(e.counter ? e.counter->value()
                                                : 0.0);
            break;
          case Kind::Gauge:
            os << "\"type\":\"gauge\",\"value\":"
               << numio::formatDouble(e.gauge ? e.gauge->value()
                                              : 0.0);
            break;
          case Kind::Histogram: {
            os << "\"type\":\"histogram\"";
            if (e.histogram) {
                os << ",\"count\":"
                   << numio::formatDouble(e.histogram->count())
                   << ",\"sum\":"
                   << numio::formatDouble(e.histogram->sum())
                   << ",\"buckets\":[";
                const auto &bounds = e.histogram->upperBounds();
                const auto cum = e.histogram->cumulativeCounts();
                for (std::size_t i = 0; i < bounds.size(); ++i) {
                    if (i)
                        os << ",";
                    os << "{\"le\":"
                       << numio::formatDouble(bounds[i])
                       << ",\"count\":" << numio::formatDouble(cum[i])
                       << "}";
                }
                os << "]";
                for (std::size_t q = 0; q < 3; ++q) {
                    os << ",\"" << kQuantileJsonKeys[q] << "\":"
                       << numio::formatDouble(
                                  e.histogram->quantileEstimate(
                                          kSummaryQuantiles[q]));
                }
                std::uint64_t ex_id = 0;
                double ex_v = 0.0;
                if (e.histogram->exemplar(&ex_id, &ex_v))
                    os << ",\"exemplar\":{\"trace_id\":\""
                       << traceIdHex(ex_id) << "\",\"value\":"
                       << numio::formatDouble(ex_v) << "}";
            }
            break;
          }
        }
        os << "}";
      }
    }
    os << "\n}\n";
    return os.str();
}

SampleLayout
Registry::collectSamples(std::vector<double> &values,
                         std::vector<std::string> *names) const
{
    std::lock_guard<std::mutex> lock(mu_);
    values.clear();
    if (names)
        names->clear();
    for (const auto &[name, family] : metrics_) {
        for (const auto &[labels, e] : family) {
            const auto put = [&](const char *suffix, double v) {
                values.push_back(v);
                if (!names)
                    return;
                std::string full = name + suffix;
                if (!labels.empty())
                    full += "{" + labels + "}";
                names->push_back(std::move(full));
            };
            switch (e.kind) {
              case Kind::Counter:
                put("", e.counter ? e.counter->value() : 0.0);
                break;
              case Kind::Gauge:
                put("", e.gauge ? e.gauge->value() : 0.0);
                break;
              case Kind::Histogram:
                if (!e.histogram)
                    break;
                put("_sum", e.histogram->sum());
                put("_count", e.histogram->count());
                break;
            }
        }
    }
    return {generation(), values.size()};
}

bool
Registry::writePrometheus(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out << renderPrometheus();
    return static_cast<bool>(out);
}

std::uint64_t
Registry::nextGeneration()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    metrics_.clear();
    generation_.store(nextGeneration(), std::memory_order_release);
}

} // namespace obs
} // namespace gpupm
