#include "harness.hh"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace perfbench
{

const std::vector<MetricDef> kEndToEnd = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"work_ms_p90", "ms"},
        {"work_per_s", "1/s"},
        {"mae_pct", "%"},
        {"read_ms_p50", "ms"},
};

const std::vector<MetricDef> kPerLayer = {
        {"core.campaign.pass_ms", "ms"},
        {"core.campaign.validate_ms", "ms"},
        {"cupti.profile_calls", "count"},
        {"cupti.profile_us_p50", "us"},
        {"nvml.measure_calls", "count"},
        {"nvml.measure_us_p50", "us"},
        {"nvml.idle_calls", "count"},
        {"core.estimator.pass_ms", "ms"},
        {"core.estimator.share_pct", "%"},
        {"core.estimator.init_ms", "ms"},
        {"core.estimator.iter_ms_p50", "ms"},
        {"core.estimator.iterations_titanxp", "count"},
        {"core.estimator.iterations_titanx", "count"},
        {"core.estimator.iterations_k40c", "count"},
        {"core.model_io.serialize_us", "us"},
        {"core.model_io.parse_us", "us"},
        {"core.model_io.bytes", "bytes"},
        {"core.predictor.calls", "count"},
        {"core.predictor.at_ns_p50", "ns"},
        {"fleet.device_ms_p50", "ms"},
        {"fleet.device_ms_p99", "ms"},
        {"fleet.parallel_efficiency_pct", "%"},
        {"fleet.pool_steals", "count"},
        {"fleet.shard_retries", "count"},
        {"fleet.watchdog_fires", "count"},
        {"monitor.probe_us_p50", "us"},
        {"obs.tick_self_us_p50", "us"},
        {"obs.tick_self_us_p99", "us"},
        {"obs.trace_store.offered", "count"},
        {"obs.trace_store.evicted", "count"},
        {"obs.trace_store.high_water_bytes", "bytes"},
        {"obs.tsdb.points", "count"},
        {"obs.tsdb.series", "count"},
        {"obs.tsdb.high_water_bytes", "bytes"},
        {"obs.http.metrics_handler_us_p50", "us"},
        {"obs.http.query_handler_us_p50", "us"},
        {"obs.http.traces_handler_us_p50", "us"},
        {"obs.http.overhead_us_p50", "us"},
        {"obs.http.metrics_bytes", "bytes"},
        {"monitor.scrape_late_ms_max", "ms"},
        {"bench.trace_overhead_pct", "%"},
};

bool
parseOptions(int argc, char **argv, Options &out, std::string &err)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) {
            err = "missing value for " + key;
            return false;
        }
        const std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            out.workload = val;
            have_workload = true;
        } else if (key == "--seed") {
            out.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end != '\0') {
                err = "bad --seed '" + val + "'";
                return false;
            }
        } else if (key == "--seconds") {
            out.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0' || !(out.seconds > 0.0)) {
                err = "bad --seconds '" + val + "'";
                return false;
            }
        } else if (key == "--trace") {
            if (val != "0" && val != "1") {
                err = "bad --trace '" + val + "' (expected 0 or 1)";
                return false;
            }
            out.trace = val == "1";
        } else {
            err = "unknown option " + key;
            return false;
        }
    }
    if (!have_workload) {
        err = "--workload is required";
        return false;
    }
    return true;
}

double
Samples::sum() const
{
    double s = 0.0;
    for (double v : values_)
        s += v;
    return s;
}

double
Samples::quantile(double q) const
{
    if (values_.empty())
        return 0.0;
    std::vector<double> v = values_;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
}

void
Report::set(const std::string &name, double value)
{
    values_[name] = value;
}

void
Report::fail(const std::string &why, long n)
{
    failed_ += n;
    std::cerr << "perfbench: CHECK FAILED: " << why << "\n";
}

void
Report::checkComplete(bool trace)
{
    for (const MetricDef &m : trace ? kPerLayer : kEndToEnd) {
        const auto it = values_.find(m.name);
        const bool unset = it == values_.end();
        if (!trace && (unset || !(it->second > 0.0)))
            fail(std::string("end-to-end metric ") + m.name +
                 (unset ? " was not measured" : " is not positive"));
        if (!unset && !std::isfinite(it->second))
            fail(std::string("metric ") + m.name + " is not finite");
    }
}

std::string
exact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
Report::renderJson(bool trace) const
{
    std::ostringstream os;
    os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &m : trace ? kPerLayer : kEndToEnd) {
        const auto it = values_.find(m.name);
        const double v = it == values_.end() || !std::isfinite(it->second)
                                 ? 0.0
                                 : it->second;
        os << (first ? "" : ", ") << "\"" << m.name
           << "\": {\"value\": " << exact(v) << ", \"unit\": \""
           << m.unit << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace perfbench
