/**
 * @file
 * Shared plumbing of the repository benchmark: command-line options,
 * clocks, sample sets with percentiles, the metric catalog and the
 * one-line JSON result every run ends with.
 *
 * The metric catalog (kEndToEnd, kPerLayer) mirrors BENCHMARK.json.
 * Every workload reports every end-to-end metric in its own terms; a
 * per-layer metric whose layer is not on a workload's path reads 0.
 */

#ifndef GPUPM_PERFBENCH_HARNESS_HH
#define GPUPM_PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two instants. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Microseconds between two instants. */
inline double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

inline void
dumpSamples(const char *tag, const std::vector<double> &v);

/** CPU time consumed so far by the calling thread, seconds. */
double threadCpuSeconds();

/**
 * Set-ups per run, timed before and after the timed loop; `setup_s`
 * is their median. The host's speed drifts over tens of seconds, so
 * set-ups at both ends of the run steady the median more than
 * set-ups at its start alone.
 */
constexpr int kSetupsBefore = 4;
constexpr int kSetupsAfter = 3;

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
};

/** Parse `--workload W --seed N --seconds S --trace 0|1`. */
bool parseOptions(int argc, char **argv, Options &out, std::string &err);

/** Exact sample set (all values kept). */
class Samples
{
  public:
    void add(double v) { values_.push_back(v); }
    std::size_t size() const { return values_.size(); }
    bool empty() const { return values_.empty(); }
    double sum() const;
    /** Linear-interpolated quantile, q in [0, 1]; 0 when empty. */
    double quantile(double q) const;
    double p50() const { return quantile(0.5); }
    const std::vector<double> &values() const { return values_; }

  private:
    std::vector<double> values_;
};

}
#include <cstdio>
namespace perfbench {
inline void
dumpSamples(const char *tag, const std::vector<double> &v)
{
    std::fprintf(stderr, "DUMP %s", tag);
    for (double x : v)
        std::fprintf(stderr, " %.6g", x);
    std::fprintf(stderr, "\n");
}

/** Catalog entry: metric name and unit. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

/**
 * One run's outcome: correctness accounting plus metric values. Every
 * failed check is printed to stderr with its reason.
 */
class Report
{
  public:
    void set(const std::string &name, double value);
    /** Count `n` attempted operations. */
    void attempt(long n = 1) { attempted_ += n; }
    /** Count one failed operation (also attempted elsewhere). */
    void fail(const std::string &why, long n = 1);
    long failed() const { return failed_; }

    /**
     * Fail the run when an end-to-end metric (untraced run) is unset
     * or not a positive finite number, or when any per-layer value
     * (traced run) is not finite.
     */
    void checkComplete(bool trace);

    /**
     * The result line: every metric of the selected catalog (traced
     * run: per-layer, else end-to-end); unset per-layer metrics read 0.
     */
    std::string renderJson(bool trace) const;

  private:
    std::map<std::string, double> values_;
    long attempted_ = 0;
    long failed_ = 0;
};

/** Peak resident set of this process, MB. */
double peakRssMb();

/** 64-bit FNV-1a digest of a byte string (determinism fingerprints). */
std::uint64_t fnv1a(const std::string &bytes);

/** Round-trip decimal rendering of a double. */
std::string exact(double v);

/** Workload entry points; each fills the report and returns. */
void runPaperFit(const Options &opts, Report &report);
void runFleet(const Options &opts, Report &report);
void runMonitor(const Options &opts, Report &report);

} // namespace perfbench

#endif // GPUPM_PERFBENCH_HARNESS_HH
