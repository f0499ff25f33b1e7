/**
 * @file
 * Shared plumbing for the experiment-reproduction binaries: build a
 * simulated board, run the training campaign, fit the model, and
 * measure the validation applications — the steps every figure and
 * table of Sec. V starts from.
 *
 * Every binary additionally accepts `--json-out[=<path>]` (default
 * BENCH_<name>.json) through BenchReporter: a versioned JSON artifact
 * with build provenance, headline accuracy stats and per-phase
 * wall-clock derived from the span tracer, consumed by
 * tools/gpupm_bench_check to gate runtime and accuracy regressions.
 */

#ifndef GPUPM_BENCH_COMMON_HH
#define GPUPM_BENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/numio.hh"
#include "common/provenance.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/campaign.hh"
#include "core/predictor.hh"
#include "obs/profiler.hh"
#include "obs/trace.hh"
#include "workloads/workloads.hh"

namespace gpupm
{
namespace bench
{

/** One device taken through training + estimation. */
struct FittedDevice
{
    std::unique_ptr<sim::PhysicalGpu> board;
    model::TrainingData data;
    model::EstimationResult fit;

    const gpu::DeviceDescriptor &desc() const
    {
        return board->descriptor();
    }
};

/** Run the Sec. V-A campaign and Sec. III-D estimation for a device. */
inline FittedDevice
fitDevice(gpu::DeviceKind kind, int power_repetitions = 5)
{
    FittedDevice fd;
    fd.board = std::make_unique<sim::PhysicalGpu>(kind);
    model::CampaignOptions opts;
    opts.power_repetitions = power_repetitions;
    fd.data = model::runTrainingCampaign(*fd.board,
                                         ubench::buildSuite(), opts);
    fd.fit = model::ModelEstimator().estimate(fd.data);
    return fd;
}

/** Measure every Fig. 7/10 validation application on a board. */
inline std::vector<model::AppMeasurement>
measureValidationSet(const sim::PhysicalGpu &board,
                     int power_repetitions = 5)
{
    model::CampaignOptions opts;
    opts.power_repetitions = power_repetitions;
    std::vector<model::AppMeasurement> out;
    for (const auto &w : workloads::fullValidationSet())
        out.push_back(model::measureApp(
                board, w.demand, board.descriptor().allConfigs(),
                opts));
    return out;
}

/**
 * Persist a rendered table as CSV under ./bench_csv/ so every figure's
 * data is plot-ready. Failures to write (e.g. read-only CWD) are
 * reported but never abort an experiment.
 */
inline void
saveCsv(const TextTable &table, const std::string &name)
{
    GPUPM_TRACE_SPAN("io", "bench.save_csv");
    std::error_code ec;
    std::filesystem::create_directories("bench_csv", ec);
    std::ofstream f("bench_csv/" + name + ".csv");
    if (!f) {
        gpupm::warn("cannot write bench_csv/", name, ".csv");
        return;
    }
    table.printCsv(f);
}

/** Mean absolute percentage error of a prediction/measurement pair. */
inline double
mape(const std::vector<double> &pred, const std::vector<double> &meas)
{
    return stats::meanAbsPercentError(pred, meas);
}

/**
 * Bench-run telemetry: when the binary was invoked with
 * `--json-out[=<path>]`, collects headline stats (stat()) and, via
 * the span tracer enabled for the run's duration, per-category
 * wall-clock, and writes one versioned JSON artifact on destruction:
 *
 *     {"gpupm_bench_version":1, "name":..., "provenance":{...},
 *      "wall_ms":..., "phases_ms":{...}, "cpu":{...}, "stats":{...}}
 *
 * The `cpu` block is the sampling profiler's summary (obs/profiler.hh
 * renderJson: per-category sample shares, per-thread counts, top
 * functions by self time) — the artifact `gpupm_bench_check profile`
 * gates per-phase CPU budgets on. `--profile-out[=<path>]` (default
 * BENCH_<name>.folded) additionally writes the collapsed-stack
 * profile for flamegraph.pl / speedscope, with or without
 * `--json-out`.
 *
 * Without either flag the reporter is inert. Construct it first thing
 * in main() so the wall-clock and the profile cover the whole run.
 * `profiler` selects the sampling mode: a short single-threaded,
 * CPU-bound run gets more samples by wall clock (DESIGN.md §13).
 */
class BenchReporter
{
  public:
    BenchReporter(int argc, char **argv, std::string name,
                  obs::ProfilerOptions profiler = {})
        : name_(std::move(name)),
          start_(std::chrono::steady_clock::now())
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--json-out")
                path_ = "BENCH_" + name_ + ".json";
            else if (arg.rfind("--json-out=", 0) == 0)
                path_ = arg.substr(std::strlen("--json-out="));
            else if (arg == "--profile-out")
                profile_path_ = "BENCH_" + name_ + ".folded";
            else if (arg.rfind("--profile-out=", 0) == 0)
                profile_path_ =
                        arg.substr(std::strlen("--profile-out="));
        }
        if (!path_.empty())
            obs::Tracer::global().enable();
        if (!path_.empty() || !profile_path_.empty()) {
            std::string err;
            if (obs::Profiler::global().start(profiler, &err))
                profiling_ = true;
            else
                gpupm::warn("cpu profiler unavailable: ", err);
        }
    }

    BenchReporter(const BenchReporter &) = delete;
    BenchReporter &operator=(const BenchReporter &) = delete;

    /** Record one scalar result (e.g. a device's MAE in percent). */
    void stat(const std::string &key, double value)
    {
        stats_.emplace_back(key, value);
    }

    bool enabled() const { return !path_.empty(); }

    ~BenchReporter()
    {
        obs::CpuProfile prof;
        if (profiling_) {
            obs::Profiler::global().stop();
            prof = obs::Profiler::global().collect();
            if (!profile_path_.empty()) {
                if (prof.writeFolded(profile_path_))
                    gpupm::inform("cpu profile written to ",
                                  profile_path_);
                else
                    gpupm::warn("cannot write ", profile_path_);
            }
        }
        if (path_.empty())
            return;
        const double wall_ms =
                std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
        auto &tracer = obs::Tracer::global();
        tracer.disable();

        // Per-category wall-clock: union of the category's span
        // intervals, so nested spans are not double-counted.
        std::map<std::string,
                 std::vector<std::pair<double, double>>> per_cat;
        for (const auto &ev : tracer.snapshot())
            per_cat[ev.cat].emplace_back(
                    static_cast<double>(ev.ts_us),
                    static_cast<double>(ev.dur_us));
        std::ofstream out(path_);
        if (!out) {
            gpupm::warn("cannot write ", path_);
            return;
        }
        out << "{\"gpupm_bench_version\":1,\n\"name\":\"" << name_
            << "\",\n\"provenance\":"
            << common::toJson(common::collectProvenance())
            << ",\n\"wall_ms\":" << numio::formatDouble(wall_ms)
            << ",\n\"phases_ms\":{";
        bool first = true;
        for (auto &kv : per_cat) {
            std::sort(kv.second.begin(), kv.second.end());
            double total = 0.0, lo = 0.0, hi = -1.0;
            for (const auto &iv : kv.second) {
                if (iv.first > hi) {
                    if (hi > lo)
                        total += hi - lo;
                    lo = iv.first;
                    hi = iv.first + iv.second;
                } else {
                    hi = std::max(hi, iv.first + iv.second);
                }
            }
            if (hi > lo)
                total += hi - lo;
            out << (first ? "" : ",") << "\"" << kv.first << "\":"
                << numio::formatDouble(total / 1000.0);
            first = false;
        }
        out << "}";
        if (profiling_)
            out << ",\n\"cpu\":" << prof.renderJson();
        out << ",\n\"stats\":{";
        first = true;
        for (const auto &kv : stats_) {
            out << (first ? "" : ",") << "\"" << kv.first << "\":"
                << numio::formatDouble(kv.second);
            first = false;
        }
        out << "}}\n";
        if (out)
            gpupm::inform("bench telemetry written to ", path_);
        else
            gpupm::warn("cannot write ", path_);
    }

  private:
    std::string name_;
    std::string path_;
    std::string profile_path_;
    bool profiling_ = false;
    std::chrono::steady_clock::time_point start_;
    std::vector<std::pair<std::string, double>> stats_;
};

} // namespace bench
} // namespace gpupm

#endif // GPUPM_BENCH_COMMON_HH
