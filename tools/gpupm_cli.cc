/**
 * @file
 * gpupm command-line tool.
 *
 * Drives the pipeline stages the way a host-side deployment would: the
 * training campaign (Sec. IV), the DVFS-aware fit (Sec. III-D),
 * prediction (Sec. III-E) and the run-time monitoring built on it. Run
 * `gpupm` with no arguments for usage(), which prints the one command
 * table (kCommands) below; every flag is one row of kFlags, which
 * parses and range-checks it.
 *
 * `audit` reproduces the paper's accuracy evaluation (Table III,
 * Figs. 7-8) as an operational artifact: it measures every validation
 * application over the device's full V-F grid, predicts each cell with
 * the model and the Sec. VI baselines, and aggregates the residuals
 * into a scoreboard (overall / per-app / per-config error). Output is
 * human tables by default, --json for the summary payload, --csv for
 * raw residuals, and --scoreboard-out=<file> persists the full
 * scoreboard for tools/gpupm_bench_check to gate against a golden.
 *
 * `fit` also accepts a device name in place of a campaign file: it
 * then runs the bundled synthetic resilient campaign in-process and
 * fits from it, exercising the whole measure→fit→save pipeline in one
 * traced command.
 *
 * Any resilience flag (--faults, --fault-seed, --retries, --resume)
 * selects the resilient campaign runner (typed errors, retry/backoff,
 * MAD outlier rejection, quarantine) and prints its CampaignReport;
 * without them the legacy fail-fast path runs.
 *
 * <device> is one of: titanxp, titanx, k40c. <app> is a Table III
 * abbreviation (e.g. BLCKSC) — the tool profiles it on a fresh
 * simulated board at the reference configuration before predicting.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "baselines/baselines.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/numio.hh"
#include "common/provenance.hh"
#include "common/table.hh"
#include "core/campaign.hh"
#include "core/faults.hh"
#include "core/metrics.hh"
#include "core/model_io.hh"
#include "core/predictor.hh"
#include "core/resilient.hh"
#include "core/validate.hh"
#include "fleet/shard_io.hh"
#include "fleet/supervisor.hh"
#include "obs/convergence.hh"
#include "obs/live.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/standard.hh"
#include "obs/trace.hh"
#include "ubench/cuda_source.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace gpupm;

/** Parsed --inject-drift=FROM:TO:SCALE (ticks, measured-W factor). */
struct DriftInjection
{
    long from_tick = 0;
    long to_tick = 0;
    double scale = 1.0;
};

/** Every flag's value; kFlags says which flag sets which field. */
struct CliFlags
{
    bool resilient = false;      ///< a resilience flag was given
    double fault_rate = 0.0;
    std::uint64_t fault_seed = 2026;
    long retries = -1;           ///< -1 = policy default
    std::string checkpoint;
    bool strict = false;         ///< reject legacy files, validate
    bool allow_legacy = false;   ///< soften --strict for old files
    bool json = false;           ///< machine-readable output
    bool csv = false;            ///< per-sample CSV (audit)
    std::string scoreboard_out;  ///< audit scoreboard file path
    std::string trace_out;       ///< Chrome trace-event JSON path
    std::string metrics_out;     ///< Prometheus text dump path
    std::string convergence_out; ///< estimator convergence CSV path
    std::string profile_out;     ///< collapsed-stack CPU profile path
    bool verbose = false;        ///< log level: debug
    bool quiet = false;          ///< log level: warnings and errors
    bool show_version = false;   ///< --version anywhere on the line

    // `monitor`, `alerts` and `traces`.
    long port = 9090;         ///< HTTP port; 0 = ephemeral
    long period_ms = 250;     ///< sampling period
    double duration_s = 0.0;  ///< stop after this long; 0 = forever
    std::string events_out;   ///< NDJSON event log path
    std::string port_file;    ///< write the bound port here (tests)
    long events_max_bytes = 0;    ///< rotate event log past this; 0=off
    long events_max_files = 1;    ///< rotated generations kept (.1..N)
    bool healthz_degraded_503 = false; ///< firing alerts -> HTTP 503
    std::vector<std::string> alert_specs; ///< --alert rule specs
    bool no_drift_rule = false;   ///< drop the built-in drift rule
    // The monitor schedule visits the V-F corners (slowest/ref/
    // fastest), where model error runs above the full-grid Fig. 7
    // MAE, so the default tolerance leaves the live baseline
    // (~8.5/8.7/15 pct for titanxp/titanx/k40c) comfortably inside
    // the envelope+tolerance threshold.
    double drift_tolerance = 5.0; ///< pp over the fig7 envelope
    double drift_window_s = 30.0; ///< drift rule window
    double drift_for_s = 10.0;    ///< pending -> firing
    double drift_cooldown_s = 30.0; ///< clear -> resolved
    std::string drift_golden;     ///< fig7 golden refreshing envelope
    long rolling_window = 64;     ///< rolling-MAE residual window
    std::optional<DriftInjection> inject_drift; ///< accuracy fault
    long ticks = 120;             ///< `alerts`/`traces` tick count

    // `fleet`.
    long shards = 4;          ///< shard count
    long threads = 0;         ///< fleet workers; 0 = auto
    double chaos_kill = 0.0;  ///< shard kill probability per attempt
    double chaos_stall = 0.0; ///< shard stall probability per attempt
    double chaos_poison = 0.0; ///< poisoned-device fraction
    double deadline_s = 120.0; ///< watchdog deadline per attempt
    std::string fleet_out;    ///< merged fleet report file path
};

/** `text` split at each `sep` (std::getline semantics). */
std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    std::istringstream is(text);
    for (std::string part; std::getline(is, part, sep);)
        parts.push_back(part);
    return parts;
}

std::optional<DriftInjection>
parseInjectDrift(const std::string &spec)
{
    const auto parts = split(spec, ':');
    DriftInjection inj;
    if (parts.size() != 3 || !numio::parseLong(parts[0], inj.from_tick) ||
        !numio::parseLong(parts[1], inj.to_tick) ||
        !numio::parseDouble(parts[2], inj.scale) || inj.from_tick < 0 ||
        inj.to_tick < inj.from_tick || !(inj.scale > 0.0) ||
        !std::isfinite(inj.scale))
        return std::nullopt;
    return inj;
}

// -- flags -----------------------------------------------------------

/** How a flag reads its value. */
enum class FlagKind
{
    Switch,    ///< takes no value
    Integer,   ///< whole number within the row's range
    Real,      ///< number within the row's range
    Duration,  ///< "2s", "500ms", "1m" or seconds, within the range
    Text,      ///< any string
    Repeated,  ///< any string, collected on every use
    Rate,      ///< optional number within the range; bare means 0.1
    Injection, ///< FROM:TO:SCALE
};

using FlagField = std::variant<
        bool CliFlags::*, long CliFlags::*, std::uint64_t CliFlags::*,
        double CliFlags::*, std::string CliFlags::*,
        std::vector<std::string> CliFlags::*,
        std::optional<DriftInjection> CliFlags::*>;

/** One flag: name, kind, the field it sets and what it accepts. */
struct Flag
{
    const char *name;
    FlagKind kind;
    FlagField field;
    double lo = 0.0; ///< accepted range of a number
    double hi = 0.0;
    bool resilient = false; ///< selects the resilient campaign runner
};

constexpr double kIntMax = std::numeric_limits<int>::max();
constexpr double kLongMax = static_cast<double>(
        std::numeric_limits<long>::max());
using numio::kMaxSeconds;

const Flag kFlags[] = {
        {"--faults", FlagKind::Rate, &CliFlags::fault_rate, 0, 1, true},
        {"--fault-seed", FlagKind::Integer, &CliFlags::fault_seed, 0, 0,
         true},
        {"--retries", FlagKind::Integer, &CliFlags::retries, 0, kIntMax,
         true},
        {"--resume", FlagKind::Text, &CliFlags::checkpoint, 0, 0, true},
        {"--strict", FlagKind::Switch, &CliFlags::strict},
        {"--allow-legacy", FlagKind::Switch, &CliFlags::allow_legacy},
        {"--json", FlagKind::Switch, &CliFlags::json},
        {"--csv", FlagKind::Switch, &CliFlags::csv},
        {"--scoreboard-out", FlagKind::Text, &CliFlags::scoreboard_out},
        {"--trace-out", FlagKind::Text, &CliFlags::trace_out},
        {"--metrics-out", FlagKind::Text, &CliFlags::metrics_out},
        {"--convergence-out", FlagKind::Text, &CliFlags::convergence_out},
        {"--profile-out", FlagKind::Text, &CliFlags::profile_out},
        {"--verbose", FlagKind::Switch, &CliFlags::verbose},
        {"--quiet", FlagKind::Switch, &CliFlags::quiet},
        {"--version", FlagKind::Switch, &CliFlags::show_version},
        {"--port", FlagKind::Integer, &CliFlags::port, 0, 65535},
        {"--period-ms", FlagKind::Integer, &CliFlags::period_ms, 1,
         kIntMax},
        {"--duration", FlagKind::Duration, &CliFlags::duration_s, 0,
         kMaxSeconds},
        {"--events-out", FlagKind::Text, &CliFlags::events_out},
        {"--port-file", FlagKind::Text, &CliFlags::port_file},
        {"--events-max-bytes", FlagKind::Integer,
         &CliFlags::events_max_bytes, 0, kLongMax},
        {"--events-max-files", FlagKind::Integer,
         &CliFlags::events_max_files, 1, 1000},
        {"--healthz-degraded-503", FlagKind::Switch,
         &CliFlags::healthz_degraded_503},
        {"--alert", FlagKind::Repeated, &CliFlags::alert_specs},
        {"--no-drift-rule", FlagKind::Switch, &CliFlags::no_drift_rule},
        {"--drift-tolerance", FlagKind::Real, &CliFlags::drift_tolerance,
         0, 1e6},
        {"--drift-window", FlagKind::Duration, &CliFlags::drift_window_s,
         0, kMaxSeconds},
        {"--drift-for", FlagKind::Duration, &CliFlags::drift_for_s, 0,
         kMaxSeconds},
        {"--drift-cooldown", FlagKind::Duration,
         &CliFlags::drift_cooldown_s, 0, kMaxSeconds},
        {"--drift-golden", FlagKind::Text, &CliFlags::drift_golden},
        {"--rolling-window", FlagKind::Integer, &CliFlags::rolling_window,
         1, kIntMax},
        {"--inject-drift", FlagKind::Injection, &CliFlags::inject_drift},
        {"--ticks", FlagKind::Integer, &CliFlags::ticks, 1, kIntMax},
        {"--shards", FlagKind::Integer, &CliFlags::shards, 1, kIntMax},
        {"--threads", FlagKind::Integer, &CliFlags::threads, 0, 1024},
        {"--chaos-kill-rate", FlagKind::Real, &CliFlags::chaos_kill, 0, 1},
        {"--chaos-stall-rate", FlagKind::Real, &CliFlags::chaos_stall, 0,
         1},
        {"--chaos-poison", FlagKind::Real, &CliFlags::chaos_poison, 0, 1},
        {"--deadline", FlagKind::Duration, &CliFlags::deadline_s, 0,
         kMaxSeconds},
        {"--fleet-out", FlagKind::Text, &CliFlags::fleet_out},
};

/** The CliFlags field a row sets, as a T. */
template <typename T>
T &
field(CliFlags &flags, const Flag &f)
{
    return flags.*std::get<T CliFlags::*>(f.field);
}

/** Store `val` into `f`'s field; false when malformed or out of range. */
bool
setFlag(const Flag &f, const std::string &val, CliFlags &flags)
{
    double x = 0.0;
    switch (f.kind) {
      case FlagKind::Switch:
        field<bool>(flags, f) = true;
        return val.empty();
      case FlagKind::Text:
        field<std::string>(flags, f) = val;
        return true;
      case FlagKind::Repeated:
        field<std::vector<std::string>>(flags, f).push_back(val);
        return true;
      case FlagKind::Injection:
        return (field<std::optional<DriftInjection>>(flags, f) =
                        parseInjectDrift(val))
                .has_value();
      case FlagKind::Integer: {
        if (std::holds_alternative<std::uint64_t CliFlags::*>(f.field))
            return numio::parseU64(val, field<std::uint64_t>(flags, f));
        long v = 0;
        if (!numio::parseLong(val, v) || v < f.lo || v > f.hi)
            return false;
        field<long>(flags, f) = v;
        return true;
      }
      case FlagKind::Rate:
        // Bare --faults means "inject at a sensible demo rate".
        if (val.empty()) {
            x = 0.1;
            break;
        }
        [[fallthrough]];
      case FlagKind::Real:
        if (!numio::parseDouble(val, x))
            return false;
        break;
      case FlagKind::Duration:
        x = numio::parseDuration(val);
        break;
    }
    if (!(x >= f.lo && x <= f.hi))
        return false;
    field<double>(flags, f) = x;
    return true;
}

/**
 * Strip `--key=value` / `--key value` flags from the argument list,
 * returning the positional arguments. Flags may appear anywhere,
 * including before the subcommand or positionals. An unknown flag, or
 * a value that is missing, malformed or out of range, is named on
 * stderr and nullopt returned; the caller exits 2 without the generic
 * usage text, so the message names the actual problem.
 */
std::optional<std::vector<std::string>>
parseFlags(int argc, char **argv, CliFlags &flags)
{
    const auto bad = [](const char *what, const std::string &arg) {
        std::fprintf(stderr, "gpupm: %s '%s' (run 'gpupm' with no "
                             "arguments for usage)\n",
                     what, arg.c_str());
        return std::nullopt;
    };

    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional.push_back(arg);
            continue;
        }
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        std::string val =
                eq == std::string::npos ? "" : arg.substr(eq + 1);
        const Flag *f = std::find_if(
                std::begin(kFlags), std::end(kFlags),
                [&key](const Flag &row) { return key == row.name; });
        if (f == std::end(kFlags))
            return bad("unknown flag", key);
        // --faults takes its rate only as `--faults=<rate>`: bare, it
        // works as a chaos shorthand.
        if (eq == std::string::npos && f->kind != FlagKind::Switch &&
            f->kind != FlagKind::Rate) {
            if (i + 1 >= argc)
                return bad("flag is missing its value", key);
            val = argv[++i];
        }
        if (!setFlag(*f, val, flags))
            return bad("bad value for flag", key + "=" + val);
        flags.resilient = flags.resilient || f->resilient;
    }
    return positional;
}

// -- shared helpers --------------------------------------------------

/** CLI token of a device kind. */
const char *
deviceToken(gpu::DeviceKind kind)
{
    switch (kind) {
      case gpu::DeviceKind::TitanXp: return "titanxp";
      case gpu::DeviceKind::GtxTitanX: return "titanx";
      case gpu::DeviceKind::TeslaK40c: return "k40c";
    }
    return "unknown";
}

std::optional<gpu::DeviceKind>
parseDevice(const std::string &name)
{
    for (auto kind : gpu::kAllDevices)
        if (name == deviceToken(kind))
            return kind;
    return std::nullopt;
}

/** Name an unknown <device> argument; returns exit code 2. */
int
unknownDevice(const std::string &name)
{
    std::fprintf(stderr,
                 "unknown device '%s' (expected titanxp, titanx or "
                 "k40c)\n",
                 name.c_str());
    return 2;
}

/** Loader policy implied by the file-trust flags. */
model::LoadOptions
loadOptionsOf(const CliFlags &flags)
{
    model::LoadOptions opts;
    opts.allow_legacy = !flags.strict || flags.allow_legacy;
    opts.validate = flags.strict;
    return opts;
}

/** Print a typed load failure and return the CLI exit code. */
int
reportLoadFailure(const model::IoStatus &status)
{
    std::fprintf(stderr, "error [%s]: %s\n",
                 std::string(model::ioErrcName(status.code)).c_str(),
                 status.message.c_str());
    return 1;
}

/** Print a failed fit with its SSE trace; returns exit code 1. */
int
reportFitFailure(const model::FitError &fe)
{
    std::fprintf(stderr, "fit failed [%s]: %s\n",
                 std::string(model::fitErrcName(fe.code)).c_str(),
                 fe.message.c_str());
    for (std::size_t i = 0; i < fe.sse_history.size(); ++i)
        std::fprintf(stderr, "  iteration %zu: SSE %.6g\n", i + 1,
                     fe.sse_history[i]);
    return 1;
}

/** True when `path` names a readable file. */
bool
fileExists(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return static_cast<bool>(in);
}

/** Say whether `what` was written to `path`; returns `ok`. */
bool
reportWritten(bool ok, const std::string &what, const std::string &path)
{
    if (ok)
        std::fprintf(stderr, "%s written to %s\n", what.c_str(),
                     path.c_str());
    else
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return ok;
}

/** Stop the CPU profiler, count its run in the metrics, return it. */
obs::CpuProfile
finishProfile()
{
    auto &profiler = obs::Profiler::global();
    profiler.stop();
    auto prof = profiler.collect();
    obs::profilerRunsTotal().inc();
    obs::profilerSamplesTotal().inc(static_cast<double>(prof.samples));
    obs::profilerSamplesDroppedTotal().inc(
            static_cast<double>(prof.dropped));
    obs::profilerLastAttributedPct().set(prof.attributedPct());
    return prof;
}

// -- HTTP ------------------------------------------------------------

using obs::kJson;

/** Start `server` on --port and write --port-file; false on failure. */
bool
listen(obs::HttpServer &server, const CliFlags &flags, const char *cmd)
{
    std::string err;
    if (!server.start(static_cast<int>(flags.port), &err)) {
        std::fprintf(stderr, "%s: cannot start HTTP server: %s\n", cmd,
                     err.c_str());
        return false;
    }
    if (!flags.port_file.empty()) {
        std::ofstream pf(flags.port_file, std::ios::trunc);
        pf << server.port() << "\n";
        if (!pf)
            std::fprintf(stderr, "%s: cannot write %s\n", cmd,
                         flags.port_file.c_str());
    }
    return true;
}

// -- offline pipeline: campaign, fit, validate, predict, audit -------

using Args = std::vector<std::string>;

int
cmdDevices(const Args &, const CliFlags &)
{
    for (auto kind : gpu::kAllDevices) {
        const auto &d = gpu::DeviceDescriptor::get(kind);
        std::printf("%-8s %s (%s, %zu V-F configs)\n", deviceToken(kind),
                    d.name.c_str(),
                    std::string(architectureName(d.architecture)).c_str(),
                    d.allConfigs().size());
    }
    return 0;
}

/**
 * Run the fault-tolerant campaign path selected by any resilience
 * flag into `data` and print the CampaignReport. Returns 0; or 1 when
 * the checkpoint could not be written or belongs to another campaign,
 * or the reference configuration could not be measured.
 */
int
runResilientCampaign(gpu::DeviceKind kind, const CliFlags &flags,
                     model::TrainingData &data)
{
    sim::PhysicalGpu board(kind);
    model::SimulatedBackend backend(board);
    std::optional<model::FaultInjectingBackend> faulty;
    model::MeasurementBackend *target = &backend;
    if (flags.fault_rate > 0.0) {
        faulty.emplace(backend,
                       model::FaultSpec::uniform(flags.fault_rate,
                                                 flags.fault_seed));
        target = &*faulty;
    }

    model::ResilientCampaignOptions opts;
    if (flags.retries >= 0)
        opts.max_retries = static_cast<int>(flags.retries);
    opts.checkpoint_path = flags.checkpoint;

    std::fprintf(stderr, "running resilient campaign on %s...\n",
                 board.descriptor().name.c_str());
    auto result = model::runResilientTrainingCampaign(
            *target, ubench::buildSuite(), opts);
    std::fprintf(stderr, "%s", result.report.summary().c_str());
    if (flags.json)
        std::printf("%s\n", result.report.toJson().c_str());
    if (result.checkpoint_error)
        return reportLoadFailure(*result.checkpoint_error);
    if (const auto &e = result.reference_error) {
        std::fprintf(stderr, "error [%s]: %s\n",
                     std::string(model::measureErrcName(e->code)).c_str(),
                     e->message.c_str());
        return 1;
    }
    data = std::move(result.data);
    return 0;
}

int
cmdCampaign(const Args &args, const CliFlags &flags)
{
    const auto kind = parseDevice(args[0]);
    if (!kind)
        return unknownDevice(args[0]);
    model::TrainingData data;
    if (flags.resilient) {
        if (const int rc = runResilientCampaign(*kind, flags, data))
            return rc;
    } else {
        sim::PhysicalGpu board(*kind);
        std::fprintf(stderr, "running campaign on %s...\n",
                     board.descriptor().name.c_str());
        data = model::runTrainingCampaign(board, ubench::buildSuite());
    }
    const auto saved = model::trySave(data, args[1]);
    if (!saved.ok())
        return reportLoadFailure(saved.error());
    reportWritten(true, "campaign", args[1]);
    return 0;
}

/**
 * Fit a model from campaign data through the typed estimator path and
 * persist it: numerical failures print their error code and iteration
 * trace instead of aborting. With --convergence-out, a per-iteration
 * telemetry CSV is written whether or not the fit succeeded.
 */
int
fitAndSave(const model::TrainingData &data, const std::string &out,
           const CliFlags &flags)
{
    obs::ConvergenceRecorder recorder;
    model::EstimatorOptions eopts;
    if (!flags.convergence_out.empty())
        eopts.observer = &recorder;
    auto res = model::ModelEstimator(eopts).tryEstimate(data);
    if (!flags.convergence_out.empty())
        reportWritten(recorder.writeCsv(flags.convergence_out),
                      "convergence CSV", flags.convergence_out);
    if (!res.ok())
        return reportFitFailure(res.error());
    const auto &fit = res.value();
    std::fprintf(stderr,
                 "fit: %d iterations, RMSE %.2f W (design rank %zu, "
                 "condition %.1e)\n",
                 fit.iterations, fit.rmse_w, fit.design_rank,
                 fit.condition_number);
    const auto saved = model::trySave(fit.model, out);
    if (!saved.ok())
        return reportLoadFailure(saved.error());
    reportWritten(true, "model", out);
    return 0;
}

int
cmdFit(const Args &args, const CliFlags &flags)
{
    // Device name instead of a campaign file: run the bundled
    // synthetic resilient campaign in-process, then fit — the whole
    // measure→fit→save pipeline in one command.
    const auto kind = parseDevice(args[0]);
    if (kind && !fileExists(args[0])) {
        std::fprintf(stderr,
                     "no campaign file '%s'; running the bundled "
                     "synthetic campaign\n",
                     args[0].c_str());
        model::TrainingData data;
        if (const int rc = runResilientCampaign(*kind, flags, data))
            return rc;
        return fitAndSave(data, args[1], flags);
    }
    auto data = model::tryLoad<model::TrainingData>(args[0],
                                                   loadOptionsOf(flags));
    if (!data.ok())
        return reportLoadFailure(data.error());
    return fitAndSave(data.value(), args[1], flags);
}

/** Outcome of checking one file: either a load failure or a report. */
struct FileCheck
{
    bool loaded = false;
    std::string kind;
    model::IoStatus load_error;
    model::ValidationReport report;
};

/** Parse `text` as a T, then validate what it parsed. */
template <typename T>
void
checkAs(FileCheck &fc, const std::string &text,
        const model::LoadOptions &opts)
{
    const auto parsed = model::tryParse<T>(text, opts);
    if (!parsed.ok()) {
        fc.load_error = parsed.error();
        return;
    }
    fc.loaded = true;
    fc.report = model::Codec<T>::validate(parsed.value());
}

FileCheck
checkFile(const std::string &path, const model::LoadOptions &opts)
{
    FileCheck fc;
    const auto read = model::tryReadFile(path);
    if (!read.ok()) {
        fc.load_error = read.error();
        return fc;
    }
    const std::string &text = read.value();
    const auto kind = model::detectFileKind(text);
    if (!kind.ok()) {
        fc.load_error = kind.error();
        return fc;
    }
    fc.kind = std::string(model::fileKindName(kind.value()));

    switch (kind.value()) {
      case model::FileKind::Model:
        checkAs<model::DvfsPowerModel>(fc, text, opts);
        break;
      case model::FileKind::Campaign:
        checkAs<model::TrainingData>(fc, text, opts);
        break;
      case model::FileKind::Checkpoint:
        checkAs<model::CampaignCheckpoint>(fc, text, opts);
        break;
      case model::FileKind::Scoreboard:
        checkAs<obs::Scoreboard>(fc, text, opts);
        break;
      case model::FileKind::FleetShard:
        checkAs<fleet::ShardCheckpoint>(fc, text, opts);
        break;
      case model::FileKind::Fleet: {
        // The merged fleet report is envelope-checked only (magic,
        // kind, size, CRC32): nothing reads its payload back.
        const auto payload = model::tryUnwrapEnvelope(text, kind.value());
        fc.loaded = payload.ok();
        if (!payload.ok())
            fc.load_error = payload.error();
        fc.report.subject = fc.kind;
        break;
      }
    }
    return fc;
}

int
cmdValidate(const Args &paths, const CliFlags &flags)
{
    // Deliberately no `validate` in the LoadOptions: the checks run
    // explicitly below so the full report is printed, not just the
    // first-error summary a strict load would produce.
    model::LoadOptions opts = loadOptionsOf(flags);
    opts.validate = false;

    int rc = 0;
    if (flags.json)
        std::printf("[");
    for (std::size_t i = 0; i < paths.size(); ++i) {
        const FileCheck fc = checkFile(paths[i], opts);
        if (!fc.loaded || !fc.report.ok())
            rc = 1;
        const std::string errc(model::ioErrcName(fc.load_error.code));
        if (flags.json) {
            std::string line = "{\"file\":\"" +
                               json::escape(paths[i]) + "\"";
            if (!fc.kind.empty())
                line += ",\"kind\":\"" + fc.kind + "\"";
            if (fc.loaded) {
                std::string rep = fc.report.toJson();
                while (!rep.empty() &&
                       (rep.back() == '\n' || rep.back() == '\r'))
                    rep.pop_back();
                line += ",\"loaded\":true,\"report\":" + rep;
            } else {
                line += ",\"loaded\":false,\"error\":{\"code\":\"" +
                        errc + "\",\"message\":\"" +
                        json::escape(fc.load_error.message) + "\"}";
            }
            std::printf("%s%s}", i ? "," : "", line.c_str());
        } else if (!fc.loaded) {
            std::printf("%s: load failed [%s]: %s\n", paths[i].c_str(),
                        errc.c_str(), fc.load_error.message.c_str());
        } else {
            std::printf("%s: %s", paths[i].c_str(),
                        fc.report.summary().c_str());
        }
    }
    if (flags.json)
        std::printf("]\n");
    return rc;
}

int
cmdInfo(const Args &args, const CliFlags &flags)
{
    auto res = model::tryLoad<model::DvfsPowerModel>(
            args[0], loadOptionsOf(flags));
    if (!res.ok())
        return reportLoadFailure(res.error());
    const auto m = res.value();
    const auto &desc = gpu::DeviceDescriptor::get(m.deviceKind());
    std::printf("device: %s\n", desc.name.c_str());
    std::printf("reference: (%d, %d) MHz\n", m.reference().core_mhz,
                m.reference().mem_mhz);
    const auto &p = m.params();
    std::printf("beta: %.2f %.2f %.2f %.2f (W | W/GHz)\n", p.beta0,
                p.beta1, p.beta2, p.beta3);
    std::printf("omega (W/GHz):");
    for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
        std::printf(" %s=%.1f",
                    std::string(gpu::componentName(
                            static_cast<gpu::Component>(i))).c_str(),
                    p.omega[i]);
    std::printf("\nfitted configurations: %zu\n",
                m.voltageTable().size());
    std::printf("core voltage at fmem=%d: %.3f (min clock) .. %.3f "
                "(max clock)\n",
                m.reference().mem_mhz,
                m.voltages({desc.minCoreMhz(), m.reference().mem_mhz})
                        .core,
                m.voltages({desc.maxCoreMhz(), m.reference().mem_mhz})
                        .core);
    return 0;
}

/**
 * Load the model file args[0] and profile the Table III app args[1]
 * on a fresh simulated board of its device at the reference
 * configuration (Sec. III-E). Returns 0, or the exit code of a failure.
 */
int
loadAndProfile(const Args &args, const CliFlags &flags,
               std::optional<model::DvfsPowerModel> &m,
               gpu::ComponentArray &util)
{
    auto res = model::tryLoad<model::DvfsPowerModel>(
            args[0], loadOptionsOf(flags));
    if (!res.ok())
        return reportLoadFailure(res.error());
    m = res.value();
    const auto &apps = workloads::fullValidationSet();
    const auto app = std::find_if(
            apps.begin(), apps.end(),
            [&args](const workloads::Workload &w) {
                return w.name == args[1];
            });
    if (app == apps.end()) {
        std::fprintf(stderr, "unknown application '%s'\n",
                     args[1].c_str());
        return 2;
    }
    sim::PhysicalGpu board(m->deviceKind());
    cupti::Profiler profiler(board, 11);
    util = model::utilizationsFromMetrics(
            profiler.profile(app->demand, m->reference()),
            board.descriptor(), m->reference());
    return 0;
}

int
cmdPredict(const Args &args, const CliFlags &flags)
{
    std::optional<model::DvfsPowerModel> m;
    gpu::ComponentArray util{};
    if (const int rc = loadAndProfile(args, flags, m, util))
        return rc;
    gpu::FreqConfig target = m->reference();
    if (args.size() == 4) {
        // Off-grid clocks interpolate, but only inside the device's
        // supported ranges.
        const auto &desc = gpu::DeviceDescriptor::get(m->deviceKind());
        long core = 0, mem = 0;
        if (!numio::parseLong(args[2], core) ||
            !numio::parseLong(args[3], mem) ||
            core < desc.minCoreMhz() || core > desc.maxCoreMhz() ||
            mem < desc.mem_freqs_mhz.back() ||
            mem > desc.mem_freqs_mhz.front()) {
            std::fprintf(stderr,
                         "bad clocks (%s, %s): %s runs its core at "
                         "%d..%d MHz and its memory at %d..%d MHz\n",
                         args[2].c_str(), args[3].c_str(),
                         desc.name.c_str(), desc.minCoreMhz(),
                         desc.maxCoreMhz(), desc.mem_freqs_mhz.back(),
                         desc.mem_freqs_mhz.front());
            return 2;
        }
        target = {static_cast<int>(core), static_cast<int>(mem)};
    }
    const auto p = m->hasVoltages(target)
                           ? m->predict(util, target)
                           : m->predictInterpolated(util, target);
    std::printf("%s @ (%d, %d) MHz: %.1f W total (constant %.1f W)\n",
                args[1].c_str(), target.core_mhz, target.mem_mhz,
                p.total_w, p.constant_w);
    for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
        std::printf("  %-7s %.1f W\n",
                    std::string(gpu::componentName(
                            static_cast<gpu::Component>(i))).c_str(),
                    p.component_w[i]);
    return 0;
}

int
cmdSweep(const Args &args, const CliFlags &flags)
{
    std::optional<model::DvfsPowerModel> m;
    gpu::ComponentArray util{};
    if (const int rc = loadAndProfile(args, flags, m, util))
        return rc;
    model::Predictor pred(*m);
    TextTable t({"fcore", "fmem", "predicted W"});
    t.setTitle(args[1] + " across the fitted V-F grid");
    for (const auto &pt : pred.sweep(util))
        t.addRow({std::to_string(pt.cfg.core_mhz),
                  std::to_string(pt.cfg.mem_mhz),
                  TextTable::num(pt.prediction.total_w, 1)});
    t.print(std::cout);
    return 0;
}

/**
 * `gpupm audit <model-file|device>`: replay the full validation set
 * over the device's V-F grid and score the model's prediction error —
 * the paper's Table III / Figs. 7-8 evaluation as a repeatable
 * operational check. With a device name, the bundled campaign is run
 * and the model fitted in-process (the exact bench/fig7_validation
 * procedure, 5 power repetitions); with a model file, the stored model
 * is audited on its own device. The campaign additionally trains the
 * Sec. VI baselines so the scoreboard carries their deltas.
 */
int
cmdAudit(const Args &args, const CliFlags &flags)
{
    // Same repetition count as the Fig. 7 reproduction, so the audit
    // MAE is comparable against bench_csv/fig7_summary.csv.
    model::CampaignOptions copts;
    copts.power_repetitions = 5;

    const std::string &target = args[0];
    auto kind = parseDevice(target);
    std::optional<model::DvfsPowerModel> m;
    if (!kind || fileExists(target)) {
        auto res = model::tryLoad<model::DvfsPowerModel>(
                target, loadOptionsOf(flags));
        if (!res.ok())
            return reportLoadFailure(res.error());
        m = res.value();
        kind = m->deviceKind();
    }
    common::setProvenanceDevice(deviceToken(*kind));

    sim::PhysicalGpu board(*kind);
    const auto &desc = board.descriptor();
    const auto configs = desc.allConfigs();
    const auto ref = desc.referenceConfig();
    std::fprintf(stderr,
                 "auditing %s: %zu validation apps x %zu V-F "
                 "configs...\n",
                 desc.name.c_str(),
                 workloads::fullValidationSet().size(),
                 configs.size());

    // The training campaign fits the proposed model when none was
    // given, and always trains the Sec. VI baselines.
    model::TrainingData data;
    {
        GPUPM_TRACE_SPAN("audit", "audit.campaign");
        data = model::runTrainingCampaign(board, ubench::buildSuite(),
                                          copts);
    }
    if (!m) {
        GPUPM_TRACE_SPAN("audit", "audit.fit");
        auto fit = model::ModelEstimator().tryEstimate(data);
        if (!fit.ok())
            return reportFitFailure(fit.error());
        m = fit.value().model;
    }
    const auto abe = baselines::AbeLinearModel::train(data);
    const auto cubic = baselines::CubicScalingModel::train(data);
    const auto refscale = baselines::RefScalingModel::train(data);

    model::Predictor predictor(*m);
    std::vector<obs::ResidualSample> samples;
    samples.reserve(workloads::fullValidationSet().size() *
                    configs.size());
    for (const auto &w : workloads::fullValidationSet()) {
        GPUPM_TRACE_SPAN("audit", "audit.measure." + w.name);
        const auto meas =
                model::measureApp(board, w.demand, configs, copts);
        double ref_power_w = 0.0;
        for (std::size_t i = 0; i < meas.configs.size(); ++i)
            if (meas.configs[i] == ref)
                ref_power_w = meas.power_w[i];
        for (std::size_t i = 0; i < meas.configs.size(); ++i) {
            const auto &cfg = meas.configs[i];
            const auto p = predictor.at(meas.util, cfg);
            samples.push_back({
                    .app = w.name,
                    .cfg = cfg,
                    .measured_w = meas.power_w[i],
                    .predicted_w = p.total_w,
                    .constant_w = p.constant_w,
                    .component_w = p.component_w,
                    .baseline_w = {
                            {"abe", abe.predict(meas.util, cfg)},
                            {"cubic", cubic.predict(meas.util, cfg)},
                            {"refscale",
                             refscale.predict(ref_power_w, cfg)},
                    },
            });
        }
    }

    const auto sb = obs::Scoreboard::fromSamples(
            static_cast<int>(*kind), desc.name, ref,
            std::move(samples));
    sb.publishMetrics();
    std::fprintf(stderr,
                 "audit: %ld samples, overall MAE %.2f%%, RMSE "
                 "%.2f W, max error %.2f%%\n",
                 sb.overall.samples, sb.overall.mae_pct,
                 sb.overall.rmse_w, sb.overall.max_err_pct);

    if (!flags.scoreboard_out.empty()) {
        auto saved = model::trySave(sb, flags.scoreboard_out);
        if (!saved.ok())
            return reportLoadFailure(saved.error());
        reportWritten(true, "scoreboard", flags.scoreboard_out);
    }
    if (flags.json)
        std::printf("%s", sb.toJson(false).c_str());
    else if (flags.csv)
        std::printf("%s", sb.samplesCsv().c_str());
    else
        std::printf("%s", sb.summaryText().c_str());
    return 0;
}

/**
 * `gpupm fleet <N>`: the fault-tolerant fleet campaign. N simulated
 * device instances (three architectures, per-instance ground-truth
 * jitter) are split into shards that --threads workers take in turn;
 * each shard attempt runs under a --deadline (the watchdog) with
 * seeded retry/backoff, checkpoints crash-safely when --resume names
 * a directory, and is quarantined — with explicit per-device
 * accounting — past its retry budget. Chaos
 * flags inject shard kills, stalls and poisoned devices; --faults is
 * shorthand for kills + poison at one rate. With --port/--duration
 * the merged result is served on /fleet next to /metrics for the
 * monitor's scrape interval.
 */
int
cmdFleet(const Args &args, const CliFlags &flags)
{
    long n = 0;
    if (!numio::parseLong(args[0], n) || n <= 0) {
        std::fprintf(stderr,
                     "fleet needs a positive device count, got "
                     "'%s'\n",
                     args[0].c_str());
        return 2;
    }
    obs::registerStandardMetrics();

    // The campaign runs under one root trace (fleet.campaign) with
    // every shard attempt and deadline fire inside it;
    // assembled traces land here and are served on /api/traces while
    // --duration keeps the process up. One campaign is one giant
    // request (~350 spans per device), so the fleet store is sized
    // for a few hundred devices where the monitor's per-tick store
    // keeps its tight 1 MiB default.
    obs::TraceStore store({.max_bytes = 32u << 20});
    obs::TraceStoreAttachment tracing(store, flags.fault_seed,
                                      !flags.trace_out.empty());

    fleet::FleetOptions fopts;
    fopts.devices = n;
    fopts.shards = static_cast<int>(flags.shards);
    fopts.threads = static_cast<int>(flags.threads);
    fopts.watchdog_deadline_s = flags.deadline_s;
    fopts.checkpoint_dir = flags.checkpoint;
    fopts.chaos.seed = flags.fault_seed;
    fopts.chaos.shard_kill_rate = flags.chaos_kill;
    fopts.chaos.shard_stall_rate = flags.chaos_stall;
    fopts.chaos.poison_fraction = flags.chaos_poison;
    if (flags.fault_rate > 0.0) {
        if (fopts.chaos.shard_kill_rate == 0.0)
            fopts.chaos.shard_kill_rate = flags.fault_rate;
        if (fopts.chaos.poison_fraction == 0.0)
            fopts.chaos.poison_fraction = flags.fault_rate;
    }

    const fleet::FleetResult result = fleet::runFleetCampaign(fopts);
    std::fprintf(stderr, "%s", result.summary().c_str());

    if (!flags.fleet_out.empty()) {
        auto saved = model::tryWriteFileAtomic(
                flags.fleet_out,
                model::wrapEnvelope(model::FileKind::Fleet,
                                    result.toJson() + "\n"));
        if (!saved.ok())
            return reportLoadFailure(saved.error());
        reportWritten(true, "fleet report", flags.fleet_out);
    }
    if (flags.json)
        std::printf("%s\n", result.toJson().c_str());

    if (flags.duration_s > 0.0) {
        // Per-architecture aggregate series: fleet-level drift
        // (outlier devices, arch marginals moving) is queryable from
        // the same /api/query shape the monitor serves. Declared
        // before the server so handlers never outlive the store.
        obs::Tsdb fleet_tsdb;
        fleet::publishFleetSeries(result, fleet_tsdb);

        obs::HttpServer server;
        obs::serveData(server, fleet_tsdb, store);
        server.route("/fleet", [body = result.toJson()](
                                       const obs::HttpRequest &) {
            return obs::HttpResponse{200, kJson, body};
        });
        if (!listen(server, flags, "fleet"))
            return 1;
        std::fprintf(stderr,
                     "fleet: serving /metrics and /fleet on "
                     "127.0.0.1:%d for %.1fs\n",
                     server.port(), flags.duration_s);
        std::this_thread::sleep_for(
                std::chrono::duration<double>(flags.duration_s));
        server.stop();
    }

    // Graceful degradation is success; a fleet with zero healthy
    // devices is not.
    return result.scoreboard.devices_ok > 0 ? 0 : 1;
}

/** `gpupm metrics`: dump the full pre-registered metric catalog. */
int
cmdMetrics(const Args &, const CliFlags &flags)
{
    obs::registerStandardMetrics();
    obs::touchProcessMetrics();
    auto &reg = obs::Registry::global();
    std::printf("%s", flags.json ? reg.renderJson().c_str()
                                 : reg.renderPrometheus().c_str());
    return 0;
}

/** `gpupm version` / `gpupm --version`: the build-info block. */
int
cmdVersion(const Args &, const CliFlags &flags)
{
    const auto p = common::collectProvenance();
    if (flags.json) {
        std::printf("%s\n", common::toJson(p).c_str());
        return 0;
    }
    std::printf("gpupm %s (%s)\n", p.version.c_str(),
                p.build_type.c_str());
    std::printf("git sha:  %s\n", p.git_sha.c_str());
    std::printf("compiler: %s\n", p.compiler.c_str());
    if (!p.device.empty())
        std::printf("device:   %s\n", p.device.c_str());
    return 0;
}

int
cmdExportCuda(const Args &args, const CliFlags &)
{
    std::ofstream out(args[0]);
    out << ubench::cudaSuiteSource();
    return reportWritten(out.good(), "microbenchmark suite", args[0])
                   ? 0
                   : 1;
}

// -- run-time pipeline: monitor, alerts, traces ----------------------

/**
 * Parse one `--alert` rule spec. Grammar (DESIGN.md §14):
 *
 *   NAME:KIND:SERIES:OP:THRESHOLD[:WINDOW[:FOR[:COOLDOWN]]]
 *
 * KIND is `threshold` or `rate` (rate compares the per-second slope
 * over the window), OP is `gt` or `lt`, durations use the usual
 * `30s`/`500ms`/`1m` forms. Series names carry no colons, so a plain
 * split is unambiguous.
 */
bool
parseAlertSpec(const std::string &spec, obs::AlertRule &rule,
               std::string &err)
{
    const auto parts = split(spec, ':');
    if (parts.size() < 5 || parts.size() > 8) {
        err = "expected NAME:KIND:SERIES:OP:THRESHOLD"
              "[:WINDOW[:FOR[:COOLDOWN]]], got '" +
              spec + "'";
        return false;
    }
    rule.name = parts[0];
    if (rule.name.empty()) {
        err = "rule name must not be empty";
        return false;
    }
    if (parts[1] == "threshold") {
        rule.kind = obs::AlertKind::Threshold;
    } else if (parts[1] == "rate") {
        rule.kind = obs::AlertKind::Rate;
    } else {
        err = "unknown rule kind '" + parts[1] +
              "' (expected threshold or rate)";
        return false;
    }
    rule.series = parts[2];
    if (parts[3] == "gt") {
        rule.op = obs::AlertOp::Gt;
    } else if (parts[3] == "lt") {
        rule.op = obs::AlertOp::Lt;
    } else {
        err = "unknown op '" + parts[3] + "' (expected gt or lt)";
        return false;
    }
    if (!numio::parseDouble(parts[4], rule.threshold)) {
        err = "bad threshold '" + parts[4] + "'";
        return false;
    }
    const char *what[] = {"window", "for", "cooldown"};
    std::int64_t *out[] = {&rule.window_us, &rule.for_us,
                           &rule.cooldown_us};
    for (std::size_t i = 5; i < parts.size(); ++i) {
        const double d = numio::parseDuration(parts[i]);
        if (d < 0.0) {
            err = std::string("bad ") + what[i - 5] + " duration '" +
                  parts[i] + "'";
            return false;
        }
        *out[i - 5] = static_cast<std::int64_t>(d * 1e6);
    }
    return true;
}

/**
 * Per-device MAE envelope from a bench/golden fig7 telemetry file
 * (`stats.mae_pct_<device>`); nullopt (with a warning) when the file
 * or the key is missing, falling back to the hard-coded envelope.
 */
std::optional<double>
driftEnvelopeFromGolden(const std::string &path,
                        const std::string &device)
{
    const auto text = model::tryReadFile(path);
    json::Value root;
    json::Error err;
    if (!text.ok() || !json::parse(text.value(), root, err)) {
        std::fprintf(stderr, "drift golden '%s': %s\n", path.c_str(),
                     text.ok() ? err.message().c_str()
                               : text.error().message.c_str());
        return std::nullopt;
    }
    const auto *stats = root.find("stats");
    const auto *mae = stats ? stats->find("mae_pct_" + device) : nullptr;
    if (!mae || mae->kind != json::Value::Kind::Number) {
        std::fprintf(stderr,
                     "drift golden '%s': no mae_pct_%s stat\n",
                     path.c_str(), device.c_str());
        return std::nullopt;
    }
    return mae->number;
}

/**
 * Assemble the alert rule set of the run-time pipeline: the built-in
 * drift rule (unless --no-drift-rule) plus every --alert spec.
 * Returns false after printing the offending spec.
 */
bool
buildAlertRules(const CliFlags &flags, const std::string &device,
                std::vector<obs::AlertRule> &rules)
{
    if (!flags.no_drift_rule) {
        std::optional<double> envelope;
        if (!flags.drift_golden.empty())
            envelope = driftEnvelopeFromGolden(flags.drift_golden,
                                               device);
        rules.push_back(obs::makeDriftRule(
                device, flags.drift_tolerance,
                static_cast<std::int64_t>(flags.drift_window_s * 1e6),
                static_cast<std::int64_t>(flags.drift_for_s * 1e6),
                static_cast<std::int64_t>(flags.drift_cooldown_s *
                                          1e6),
                envelope));
    }
    for (const std::string &spec : flags.alert_specs) {
        obs::AlertRule rule;
        std::string err;
        if (!parseAlertSpec(spec, rule, err)) {
            std::fprintf(stderr, "bad --alert spec '%s': %s\n",
                         spec.c_str(), err.c_str());
            return false;
        }
        rules.push_back(std::move(rule));
    }
    return true;
}

/**
 * What `monitor`, `alerts` and `traces` add to obs::LivePipeline: a
 * model of the board trained in-process (the same procedure as
 * `gpupm fit <device>`, at 3 power repetitions), every validation app
 * profiled once at the reference configuration, and the probe that
 * measures the simulated NVML device and predicts with the model.
 * `pipe` is declared last, so it stops before anything its probe
 * reads is destroyed.
 */
struct LiveSession
{
    LiveSession(gpu::DeviceKind kind, const CliFlags &f)
        : flags(f), board(kind), dev(board)
    {
    }

    /**
     * Build the alert rules, train, profile and assemble `pipe`.
     * Returns 0, or the exit code of a bad --alert spec (before any
     * training), a failed fit or an unwritable event log.
     */
    int build(const char *cmd);

    /** One sample: measure, inject --inject-drift, predict. */
    obs::MonitorSample probe(const std::string &app,
                             const gpu::FreqConfig &cfg);

    /** --ticks virtual ticks; tick i lands at t = (i + 1) * period. */
    void
    tickSynchronously()
    {
        const std::int64_t period_us = flags.period_ms * 1000;
        for (long tick = 0; tick < flags.ticks; ++tick)
            pipe->sampler.tickSynchronously((tick + 1) * period_us);
    }

    const CliFlags &flags;
    sim::PhysicalGpu board;
    nvml::Device dev;
    std::optional<model::DvfsPowerModel> fitted;
    std::optional<model::Predictor> predictor;
    std::map<std::string, gpu::ComponentArray> utils;
    std::map<std::string, sim::KernelDemand> demands;
    std::size_t schedule_points = 0;
    long probe_tick = 0;
    std::optional<obs::LivePipeline> pipe;
};

int
LiveSession::build(const char *cmd)
{
    const auto &desc = board.descriptor();
    common::setProvenanceDevice(deviceToken(desc.kind));
    obs::registerStandardMetrics();
    std::vector<obs::AlertRule> rules;
    if (!buildAlertRules(flags, deviceToken(desc.kind), rules))
        return 2;

    std::fprintf(stderr, "%s: training %s model in-process...\n", cmd,
                 desc.name.c_str());
    model::CampaignOptions copts;
    copts.power_repetitions = 3;
    auto fit = model::ModelEstimator().tryEstimate(
            model::runTrainingCampaign(board, ubench::buildSuite(),
                                       copts));
    if (!fit.ok())
        return reportFitFailure(fit.error());
    fitted.emplace(fit.value().model);
    predictor.emplace(*fitted);

    // Schedule: every validation app at the slowest, reference and
    // fastest V-F configuration, round-robinned. Utilizations are
    // profiled once at the reference configuration (Sec. III-E); the
    // run-time loop never re-profiles, exactly as the paper's
    // operational use case prescribes.
    const auto configs = desc.allConfigs();
    const auto ref = desc.referenceConfig();
    std::vector<obs::SchedulePoint> schedule;
    cupti::Profiler profiler(board, 11);
    for (const auto &w : workloads::fullValidationSet()) {
        const auto rm = profiler.profile(w.demand, ref);
        utils[w.name] = model::utilizationsFromMetrics(rm, desc, ref);
        demands[w.name] = w.demand;
        for (const auto &cfg : {configs.front(), ref, configs.back()})
            schedule.push_back({w.name, cfg});
    }
    schedule_points = schedule.size();

    pipe.emplace(
            [this](const std::string &app, const gpu::FreqConfig &cfg) {
                return probe(app, cfg);
            },
            std::move(schedule),
            obs::SamplerOptions{
                    .period_ms = static_cast<int>(flags.period_ms),
                    .rolling_window = static_cast<std::size_t>(
                            flags.rolling_window),
                    .device = static_cast<int>(desc.kind),
                    .device_name = desc.name,
                    .reference = ref,
            },
            std::move(rules));
    std::string err;
    if (!flags.events_out.empty() &&
        !pipe->recorder.openLog(flags.events_out, flags.events_max_bytes,
                                static_cast<int>(flags.events_max_files),
                                &err)) {
        std::fprintf(stderr, "%s: %s\n", cmd, err.c_str());
        return 1;
    }
    return 0;
}

obs::MonitorSample
LiveSession::probe(const std::string &app, const gpu::FreqConfig &cfg)
{
    obs::MonitorSample s;
    s.app = app;
    s.cfg = cfg;
    dev.setApplicationClocks(cfg.mem_mhz, cfg.core_mhz);
    s.measured_w = dev.measureKernelPower(demands.at(app), 2, 0.05).power_w;
    // Seeded accuracy fault: scale the measurement inside the tick
    // window so the residuals — and the rolling MAE the drift rule
    // watches — degrade and recover deterministically.
    const long tick = probe_tick++;
    const auto &inj = flags.inject_drift;
    if (inj && tick >= inj->from_tick && tick < inj->to_tick)
        s.measured_w *= inj->scale;
    s.predicted_w = predictor->at(utils.at(app), cfg).total_w;
    return s;
}

/** Set by SIGINT/SIGTERM; the monitor main loop polls it. */
volatile std::sig_atomic_t g_monitor_stop = 0;

/** Set by SIGUSR1; the main loop dumps a live diagnostic and clears. */
volatile std::sig_atomic_t g_monitor_dump = 0;

extern "C" void
monitorSignalHandler(int sig)
{
    if (sig == SIGUSR1)
        g_monitor_dump = 1;
    else
        g_monitor_stop = 1;
}

/** JSON number or `fallback` when not finite (age before a sample). */
std::string
jsonFiniteOr(double v, const char *fallback)
{
    if (!std::isfinite(v))
        return fallback;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

/** Print the newest `show` flight-recorder records, oldest first. */
void
printRecorderTail(const obs::FlightRecorder &recorder, std::size_t show)
{
    const auto tail = recorder.snapshot();
    show = std::min(show, tail.size());
    std::fprintf(stderr,
                 "monitor: flight recorder tail (%zu of %lld "
                 "recorded):\n",
                 show, static_cast<long long>(recorder.recorded()));
    for (std::size_t i = tail.size() - show; i < tail.size(); ++i)
        std::fprintf(stderr, "  #%lld +%.3fs [%s] %s: %s\n",
                     static_cast<long long>(tail[i].seq),
                     static_cast<double>(tail[i].ts_us) * 1e-6,
                     tail[i].kind.c_str(), tail[i].name.c_str(),
                     tail[i].detail.c_str());
}

/**
 * `gpupm monitor <device>`: the long-running telemetry daemon. The
 * main thread ticks the live pipeline on the wall clock while an
 * embedded HTTP server exposes /metrics, /healthz, /scoreboard,
 * /tracez and the rest on loopback. SIGINT or SIGTERM (or --duration
 * elapsing) shuts everything down cleanly and dumps the flight
 * recorder's recent past to stderr.
 */
int
cmdMonitor(const Args &args, const CliFlags &flags)
{
    const auto kind = parseDevice(args[0]);
    if (!kind)
        return unknownDevice(args[0]);
    LiveSession live(*kind, flags);
    if (const int rc = live.build("monitor"))
        return rc;
    auto &pipe = *live.pipe;
    // Tracing starts after training, as in `gpupm traces`, so the
    // store behind /api/traces and every exemplar hold tick traces.
    pipe.trace(flags.fault_seed, !flags.trace_out.empty());
    auto &sampler = pipe.sampler;
    auto &engine = pipe.engine;
    auto &recorder = pipe.recorder;
    auto &server = pipe.server;

    server.route("/", [](const obs::HttpRequest &) {
        return obs::HttpResponse{
                200, "text/plain; charset=utf-8",
                "gpupm monitor endpoints:\n"
                "  /metrics     Prometheus text exposition\n"
                "  /healthz     JSON liveness + provenance\n"
                "  /scoreboard  live accuracy scoreboard JSON\n"
                "  /tracez      flight recorder (recent spans)\n"
                "  /profilez    on-demand CPU profile "
                "(?seconds=N, collapsed-stack text)\n"
                "  /api/query   tsdb range query (?series=...&"
                "range=60s&step=1s)\n"
                "  /api/traces  tail-sampled request traces "
                "(?category=...&min_ms=...&error=1&trace_id=...)\n"
                "  /alertz      alert rules + firing state "
                "(?format=text for human output)\n"};
    });
    obs::serveData(server, pipe.tsdb, pipe.store, [&sampler] {
        const double age = sampler.lastSampleAgeSeconds();
        if (std::isfinite(age))
            obs::monitorSampleAgeSeconds().set(age);
    });
    const auto started = std::chrono::steady_clock::now();
    server.route("/healthz", [&sampler, &engine, &flags,
                              started](const obs::HttpRequest &) {
        const bool stale = sampler.stale();
        const auto firing = engine.firingRuleNames();
        // Staleness outranks degradation: a wedged sampler can no
        // longer evaluate its own rules, so report the harder fault.
        const char *status = stale ? "stale"
                             : firing.empty() ? "ok"
                                              : "degraded";
        const double uptime =
                std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - started)
                        .count();
        std::ostringstream os;
        os << "{\"status\":\"" << status
           << "\",\"uptime_seconds\":" << jsonFiniteOr(uptime, "0")
           << ",\"ticks\":" << sampler.ticks()
           << ",\"last_sample_age_seconds\":"
           << jsonFiniteOr(sampler.lastSampleAgeSeconds(), "-1")
           << ",\"firing\":[";
        for (std::size_t i = 0; i < firing.size(); ++i)
            os << (i ? "," : "") << "\"" << json::escape(firing[i])
               << "\"";
        os << "],\"provenance\":"
           << common::toJson(common::collectProvenance()) << "}\n";
        const bool degraded_503 =
                !firing.empty() && flags.healthz_degraded_503;
        return obs::HttpResponse{stale || degraded_503 ? 503 : 200,
                                 kJson, os.str()};
    });
    server.route("/alertz", [&engine](const obs::HttpRequest &req) {
        const std::int64_t now = engine.lastEvaluatedUs();
        if (req.query.find("format=text") != std::string::npos)
            return obs::HttpResponse{200, "text/plain; charset=utf-8",
                                     engine.renderText(now)};
        return obs::HttpResponse{200, kJson,
                                 engine.renderJson(now) + "\n"};
    });
    server.route("/scoreboard", [&sampler](const obs::HttpRequest &) {
        return obs::HttpResponse{
                200, kJson, sampler.scoreboardSnapshot().toJson(false)};
    });
    server.route("/tracez", [&recorder](const obs::HttpRequest &) {
        return obs::HttpResponse{200, kJson, recorder.renderJson()};
    });
    server.route("/profilez", [&recorder](const obs::HttpRequest &req) {
        // On-demand profile: sample the live daemon for N seconds
        // (?seconds=N, clamped to [0.1, 30], default 1) and return
        // the collapsed-stack text. Wall-clock sampling by default —
        // a healthy monitor is mostly idle, and CPU-time sampling of
        // an idle process truthfully returns nothing; ?mode=cpu
        // selects it anyway for busy daemons. The sampling sleep runs
        // on the HTTP worker, so other endpoints queue for the
        // duration — acceptable for a diagnostic; ?json=1 returns the
        // summary instead of the folded stacks.
        double seconds = 1.0;
        bool as_json = false;
        obs::ProfilerOptions popts;
        popts.wall = true;
        popts.hz = 499;
        for (const auto &[key, val] : obs::queryParams(req.query)) {
            if (key == "seconds")
                numio::parseDouble(val, seconds);
            else if (key == "json" && (val.empty() || val == "1"))
                as_json = true;
            else if (key == "mode" && val == "cpu") {
                popts.wall = false;
                popts.hz = 997;
            }
        }
        seconds = std::min(30.0, std::max(0.1, seconds));
        std::string err;
        if (!obs::Profiler::global().start(popts, &err))
            return obs::HttpResponse{409, "text/plain; charset=utf-8",
                                     "profiler unavailable: " + err +
                                             "\n"};
        recorder.recordSpan("monitor.profile", 0,
                            "sampling " + std::to_string(seconds) +
                                    "s");
        std::this_thread::sleep_for(
                std::chrono::duration<double>(seconds));
        const auto prof = finishProfile();
        if (as_json)
            return obs::HttpResponse{200, kJson,
                                     prof.renderJson() + "\n"};
        return obs::HttpResponse{200, "text/plain; charset=utf-8",
                                 prof.renderFolded()};
    });

    if (!listen(server, flags, "monitor"))
        return 1;
    const auto &desc = live.board.descriptor();
    recorder.recordSpan("monitor.start", 0,
                        desc.name + " on 127.0.0.1:" +
                                std::to_string(server.port()));
    std::fprintf(stderr,
                 "monitor: listening on 127.0.0.1:%d (period %ld ms, "
                 "%zu schedule points)\n",
                 server.port(), flags.period_ms, live.schedule_points);

    g_monitor_stop = 0;
    g_monitor_dump = 0;
    for (int sig : {SIGINT, SIGTERM, SIGUSR1})
        std::signal(sig, monitorSignalHandler);
    obs::Profiler::setThreadLabel("monitor.main");
    // The main loop ticks when a period is due, at t = µs since the
    // loop started, and otherwise sleeps at most 50 ms so signals and
    // --duration are seen promptly. A tick that overruns its period
    // makes the next one due at once.
    const auto period = std::chrono::milliseconds(flags.period_ms);
    const auto loop_start = std::chrono::steady_clock::now();
    auto next_tick = loop_start;
    while (!g_monitor_stop) {
        const auto now = std::chrono::steady_clock::now();
        const auto elapsed = now - loop_start;
        if (flags.duration_s > 0.0 &&
            std::chrono::duration<double>(elapsed).count() >=
                    flags.duration_s)
            break;
        if (now >= next_tick) {
            sampler.tickSynchronously(
                    std::chrono::duration_cast<std::chrono::microseconds>(
                            elapsed)
                            .count());
            next_tick += period;
        }
        if (g_monitor_dump) {
            // SIGUSR1 diagnostic: everything a stuck daemon's operator
            // needs, dumped to stderr without stopping anything. The
            // handler only sets a flag; the dump runs here.
            g_monitor_dump = 0;
            std::fprintf(stderr,
                         "monitor: === live diagnostic (SIGUSR1) ===\n"
                         "monitor: %ld ticks, %ld requests served\n",
                         sampler.ticks(), server.requestsServed());
            printRecorderTail(recorder, 10);
            obs::touchProcessMetrics();
            std::fprintf(stderr, "monitor: metrics snapshot:\n%s",
                         obs::Registry::global().renderJson().c_str());
            std::fprintf(stderr,
                         "monitor: === end live diagnostic ===\n");
        }
        // /profilez arms the profiler mid-run, so the idle wait pushes
        // the profiler's span context afresh each iteration while a
        // profile runs. It offers no trace: a wait is not a request.
        const bool attribute = obs::Profiler::contextEnabled();
        if (attribute)
            obs::profilerPushSpan("monitor", "monitor.wait");
        std::this_thread::sleep_until(
                std::min(next_tick, std::chrono::steady_clock::now() +
                                            std::chrono::milliseconds(50)));
        if (attribute)
            obs::profilerPopSpan();
    }

    std::fprintf(stderr,
                 "monitor: shutting down (%ld ticks, %ld requests "
                 "served)\n",
                 sampler.ticks(), server.requestsServed());
    server.stop();
    for (int sig : {SIGINT, SIGTERM, SIGUSR1})
        std::signal(sig, SIG_DFL);
    recorder.recordSpan("monitor.stop", 0, "clean shutdown");

    // Post-mortem: the recorder's recent past, oldest of the tail
    // first, so a crash log always ends with what just happened.
    printRecorderTail(recorder, 5);
    return 0;
}

/**
 * `gpupm alerts <device>`: one-shot alert evaluation. The live
 * pipeline ticks synchronously for --ticks virtual ticks instead of on
 * a wall-clock thread — no HTTP server, no sleeps. Virtual time plus
 * the seeded simulated device make the run a pure function of its
 * flags: two invocations emit byte-identical JSON, which the
 * cli_alerts_drift ctest gate asserts. Exit code 1 when any rule is
 * still firing at the final tick, else 0 — scriptable as a health
 * probe.
 */
int
cmdAlerts(const Args &args, const CliFlags &flags)
{
    const auto kind = parseDevice(args[0]);
    if (!kind)
        return unknownDevice(args[0]);
    LiveSession live(*kind, flags);
    if (const int rc = live.build("alerts"))
        return rc;
    live.tickSynchronously();

    const auto &engine = live.pipe->engine;
    const std::int64_t now = engine.lastEvaluatedUs();
    if (flags.json)
        std::printf("%s\n", engine.renderJson(now).c_str());
    else
        std::printf("%s", engine.renderText(now).c_str());
    const auto firing = engine.firingRuleNames();
    if (!firing.empty()) {
        std::fprintf(stderr, "alerts: %zu rule(s) firing after %ld "
                             "ticks\n",
                     firing.size(), flags.ticks);
        return 1;
    }
    return 0;
}

/**
 * `gpupm traces <device>`: offline request-trace replay. The live
 * pipeline ticks synchronously as in `gpupm alerts`, with request
 * tracing on (trace IDs re-seeded from --fault-seed), and the
 * assembled traces are printed from the tail-sampled store — one trace
 * per tick, spans in completion order with parent links. Only
 * deterministic fields are printed (IDs, names, categories, error
 * flags, args — no wall-clock timestamps or durations), so two
 * invocations with the same flags emit byte-identical output; the
 * cli_traces ctest gate asserts it. Exit 1 when the store violated its
 * error-retention invariant (an error trace was evicted), else 0.
 */
int
cmdTraces(const Args &args, const CliFlags &flags)
{
    const auto kind = parseDevice(args[0]);
    if (!kind)
        return unknownDevice(args[0]);
    LiveSession live(*kind, flags);
    if (const int rc = live.build("traces"))
        return rc;
    // Tracing turns on only now, after training: seedIds() inside
    // resets the ID counter, so the minted IDs are a pure function of
    // the fault seed and the (single-threaded) span order.
    live.pipe->trace(flags.fault_seed, !flags.trace_out.empty());
    live.tickSynchronously();

    const auto &store = live.pipe->store;
    obs::TraceQuery all;
    all.limit = static_cast<std::size_t>(flags.ticks) + 16;
    auto traces = store.query(all); // newest first
    std::reverse(traces.begin(), traces.end()); // arrival order

    if (flags.json) {
        std::ostringstream os;
        os << "{\"device\":\"" << deviceToken(*kind)
           << "\",\"ticks\":" << flags.ticks
           << ",\"offered\":" << store.offeredTotal()
           << ",\"stored\":" << traces.size()
           << ",\"errors_offered\":" << store.errorsOfferedTotal()
           << ",\"errors_evicted\":" << store.errorsEvictedTotal()
           << ",\"traces\":[";
        for (std::size_t i = 0; i < traces.size(); ++i) {
            const auto &t = traces[i];
            os << (i ? ",\n" : "\n") << "{\"trace_id\":\""
               << obs::traceIdHex(t.trace_id) << "\",\"root\":\""
               << json::escape(t.root_name) << "\",\"cat\":\""
               << json::escape(t.root_cat) << "\",\"error\":"
               << (t.error ? "true" : "false") << ",\"spans\":[";
            for (std::size_t k = 0; k < t.spans.size(); ++k) {
                const auto &s = t.spans[k];
                os << (k ? "," : "") << "{\"name\":\""
                   << json::escape(s.name) << "\",\"cat\":\""
                   << json::escape(s.cat) << "\",\"span_id\":\""
                   << obs::traceIdHex(s.span_id) << "\"";
                if (s.parent_span_id)
                    os << ",\"parent_span_id\":\""
                       << obs::traceIdHex(s.parent_span_id) << "\"";
                if (s.error)
                    os << ",\"error\":true";
                obs::writeArgsJson(os, s);
                os << "}";
            }
            os << "]}";
        }
        os << "\n]}\n";
        std::printf("%s", os.str().c_str());
    } else {
        std::printf("%zu trace(s) stored of %ld offered (%ld error "
                    "trace(s), %ld evicted)\n",
                    traces.size(), store.offeredTotal(),
                    store.errorsOfferedTotal(),
                    store.evictedTotal());
        for (const auto &t : traces) {
            std::printf("trace %s %s [%s]%s %zu span(s)\n",
                        obs::traceIdHex(t.trace_id).c_str(),
                        t.root_name.c_str(), t.root_cat.c_str(),
                        t.error ? " ERROR" : "", t.spans.size());
            for (const auto &s : t.spans) {
                std::printf("  %s", obs::traceIdHex(s.span_id).c_str());
                if (s.parent_span_id)
                    std::printf(" <- %s",
                                obs::traceIdHex(s.parent_span_id)
                                        .c_str());
                else
                    std::printf(" (root)");
                std::printf(" %s [%s]%s", s.name.c_str(),
                            s.cat.c_str(), s.error ? " ERROR" : "");
                for (const auto &a : s.args)
                    std::printf(" %s=%s", a.first.c_str(),
                                a.second.c_str());
                std::printf("\n");
            }
        }
    }

    if (store.errorsEvictedTotal() > 0) {
        std::fprintf(stderr,
                     "traces: tail-sampling invariant violated: %ld "
                     "error trace(s) evicted\n",
                     store.errorsEvictedTotal());
        return 1;
    }
    return 0;
}

// -- commands --------------------------------------------------------

/** Accepted positional counts of a command, one bit per count. */
constexpr unsigned
takes(int n)
{
    return 1u << n;
}
constexpr unsigned kOneOrMore = ~1u; ///< bit 31 stands for 31 or more

/** One subcommand: dispatch, arity errors and usage() read this. */
struct Command
{
    const char *name;
    const char *args;   ///< usage after the name
    unsigned arity;     ///< accepted positional counts (takes())
    int (*run)(const Args &, const CliFlags &);
    const char *more;   ///< further usage lines, or ""
};

const Command kCommands[] = {
        {"devices", "", takes(0), cmdDevices, ""},
        {"campaign", "<titanxp|titanx|k40c> <out>", takes(2), cmdCampaign,
         ""},
        {"fit", "<campaign-file|device> <out-model>", takes(2), cmdFit,
         "      campaign/fit flags: --faults=<rate> --fault-seed=<n> "
         "--retries=<n> --resume=<file>\n"},
        {"metrics", "[--json]", takes(0), cmdMetrics, ""},
        {"info", "<model-file>", takes(1), cmdInfo, ""},
        {"predict", "<model-file> <APP> [fcore fmem]",
         takes(2) | takes(4), cmdPredict, ""},
        {"sweep", "<model-file> <APP>", takes(2), cmdSweep, ""},
        {"export-cuda", "<out.cu>", takes(1), cmdExportCuda, ""},
        {"audit",
         "<model-file|device> [--json|--csv] [--scoreboard-out=<file>]",
         takes(1), cmdAudit, ""},
        {"monitor",
         "<titanxp|titanx|k40c> [--port=<n>] [--period-ms=<n>] "
         "[--duration=<2s|500ms>] [--events-out=<file>]",
         takes(1), cmdMonitor,
         "      [--events-max-bytes=<n>] [--events-max-files=<n>] "
         "[--rolling-window=<n>] [--healthz-degraded-503]\n"},
        {"alerts",
         "<titanxp|titanx|k40c> [--json] [--ticks=<n>] [--period-ms=<n>] "
         "[--rolling-window=<n>]",
         takes(1), cmdAlerts, ""},
        {"traces",
         "<titanxp|titanx|k40c> [--json] [--ticks=<n>] [--period-ms=<n>] "
         "[--inject-drift=FROM:TO:SCALE]",
         takes(1), cmdTraces,
         "      (offline per-tick trace replay; deterministic output, "
         "error traces always retained)\n"
         "      alerting flags (monitor/alerts/traces): "
         "--alert=NAME:KIND:SERIES:OP:THRESH[:WIN[:FOR[:COOL]]] "
         "--no-drift-rule\n"
         "      --drift-tolerance=<pp> --drift-window=<dur> "
         "--drift-for=<dur> --drift-cooldown=<dur> --drift-golden=<file>\n"
         "      --inject-drift=FROM:TO:SCALE   (scale measured power for "
         "ticks in [FROM,TO))\n"},
        {"fleet",
         "<num-devices> [--shards=<k>] [--threads=<n>] [--resume=<dir>] "
         "[--deadline=<dur>]",
         takes(1), cmdFleet,
         "      [--chaos-kill-rate=<p>] [--chaos-stall-rate=<p>] "
         "[--chaos-poison=<frac>] [--faults=<rate>]\n"
         "      [--fleet-out=<file>] [--json] [--port=<n> "
         "--duration=<dur>]   (serve /metrics and /fleet)\n"},
        {"version", "[--json]   (also: gpupm --version)", takes(0),
         cmdVersion, ""},
        {"validate", "[--json] <file>...", kOneOrMore, cmdValidate, ""},
};

/** "gpupm <name> <args>", the command's usage line. */
std::string
usageLine(const Command &c)
{
    return std::string("gpupm ") + c.name + (*c.args ? " " : "") +
           c.args;
}

int
usage()
{
    std::fprintf(stderr, "usage:\n");
    for (const Command &c : kCommands)
        std::fprintf(stderr, "  %s\n%s", usageLine(c).c_str(), c.more);
    std::fprintf(stderr,
                 "      file-trust flags (all loading commands): "
                 "--strict --allow-legacy\n"
                 "      observability flags (all commands): "
                 "--trace-out=<file> --metrics-out=<file> "
                 "--convergence-out=<file> --profile-out=<file> "
                 "--verbose --quiet\n");
    return 2;
}

int
dispatch(const Args &args, const CliFlags &flags)
{
    const Command *cmd = std::find_if(
            std::begin(kCommands), std::end(kCommands),
            [&args](const Command &c) { return args.front() == c.name; });
    if (cmd == std::end(kCommands))
        return usage();
    const Args positional(args.begin() + 1, args.end());
    const std::size_t n = std::min<std::size_t>(positional.size(), 31);
    if (!((cmd->arity >> n) & 1u)) {
        std::fprintf(stderr,
                     "gpupm: wrong number of arguments for '%s' (got "
                     "%zu)\nusage: %s\n",
                     cmd->name, positional.size(),
                     usageLine(*cmd).c_str());
        return 2;
    }
    return cmd->run(positional, flags);
}

/**
 * Write the observability artifacts requested by --trace-out,
 * --metrics-out and --profile-out. Runs after the command (and its
 * root span) finished so the trace and profile are complete; the
 * metric catalog is pre-registered so every standard counter appears
 * even when its path never ran.
 */
void
writeObservabilityArtifacts(const CliFlags &flags)
{
    if (!flags.profile_out.empty() &&
        obs::Profiler::global().running()) {
        const auto prof = finishProfile();
        char what[80];
        std::snprintf(what, sizeof(what),
                      "cpu profile (%ld samples, %.1f%% span-attributed)",
                      prof.samples, prof.attributedPct());
        reportWritten(prof.writeFolded(flags.profile_out), what,
                      flags.profile_out);
    }
    if (!flags.trace_out.empty()) {
        auto &tracer = obs::Tracer::global();
        tracer.disable();
        reportWritten(tracer.writeChromeTrace(flags.trace_out),
                      "trace (" + std::to_string(tracer.eventCount()) +
                              " spans)",
                      flags.trace_out);
    }
    if (!flags.metrics_out.empty()) {
        obs::registerStandardMetrics();
        obs::touchProcessMetrics();
        reportWritten(
                obs::Registry::global().writePrometheus(flags.metrics_out),
                "metrics", flags.metrics_out);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    CliFlags flags;
    const auto args = parseFlags(argc, argv, flags);
    if (!args)
        return 2; // parseFlags already named the offending flag
    if (flags.show_version)
        return cmdVersion({}, flags);
    if (args->empty())
        return usage();

    if (flags.verbose)
        gpupm::setLogLevel(gpupm::LogLevel::Debug);
    else if (flags.quiet)
        gpupm::setLogLevel(gpupm::LogLevel::Warn);
    if (!flags.trace_out.empty())
        gpupm::obs::Tracer::global().enable();
    if (!flags.profile_out.empty()) {
        std::string err;
        if (!gpupm::obs::Profiler::global().start({}, &err))
            std::fprintf(stderr, "cpu profiler unavailable: %s\n",
                         err.c_str());
    }

    int rc = 1;
    try {
        // Scoped so the root span completes before the trace is
        // written.
        GPUPM_TRACE_SPAN_NAMED(root, "cli", "cli." + args->front());
        rc = dispatch(*args, flags);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        rc = 1;
    }
    writeObservabilityArtifacts(flags);
    return rc;
}
