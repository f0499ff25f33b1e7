#include "resilient.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>

#include "common/json.hh"
#include "common/numio.hh"
#include "common/stats.hh"
#include "core/faults.hh"
#include "core/metrics.hh"
#include "core/model_io.hh"
#include "obs/standard.hh"
#include "obs/trace.hh"

namespace gpupm
{
namespace model
{

namespace
{

/**
 * The recovery policy. Only the retry budget is a knob (--retries);
 * the rest is fixed:
 *  - the n-th retry of a call waits min(5, 0.05 * 2^n) virtual
 *    seconds, times a uniform jitter of 1 +/- 0.25 seeded by 77 (and
 *    by the cell seed after reseed());
 *  - an attempt whose virtual duration passes 30 s counts as hung;
 *  - a configuration is quarantined after 2 exhausted calls;
 *  - power samples with a MAD modified z-score above 3.5 are
 *    rejected, and at least 2 must survive;
 *  - a profile is the field-wise median of 3 collections.
 */
constexpr double kBackoffBaseS = 0.05;
constexpr double kBackoffFactor = 2.0;
constexpr double kBackoffMaxS = 5.0;
constexpr double kJitterFrac = 0.25;
constexpr std::uint64_t kJitterSeed = 77;
constexpr double kCallTimeoutS = 30.0;
constexpr int kQuarantineThreshold = 2;
constexpr double kMadThreshold = 3.5;
constexpr int kMinValidRepetitions = 2;
constexpr int kProfileCollections = 3;

std::pair<int, int>
key(const gpu::FreqConfig &cfg)
{
    return {cfg.core_mhz, cfg.mem_mhz};
}

std::string
configArg(const gpu::FreqConfig &cfg)
{
    return numio::formatLong(cfg.core_mhz) + "/" +
           numio::formatLong(cfg.mem_mhz);
}

/** All the double fields of a RawMetrics, for field-wise medians. */
constexpr double cupti::RawMetrics::*kMetricFields[] = {
    &cupti::RawMetrics::acycles,
    &cupti::RawMetrics::l2_rd_bytes,
    &cupti::RawMetrics::l2_wr_bytes,
    &cupti::RawMetrics::shared_ld_bytes,
    &cupti::RawMetrics::shared_st_bytes,
    &cupti::RawMetrics::dram_rd_bytes,
    &cupti::RawMetrics::dram_wr_bytes,
    &cupti::RawMetrics::warps_sp_int,
    &cupti::RawMetrics::warps_dp,
    &cupti::RawMetrics::warps_sf,
    &cupti::RawMetrics::inst_int,
    &cupti::RawMetrics::inst_sp,
    &cupti::RawMetrics::time_s,
};

/** True when a benchmark row needed any recovery. */
bool
needsRecovery(const BenchmarkReport &b)
{
    return b.retries || b.call_failures || b.outliers_rejected ||
           b.corrupt_samples || b.timeouts;
}

/**
 * Per-cell seed: depends only on (campaign seed, benchmark, config),
 * never on execution history, so an interrupted-and-resumed campaign
 * draws exactly the noise the uninterrupted one would have.
 */
std::uint64_t
cellSeed(std::uint64_t seed, std::size_t b, std::size_t c)
{
    const std::uint64_t cell = b * 4096 + c + 1;
    return seed ^ (cell * 0x9e3779b97f4a7c15ull);
}

/** Sentinel config index for the reference-profiling cells. */
constexpr std::size_t kProfileCell = 4000;

/**
 * Every whole-number resilience counter, with the benchmark-row field
 * it is also charged to (null: the campaign totals only).
 */
constexpr struct
{
    long ResilienceCounters::*counter;
    long BenchmarkReport::*row;
} kCounterFields[] = {
    {&ResilienceCounters::attempts, nullptr},
    {&ResilienceCounters::retries, &BenchmarkReport::retries},
    {&ResilienceCounters::timeouts, &BenchmarkReport::timeouts},
    {&ResilienceCounters::call_failures, &BenchmarkReport::call_failures},
    {&ResilienceCounters::corrupt_samples,
     &BenchmarkReport::corrupt_samples},
    {&ResilienceCounters::outliers_rejected,
     &BenchmarkReport::outliers_rejected},
    {&ResilienceCounters::quarantined_calls, nullptr},
};

/** Cells a checkpoint marks done: profiles plus power cells. */
long
doneCells(const CampaignCheckpoint &ck)
{
    long done = 0;
    for (char d : ck.utils_done)
        done += d ? 1 : 0;
    for (const auto &row : ck.power_done)
        for (char d : row)
            done += d ? 1 : 0;
    return done;
}

} // namespace

ResilientBackend::ResilientBackend(MeasurementBackend &inner,
                                   int max_retries)
    : inner_(inner), max_retries_(max_retries), jitter_rng_(kJitterSeed)
{
    GPUPM_ASSERT(max_retries_ >= 0, "negative retry budget");
}

void
ResilientBackend::reseed(std::uint64_t seed)
{
    inner_.reseed(seed);
    jitter_rng_ = Rng(kJitterSeed ^ (seed * 0x9e3779b97f4a7c15ull));
}

bool
ResilientBackend::isQuarantined(const gpu::FreqConfig &cfg) const
{
    return std::find(quarantined_.begin(), quarantined_.end(), cfg) !=
           quarantined_.end();
}

void
ResilientBackend::notePersistentFailure(const gpu::FreqConfig &cfg)
{
    const int n = ++persistent_failures_[key(cfg)];
    if (n >= kQuarantineThreshold && !isQuarantined(cfg)) {
        quarantined_.push_back(cfg);
        obs::resilientQuarantinedConfigsTotal().inc();
        warn("quarantining configuration (", cfg.core_mhz, ", ",
             cfg.mem_mhz, ") MHz after ", n,
             " persistent measurement failures");
    }
}

template <typename T>
Expected<T, Status>
ResilientBackend::runWithRetries(const gpu::FreqConfig &cfg,
                                 const std::function<T()> &call)
{
    if (isQuarantined(cfg)) {
        ++counters_.quarantined_calls;
        obs::resilientQuarantinedCallsTotal().inc();
        return Status{MeasureErrc::Quarantined,
                      detail::concat("configuration (", cfg.core_mhz,
                                     ", ", cfg.mem_mhz,
                                     ") MHz is quarantined")};
    }

    Status last{MeasureErrc::Transient, "no attempt made"};
    for (int attempt = 0; attempt <= max_retries_; ++attempt) {
        if (attempt > 0) {
            // Exponential backoff with seeded jitter; the delay is
            // virtual (accounted, not slept) — the simulated substrate
            // has no wall clock to wait on.
            ++counters_.retries;
            obs::resilientRetriesTotal().inc();
            double d = std::min(
                    kBackoffMaxS,
                    kBackoffBaseS *
                            std::pow(kBackoffFactor, attempt - 1));
            d *= 1.0 + kJitterFrac * (2.0 * jitter_rng_.uniform() - 1.0);
            counters_.backoff_total_s += d;
            obs::resilientBackoffSecondsTotal().inc(d);
        }
        ++counters_.attempts;
        obs::resilientAttemptsTotal().inc();
        try {
            T result = call();
            if (inner_.lastCallSeconds() > kCallTimeoutS) {
                // The call wedged past its deadline; a real harness
                // would have killed it, so its result is discarded.
                ++counters_.timeouts;
                obs::resilientTimeoutsTotal().inc();
                last = Status{MeasureErrc::Timeout,
                              detail::concat("call exceeded the ",
                                             kCallTimeoutS,
                                             " s deadline")};
                continue;
            }
            return result;
        } catch (const MeasurementError &e) {
            last = Status{e.code(), e.what()};
            if (!e.recoverable())
                return last;
        }
    }
    ++counters_.call_failures;
    obs::resilientCallFailuresTotal().inc();
    notePersistentFailure(cfg);
    return last;
}

template <typename T>
Expected<std::vector<T>, Status>
ResilientBackend::repeat(const gpu::FreqConfig &cfg, int n,
                         const std::function<T()> &call)
{
    std::vector<T> results;
    Status last{MeasureErrc::Transient, "no repetition succeeded"};
    for (int r = 0; r < n; ++r) {
        auto e = runWithRetries<T>(cfg, call);
        if (e.ok()) {
            results.push_back(e.value());
        } else {
            last = e.error();
            if (!last.recoverable() ||
                last.code == MeasureErrc::Quarantined)
                return last;
        }
    }
    if (results.empty())
        return last;
    return results;
}

Expected<ResilientBackend::Survivors, Status>
ResilientBackend::filterSamples(const gpu::FreqConfig &cfg,
                                const std::vector<double> &samples,
                                const char *what)
{
    const auto outlier = stats::madOutlierMask(samples, kMadThreshold);
    std::vector<double> kept;
    Survivors s;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        if (!outlier[i]) {
            if (kept.empty())
                s.first = i;
            kept.push_back(samples[i]);
        } else if (std::isfinite(samples[i])) {
            ++counters_.outliers_rejected;
            obs::resilientOutliersRejectedTotal().inc();
        } else {
            ++counters_.corrupt_samples;
            obs::resilientCorruptSamplesTotal().inc();
        }
    }
    if (static_cast<int>(kept.size()) < kMinValidRepetitions) {
        notePersistentFailure(cfg);
        return Status{MeasureErrc::CorruptSample,
                      detail::concat("only ", kept.size(), " of ",
                                     samples.size(), " ", what,
                                     " survived outlier rejection")};
    }
    s.median = stats::median(kept);
    return s;
}

Expected<cupti::RawMetrics, Status>
ResilientBackend::tryProfileKernel(const sim::KernelDemand &kernel,
                                   const gpu::FreqConfig &cfg)
{
    GPUPM_TRACE_SPAN_NAMED(span, "backend", "backend.profile");
    if (span.armed()) {
        span.arg("kernel", kernel.name);
        span.arg("config", configArg(cfg));
    }
    const auto collections = repeat<cupti::RawMetrics>(
            cfg, kProfileCollections,
            [&] { return inner_.profileKernel(kernel, cfg); });
    if (!collections.ok())
        return collections.error();

    // Field-wise median across collections: a dropped event group
    // zeroes fields in one collection only, and the median ignores it
    // as long as most collections are intact.
    const auto &all = collections.value();
    cupti::RawMetrics combined;
    std::vector<double> vals(all.size());
    for (auto field : kMetricFields) {
        for (std::size_t i = 0; i < all.size(); ++i)
            vals[i] = all[i].*field;
        combined.*field = stats::median(vals);
    }
    return combined;
}

Expected<nvml::PowerMeasurement, Status>
ResilientBackend::tryMeasurePower(const sim::KernelDemand &kernel,
                                  const gpu::FreqConfig &cfg,
                                  int repetitions,
                                  double min_duration_s)
{
    GPUPM_TRACE_SPAN_NAMED(span, "backend", "backend.power");
    if (span.armed()) {
        span.arg("kernel", kernel.name);
        span.arg("config", configArg(cfg));
    }
    // One run per call (the inner backend's own median-of-one is the
    // run mean); robustness comes from this layer's MAD rejection
    // across runs, which the inner plain median lacks.
    const auto runs = repeat<nvml::PowerMeasurement>(
            cfg, std::max(repetitions, kMinValidRepetitions), [&] {
                return inner_.measurePower(kernel, cfg, 1,
                                           min_duration_s);
            });
    if (!runs.ok())
        return runs.error();
    std::vector<double> powers;
    for (const auto &m : runs.value())
        powers.push_back(m.power_w);
    const auto kept = filterSamples(cfg, powers, "repetitions");
    if (!kept.ok())
        return kept.error();

    nvml::PowerMeasurement result = runs.value()[kept.value().first];
    result.power_w = kept.value().median;
    return result;
}

Expected<double, Status>
ResilientBackend::tryMeasureIdlePower(const gpu::FreqConfig &cfg,
                                      int repetitions)
{
    GPUPM_TRACE_SPAN_NAMED(span, "backend", "backend.idle-power");
    if (span.armed())
        span.arg("config", configArg(cfg));
    const auto samples = repeat<double>(
            cfg, std::max(repetitions, kMinValidRepetitions),
            [&] { return inner_.measureIdlePower(cfg); });
    if (!samples.ok())
        return samples.error();
    const auto kept =
            filterSamples(cfg, samples.value(), "idle repetitions");
    if (!kept.ok())
        return kept.error();
    return kept.value().median;
}

std::string
CampaignReport::summary() const
{
    std::ostringstream os;
    os << "campaign report: " << cells_done << "/" << cells_total
       << " cells done (" << cells_resumed << " resumed, "
       << cells_failed << " failed)\n";
    os << "  resilience: " << totals.attempts << " attempts, "
       << totals.retries << " retries, " << totals.timeouts
       << " timeouts, " << totals.call_failures
       << " calls exhausted, " << totals.outliers_rejected
       << " outliers rejected, " << totals.corrupt_samples
       << " corrupt samples, " << totals.quarantined_calls
       << " quarantine refusals, " << totals.backoff_total_s
       << " s backoff\n";
    if (faults_injected > 0)
        os << "  faults injected: " << faults_injected << "\n";
    os << "  quarantined configurations: " << quarantined.size();
    for (const auto &cfg : quarantined)
        os << " (" << cfg.core_mhz << "," << cfg.mem_mhz << ")";
    os << "\n";
    os << "  benchmarks needing recovery: "
       << std::count_if(benchmarks.begin(), benchmarks.end(),
                        needsRecovery)
       << "/" << benchmarks.size() << "\n";
    for (const auto &b : benchmarks) {
        if (!needsRecovery(b))
            continue;
        os << "    " << b.name << ": " << b.retries << " retries, "
           << b.timeouts << " timeouts, " << b.call_failures
           << " failures, " << b.outliers_rejected << " outliers, "
           << b.corrupt_samples << " corrupt";
        if (b.faults_injected > 0)
            os << ", " << b.faults_injected << " faults";
        os << "\n";
    }
    return os.str();
}

std::string
CampaignReport::toJson() const
{
    std::ostringstream os;
    os << "{\"cells\":{\"total\":" << cells_total
       << ",\"done\":" << cells_done
       << ",\"resumed\":" << cells_resumed
       << ",\"failed\":" << cells_failed << "}";
    os << ",\"faults_injected\":" << faults_injected;
    os << ",\"resilience\":{\"attempts\":" << totals.attempts
       << ",\"retries\":" << totals.retries
       << ",\"timeouts\":" << totals.timeouts
       << ",\"call_failures\":" << totals.call_failures
       << ",\"corrupt_samples\":" << totals.corrupt_samples
       << ",\"outliers_rejected\":" << totals.outliers_rejected
       << ",\"quarantined_calls\":" << totals.quarantined_calls
       << ",\"backoff_seconds\":"
       << numio::formatDouble(totals.backoff_total_s) << "}";
    os << ",\"quarantined\":[";
    for (std::size_t i = 0; i < quarantined.size(); ++i) {
        if (i)
            os << ",";
        os << "{\"core_mhz\":" << quarantined[i].core_mhz
           << ",\"mem_mhz\":" << quarantined[i].mem_mhz << "}";
    }
    os << "],\"benchmarks\":[";
    bool first = true;
    for (const auto &b : benchmarks) {
        // Only the rows with something to report: the common case of
        // a clean benchmark would bloat the document with zeros.
        if (!needsRecovery(b) && !b.faults_injected)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"" << json::escape(b.name)
           << "\",\"retries\":" << b.retries
           << ",\"timeouts\":" << b.timeouts
           << ",\"call_failures\":" << b.call_failures
           << ",\"outliers_rejected\":" << b.outliers_rejected
           << ",\"corrupt_samples\":" << b.corrupt_samples
           << ",\"faults_injected\":" << b.faults_injected << "}";
    }
    os << "]}\n";
    return os.str();
}

ResilientCampaignResult
runResilientTrainingCampaign(
        MeasurementBackend &backend,
        const std::vector<ubench::Microbenchmark> &suite,
        const ResilientCampaignOptions &opts)
{
    GPUPM_ASSERT(!suite.empty(), "empty microbenchmark suite");
    const gpu::DeviceDescriptor &desc = backend.descriptor();
    const gpu::FreqConfig reference = desc.referenceConfig();
    const std::vector<gpu::FreqConfig> grid =
            campaignGrid(desc, opts.base);
    const std::size_t nb = suite.size();
    const std::size_t nc = grid.size();
    GPUPM_ASSERT(nc < kProfileCell, "grid too large for cell seeding");
    obs::campaignRunsTotal().inc();

    GPUPM_TRACE_SPAN_NAMED(span, "campaign",
                           "campaign.training-resilient");
    span.arg("device", desc.name);
    span.arg("benchmarks", (long)nb);
    span.arg("configs", (long)nc);

    ResilientBackend shield(backend, opts.max_retries);
    const auto *injector =
            dynamic_cast<const FaultInjectingBackend *>(&backend);

    // Working state: the full dense grid plus per-cell done flags.
    CampaignCheckpoint ck;
    ck.seed = opts.base.seed;
    ck.device = desc.kind;
    ck.reference = reference;
    ck.configs = grid;
    for (const auto &mb : suite)
        ck.benchmark_names.push_back(mb.name);
    ck.utils_done.assign(nb, 0);
    ck.utils.assign(nb, gpu::ComponentArray{});
    ck.power_done.assign(nb, std::vector<char>(nc, 0));
    ck.power_w.assign(nb, std::vector<double>(nc, 0.0));
    ck.report.benchmarks.resize(nb);
    for (std::size_t b = 0; b < nb; ++b)
        ck.report.benchmarks[b].name = suite[b].name;
    ck.report.cells_total = static_cast<long>(nb * (nc + 1));

    // Resume from an existing checkpoint when asked to.
    const bool checkpointing = !opts.checkpoint_path.empty();
    if (checkpointing &&
        std::filesystem::exists(opts.checkpoint_path)) {
        // A torn or corrupt checkpoint (crash mid-write, bit rot) is
        // a recoverable condition: the campaign restarts from scratch
        // rather than aborting, and cells are only ever counted from
        // a checkpoint that passed the envelope's size and CRC32
        // checks — a valid prefix resumes, anything else re-runs, and
        // no cell can be double-counted either way.
        auto prev_res =
                tryLoad<CampaignCheckpoint>(opts.checkpoint_path);
        if (!prev_res.ok()) {
            warn("ignoring unusable checkpoint '",
                 opts.checkpoint_path, "' [",
                 ioErrcName(prev_res.error().code),
                 "]: ", prev_res.error().message);
        } else if (prev_res.value().seed != ck.seed ||
                   prev_res.value().device != ck.device ||
                   prev_res.value().configs != ck.configs ||
                   prev_res.value().benchmark_names !=
                           ck.benchmark_names) {
            // A checkpoint that LOADS but belongs to a different
            // campaign is a user error (wrong --resume path), not a
            // recoverable fault: proceeding would overwrite it.
            ResilientCampaignResult res;
            res.complete = false;
            res.report = ck.report;
            res.checkpoint_error = IoStatus{
                    IoErrc::ValidationError,
                    detail::concat("checkpoint '", opts.checkpoint_path,
                                   "' does not match this campaign "
                                   "(different seed, device, grid or "
                                   "suite)")};
            return res;
        } else {
            ck = prev_res.value();
            const long resumed = doneCells(ck);
            ck.report.cells_resumed = resumed;
            obs::campaignCellsResumedTotal().inc(resumed);
            inform("resuming campaign from '", opts.checkpoint_path,
                   "': ", resumed, " cells already measured");
        }
    }

    long measured_this_run = 0;
    long since_checkpoint = 0;
    bool stopped = false;
    const auto out_of_budget = [&] {
        return opts.max_cells > 0 &&
               measured_this_run >= opts.max_cells;
    };
    // A checkpoint that cannot be written stops the run with a typed
    // error: measuring on would lose the work it was meant to keep.
    std::optional<IoStatus> save_error;
    const auto save = [&] {
        if (checkpointing && !save_error) {
            const auto saved = trySave(ck, opts.checkpoint_path);
            if (!saved.ok()) {
                save_error = saved.error();
                stopped = true;
            }
        }
        since_checkpoint = 0;
    };
    const auto after_cell = [&] {
        ++measured_this_run;
        obs::campaignCellsDoneTotal().inc();
        if (++since_checkpoint >= std::max(1, opts.checkpoint_every))
            save();
    };
    // Once before the first cell: a path that cannot be written fails
    // now, not after the first `checkpoint_every` cells.
    save();
    std::optional<Status> reference_error;

    // Accounting helpers: ascribe counter deltas to one benchmark.
    ResilienceCounters before = shield.counters();
    long faults_before = injector ? injector->injected().total() : 0;
    const auto charge = [&](std::size_t b) {
        const ResilienceCounters &now = shield.counters();
        BenchmarkReport &br = ck.report.benchmarks[b];
        for (const auto &f : kCounterFields)
            if (f.row)
                br.*f.row += now.*f.counter - before.*f.counter;
        if (injector) {
            const long n = injector->injected().total();
            br.faults_injected += n - faults_before;
            faults_before = n;
        }
        before = now;
    };

    // Pass 1: performance events at the reference configuration.
    {
    GPUPM_TRACE_SPAN("campaign", "campaign.pass.profile");
    for (std::size_t b = 0; b < nb && !stopped; ++b) {
        if (ck.utils_done[b])
            continue;
        if (out_of_budget()) {
            stopped = true;
            break;
        }
        if (!suite[b].demand.empty()) {
            GPUPM_TRACE_SPAN_NAMED(pspan, "campaign",
                                   "campaign.profile");
            pspan.arg("benchmark", suite[b].name);
            shield.reseed(cellSeed(ck.seed, b, kProfileCell));
            auto e = shield.tryProfileKernel(suite[b].demand,
                                             reference);
            charge(b);
            // Reference profiling feeds every utilization (Eq. 8-10);
            // a campaign that cannot profile at the reference cannot
            // train anything.
            if (!e.ok()) {
                reference_error = Status{
                        e.error().code,
                        detail::concat("cannot profile '",
                                       suite[b].name,
                                       "' at the reference "
                                       "configuration: ",
                                       e.error().message)};
                stopped = true;
                break;
            }
            ck.utils[b] = utilizationsFromMetrics(e.value(), desc,
                                                  reference);
        }
        ck.utils_done[b] = 1;
        after_cell();
    }
    }

    // Pass 2: power at every configuration.
    {
    GPUPM_TRACE_SPAN("campaign", "campaign.pass.power");
    for (std::size_t b = 0; b < nb && !stopped; ++b) {
        GPUPM_TRACE_SPAN_NAMED(bspan, "campaign", "campaign.power");
        bspan.arg("benchmark", suite[b].name);
        for (std::size_t c = 0; c < nc && !stopped; ++c) {
            if (ck.power_done[b][c])
                continue;
            if (out_of_budget()) {
                stopped = true;
                break;
            }
            const gpu::FreqConfig &cfg = grid[c];
            if (shield.isQuarantined(cfg))
                continue; // column is dropped at assembly
            shield.reseed(cellSeed(ck.seed, b, c));
            bool ok;
            if (suite[b].demand.empty()) {
                auto e = shield.tryMeasureIdlePower(
                        cfg, opts.base.power_repetitions);
                ok = e.ok();
                if (ok)
                    ck.power_w[b][c] = e.value();
            } else {
                auto e = shield.tryMeasurePower(
                        suite[b].demand, cfg,
                        opts.base.power_repetitions,
                        opts.base.min_duration_s);
                ok = e.ok();
                if (ok)
                    ck.power_w[b][c] = e.value().power_w;
            }
            charge(b);
            if (ok) {
                ck.power_done[b][c] = 1;
                after_cell();
            } else {
                ++ck.report.cells_failed;
                obs::campaignCellsFailedTotal().inc();
            }
        }
    }
    }

    // Totals and quarantine state into the report.
    const ResilienceCounters &now = shield.counters();
    ResilienceCounters &totals = ck.report.totals;
    for (const auto &f : kCounterFields)
        totals.*f.counter += now.*f.counter;
    totals.backoff_total_s += now.backoff_total_s;
    if (injector) {
        ck.report.faults_injected += injector->injected().total();
        obs::campaignFaultsInjectedTotal().inc(
                injector->injected().total());
    }
    for (const auto &cfg : shield.quarantined()) {
        if (std::find(ck.report.quarantined.begin(),
                      ck.report.quarantined.end(),
                      cfg) == ck.report.quarantined.end())
            ck.report.quarantined.push_back(cfg);
    }
    ck.report.cells_done = doneCells(ck);

    ResilientCampaignResult res;
    res.complete = !stopped;
    res.report = ck.report;

    if (stopped) {
        save();
        res.checkpoint_error = save_error;
        res.reference_error = reference_error;
        if (!save_error && !reference_error)
            inform("campaign stopped after ", measured_this_run,
                   " cells this run (checkpointed)");
        return res;
    }

    // Assemble the training data over the surviving grid: drop any
    // configuration that is quarantined or has an unmeasured cell.
    std::vector<std::size_t> keep;
    for (std::size_t c = 0; c < nc; ++c) {
        bool column_ok = !shield.isQuarantined(grid[c]);
        for (std::size_t b = 0; b < nb && column_ok; ++b)
            column_ok = ck.power_done[b][c] != 0;
        if (column_ok)
            keep.push_back(c);
    }
    const bool reference_ok =
            std::any_of(keep.begin(), keep.end(), [&](std::size_t c) {
                return grid[c] == reference;
            });
    if (!reference_ok) {
        res.complete = false;
        res.reference_error = Status{
                MeasureErrc::Fatal,
                "the reference configuration failed persistently; "
                "no model can be trained from this campaign"};
        return res;
    }
    if (keep.size() < nc) {
        warn("dropping ", nc - keep.size(), " of ", nc,
             " configurations from the training grid");
    }

    res.data.device = desc.kind;
    res.data.reference = reference;
    for (std::size_t c : keep)
        res.data.configs.push_back(grid[c]);
    res.data.utils = ck.utils;
    res.data.power_w.assign(nb, {});
    for (std::size_t b = 0; b < nb; ++b) {
        res.data.power_w[b].reserve(keep.size());
        for (std::size_t c : keep)
            res.data.power_w[b].push_back(ck.power_w[b][c]);
    }

    if (checkpointing)
        save();
    res.checkpoint_error = save_error;
    return res;
}

} // namespace model
} // namespace gpupm
