#include "campaign.hh"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/numio.hh"
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
 * The measured grid: the device's full configuration list, or the
 * intersection with opts.config_subset (reference always kept, device
 * order preserved so campaigns stay deterministic).
 */
std::vector<gpu::FreqConfig>
campaignGrid(const gpu::DeviceDescriptor &desc,
             const CampaignOptions &opts)
{
    const std::vector<gpu::FreqConfig> all = desc.allConfigs();
    if (opts.config_subset.empty())
        return all;
    const gpu::FreqConfig ref = desc.referenceConfig();
    std::vector<gpu::FreqConfig> grid;
    for (const gpu::FreqConfig &cfg : all) {
        const bool wanted =
                cfg == ref ||
                std::find(opts.config_subset.begin(),
                          opts.config_subset.end(),
                          cfg) != opts.config_subset.end();
        if (wanted)
            grid.push_back(cfg);
    }
    return grid;
}

} // namespace

TrainingData
runTrainingCampaign(MeasurementBackend &backend,
                    const std::vector<ubench::Microbenchmark> &suite,
                    const CampaignOptions &opts)
{
    GPUPM_ASSERT(!suite.empty(), "empty microbenchmark suite");
    const gpu::DeviceDescriptor &desc = backend.descriptor();
    obs::campaignRunsTotal().inc();

    GPUPM_TRACE_SPAN_NAMED(span, "campaign", "campaign.training");
    span.arg("device", desc.name);
    span.arg("benchmarks", (long)suite.size());

    TrainingData data;
    data.device = desc.kind;
    data.reference = desc.referenceConfig();
    data.configs = campaignGrid(desc, opts);

    // Performance events at the reference configuration only.
    for (const auto &mb : suite) {
        if (mb.demand.empty()) {
            data.utils.push_back(gpu::ComponentArray{});
            continue;
        }
        GPUPM_TRACE_SPAN_NAMED(pspan, "campaign", "campaign.profile");
        pspan.arg("benchmark", mb.name);
        const auto rm =
                backend.profileKernel(mb.demand, data.reference);
        data.utils.push_back(
                utilizationsFromMetrics(rm, desc, data.reference));
    }

    // Power at every configuration.
    data.power_w.assign(suite.size(), {});
    for (std::size_t b = 0; b < suite.size(); ++b) {
        GPUPM_TRACE_SPAN_NAMED(bspan, "campaign", "campaign.power");
        bspan.arg("benchmark", suite[b].name);
        data.power_w[b].reserve(data.configs.size());
        for (const gpu::FreqConfig &cfg : data.configs) {
            if (suite[b].demand.empty()) {
                data.power_w[b].push_back(
                        backend.measureIdlePower(cfg));
            } else {
                const auto m = backend.measurePower(
                        suite[b].demand, cfg,
                        opts.power_repetitions, opts.min_duration_s);
                data.power_w[b].push_back(m.power_w);
            }
        }
    }
    return data;
}

TrainingData
runTrainingCampaign(const sim::PhysicalGpu &board,
                    const std::vector<ubench::Microbenchmark> &suite,
                    const CampaignOptions &opts)
{
    SimulatedBackend backend(board, opts.seed);
    return runTrainingCampaign(backend, suite, opts);
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
    long flagged = 0;
    for (const auto &b : benchmarks) {
        if (b.retries || b.call_failures || b.outliers_rejected ||
            b.corrupt_samples || b.timeouts) {
            ++flagged;
        }
    }
    os << "  benchmarks needing recovery: " << flagged << "/"
       << benchmarks.size() << "\n";
    for (const auto &b : benchmarks) {
        if (!(b.retries || b.call_failures || b.outliers_rejected ||
              b.corrupt_samples || b.timeouts))
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
        if (!(b.retries || b.call_failures || b.outliers_rejected ||
              b.corrupt_samples || b.timeouts || b.faults_injected))
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

namespace
{

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

} // namespace

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

    ResilientBackend shield(backend, opts.resilience);
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
        CampaignCheckpoint prev = std::move(prev_res.value());
        long resumed = 0;
        for (char d : prev.utils_done)
            resumed += d ? 1 : 0;
        for (const auto &row : prev.power_done)
            for (char d : row)
                resumed += d ? 1 : 0;
        ck = std::move(prev);
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
        br.retries += now.retries - before.retries;
        br.call_failures += now.call_failures - before.call_failures;
        br.timeouts += now.timeouts - before.timeouts;
        br.outliers_rejected +=
                now.outliers_rejected - before.outliers_rejected;
        br.corrupt_samples +=
                now.corrupt_samples - before.corrupt_samples;
        if (injector) {
            const long f = injector->injected().total();
            br.faults_injected += f - faults_before;
            faults_before = f;
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
    {
        const ResilienceCounters &now = shield.counters();
        ResilienceCounters &t = ck.report.totals;
        t.attempts += now.attempts;
        t.retries += now.retries;
        t.timeouts += now.timeouts;
        t.call_failures += now.call_failures;
        t.corrupt_samples += now.corrupt_samples;
        t.outliers_rejected += now.outliers_rejected;
        t.quarantined_calls += now.quarantined_calls;
        t.backoff_total_s += now.backoff_total_s;
        if (injector) {
            ck.report.faults_injected +=
                    injector->injected().total();
            obs::campaignFaultsInjectedTotal().inc(
                    injector->injected().total());
        }
        for (const auto &cfg : shield.quarantined()) {
            if (std::find(ck.report.quarantined.begin(),
                          ck.report.quarantined.end(),
                          cfg) == ck.report.quarantined.end())
                ck.report.quarantined.push_back(cfg);
        }
    }
    long done = 0;
    for (char d : ck.utils_done)
        done += d ? 1 : 0;
    for (const auto &row : ck.power_done)
        for (char d : row)
            done += d ? 1 : 0;
    ck.report.cells_done = done;

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

AppMeasurement
measureApp(const sim::PhysicalGpu &board,
           const sim::KernelDemand &demand,
           const std::vector<gpu::FreqConfig> &configs,
           const CampaignOptions &opts)
{
    GPUPM_ASSERT(!demand.empty(), "cannot measure an empty kernel");
    GPUPM_TRACE_SPAN_NAMED(span, "campaign", "campaign.app");
    span.arg("app", demand.name);
    const gpu::DeviceDescriptor &desc = board.descriptor();

    AppMeasurement m;
    m.name = demand.name;
    m.configs = configs;

    cupti::Profiler profiler(board, opts.seed + 1000);
    const auto rm = profiler.profile(demand, desc.referenceConfig());
    m.util = utilizationsFromMetrics(rm, desc, desc.referenceConfig());

    nvml::Device dev(board, opts.seed + 2000);
    for (const gpu::FreqConfig &cfg : configs) {
        dev.setApplicationClocks(cfg.mem_mhz, cfg.core_mhz);
        const auto pm = dev.measureKernelPower(
                demand, opts.power_repetitions, opts.min_duration_s);
        m.power_w.push_back(pm.power_w);
        m.effective.push_back(pm.effective);
    }
    return m;
}

AppMeasurement
measureKernelSequence(const sim::PhysicalGpu &board,
                      const std::string &name,
                      const std::vector<sim::KernelDemand> &kernels,
                      const std::vector<gpu::FreqConfig> &configs,
                      const CampaignOptions &opts)
{
    GPUPM_ASSERT(!kernels.empty(), "application has no kernels");
    const gpu::DeviceDescriptor &desc = board.descriptor();
    const gpu::FreqConfig ref = desc.referenceConfig();

    AppMeasurement m;
    m.name = name;
    m.configs = configs;

    // Reference-configuration profiling of every kernel; the
    // application-level utilization is the time-weighted combination.
    cupti::Profiler profiler(board, opts.seed + 3000);
    std::vector<double> ref_time(kernels.size());
    double ref_total = 0.0;
    std::vector<gpu::ComponentArray> per_kernel_util(kernels.size());
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        GPUPM_ASSERT(!kernels[k].empty(), "empty kernel in sequence");
        const auto rm = profiler.profile(kernels[k], ref);
        per_kernel_util[k] = utilizationsFromMetrics(rm, desc, ref);
        ref_time[k] = rm.time_s;
        ref_total += rm.time_s;
    }
    for (std::size_t k = 0; k < kernels.size(); ++k)
        for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
            m.util[i] += per_kernel_util[k][i] * ref_time[k] /
                         ref_total;

    // Power at each configuration: per-kernel measurements weighted by
    // the kernels' relative execution times at that configuration.
    nvml::Device dev(board, opts.seed + 4000);
    for (const gpu::FreqConfig &cfg : configs) {
        dev.setApplicationClocks(cfg.mem_mhz, cfg.core_mhz);
        double weighted_power = 0.0;
        double total_time = 0.0;
        gpu::FreqConfig effective = cfg;
        for (const auto &kernel : kernels) {
            const auto pm = dev.measureKernelPower(
                    kernel, opts.power_repetitions,
                    opts.min_duration_s);
            weighted_power += pm.power_w * pm.kernel_time_s;
            total_time += pm.kernel_time_s;
            if (pm.tdp_limited)
                effective = pm.effective;
        }
        m.power_w.push_back(weighted_power / total_time);
        m.effective.push_back(effective);
    }
    return m;
}

} // namespace model
} // namespace gpupm
