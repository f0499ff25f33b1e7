#include "supervisor.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "common/numio.hh"
#include "common/random.hh"
#include "fleet/chaos.hh"
#include "fleet/shard.hh"
#include "fleet/shard_io.hh"
#include "gpu/device.hh"
#include "obs/profiler.hh"
#include "obs/standard.hh"
#include "obs/trace.hh"
#include "obs/tsdb.hh"

namespace gpupm
{
namespace fleet
{

namespace
{

/** First retry delay, seconds; doubles per attempt up to the max. */
constexpr double kBackoffBaseS = 0.005;
constexpr double kBackoffMaxS = 0.1;

static_assert(kMaxFaultyAttempts <= kShardRetryBudget,
              "chaos must leave a shard a clean attempt");

/** Seeded exponential backoff with +-25% jitter, seconds. */
double
backoffSeconds(const FleetOptions &opts, int shard, int attempt)
{
    double base = kBackoffBaseS;
    for (int i = 0; i < attempt && base < kBackoffMaxS; ++i)
        base *= 2.0;
    base = std::min(base, kBackoffMaxS);
    const std::uint64_t key =
            mix64(opts.seed ^ 0xbacc0ffull) ^
            (static_cast<std::uint64_t>(shard) << 20) ^
            static_cast<std::uint64_t>(attempt);
    const double jitter =
            static_cast<double>(mix64(key) >> 11) * 0x1.0p-53;
    return base * (0.75 + 0.5 * jitter);
}

void
sleepSeconds(double s)
{
    if (s > 0.0)
        std::this_thread::sleep_for(
                std::chrono::duration<double>(s));
}

/**
 * Simulate a writer killed mid-checkpoint: the prefix of the real
 * serialization lands directly at the final path, no temp file, no
 * rename — exactly the torn artifact the resume path must survive.
 */
void
writeTornCheckpoint(const std::string &path, const std::string &full)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(),
              static_cast<std::streamsize>(full.size() / 2));
}

/** Shared state of one running fleet campaign. */
struct FleetRun
{
    explicit FleetRun(const FleetOptions &o) : opts(o) {}

    const FleetOptions &opts;

    std::mutex mu;
    std::map<int, ShardResult> results;
    std::atomic<long> retries{0};
    std::atomic<long> kills{0};
    std::atomic<long> stalls{0};
    std::atomic<long> fires{0};
    std::atomic<int> quarantined{0};
    std::atomic<int> resumed{0};

    void record(ShardResult result)
    {
        std::lock_guard<std::mutex> lock(mu);
        results[result.index] = std::move(result);
    }

    /** Every attempt of one shard, each retry after its backoff. */
    void runShard(const ShardSpec &shard)
    {
        for (int attempt = 0; !runAttempt(shard, attempt); ++attempt)
            sleepSeconds(backoffSeconds(opts, shard.index, attempt));
    }

    /**
     * One attempt: true when the shard is settled (resumed, done or
     * quarantined), false when the failed attempt is to be retried.
     */
    bool runAttempt(const ShardSpec &shard, int attempt)
    {
        // Inside the campaign's trace through the worker's adopted
        // context; marked error on any failed attempt so chaos
        // casualties are tail-kept by the trace store.
        GPUPM_TRACE_SPAN_NAMED(shard_span, "fleet", "fleet.shard");
        shard_span.arg("shard", (long)shard.index);
        shard_span.arg("attempt", (long)attempt + 1);
        const std::string ck_path =
                opts.checkpoint_dir.empty()
                        ? std::string()
                        : shardCheckpointPath(opts.checkpoint_dir,
                                              shard.index);

        if (attempt == 0 && !ck_path.empty())
        {
            const bool existed =
                    std::filesystem::exists(ck_path);
            model::IoExpected<ShardResult> loaded =
                    tryLoadShardResult(ck_path, opts, shard);
            if (loaded.ok())
            {
                resumed.fetch_add(1, std::memory_order_relaxed);
                record(std::move(loaded.value()));
                return true;
            }
            if (existed)
                warn("fleet shard ", shard.index,
                     ": unusable checkpoint [",
                     model::ioErrcName(loaded.error().code), "]: ",
                     loaded.error().message, " -- re-running");
        }

        const ChaosDecision chaos =
                chaosForAttempt(opts.chaos, shard.index, attempt);
        const CancelToken token =
                makeCancelToken(opts.watchdog_deadline_s);

        bool failed = false;
        std::string why;
        ShardAttemptResult att;
        if (chaos.stall)
        {
            stalls.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_until(token.deadline);
            failed = true;
            why = "chaos stall cancelled by watchdog";
        }
        else
        {
            att = runShardAttempt(shard, opts, token);
            if (att.cancelled)
            {
                failed = true;
                why = "watchdog cancelled the attempt";
            }
        }
        if (failed)
        {
            // An instant error span inside the cancelled shard's
            // span: /api/traces?error=1 shows what the deadline did.
            fires.fetch_add(1, std::memory_order_relaxed);
            GPUPM_TRACE_SPAN_NAMED(fire, "fleet", "fleet.watchdog_fire");
            fire.markError();
        }

        if (!failed && chaos.kill)
        {
            kills.fetch_add(1, std::memory_order_relaxed);
            ShardResult dying;
            dying.index = shard.index;
            dying.attempts = attempt + 1;
            dying.outcomes = att.outcomes;
            if (!ck_path.empty())
                writeTornCheckpoint(
                        ck_path,
                        model::serialize(ShardCheckpoint{
                                fleetFingerprint(opts, shard), dying}));
            failed = true;
            why = "chaos kill mid-checkpoint";
        }

        if (!failed)
        {
            ShardResult result;
            result.index = shard.index;
            result.attempts = attempt + 1;
            result.outcomes = std::move(att.outcomes);
            if (!ck_path.empty())
            {
                model::IoExpected<bool> saved = model::trySave(
                        ShardCheckpoint{fleetFingerprint(opts, shard),
                                        result},
                        ck_path);
                if (!saved.ok())
                    warn("fleet shard ", shard.index,
                         ": checkpoint write failed [",
                         model::ioErrcName(saved.error().code),
                         "]: ", saved.error().message);
            }
            record(std::move(result));
            return true;
        }

        shard_span.markError(); // every path below is a failure
        if (attempt < kShardRetryBudget)
        {
            retries.fetch_add(1, std::memory_order_relaxed);
            inform("fleet shard ", shard.index, ": attempt ",
                   attempt + 1, " failed (", why, "); retrying");
            return false;
        }

        // Retry budget exhausted: quarantine. The devices stay in
        // the report with an explicit failure kind — graceful
        // degradation, never silent loss.
        quarantined.fetch_add(1, std::memory_order_relaxed);
        warn("fleet shard ", shard.index,
             ": quarantined after ", attempt + 1, " attempts (",
             why, ")");
        ShardResult result;
        result.index = shard.index;
        result.attempts = attempt + 1;
        for (const DeviceSpec &spec : shard.devices)
        {
            DeviceOutcome out;
            out.id = spec.id;
            out.kind = spec.kind;
            out.ok = false;
            out.fail = DeviceFailKind::ShardQuarantined;
            out.message = "shard retry budget exhausted: " + why;
            result.outcomes.push_back(std::move(out));
        }
        record(std::move(result));
        return true;
    }
};

} // namespace

std::vector<DeviceSpec>
buildFleetSpecs(const FleetOptions &opts)
{
    std::vector<DeviceSpec> specs;
    specs.reserve(static_cast<std::size_t>(
            opts.devices < 0 ? 0 : opts.devices));
    for (long id = 0; id < opts.devices; ++id)
    {
        DeviceSpec spec;
        spec.id = id;
        spec.kind = gpu::kAllDevices[static_cast<std::size_t>(id) %
                                     gpu::kAllDevices.size()];
        spec.seed = mix64(opts.seed ^ 0x5eedf1ee7ull ^
                          static_cast<std::uint64_t>(id));
        if (chaosPoisonsDevice(opts.chaos, id))
        {
            if (chaosPoisonIsNan(opts.chaos, id))
                spec.poison_nan = true;
            else
                spec.poison_config = true;
        }
        specs.push_back(spec);
    }
    return specs;
}

std::vector<ShardSpec>
shardDevices(const std::vector<DeviceSpec> &devices, int shards)
{
    const long n = static_cast<long>(devices.size());
    long k = shards < 1 ? 1 : shards;
    if (k > n && n > 0)
        k = n;
    std::vector<ShardSpec> out;
    long next = 0;
    for (long s = 0; s < k; ++s)
    {
        ShardSpec shard;
        shard.index = static_cast<int>(s);
        const long count = n / k + (s < n % k ? 1 : 0);
        for (long i = 0; i < count; ++i)
            shard.devices.push_back(
                    devices[static_cast<std::size_t>(next++)]);
        out.push_back(std::move(shard));
    }
    return out;
}

FleetResult
runFleetCampaign(const FleetOptions &opts)
{
    return runFleetCampaign(opts, buildFleetSpecs(opts));
}

FleetResult
runFleetCampaign(const FleetOptions &opts,
                 const std::vector<DeviceSpec> &devices)
{
    const std::vector<ShardSpec> shards =
            shardDevices(devices, opts.shards);

    if (!opts.checkpoint_dir.empty())
    {
        std::error_code ec;
        std::filesystem::create_directories(opts.checkpoint_dir, ec);
        if (ec)
            warn("fleet: cannot create checkpoint dir '",
                 opts.checkpoint_dir, "': ", ec.message());
    }

    // At most one worker per shard; threads <= 0 sizes the workers
    // to the host, never below two.
    const std::size_t threads =
            opts.threads > 0
                    ? static_cast<std::size_t>(opts.threads)
                    : std::max(std::thread::hardware_concurrency(),
                               2u);
    const std::size_t n_workers = std::min(shards.size(), threads);

    FleetResult result;
    {
        // One trace per campaign: every worker adopts this context
        // once, so all shard and deadline-fire spans assemble into a
        // single trace when this root closes after the joins.
        GPUPM_TRACE_SPAN_NAMED(campaign_span, "fleet",
                               "fleet.campaign");
        campaign_span.arg("devices", (long)devices.size());
        campaign_span.arg("shards", (long)shards.size());

        FleetRun run{opts};
        const obs::TraceContext campaign = obs::currentTraceContext();
        std::atomic<std::size_t> next_shard{0};
        std::vector<std::thread> workers;
        for (std::size_t w = 0; w < n_workers; ++w)
            workers.emplace_back([&, w] {
                // Per-worker CPU attribution when a profiling run is
                // active (fleet bench --profile-out, /profilez).
                obs::Profiler::setThreadLabel("fleet.worker" +
                                              std::to_string(w));
                obs::TraceContextScope adopted(campaign);
                for (std::size_t si = next_shard++; si < shards.size();
                     si = next_shard++)
                    run.runShard(shards[si]);
            });
        for (std::thread &worker : workers)
            worker.join();

        for (auto &[index, shard_result] : run.results)
        {
            (void)index;
            result.shards.push_back(std::move(shard_result));
        }

        result.shard_retries = run.retries.load();
        result.shards_quarantined = run.quarantined.load();
        result.shards_resumed = run.resumed.load();
        result.chaos_kills = run.kills.load();
        result.chaos_stalls = run.stalls.load();
        result.watchdog_fires = run.fires.load();
    }

    result.scoreboard = mergeShardResults(result.shards);
    publishFleetMetrics(result);
    inform("fleet campaign: ", result.scoreboard.devices_ok, "/",
           result.scoreboard.devices_total, " devices healthy, ",
           result.shard_retries, " shard retries, ",
           result.shards_quarantined, " quarantined");
    return result;
}

void
publishFleetMetrics(const FleetResult &result)
{
    obs::fleetCampaignsTotal().inc();
    obs::fleetDevicesTotal().set(
            static_cast<double>(result.scoreboard.devices_total));
    obs::fleetDevicesFailed().set(
            static_cast<double>(result.scoreboard.devices_failed));
    obs::fleetShardRetriesTotal().inc(
            static_cast<double>(result.shard_retries));
    obs::fleetShardsQuarantinedTotal().inc(
            static_cast<double>(result.shards_quarantined));
    obs::fleetChaosKillsTotal().inc(
            static_cast<double>(result.chaos_kills));
    obs::fleetChaosStallsTotal().inc(
            static_cast<double>(result.chaos_stalls));
    obs::fleetDeadlineFiresTotal().inc(
            static_cast<double>(result.watchdog_fires));
    obs::fleetOverallMaePct().set(
            result.scoreboard.overall.mae_pct);
    for (const ArchAggregate &agg : result.scoreboard.per_arch)
    {
        obs::fleetArchMaePct(agg.arch).set(agg.stats.mae_pct);
        obs::fleetArchDevicesOk(agg.arch).set(
                static_cast<double>(agg.devices_ok));
    }
}

void
publishFleetSeries(const FleetResult &result, obs::Tsdb &tsdb)
{
    auto archLabel = [](const std::string &arch) {
        return std::string("arch=\"") +
               obs::Registry::labelEscape(arch) + "\"";
    };

    // Healthy devices are already ascending id; device i lands at a
    // virtual t = (i+1) s so the series are reproducible run to run.
    std::map<std::string, std::vector<double>> arch_maes;
    double overall_sum = 0.0;
    std::size_t overall_n = 0;
    std::size_t i = 0;
    for (const DeviceScore &ds : result.scoreboard.devices)
    {
        const std::int64_t t_us =
                static_cast<std::int64_t>(i + 1) * 1'000'000;
        const std::string arch = std::string(gpu::architectureName(
                gpu::DeviceDescriptor::get(ds.kind).architecture));
        tsdb.append("gpupm_fleet_device_mae_pct{" + archLabel(arch) +
                            "}",
                    t_us, ds.stats.mae_pct);
        auto &maes = arch_maes[arch];
        maes.push_back(ds.stats.mae_pct);
        double sum = 0.0;
        for (double m : maes)
            sum += m;
        tsdb.append("gpupm_fleet_arch_mae_pct{" + archLabel(arch) +
                            "}",
                    t_us, sum / static_cast<double>(maes.size()));
        tsdb.append("gpupm_fleet_arch_devices_ok{" + archLabel(arch) +
                            "}",
                    t_us, static_cast<double>(maes.size()));
        overall_sum += ds.stats.mae_pct;
        ++overall_n;
        tsdb.append("gpupm_fleet_mae_pct", t_us,
                    overall_sum / static_cast<double>(overall_n));
        ++i;
    }
}

std::string
FleetResult::summary() const
{
    std::ostringstream os;
    os << scoreboard.summaryText();
    os << "shards: " << shards.size() << " (" << shards_resumed
       << " resumed, " << shards_quarantined << " quarantined), "
       << shard_retries << " retries\n";
    if (chaos_kills + chaos_stalls > 0 || watchdog_fires > 0)
        os << "chaos: " << chaos_kills << " kills, " << chaos_stalls
           << " stalls; watchdog fired " << watchdog_fires
           << " times\n";
    return os.str();
}

std::string
FleetResult::toJson() const
{
    std::ostringstream os;
    os << "{\"schema\":\"gpupm_fleet_report_v1\",\"scoreboard\":"
       << scoreboard.toJson(true) << ",\"shards\":[";
    for (std::size_t i = 0; i < shards.size(); ++i)
    {
        if (i)
            os << ',';
        os << "{\"index\":" << shards[i].index << ",\"attempts\":"
           << shards[i].attempts << ",\"resumed\":"
           << (shards[i].resumed ? "true" : "false")
           << ",\"devices\":" << shards[i].outcomes.size() << '}';
    }
    os << "],\"shard_retries\":" << shard_retries
       << ",\"shards_quarantined\":" << shards_quarantined
       << ",\"shards_resumed\":" << shards_resumed
       << ",\"watchdog_fires\":" << watchdog_fires
       << ",\"chaos_kills\":" << chaos_kills << ",\"chaos_stalls\":"
       << chaos_stalls << '}';
    return os.str();
}

} // namespace fleet
} // namespace gpupm
