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
#include "fleet/chaos.hh"
#include "fleet/pool.hh"
#include "fleet/shard.hh"
#include "fleet/shard_io.hh"
#include "fleet/watchdog.hh"
#include "gpu/device.hh"
#include "obs/standard.hh"
#include "obs/trace.hh"
#include "obs/tsdb.hh"

namespace gpupm
{
namespace fleet
{

namespace
{

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Seeded exponential backoff with +-25% jitter, seconds. */
double
backoffSeconds(const FleetOptions &opts, int shard, int attempt)
{
    double base = opts.backoff_base_s;
    for (int i = 0; i < attempt && base < opts.backoff_max_s; ++i)
        base *= 2.0;
    base = std::min(base, opts.backoff_max_s);
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
    FleetRun(const FleetOptions &o, const std::vector<ShardSpec> &s,
             WorkStealingPool &p, Watchdog &w)
        : opts(o), shards(s), pool(p), watchdog(w)
    {}

    const FleetOptions &opts;
    const std::vector<ShardSpec> &shards;
    WorkStealingPool &pool;
    Watchdog &watchdog;

    std::mutex mu;
    std::map<int, ShardResult> results;
    std::atomic<long> retries{0};
    std::atomic<long> kills{0};
    std::atomic<long> stalls{0};
    std::atomic<int> quarantined{0};
    std::atomic<int> resumed{0};

    void record(ShardResult result)
    {
        std::lock_guard<std::mutex> lock(mu);
        results[result.index] = std::move(result);
    }

    void submitShard(std::size_t si, int attempt)
    {
        pool.submit([this, si, attempt] { runShardTask(si, attempt); });
    }

    void runShardTask(std::size_t si, int attempt)
    {
        const ShardSpec &shard = shards[si];
        // Child of the worker's fleet.task span (itself inside the
        // campaign's trace via the submit-time context handoff);
        // marked error on any failed attempt so chaos casualties are
        // tail-kept by the trace store.
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
                return;
            }
            if (existed)
                warn("fleet shard ", shard.index,
                     ": unusable checkpoint [",
                     model::ioErrcName(loaded.error().code), "]: ",
                     loaded.error().message, " -- re-running");
        }

        const ChaosDecision chaos =
                chaosForAttempt(opts.chaos, shard.index, attempt);
        const CancelToken token = makeCancelToken();
        const long wd_id =
                watchdog.arm(opts.watchdog_deadline_s, token);

        bool failed = false;
        std::string why;
        ShardAttemptResult att;
        if (chaos.stall)
        {
            stalls.fetch_add(1, std::memory_order_relaxed);
            while (!cancelled(token))
                sleepSeconds(0.002);
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
        watchdog.disarm(wd_id);

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
            return;
        }

        shard_span.markError(); // every path below is a failure
        if (attempt < opts.shard_retry_budget)
        {
            retries.fetch_add(1, std::memory_order_relaxed);
            const double delay =
                    backoffSeconds(opts, shard.index, attempt);
            inform("fleet shard ", shard.index, ": attempt ",
                   attempt + 1, " failed (", why, "); retrying");
            pool.submit([this, si, attempt, delay] {
                sleepSeconds(delay);
                runShardTask(si, attempt + 1);
            });
            return;
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

    int threads = opts.threads;
    if (threads <= 0)
    {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = static_cast<int>(
                std::min<std::size_t>(shards.size(),
                                      hw > 2 ? hw : 2));
    }

    FleetResult result;
    {
        // One trace per campaign: every pool task captures this
        // context at submission (including retries resubmitted from
        // worker threads), so all shard/task/watchdog spans assemble
        // into a single trace when this root closes after wait().
        GPUPM_TRACE_SPAN_NAMED(campaign_span, "fleet",
                               "fleet.campaign");
        campaign_span.arg("devices", (long)devices.size());
        campaign_span.arg("shards", (long)shards.size());

        WorkStealingPool pool(threads);
        Watchdog watchdog;
        FleetRun run{opts, shards, pool, watchdog};

        // Pool starvation: sleeper tasks ahead of every shard, all
        // on one queue so the other workers must steal past them.
        for (int i = 0; i < opts.chaos.starve_tasks; ++i)
            pool.submitTo(0, [&opts] {
                sleepSeconds(opts.chaos.starve_ms / 1000.0);
            });

        for (std::size_t si = 0; si < shards.size(); ++si)
            run.submitShard(si, 0);
        pool.wait();

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
        result.watchdog_fires = watchdog.firedCount();
        result.pool_steals = pool.stealCount();
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
    obs::fleetWatchdogFiresTotal().inc(
            static_cast<double>(result.watchdog_fires));
    obs::fleetPoolStealsTotal().inc(
            static_cast<double>(result.pool_steals));
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
    os << "pool: " << pool_steals << " tasks stolen\n";
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
       << chaos_stalls << ",\"pool_steals\":" << pool_steals << '}';
    return os.str();
}

} // namespace fleet
} // namespace gpupm
