/**
 * @file
 * `fleet`: runFleetCampaign over a simulated fleet with the default
 * per-device campaign settings (strided suite, at most 6
 * configurations), min(4, nproc) worker threads, no chaos and no
 * checkpoint directory, repeated back to back at one seed.
 *
 * Unit of work: one campaign. Read: the fleet report written the way
 * `gpupm fleet --out` writes it (v2 envelope) and verified back.
 * The traced run adds a serial runDevice pass over the same specs.
 */

#include <time.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "core/model_io.hh"
#include "fleet/shard.hh"
#include "fleet/supervisor.hh"
#include "harness.hh"

namespace perfbench
{

namespace
{

using namespace gpupm;

constexpr long kDevices = 48;

/** Checks one campaign; returns its accuracy payload bytes. */
std::string
checkCampaign(const fleet::FleetResult &res, const std::string &reference,
              Report &report)
{
    report.attempt(kDevices);
    const long missing = kDevices - res.scoreboard.devices_ok;
    if (missing > 0)
        report.fail(std::to_string(missing) + " of " +
                            std::to_string(kDevices) +
                            " devices failed their campaign",
                    missing);
    std::string bytes = res.scoreboard.toJson(false);
    if (!reference.empty() && bytes != reference)
        report.fail("merged scoreboard differs from the first campaign "
                    "at the same seed",
                    kDevices - std::max(missing, 0L));
    return bytes;
}

/**
 * Serial runDevice over the specs: per-device time, and each outcome
 * must equal the parallel campaign's row for that device.
 */
double
serialPass(const fleet::FleetOptions &fo,
           const std::vector<fleet::DeviceSpec> &specs,
           const fleet::FleetResult &campaign, Samples &device_ms,
           Report &report)
{
    const fleet::CancelToken token = fleet::makeCancelToken();
    double total_ms = 0.0;
    for (const auto &spec : specs) {
        const auto t0 = Clock::now();
        const fleet::DeviceOutcome out = fleet::runDevice(spec, fo, token);
        const double ms = usBetween(t0, Clock::now()) / 1000.0;
        device_ms.add(ms);
        total_ms += ms;
        const auto &rows = campaign.scoreboard.devices;
        const auto row = std::find_if(
                rows.begin(), rows.end(),
                [&](const fleet::DeviceScore &d) { return d.id == spec.id; });
        if (!out.ok || row == rows.end() || !(row->stats == out.stats) ||
            row->fit_iterations != out.fit_iterations ||
            row->fit_rmse_w != out.fit_rmse_w)
            report.fail("serial runDevice of device " +
                        std::to_string(spec.id) +
                        " disagrees with the parallel campaign");
    }
    return total_ms;
}

} // namespace

void
runFleet(const Options &opts, Report &report)
{
    const unsigned hw = std::thread::hardware_concurrency();
    fleet::FleetOptions fo;
    fo.devices = kDevices;
    fo.threads = static_cast<int>(std::min(4u, std::max(hw, 1u)));
    fo.seed = opts.seed; // shards: the default (4), as `gpupm fleet`

    // Set-up: build the specs and run one warm-up campaign, whose
    // accuracy payload is the reference for every later campaign.
    // Repeated before and after the timed loop, so that the median
    // set-up cost samples the host at both ends of the run.
    Samples setup_s;
    std::vector<fleet::DeviceSpec> specs;
    std::string reference;
    const auto setUp = [&] {
        const auto t0 = Clock::now();
        specs = fleet::buildFleetSpecs(fo);
        const auto warm = fleet::runFleetCampaign(fo, specs);
        setup_s.add(secondsBetween(t0, Clock::now()));
        reference = checkCampaign(warm, reference, report);
    };
    for (int i = 0; i < kSetupsBefore; ++i)
        setUp();

    Samples untraced_ms, traced_ms, read_ms, device_ms, efficiency_pct,
            steals, cpu_ms;
    double mae_pct = 0.0;
    if (const char *t = std::getenv("XTHREADS"))
        fo.threads = std::atoi(t);
    long retries = 0, watchdog_fires = 0;
    const auto start = Clock::now();
    for (long n = 0;; ++n) {
        const bool timed_layers = opts.trace && n % 2 == 1;
        timespec c0{}, c1{};
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &c0);
        const auto t0 = Clock::now();
        const fleet::FleetResult res = fleet::runFleetCampaign(fo, specs);
        const double ms = usBetween(t0, Clock::now()) / 1000.0;
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &c1);
        cpu_ms.add((c1.tv_sec - c0.tv_sec) * 1e3 + (c1.tv_nsec - c0.tv_nsec) * 1e-6);
        (timed_layers ? traced_ms : untraced_ms).add(ms);
        checkCampaign(res, reference, report);
        mae_pct = res.scoreboard.overall.mae_pct;
        steals.add(static_cast<double>(res.pool_steals));
        retries += res.shard_retries;
        watchdog_fires += res.watchdog_fires;

        const auto r0 = Clock::now();
        const std::string file = model::wrapEnvelope(
                model::FileKind::Fleet, res.toJson() + "\n");
        const auto back =
                model::tryUnwrapEnvelope(file, model::FileKind::Fleet);
        read_ms.add(usBetween(r0, Clock::now()) / 1000.0);
        if (!back.ok())
            report.fail("fleet report does not read back: " +
                        back.error().message);

        if (timed_layers) {
            const double serial_ms =
                    serialPass(fo, specs, res, device_ms, report);
            efficiency_pct.add(100.0 * serial_ms / (fo.threads * ms));
        }
        const bool enough = !opts.trace || !traced_ms.empty();
        if (enough && secondsBetween(start, Clock::now()) >= opts.seconds)
            break;
    }
    for (int i = 0; i < kSetupsAfter; ++i)
        setUp();

    std::cout << "deterministic: fleet seed " << opts.seed << " devices "
              << kDevices << " scoreboard_fnv1a=" << std::hex
              << fnv1a(reference) << std::dec
              << " fleet_mae_pct=" << exact(mae_pct) << "\n";
    std::cout << "fleet: " << untraced_ms.size() + traced_ms.size()
              << " campaigns (" << traced_ms.size() << " traced) on "
              << fo.threads << " threads, " << fo.shards << " shards\n";

    dumpSamples("units", untraced_ms.values());
    dumpSamples("cpu", cpu_ms.values());
    dumpSamples("reads", read_ms.values());
    dumpSamples("setups", setup_s.values());
    report.set("setup_s", setup_s.p50());
    report.set("work_ms_p90", untraced_ms.quantile(0.9));
    report.set("work_per_s", static_cast<double>(kDevices) *
                                     static_cast<double>(untraced_ms.size()) /
                                     (untraced_ms.sum() / 1000.0));
    report.set("mae_pct", mae_pct);
    report.set("read_ms_p50", read_ms.p50());

    if (!opts.trace)
        return;
    report.set("fleet.device_ms_p50", device_ms.p50());
    report.set("fleet.device_ms_p99", device_ms.quantile(0.99));
    report.set("fleet.parallel_efficiency_pct", efficiency_pct.p50());
    report.set("fleet.pool_steals", steals.p50());
    report.set("fleet.shard_retries", static_cast<double>(retries));
    report.set("fleet.watchdog_fires", static_cast<double>(watchdog_fires));
    report.set("bench.trace_overhead_pct",
               100.0 * (traced_ms.p50() - untraced_ms.p50()) /
                       untraced_ms.p50());
}

} // namespace perfbench
