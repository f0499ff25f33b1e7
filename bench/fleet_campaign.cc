/**
 * @file
 * Fleet-campaign benchmark: trains and validates a 48-device
 * simulated fleet (16 instances per architecture, seeded per-instance
 * ground-truth jitter) through the fleet supervisor's workers, then
 * repeats the run under chaos injection (shard kills mid-checkpoint
 * plus poisoned devices) and reports both the merged accuracy
 * marginals and the determinism check — the chaos run's accuracy
 * payload over the surviving devices must equal the clean run's.
 *
 * Telemetry: overall and per-architecture MAE (gated against
 * bench/golden/BENCH_fleet.json), device accounting, supervisor
 * counters and wall-clock.
 */

#include <iostream>

#include "bench_common.hh"
#include "fleet/supervisor.hh"

int
main(int argc, char **argv)
{
    gpupm::bench::BenchReporter bench_report(argc, argv,
                                             "fleet_campaign");
    using namespace gpupm;

    fleet::FleetOptions opts;
    opts.devices = 48;
    opts.shards = 8;
    opts.seed = 42;

    const auto clean = fleet::runFleetCampaign(opts);
    std::cout << clean.summary() << '\n';

    TextTable t({"Architecture", "Devices", "MAE [%]", "RMSE [W]"});
    t.setTitle("Fleet accuracy marginals (48 devices, clean run)");
    for (const auto &agg : clean.scoreboard.per_arch) {
        t.addRow({agg.arch, std::to_string(agg.devices_ok),
                  TextTable::num(agg.stats.mae_pct, 2),
                  TextTable::num(agg.stats.rmse_w, 2)});
        bench_report.stat("mae_pct_" + agg.arch,
                          agg.stats.mae_pct);
    }
    t.print(std::cout);
    bench::saveCsv(t, "fleet_marginals");
    bench_report.stat("overall_mae_pct",
                      clean.scoreboard.overall.mae_pct);
    bench_report.stat("devices_ok",
                      static_cast<double>(
                              clean.scoreboard.devices_ok));

    // Chaos pass: the same fleet battered by shard kills and
    // poisoned instances. The supervisor must keep the surviving
    // devices' merged accuracy bit-identical to the clean run.
    fleet::FleetOptions chaos_opts = opts;
    chaos_opts.chaos.shard_kill_rate = 0.3;
    chaos_opts.chaos.poison_fraction = 0.1;
    const auto chaos = fleet::runFleetCampaign(chaos_opts);
    std::cout << "\nchaos pass: " << chaos.chaos_kills
              << " shard kills, " << chaos.shard_retries
              << " retries, " << chaos.scoreboard.devices_failed
              << " poisoned devices quarantined\n";

    const auto specs = fleet::buildFleetSpecs(chaos_opts);
    std::vector<fleet::DeviceSpec> survivors;
    for (const auto &spec : specs)
        if (!spec.poison_nan && !spec.poison_config)
            survivors.push_back(spec);
    const auto reference = fleet::runFleetCampaign(opts, survivors);
    const bool identical = chaos.scoreboard.toJson(false) ==
                           reference.scoreboard.toJson(false);
    std::cout << "chaos determinism: merged scoreboard "
              << (identical ? "BIT-IDENTICAL" : "DIVERGED")
              << " vs fault-free run over the survivors\n";
    bench_report.stat("chaos_bit_identical", identical ? 1.0 : 0.0);
    bench_report.stat("chaos_devices_failed",
                      static_cast<double>(
                              chaos.scoreboard.devices_failed));
    bench_report.stat("chaos_shard_retries",
                      static_cast<double>(chaos.shard_retries));
    return identical ? 0 : 1;
}
