/**
 * @file
 * Reproduces Fig. 7: power prediction for all V-F configurations of
 * the validation benchmark set (not used in model construction) on
 * all three devices.
 *
 * Headline targets: mean absolute errors of ~6.9% (Titan Xp, 2 memory
 * x 22 core levels), ~6.0% (GTX Titan X, 4 x 16) and ~12.4% (Tesla
 * K40c, 1 x 4), with the measured power spanning ~40-250 W on the
 * Titan boards.
 */

#include <iostream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    // Sampled by wall clock: the run is single-threaded and CPU-bound,
    // and CPU-time sampling is capped by the kernel tick (DESIGN.md
    // §13), too few samples to gate category shares on. The run takes
    // tens of milliseconds, so a prime near 3 kHz gives it about a
    // hundred samples.
    gpupm::obs::ProfilerOptions wall_clock;
    wall_clock.wall = true;
    wall_clock.hz = 2999;
    gpupm::bench::BenchReporter bench_report(argc, argv,
                                             "fig7_validation",
                                             wall_clock);
    using namespace gpupm;
    using bench::fitDevice;

    TextTable summary({"Device", "Mem x Core levels", "Samples",
                       "Measured range [W]", "MAE [%]",
                       "Paper MAE [%]"});
    summary.setTitle("Fig. 7: validation-set prediction accuracy over "
                     "the full V-F grid");

    const char *paper_mae[] = {"6.9", "6.0", "12.4"};
    const char *tokens[] = {"titanxp", "titanx", "k40c"};
    int device_idx = 0;

    for (auto kind : gpu::kAllDevices) {
        auto fd = fitDevice(kind);
        model::Predictor predictor(fd.fit.model);
        const auto apps = bench::measureValidationSet(*fd.board);

        std::vector<double> pred, meas;
        TextTable per_app({"Application", "Suite", "MAE [%]",
                           "Measured @ref [W]", "Predicted @ref [W]"});
        per_app.setTitle("\n" + fd.desc().name +
                         ": per-application accuracy");
        const auto ref = fd.desc().referenceConfig();
        const auto all = workloads::fullValidationSet();
        for (std::size_t a = 0; a < apps.size(); ++a) {
            std::vector<double> ap, am;
            double m_ref = 0.0;
            for (std::size_t i = 0; i < apps[a].configs.size(); ++i) {
                const double p = predictor
                                         .at(apps[a].util,
                                             apps[a].configs[i])
                                         .total_w;
                ap.push_back(p);
                am.push_back(apps[a].power_w[i]);
                if (apps[a].configs[i] == ref)
                    m_ref = apps[a].power_w[i];
            }
            pred.insert(pred.end(), ap.begin(), ap.end());
            meas.insert(meas.end(), am.begin(), am.end());
            per_app.addRow(
                    {apps[a].name, all[a].suite,
                     TextTable::num(bench::mape(ap, am), 1),
                     TextTable::num(m_ref, 1),
                     TextTable::num(
                             predictor.at(apps[a].util, ref).total_w,
                             1)});
        }
        per_app.print(std::cout);
        bench::saveCsv(per_app,
                       "fig7_per_app_" + std::to_string(device_idx));

        const double mae = bench::mape(pred, meas);
        bench_report.stat(std::string("mae_pct_") +
                                  tokens[device_idx],
                          mae);
        summary.addRow(
                {fd.desc().name,
                 std::to_string(fd.desc().mem_freqs_mhz.size()) +
                         " x " +
                         std::to_string(
                                 fd.desc().core_freqs_mhz.size()),
                 std::to_string(pred.size()),
                 TextTable::num(stats::minimum(meas), 0) + " - " +
                         TextTable::num(stats::maximum(meas), 0),
                 TextTable::num(mae, 1),
                 paper_mae[device_idx++]});
    }

    std::cout << "\n";
    summary.print(std::cout);
    bench::saveCsv(summary, "fig7_summary");
    return 0;
}
