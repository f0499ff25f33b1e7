/**
 * @file
 * Entry point of the repository benchmark:
 *
 *     gpupm_perfbench --workload paper_fit|fleet|monitor --seed N
 *                     --seconds S --trace 0|1
 *
 * Prints progress and deterministic fingerprints, then as its last
 * line one JSON object {"correct", "attempted", "failed", "metrics"}:
 * the end-to-end metrics, or with --trace 1 the per-layer metrics.
 * Exits 1 when any correctness check failed, 2 on bad usage.
 */

#include <cmath>
#include <iostream>

#include "common/logging.hh"
#include "harness.hh"

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts;
    std::string err;
    if (!parseOptions(argc, argv, opts, err)) {
        std::cerr << "gpupm_perfbench: " << err
                  << "\nusage: gpupm_perfbench --workload "
                     "paper_fit|fleet|monitor --seed N --seconds S "
                     "--trace 0|1\n";
        return 2;
    }
    // Library progress lines (fleet summaries) would interleave with
    // the result; keep only warnings and errors.
    gpupm::setLogLevel(gpupm::LogLevel::Warn);

    Report report;
    if (opts.workload == "paper_fit")
        runPaperFit(opts, report);
    else if (opts.workload == "fleet")
        runFleet(opts, report);
    else if (opts.workload == "monitor")
        runMonitor(opts, report);
    else {
        std::cerr << "gpupm_perfbench: unknown workload '" << opts.workload
                  << "'\n";
        return 2;
    }
    report.set("peak_rss_mb", peakRssMb());
    report.checkComplete(opts.trace);
    std::cout << report.renderJson(opts.trace) << std::endl;
    return report.failed() == 0 ? 0 : 1;
}
