/**
 * @file
 * Monitor-soak benchmark: 10k virtually-clocked sampler ticks with
 * the embedded time-series store and the alert engine enabled, over a
 * synthetic deterministic probe (no model training — this measures
 * the observability overhead, not the simulator).
 *
 * Gates, in order of importance:
 *  - the tsdb memory high-water must stay under the bound implied by
 *    its cardinality and capacity caps (exit 1 otherwise) — the
 *    store's "bounded by construction" claim, soaked;
 *  - the injected mid-run accuracy fault must take an alert rule
 *    through firing and back to resolved (exit 1 otherwise);
 *  - a second, traced pass replays the identical tick sequence with
 *    the tracer feeding a bounded TraceStore (per-tick root traces,
 *    retain-events off): the store must stay inside its byte bound
 *    and must not evict a single error trace (exit 1 otherwise), and
 *    the traced per-tick overhead is reported alongside the bare one;
 *  - wall-clock (the per-tick sampling overhead with the store and
 *    engine on the tick path) is gated generously against
 *    bench/golden/BENCH_monitor_soak.json via gpupm_bench_check.
 */

#include <cmath>
#include <cstdint>
#include <iostream>

#include "bench_common.hh"
#include "obs/alerts.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "obs/standard.hh"
#include "obs/trace.hh"
#include "obs/trace_store.hh"
#include "obs/tsdb.hh"

int
main(int argc, char **argv)
{
    gpupm::bench::BenchReporter bench_report(argc, argv,
                                             "monitor_soak");
    using namespace gpupm;
    obs::Registry::global().reset();

    constexpr int kTicks = 10'000;
    constexpr std::int64_t kPeriodUs = 100'000; // 10 Hz virtual clock
    constexpr int kFaultFrom = 4'000;
    constexpr int kFaultTo = 5'000;

    // Synthetic probe: smooth measured power, ~4% prediction error in
    // steady state, 18% inside the fault window. Everything is a pure
    // function of the tick index — bit-identical across runs.
    long tick = 0;
    auto probe = [&tick](const std::string &app,
                         const gpu::FreqConfig &cfg) {
        obs::MonitorSample s;
        s.app = app;
        s.cfg = cfg;
        const double t = static_cast<double>(tick++);
        s.measured_w = 200.0 + 25.0 * std::sin(t * 0.01);
        const double err =
                (tick > kFaultFrom && tick <= kFaultTo) ? 0.18
                                                        : 0.04;
        s.predicted_w =
                s.measured_w * (1.0 + err * std::sin(t * 0.003 + 1.0));
        return s;
    };
    const std::vector<obs::SchedulePoint> schedule{
            {"SOAK1", {595, 3505}},
            {"SOAK2", {1000, 3505}},
            {"SOAK3", {1392, 3505}},
    };

    obs::Tsdb tsdb;

    obs::AlertRule rule;
    rule.name = "soak_mae_high";
    rule.series = "gpupm_accuracy_rolling_mae_pct";
    rule.op = obs::AlertOp::Gt;
    rule.threshold = 8.0; // between the 4% baseline and the 18% fault
    rule.window_us = 10 * kPeriodUs;
    rule.for_us = 5 * kPeriodUs;
    rule.cooldown_us = 50 * kPeriodUs;
    obs::AlertEngine engine(tsdb, {rule});

    obs::SamplerOptions sopts;
    sopts.period_ms = static_cast<int>(kPeriodUs / 1000);
    sopts.rolling_window = 64;
    sopts.device = 1;
    sopts.device_name = "Soak GPU";
    sopts.reference = {1000, 3505};
    obs::Sampler sampler(probe, schedule, sopts, nullptr, &tsdb,
                         &engine);

    // Fixed-accounting bound: a pure function of the store's caps.
    const std::size_t mem_bound =
            sizeof(obs::Tsdb) +
            obs::Tsdb::kMaxSeries *
                    (obs::Tsdb::kRawCapacity * sizeof(obs::TsPoint) +
                     2 * obs::Tsdb::kTierCapacity * sizeof(obs::TsBucket) +
                     1024);

    std::size_t high_water = 0;
    const auto loop_start = std::chrono::steady_clock::now();
    for (int t = 0; t < kTicks; ++t) {
        sampler.tickSynchronously((t + 1) * kPeriodUs);
        if (t % 100 == 0)
            high_water =
                    std::max(high_water, tsdb.memoryBytes());
    }
    const double loop_ms =
            std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - loop_start)
                    .count();
    high_water = std::max(high_water, tsdb.memoryBytes());

    // The fault must have walked the rule through the whole
    // lifecycle: firing inside the window, resolved after it.
    bool fired = false, resolved = false;
    const auto statuses = engine.snapshot();
    for (const auto &tr : statuses[0].history) {
        if (tr.state == obs::AlertState::Firing)
            fired = true;
        if (tr.state == obs::AlertState::Resolved)
            resolved = true;
    }

    // Traced pass: replay the identical tick sequence (tick counter
    // rewound, fault window included) with per-tick root traces
    // feeding a bounded TraceStore in store-only mode — the monitor
    // daemon's exact configuration. Measures the tracing overhead on
    // the tick path and soaks the tail-sampler's two contracts: hard
    // byte bound, zero error-trace loss.
    tick = 0;
    obs::Tsdb traced_tsdb;
    obs::AlertEngine traced_engine(traced_tsdb, {rule});
    obs::Sampler traced_sampler(probe, schedule, sopts, nullptr,
                                &traced_tsdb, &traced_engine);
    obs::TraceStore trace_store;
    auto &tracer = obs::Tracer::global();
    tracer.seedIds(42);
    tracer.attachStore(&trace_store);
    tracer.setRetainEvents(false); // store-only, like the daemon
    // BenchReporter already enabled the tracer when reporting; only
    // enable it here (clearing the phase-1 span buffer) on bare runs.
    const bool was_enabled = tracer.enabled();
    if (!was_enabled)
        tracer.enable();
    std::size_t trace_high_water = 0;
    const auto traced_start = std::chrono::steady_clock::now();
    for (int t = 0; t < kTicks; ++t) {
        traced_sampler.tickSynchronously((t + 1) * kPeriodUs);
        if (t % 100 == 0)
            trace_high_water = std::max(trace_high_water,
                                        trace_store.memoryBytes());
    }
    const double traced_ms =
            std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - traced_start)
                    .count();
    trace_high_water =
            std::max(trace_high_water, trace_store.memoryBytes());
    if (!was_enabled)
        tracer.disable();
    tracer.attachStore(nullptr);
    tracer.setRetainEvents(true);

    const double tick_us = loop_ms * 1000.0 / kTicks;
    const double traced_tick_us = traced_ms * 1000.0 / kTicks;
    std::cout << "monitor soak: " << kTicks << " ticks, "
              << tsdb.seriesCount() << " series, "
              << tsdb.pointsAppended() << " points, high-water "
              << high_water << " B (bound " << mem_bound << " B), "
              << gpupm::numio::formatDouble(tick_us)
              << " us/tick\n";
    std::cout << "alert lifecycle: fired="
              << (fired ? "yes" : "NO") << " resolved="
              << (resolved ? "yes" : "NO") << " (transitions "
              << obs::alertTransitionsTotal().value() << ")\n";
    std::cout << "traced pass: "
              << gpupm::numio::formatDouble(traced_tick_us)
              << " us/tick (bare "
              << gpupm::numio::formatDouble(tick_us) << "), store "
              << trace_store.traceCount() << " traces, high-water "
              << trace_high_water << " B (bound "
              << trace_store.memoryBoundBytes() << " B), errors "
              << trace_store.errorsOfferedTotal() << " offered / "
              << trace_store.errorsEvictedTotal() << " evicted\n";

    bench_report.stat("ticks", kTicks);
    bench_report.stat("tick_overhead_us", tick_us);
    bench_report.stat("tsdb_series",
                      static_cast<double>(tsdb.seriesCount()));
    bench_report.stat("tsdb_points",
                      static_cast<double>(tsdb.pointsAppended()));
    bench_report.stat("tsdb_memory_high_water_bytes",
                      static_cast<double>(high_water));
    bench_report.stat("tsdb_memory_bound_bytes",
                      static_cast<double>(mem_bound));
    bench_report.stat("alert_transitions",
                      obs::alertTransitionsTotal().value());
    // _pct stats are the ones gpupm_bench_check gates tightly: the
    // steady-state rolling MAE of the synthetic probe and the memory
    // utilization against the configured bound.
    bench_report.stat("rolling_mae_pct",
                      obs::accuracyRollingMaePct().value());
    bench_report.stat("memory_of_bound_pct",
                      100.0 * static_cast<double>(high_water) /
                              static_cast<double>(mem_bound));
    bench_report.stat("tick_overhead_traced_us", traced_tick_us);
    bench_report.stat("trace_store_high_water_bytes",
                      static_cast<double>(trace_high_water));
    bench_report.stat("trace_store_bound_bytes",
                      static_cast<double>(
                              trace_store.memoryBoundBytes()));
    bench_report.stat("traces_kept",
                      static_cast<double>(trace_store.traceCount()));
    bench_report.stat(
            "traces_error_offered",
            static_cast<double>(trace_store.errorsOfferedTotal()));
    // Deterministically-zero gated stats: tail-sampling contract
    // violations show up as a nonzero pct against the golden's 0.
    bench_report.stat(
            "trace_memory_over_bound_pct",
            trace_high_water > trace_store.memoryBoundBytes()
                    ? 100.0 *
                              static_cast<double>(
                                      trace_high_water -
                                      trace_store.memoryBoundBytes()) /
                              static_cast<double>(
                                      trace_store.memoryBoundBytes())
                    : 0.0);
    bench_report.stat(
            "trace_error_loss_pct",
            trace_store.errorsOfferedTotal() > 0
                    ? 100.0 *
                              static_cast<double>(
                                      trace_store
                                              .errorsEvictedTotal()) /
                              static_cast<double>(
                                      trace_store
                                              .errorsOfferedTotal())
                    : 0.0);

    if (high_water > mem_bound) {
        std::cout << "FAIL: tsdb memory exceeded its bound\n";
        return 1;
    }
    if (!fired || !resolved) {
        std::cout << "FAIL: alert lifecycle incomplete\n";
        return 1;
    }
    if (trace_high_water > trace_store.memoryBoundBytes()) {
        std::cout << "FAIL: trace store exceeded its byte bound\n";
        return 1;
    }
    if (trace_store.errorsOfferedTotal() < 1 ||
        trace_store.errorsEvictedTotal() > 0) {
        std::cout << "FAIL: tail sampler lost error traces ("
                  << trace_store.errorsOfferedTotal()
                  << " offered, "
                  << trace_store.errorsEvictedTotal()
                  << " evicted)\n";
        return 1;
    }
    return 0;
}
