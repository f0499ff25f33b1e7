/**
 * @file
 * Monitor-soak benchmark: 10k virtually-clocked ticks of the daemon's
 * run-time pipeline (obs::LivePipeline: flight recorder, time-series
 * store, alert engine and sampler) over a synthetic deterministic
 * probe (no model training — this measures the observability
 * overhead, not the simulator).
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
#include "obs/live.hh"
#include "obs/metrics.hh"
#include "obs/standard.hh"

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

    obs::AlertRule rule;
    rule.name = "soak_mae_high";
    rule.series = "gpupm_accuracy_rolling_mae_pct";
    rule.op = obs::AlertOp::Gt;
    rule.threshold = 8.0; // between the 4% baseline and the 18% fault
    rule.window_us = 10 * kPeriodUs;
    rule.for_us = 5 * kPeriodUs;
    rule.cooldown_us = 50 * kPeriodUs;

    const obs::SamplerOptions sopts{
            .period_ms = static_cast<int>(kPeriodUs / 1000),
            .rolling_window = 64,
            .device = 1,
            .device_name = "Soak GPU",
            .reference = {1000, 3505},
    };
    // One pass: kTicks ticks of `pipe`, reading `memory()` every 100
    // ticks. Returns the pass's µs per tick and the memory high-water.
    auto soak = [&](obs::LivePipeline &pipe, auto memory) {
        std::size_t high_water = 0;
        const auto start = std::chrono::steady_clock::now();
        for (int t = 0; t < kTicks; ++t) {
            pipe.sampler.tickSynchronously((t + 1) * kPeriodUs);
            if (t % 100 == 0)
                high_water = std::max(high_water, memory());
        }
        const double us = std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
        return std::make_pair(us / kTicks, std::max(high_water, memory()));
    };

    obs::LivePipeline live(probe, schedule, sopts, {rule});
    const obs::Tsdb &tsdb = live.tsdb;
    const auto [tick_us, high_water] =
            soak(live, [&tsdb] { return tsdb.memoryBytes(); });

    // Fixed-accounting bound: a pure function of the store's caps.
    const std::size_t mem_bound =
            sizeof(obs::Tsdb) +
            obs::Tsdb::kMaxSeries *
                    (obs::Tsdb::kRawCapacity * sizeof(obs::TsPoint) +
                     2 * obs::Tsdb::kTierCapacity * sizeof(obs::TsBucket) +
                     1024);

    // The fault must have walked the rule through the whole
    // lifecycle: firing inside the window, resolved after it.
    bool fired = false, resolved = false;
    const auto statuses = live.engine.snapshot();
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
    // byte bound, zero error-trace loss. When BenchReporter already
    // enabled the tracer, the attachment leaves its span buffer be.
    tick = 0;
    obs::LivePipeline traced(probe, schedule, sopts, {rule});
    traced.trace(42, false);
    const obs::TraceStore &trace_store = traced.store;
    const auto [traced_tick_us, trace_high_water] = soak(
            traced, [&trace_store] { return trace_store.memoryBytes(); });

    const std::size_t trace_bound = trace_store.memoryBoundBytes();
    const long errors_offered = trace_store.errorsOfferedTotal();
    const long errors_evicted = trace_store.errorsEvictedTotal();
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
              << trace_high_water << " B (bound " << trace_bound
              << " B), errors " << errors_offered << " offered / "
              << errors_evicted << " evicted\n";

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
    const auto pct = [](double part, double whole) {
        return 100.0 * part / whole;
    };
    bench_report.stat("memory_of_bound_pct", pct(high_water, mem_bound));
    bench_report.stat("tick_overhead_traced_us", traced_tick_us);
    bench_report.stat("trace_store_high_water_bytes",
                      static_cast<double>(trace_high_water));
    bench_report.stat("trace_store_bound_bytes",
                      static_cast<double>(trace_bound));
    bench_report.stat("traces_kept",
                      static_cast<double>(trace_store.traceCount()));
    bench_report.stat("traces_error_offered",
                      static_cast<double>(errors_offered));
    // Deterministically-zero gated stats: tail-sampling contract
    // violations show up as a nonzero pct against the golden's 0.
    bench_report.stat("trace_memory_over_bound_pct",
                      trace_high_water > trace_bound
                              ? pct(trace_high_water - trace_bound,
                                    trace_bound)
                              : 0.0);
    bench_report.stat("trace_error_loss_pct",
                      errors_offered > 0
                              ? pct(errors_evicted, errors_offered)
                              : 0.0);

    if (high_water > mem_bound) {
        std::cout << "FAIL: tsdb memory exceeded its bound\n";
        return 1;
    }
    if (!fired || !resolved) {
        std::cout << "FAIL: alert lifecycle incomplete\n";
        return 1;
    }
    if (trace_high_water > trace_bound) {
        std::cout << "FAIL: trace store exceeded its byte bound\n";
        return 1;
    }
    if (errors_offered < 1 || errors_evicted > 0) {
        std::cout << "FAIL: tail sampler lost error traces ("
                  << errors_offered << " offered, " << errors_evicted
                  << " evicted)\n";
        return 1;
    }
    return 0;
}
