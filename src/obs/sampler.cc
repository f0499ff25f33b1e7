#include "sampler.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/numio.hh"
#include "obs/alerts.hh"
#include "obs/standard.hh"
#include "obs/trace.hh"
#include "obs/tsdb.hh"

namespace gpupm
{
namespace obs
{

Sampler::Sampler(SampleProbe probe,
                 std::vector<SchedulePoint> schedule,
                 SamplerOptions opts, FlightRecorder *recorder,
                 Tsdb *tsdb, AlertEngine *alerts)
    : probe_(std::move(probe)), schedule_(std::move(schedule)),
      opts_(std::move(opts)), recorder_(recorder), tsdb_(tsdb),
      alerts_(alerts)
{
    GPUPM_ASSERT(static_cast<bool>(probe_), "sampler needs a probe");
    GPUPM_ASSERT(!schedule_.empty(), "sampler needs a schedule");
    GPUPM_ASSERT(opts_.period_ms > 0, "sampler period must be > 0");
}

double
Sampler::lastSampleAgeSeconds() const
{
    const std::int64_t last =
            last_sample_us_.load(std::memory_order_relaxed);
    if (last < 0)
        return std::numeric_limits<double>::infinity();
    const auto now_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - started_)
                    .count();
    return static_cast<double>(now_us - last) * 1e-6;
}

bool
Sampler::stale() const
{
    const double threshold =
            std::max(5.0 * opts_.period_ms * 1e-3, 2.0);
    const std::int64_t last =
            last_sample_us_.load(std::memory_order_relaxed);
    const auto now_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - started_)
                    .count();
    const double age =
            static_cast<double>(now_us - std::max<std::int64_t>(last, 0)) *
            1e-6;
    return age > threshold;
}

std::vector<ResidualSample>
Sampler::residualsSnapshot() const
{
    std::lock_guard<std::mutex> lock(data_mu_);
    return {residuals_.begin(), residuals_.end()};
}

Scoreboard
Sampler::scoreboardSnapshot() const
{
    return Scoreboard::fromSamples(opts_.device, opts_.device_name,
                                   opts_.reference,
                                   residualsSnapshot());
}

void
Sampler::tickSynchronously(std::int64_t t_us)
{
    const SchedulePoint &pt = schedule_[index_++ % schedule_.size()];
    // Each tick is one trace: adopting an empty context makes the
    // tick span a fresh root even while an outer CLI span is open,
    // so the measure→audit→tsdb→alert chain below shares one trace
    // ID — the ID that joins /api/traces, /tracez and the NDJSON
    // event log. (Also attributes /profilez samples of a live
    // daemon to the sampling loop.)
    TraceContextScope fresh_root{TraceContext{}};
    GPUPM_TRACE_SPAN_NAMED(tick_span, "monitor", "monitor.tick");
    tick_span.arg("app", pt.app);
    tick_span.arg("tick",
                  (long)ticks_.load(std::memory_order_relaxed) + 1);
    const auto start = std::chrono::steady_clock::now();
    MonitorSample s;
    {
        GPUPM_TRACE_SPAN("monitor", "monitor.probe");
        try {
            s = probe_(pt.app, pt.cfg);
        } catch (const std::exception &e) {
            s.ok = false;
            s.error = e.what();
        }
    }
    const double probe_seconds =
            std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();

    monitorTicksTotal().inc();
    monitorSampleSeconds().observe(probe_seconds);
    ticks_.fetch_add(1, std::memory_order_relaxed);

    if (s.ok) {
        audit(s, pt, probe_seconds);
    } else {
        tick_span.markError(); // error traces are tail-kept
        monitorProbeFailuresTotal().inc();
        warn("monitor probe failed for ", pt.app, ": ", s.error);
        if (recorder_)
            recorder_->recordSpan(
                    "monitor.probe_failure",
                    static_cast<std::int64_t>(probe_seconds * 1e6),
                    pt.app + ": " + s.error);
    }

    // Failed ticks still snapshot the registry and evaluate the rules:
    // a wedged probe must surface as stale/rate alerts, not freeze
    // history.
    if (tsdb_) {
        GPUPM_TRACE_SPAN("monitor", "monitor.tsdb");
        tsdb_->recordRegistry(Registry::global(), t_us);
    }
    if (alerts_) {
        GPUPM_TRACE_SPAN("monitor", "monitor.alerts");
        const double transitions_before =
                alertTransitionsTotal().value();
        alerts_->evaluate(t_us);
        // A tick that moved any alert's state is tail-kept: "which
        // tick fired this drift alert" stays answerable after the
        // fact from /api/traces?error=1.
        if (alertTransitionsTotal().value() != transitions_before)
            tick_span.markError();
    }
}

void
Sampler::audit(const MonitorSample &s, const SchedulePoint &pt,
               double probe_seconds)
{
    ResidualSample r;
    r.app = s.app.empty() ? pt.app : s.app;
    r.cfg = s.cfg;
    r.measured_w = s.measured_w;
    r.predicted_w = s.predicted_w;
    {
        GPUPM_TRACE_SPAN("monitor", "monitor.audit");
        {
            std::lock_guard<std::mutex> lock(data_mu_);
            residuals_.push_back(r);
            while (residuals_.size() > kMaxResiduals)
                residuals_.pop_front();
        }

        accuracySamplesTotal().inc();
        accuracyAbsErrPct().observe(r.absErrPct());
        monitorLastMeasuredW().set(r.measured_w);
        monitorLastPredictedW().set(r.predicted_w);
        updateRollingMae();
    }
    last_sample_us_.store(
            std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - started_)
                    .count(),
            std::memory_order_relaxed);

    if (recorder_) {
        std::ostringstream detail;
        detail << r.app << " @ (" << r.cfg.core_mhz << ", "
               << r.cfg.mem_mhz << ") MHz: measured "
               << numio::formatDouble(r.measured_w) << " W, predicted "
               << numio::formatDouble(r.predicted_w) << " W";
        FlightRecord rec;
        rec.kind = "sample";
        rec.name = "monitor.sample";
        rec.dur_us = static_cast<std::int64_t>(probe_seconds * 1e6);
        rec.detail = detail.str();
        recorder_->record(std::move(rec),
                          recorder_->logOpen()
                                  ? eventLine(s, r.absErrPct(),
                                              probe_seconds)
                                  : std::string());
    }
}

void
Sampler::updateRollingMae()
{
    double sum = 0.0;
    std::size_t n = 0;
    {
        std::lock_guard<std::mutex> lock(data_mu_);
        const std::size_t window =
                std::max<std::size_t>(opts_.rolling_window, 1);
        const std::size_t take =
                std::min(window, residuals_.size());
        for (std::size_t i = residuals_.size() - take;
             i < residuals_.size(); ++i) {
            sum += residuals_[i].absErrPct();
            ++n;
        }
    }
    if (n > 0)
        accuracyRollingMaePct().set(sum / static_cast<double>(n));
}

std::string
Sampler::eventLine(const MonitorSample &s, double abs_err_pct,
                   double probe_seconds) const
{
    std::ostringstream os;
    os << "{\"tick\":" << ticks_.load(std::memory_order_relaxed)
       << ",\"app\":\"" << json::escape(s.app)
       << "\",\"core_mhz\":" << s.cfg.core_mhz
       << ",\"mem_mhz\":" << s.cfg.mem_mhz << ",\"measured_w\":"
       << numio::formatDouble(s.measured_w) << ",\"predicted_w\":"
       << numio::formatDouble(s.predicted_w) << ",\"abs_err_pct\":"
       << numio::formatDouble(abs_err_pct) << ",\"probe_seconds\":"
       << numio::formatDouble(probe_seconds);
    // Join key into the trace store and the flight recorder; only
    // present while the tracer is on (the tick span owns the ctx).
    if (const auto ctx = currentTraceContext(); ctx.trace_id)
        os << ",\"trace_id\":\"" << traceIdHex(ctx.trace_id) << "\"";
    os << "}";
    return os.str();
}

} // namespace obs
} // namespace gpupm
