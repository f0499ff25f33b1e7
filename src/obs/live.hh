/**
 * @file
 * The run-time pipeline, assembled once.
 *
 * The paper's model is a run-time model: an application is profiled
 * once at the reference configuration (Sec. III-E) and its power is
 * then predicted at any V-F point, tick after tick. LivePipeline is
 * that measure→predict loop with everything the daemon hangs on it:
 * the flight recorder (also the one event sink, see
 * flight_recorder.hh), a trace store, the tsdb, the alert engine, the
 * sampler and an HTTP server. `gpupm monitor`, `alerts` and `traces`
 * and `bench/monitor_soak` build on it; the caller supplies the probe
 * and the schedule, registers its own routes and opens the event log.
 *
 * Beside it are the two pieces the CLI's fleet server shares with the
 * daemon: TraceStoreAttachment, the one place that points the global
 * tracer at a store and back, and serveData, the one wiring of the
 * data endpoints.
 */

#ifndef GPUPM_OBS_LIVE_HH
#define GPUPM_OBS_LIVE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/alerts.hh"
#include "obs/flight_recorder.hh"
#include "obs/http_server.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "obs/trace_store.hh"
#include "obs/tsdb.hh"

namespace gpupm
{
namespace obs
{

constexpr const char *kJson = "application/json";

/**
 * The global tracer feeding `store` for this object's lifetime: span
 * IDs seeded from `seed`, every trace completed from now on offered to
 * the store, and the tracer's own event list kept only when
 * `retain_events` (a `--trace-out` dump needs it; a daemon's memory
 * must stay bounded). It enables the tracer only when the tracer is
 * off: an enabled tracer belongs to `--trace-out` or a bench reporter,
 * and enable() would clear their events. The destructor detaches the
 * store, so no early return leaves the tracer pointing at a dead one,
 * and disables only a tracer this object enabled.
 */
class TraceStoreAttachment
{
  public:
    TraceStoreAttachment(TraceStore &store, std::uint64_t seed,
                         bool retain_events)
        : enabled_here_(!Tracer::global().enabled())
    {
        auto &tracer = Tracer::global();
        tracer.seedIds(seed);
        tracer.setRetainEvents(retain_events);
        if (enabled_here_)
            tracer.enable();
        tracer.attachStore(&store);
    }
    ~TraceStoreAttachment()
    {
        auto &tracer = Tracer::global();
        if (enabled_here_)
            tracer.disable();
        tracer.attachStore(nullptr);
        tracer.setRetainEvents(true);
    }

    TraceStoreAttachment(const TraceStoreAttachment &) = delete;
    TraceStoreAttachment &operator=(const TraceStoreAttachment &) = delete;

  private:
    const bool enabled_here_;
};

/**
 * The sampler and everything it feeds. Members are constructed in
 * declaration order and destroyed in reverse, which is the rule this
 * type exists to keep: the server stops before anything its handlers
 * read is destroyed, and the tracer is detached before its store
 * goes. The pipeline does no registry work; callers register or reset
 * the metrics as they need.
 */
struct LivePipeline
{
    LivePipeline(SampleProbe probe, std::vector<SchedulePoint> schedule,
                 SamplerOptions opts, std::vector<AlertRule> rules)
        : engine(tsdb, std::move(rules), &recorder),
          sampler(std::move(probe), std::move(schedule), std::move(opts),
                  &recorder, &tsdb, &engine)
    {
    }

    /** Start tracing into `store` (see TraceStoreAttachment). */
    void trace(std::uint64_t seed, bool retain_events)
    {
        tracing.emplace(store, seed, retain_events);
    }

    FlightRecorder recorder{256};
    TraceStore store;
    std::optional<TraceStoreAttachment> tracing;
    Tsdb tsdb;
    AlertEngine engine;
    Sampler sampler;
    HttpServer server;
};

/** `key=value` pairs of a query string; a bare `key` has no value. */
std::vector<std::pair<std::string, std::string>>
queryParams(std::string_view query);

/**
 * Register the data endpoints `monitor` and `fleet --port` share:
 * /metrics (after `refresh` updated any gauges), /api/query over
 * `tsdb` and /api/traces over `store`.
 *
 * /api/query parameters: `series` (required), `range`/`step`
 * (durations, default 60s / 1s), or explicit `start_us`/`end_us` for
 * reproducible test queries; the implicit end is the store's newest
 * timestamp.
 *
 * /api/traces parameters (all optional): `category` (root span
 * category), `min_ms` (minimum root duration), `error` (0/1 — error
 * traces only), `trace_id` (16-hex-digit id), `limit` (max traces,
 * default 50). Malformed values, and durations past
 * numio::kMaxSeconds, are a 400, never a silent empty result.
 */
void serveData(HttpServer &server, const Tsdb &tsdb,
               const TraceStore &store,
               std::function<void()> refresh = [] {});

} // namespace obs
} // namespace gpupm

#endif // GPUPM_OBS_LIVE_HH
