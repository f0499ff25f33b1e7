/**
 * @file
 * `monitor`: the `gpupm monitor` daemon's configuration, wired
 * in-process on a GTX Titan X. Set-up trains a model (3 repetitions),
 * profiles the validation apps at the reference configuration and
 * schedules each app at its slowest, reference and fastest
 * configuration. The tick path carries the real probe (an NVML power
 * measurement plus Predictor::at), the Tsdb, the AlertEngine with the
 * drift rule, the FlightRecorder and a TraceStore fed by the tracer
 * with retain-events off. Ticks run back to back on a virtual clock
 * (closed loop, one thread); a seeded drift window makes the drift
 * rule fire and resolve once. A loopback HttpServer serves /metrics,
 * /api/query and /api/traces to one open-loop scraper.
 *
 * Unit of work: one round of the schedule. Read: one scrape request,
 * timed from when it was due.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "core/campaign.hh"
#include "core/metrics.hh"
#include "core/predictor.hh"
#include "harness.hh"
#include "layers.hh"
#include "obs/alerts.hh"
#include "obs/http_server.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "obs/standard.hh"
#include "obs/trace.hh"
#include "obs/trace_store.hh"
#include "obs/tsdb.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

namespace
{

using namespace gpupm;

constexpr long kDriftTicks = 160;   ///< drift window length (40 s)
constexpr double kDriftScale = 1.5; ///< measured-W factor
constexpr long kBlockRounds = 25;   ///< traced/untraced alternation
constexpr double kScrapesPerSecond = 60.0; ///< 20 per path

const char *const kScrapePaths[] = {
        "/metrics",
        "/api/query?series=gpupm_accuracy_rolling_mae_pct&range=60s",
        "/api/traces?limit=20",
};

/** Value of `key` in a query string ("" when absent). */
std::string
queryParam(const std::string &query, const std::string &key)
{
    std::size_t pos = 0;
    while (pos <= query.size()) {
        const std::size_t amp = std::min(query.find('&', pos), query.size());
        const std::string kv = query.substr(pos, amp - pos);
        if (kv.rfind(key + "=", 0) == 0)
            return kv.substr(key.size() + 1);
        pos = amp + 1;
    }
    return "";
}

/** Layer timings taken inside the benchmark's probe and handlers. */
struct MonitorLayers
{
    Samples probe_us;
    Samples tick_self_us;
    Samples at_ns;
    long predictor_calls = 0;
    std::mutex http_mu; ///< handlers run on the server thread
    std::map<std::string, Samples> handler_us;
    std::vector<double> handler_in_order_us;
    Samples metrics_bytes;
};

/** Set-up training timings of a traced rig. */
struct TrainLayers
{
    TrainTimings timings;
    int iterations = 0;
};

/**
 * The daemon, assembled. Members are declared in dependency order so
 * the server (whose handlers read everything else) is destroyed first.
 */
class MonitorRig
{
  public:
    MonitorRig(const Options &opts, MonitorLayers *layers,
               TrainLayers *train, Report &report)
        : board_(gpu::DeviceKind::GtxTitanX), dev_(board_, opts.seed + 7),
          layers_(layers)
    {
        obs::Registry::global().reset();
        obs::registerStandardMetrics();
        const auto &desc = board_.descriptor();

        // Train in-process, as the daemon does.
        model::CampaignOptions copts;
        copts.power_repetitions = 3;
        copts.seed = opts.seed;
        auto fit = trainModel(board_, ubench::buildSuite(), copts,
                              train ? &train->timings : nullptr);
        report.attempt();
        if (!fit.ok()) {
            report.fail("monitor model fit failed: " +
                        fit.error().message);
            std::exit(1);
        }
        iterations_ = fit.value().iterations;
        if (train)
            train->iterations = iterations_;
        model_ = fit.value().model;
        predictor_ = std::make_unique<model::Predictor>(model_);

        // Profile once at the reference configuration; schedule each
        // app at its slowest, reference and fastest configuration.
        const auto configs = desc.allConfigs();
        const auto ref = desc.referenceConfig();
        const std::vector<gpu::FreqConfig> points{configs.front(), ref,
                                                  configs.back()};
        std::vector<obs::SchedulePoint> schedule;
        cupti::Profiler profiler(board_, opts.seed + 11);
        for (const auto &w : workloads::fullValidationSet()) {
            const auto rm = profiler.profile(w.demand, ref);
            utils_[w.name] = model::utilizationsFromMetrics(rm, desc, ref);
            demands_[w.name] = w.demand;
            for (const auto &cfg : points)
                schedule.push_back({w.name, cfg});
        }
        round_ticks_ = static_cast<long>(schedule.size());
        drift_from_ = 400 + static_cast<long>(opts.seed % 400);

        // Observability stack of the daemon, at `gpupm monitor`'s
        // defaults: 250 ms period, 64-tick rolling MAE, and the drift
        // rule at 5 pp over a 30 s window, 10 s pending, 30 s cooldown.
        engine_ = std::make_unique<obs::AlertEngine>(
                tsdb_,
                std::vector<obs::AlertRule>{obs::makeDriftRule(
                        "titanx", 5.0, 30'000'000, 10'000'000,
                        30'000'000)},
                &recorder_);
        obs::SamplerOptions sopts;
        period_us_ = std::int64_t{sopts.period_ms} * 1000;
        sopts.device = static_cast<int>(desc.kind);
        sopts.device_name = desc.name;
        sopts.reference = ref;
        sampler_ = std::make_unique<obs::Sampler>(
                [this](const std::string &app, const gpu::FreqConfig &cfg) {
                    return probe(app, cfg);
                },
                std::move(schedule), sopts, &recorder_, &tsdb_,
                engine_.get());

        auto &tracer = obs::Tracer::global();
        tracer.seedIds(opts.seed);
        tracer.attachStore(&store_);
        tracer.setRetainEvents(false);
        tracer.enable();

        server_.route("/metrics", [this](const obs::HttpRequest &) {
            return timed("metrics", [] {
                obs::HttpResponse resp;
                resp.content_type =
                        "text/plain; version=0.0.4; charset=utf-8";
                resp.body = obs::Registry::global().renderPrometheus();
                return resp;
            });
        });
        server_.route("/api/query", [this](const obs::HttpRequest &req) {
            return timed("query", [&] { return query(req); });
        });
        server_.route("/api/traces", [this](const obs::HttpRequest &req) {
            return timed("traces", [&] {
                obs::TraceQuery q;
                const long limit =
                        std::atol(queryParam(req.query, "limit").c_str());
                if (limit > 0)
                    q.limit = static_cast<std::size_t>(limit);
                obs::HttpResponse resp;
                resp.content_type = "application/json";
                resp.body = store_.renderJson(q);
                return resp;
            });
        });
        std::string err;
        if (!server_.start(0, &err)) {
            report.fail("cannot start the HTTP server: " + err);
            std::exit(1);
        }
    }

    ~MonitorRig()
    {
        server_.stop();
        auto &tracer = obs::Tracer::global();
        tracer.disable();
        tracer.attachStore(nullptr);
        tracer.setRetainEvents(true);
    }

    MonitorRig(const MonitorRig &) = delete;
    MonitorRig &operator=(const MonitorRig &) = delete;

    /** Toggle the probe's layer timers (traced blocks only). */
    void setLayerTiming(bool on) { layer_timing_ = on; }

    obs::Sampler &sampler() { return *sampler_; }
    obs::Tsdb &tsdb() { return tsdb_; }
    obs::TraceStore &store() { return store_; }
    obs::AlertEngine &engine() { return *engine_; }
    int port() const { return server_.port(); }
    int iterations() const { return iterations_; }
    long driftFrom() const { return drift_from_; }
    double lastProbeUs() const { return last_probe_us_; }
    long roundTicks() const { return round_ticks_; }
    std::int64_t periodUs() const { return period_us_; }

    /** Live MAE of every tick outside the drift window, percent. */
    double maePct() const
    {
        return mae_n_ ? 100.0 * mae_sum_ / static_cast<double>(mae_n_)
                      : 0.0;
    }

  private:
    obs::MonitorSample probe(const std::string &app,
                             const gpu::FreqConfig &cfg)
    {
        const bool timing = layer_timing_;
        const auto t0 = timing ? Clock::now() : Clock::time_point{};
        obs::MonitorSample s;
        s.app = app;
        s.cfg = cfg;
        dev_.setApplicationClocks(cfg.mem_mhz, cfg.core_mhz);
        s.measured_w = dev_.measureKernelPower(demands_.at(app), 2, 0.05)
                               .power_w;
        const long tick = tick_++;
        const bool drifting =
                tick >= drift_from_ && tick < drift_from_ + kDriftTicks;
        if (drifting)
            s.measured_w *= kDriftScale;
        const auto &util = utils_.at(app);
        if (timing) {
            const auto p0 = Clock::now();
            s.predicted_w = predictor_->at(util, cfg).total_w;
            const auto p1 = Clock::now();
            layers_->at_ns.add(usBetween(p0, p1) * 1000.0);
            ++layers_->predictor_calls;
            last_probe_us_ = usBetween(t0, p1);
            layers_->probe_us.add(last_probe_us_);
        } else {
            s.predicted_w = predictor_->at(util, cfg).total_w;
        }
        if (!drifting) {
            mae_sum_ += std::abs(s.predicted_w - s.measured_w) /
                        s.measured_w;
            ++mae_n_;
        }
        return s;
    }

    obs::HttpResponse query(const obs::HttpRequest &req) const
    {
        obs::HttpResponse resp;
        resp.content_type = "application/json";
        obs::TsQuery q;
        q.series = queryParam(req.query, "series");
        q.end_us = tsdb_.latestTimestamp();
        if (q.series.empty() ||
            q.end_us == std::numeric_limits<std::int64_t>::min()) {
            resp.status = 404;
            resp.body = "{\"ok\":false}\n";
            return resp;
        }
        q.start_us = q.end_us - 60'000'000;
        q.step_us = 1'000'000;
        const obs::TsQueryResult res = tsdb_.query(q);
        if (!res.ok)
            resp.status = 404;
        resp.body = res.toJson(q.series) + "\n";
        return resp;
    }

    template <typename F>
    obs::HttpResponse timed(const char *endpoint, F &&handler)
    {
        if (!layers_)
            return handler();
        const auto t0 = Clock::now();
        obs::HttpResponse resp = handler();
        const double us = usBetween(t0, Clock::now());
        std::lock_guard<std::mutex> lock(layers_->http_mu);
        layers_->handler_us[endpoint].add(us);
        layers_->handler_in_order_us.push_back(us);
        if (std::string(endpoint) == "metrics")
            layers_->metrics_bytes.add(
                    static_cast<double>(resp.body.size()));
        return resp;
    }

    sim::PhysicalGpu board_;
    nvml::Device dev_;
    MonitorLayers *layers_;
    model::DvfsPowerModel model_;
    std::unique_ptr<model::Predictor> predictor_;
    std::map<std::string, gpu::ComponentArray> utils_;
    std::map<std::string, sim::KernelDemand> demands_;
    int iterations_ = 0;
    long round_ticks_ = 0;
    std::int64_t period_us_ = 0;
    long drift_from_ = 0;
    long tick_ = 0;
    bool layer_timing_ = false;
    double last_probe_us_ = 0.0;
    double mae_sum_ = 0.0;
    long mae_n_ = 0;

    obs::FlightRecorder recorder_{256};
    obs::TraceStore store_;
    obs::Tsdb tsdb_;
    std::unique_ptr<obs::AlertEngine> engine_;
    std::unique_ptr<obs::Sampler> sampler_;
    obs::HttpServer server_;
};

/** Owns a socket descriptor. */
struct Socket
{
    int fd;
    explicit Socket(int f) : fd(f) {}
    ~Socket()
    {
        if (fd >= 0)
            ::close(fd);
    }
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;
};

/** GET over loopback; the HTTP status, or 0 on a transport error. */
int
httpGet(int port, const std::string &target)
{
    Socket s(::socket(AF_INET, SOCK_STREAM, 0));
    if (s.fd < 0)
        return 0;
    timeval tv{5, 0};
    ::setsockopt(s.fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(s.fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(s.fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0)
        return 0;
    const std::string req = "GET " + target +
                            " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                            "Connection: close\r\n\r\n";
    for (std::size_t off = 0; off < req.size();) {
        const ssize_t n =
                ::send(s.fd, req.data() + off, req.size() - off, 0);
        if (n <= 0)
            return 0;
        off += static_cast<std::size_t>(n);
    }
    std::string head;
    char buf[16384];
    for (;;) {
        const ssize_t n = ::recv(s.fd, buf, sizeof buf, 0);
        if (n < 0)
            return 0;
        if (n == 0)
            break;
        if (head.size() < 32)
            head.append(buf, static_cast<std::size_t>(n));
    }
    if (head.rfind("HTTP/1.", 0) != 0 || head.size() < 12)
        return 0;
    return std::atoi(head.c_str() + 9);
}

/**
 * Open-loop scraper: requests due at a fixed rate, cycling through the
 * paths, until stopped. Each is timed from when it was due, so a
 * stalled server also delays the requests queued behind it.
 */
struct Scraper
{
    Samples latency_ms;    ///< completion minus due time
    Samples round_trip_us; ///< completion minus send time
    double late_ms_max = 0.0;
    long requests = 0;
    long failures = 0;

    void run(int port, const std::atomic<bool> &stop)
    {
        const auto start = Clock::now();
        const auto period = std::chrono::duration<double>(
                1.0 / kScrapesPerSecond);
        for (long j = 0; !stop.load(std::memory_order_relaxed); ++j) {
            const auto due =
                    start + std::chrono::duration_cast<Clock::duration>(
                                    period * static_cast<double>(j));
            std::this_thread::sleep_until(due);
            if (stop.load(std::memory_order_relaxed))
                break;
            const auto sent = Clock::now();
            const int status = httpGet(port, kScrapePaths[j % 3]);
            const auto done = Clock::now();
            ++requests;
            if (status != 200)
                ++failures;
            latency_ms.add(usBetween(due, done) / 1000.0);
            round_trip_us.add(usBetween(sent, done));
            late_ms_max = std::max(late_ms_max,
                                   usBetween(due, sent) / 1000.0);
        }
    }
};

/** Exactly one Firing and one Resolved transition, not firing now. */
bool
driftLifecycleOnce(const obs::AlertEngine &engine)
{
    const auto statuses = engine.snapshot();
    if (statuses.size() != 1)
        return false;
    int fired = 0, resolved = 0;
    for (const auto &tr : statuses[0].history) {
        fired += tr.state == obs::AlertState::Firing;
        resolved += tr.state == obs::AlertState::Resolved;
    }
    return fired == 1 && resolved == 1 &&
           statuses[0].state != obs::AlertState::Firing;
}

} // namespace

void
runMonitor(const Options &opts, Report &report)
{
    // Set-up: train, profile, schedule, wire the stack and start the
    // server, several times before and after the timed loop; the
    // median is the set-up cost.
    Samples setup_s;
    std::vector<TrainLayers> train(kSetupsBefore + kSetupsAfter);
    // Only the traced run keeps layer samples, so the untraced run's
    // resident set is the program's alone.
    const auto layers =
            opts.trace ? std::make_unique<MonitorLayers>() : nullptr;
    std::unique_ptr<MonitorRig> rig;
    int iterations = -1;
    const auto setUp = [&](int i) {
        rig.reset();
        const auto t0 = Clock::now();
        rig = std::make_unique<MonitorRig>(
                opts, layers.get(), opts.trace ? &train[i] : nullptr,
                report);
        setup_s.add(secondsBetween(t0, Clock::now()));
        if (iterations >= 0 && rig->iterations() != iterations)
            report.fail("monitor fit iterations differ between set-ups");
        iterations = rig->iterations();
    };
    for (int i = 0; i < kSetupsBefore; ++i)
        setUp(i);

    std::size_t tsdb_high = 0, store_high = 0;
    std::atomic<bool> stop{false};
    Scraper scraper;
    std::thread scrape_thread(
            [&] { scraper.run(rig->port(), stop); });

    // The unit of work is one round of the schedule (every app at its
    // three configurations): single ticks are bimodal (the tick cost
    // depends on the trace store's eviction state), rounds are not.
    // The traced run alternates blocks of kBlockRounds rounds with the
    // layer timers off and on.
    const long round_ticks = rig->roundTicks();
    Samples untraced_ms, traced_ms;
    const auto start = Clock::now();
    // The drift rule needs up to a window plus the cooldown after the
    // drift ends to resolve.
    const long drift_end_tick =
            rig->driftFrom() + kDriftTicks +
            2 * 60'000'000 / rig->periodUs();
    long ticks = 0;
    double round_us = 0.0;
    Clock::time_point now = start;
    Samples cpu_ms;
    const double cpu_start = threadCpuSeconds();
    double round_cpu0 = cpu_start;
    for (;; ++ticks) {
        const long round = ticks / round_ticks;
        const bool timed_layers = opts.trace && (round / kBlockRounds) % 2;
        rig->setLayerTiming(timed_layers);
        const auto t0 = Clock::now();
        rig->sampler().tickSynchronously((ticks + 1) * rig->periodUs());
        now = Clock::now();
        const double us = usBetween(t0, now);
        round_us += us;
        if (timed_layers)
            layers->tick_self_us.add(us - rig->lastProbeUs());
        if ((ticks + 1) % round_ticks != 0)
            continue;
        (timed_layers ? traced_ms : untraced_ms).add(round_us / 1000.0);
        {
            const double c = threadCpuSeconds();
            cpu_ms.add((c - round_cpu0) * 1000.0);
            round_cpu0 = c;
        }
        round_us = 0.0;
        tsdb_high = std::max(tsdb_high, rig->tsdb().memoryBytes());
        store_high = std::max(store_high, rig->store().memoryBytes());
        // Run at least through the drift lifecycle.
        if (ticks > drift_end_tick &&
            secondsBetween(start, now) >= opts.seconds &&
            (!opts.trace || !traced_ms.empty()))
            break;
    }
    ++ticks;
    const double loop_s = secondsBetween(start, now);
    const double loop_cpu_s = threadCpuSeconds() - cpu_start;
    {
        const auto &v = untraced_ms.values();
        std::cerr << "WIN";
        for (std::size_t i = 0; i + 200 <= v.size(); i += 200) {
            Samples w;
            for (std::size_t k = i; k < i + 200; ++k)
                w.add(v[k]);
            std::cerr << " " << w.p50();
        }
        std::cerr << "\n";
    }
    std::cout << "EXP wall_p50=" << untraced_ms.p50()
              << " wall_p90=" << untraced_ms.quantile(0.9)
              << " wall_p10=" << untraced_ms.quantile(0.1)
              << " cpu_p50=" << cpu_ms.p50()
              << " cpu_p90=" << cpu_ms.quantile(0.9)
              << " cpu_p10=" << cpu_ms.quantile(0.1)
              << " tps_wall=" << ticks / loop_s
              << " tps_cpu=" << ticks / loop_cpu_s
              << " read_p50=" << 0 << "\n";
    stop.store(true);
    scrape_thread.join();
    tsdb_high = std::max(tsdb_high, rig->tsdb().memoryBytes());
    store_high = std::max(store_high, rig->store().memoryBytes());

    report.attempt(ticks + scraper.requests);
    if (scraper.failures > 0)
        report.fail(std::to_string(scraper.failures) +
                            " scrape(s) did not return 200",
                    scraper.failures);
    if (scraper.requests == 0)
        report.fail("the scraper sent no request");
    if (!driftLifecycleOnce(rig->engine()))
        report.fail("the drift rule did not fire and resolve exactly once");
    if (store_high > rig->store().memoryBoundBytes())
        report.fail("trace store exceeded its byte bound (" +
                    std::to_string(store_high) + " > " +
                    std::to_string(rig->store().memoryBoundBytes()) + ")");

    std::cout << "monitor: " << ticks << " ticks, " << scraper.requests
              << " scrapes\n";

    // What the traced run reads off the rig, before the last set-ups
    // replace it.
    const double mae_pct = rig->maePct();
    const double store_offered =
            static_cast<double>(rig->store().offeredTotal());
    const double store_evicted =
            static_cast<double>(rig->store().evictedTotal());
    const double tsdb_points =
            static_cast<double>(rig->tsdb().pointsAppended());
    const double tsdb_series =
            static_cast<double>(rig->tsdb().seriesCount());
    for (int i = kSetupsBefore; i < kSetupsBefore + kSetupsAfter; ++i)
        setUp(i);
    std::cout << "deterministic: monitor seed " << opts.seed
              << " fit_iterations=" << iterations << " drift_from_tick="
              << rig->driftFrom() << "\n";

    dumpSamples("units", untraced_ms.values());
    dumpSamples("reads", scraper.latency_ms.values());
    dumpSamples("rtt", scraper.round_trip_us.values());
    dumpSamples("setups", setup_s.values());
    report.set("setup_s", setup_s.p50());
    report.set("work_ms_p90", untraced_ms.quantile(0.9));
    report.set("work_per_s", static_cast<double>(ticks) / loop_s);
    report.set("mae_pct", mae_pct);
    report.set("read_ms_p50", scraper.latency_ms.p50());

    if (!opts.trace)
        return;
    Samples campaign_ms, estimator_ms, share_pct, init_ms, iter_ms,
            profile_us, measure_us;
    for (const TrainLayers &t : train) {
        campaign_ms.add(t.timings.campaign_ms);
        estimator_ms.add(t.timings.estimator_ms);
        share_pct.add(100.0 * t.timings.estimator_ms /
                      (t.timings.campaign_ms + t.timings.estimator_ms));
        init_ms.add(t.timings.init_ms);
        for (double v : t.timings.iter_ms.values())
            iter_ms.add(v);
        for (double v : t.timings.backend.profile_us.values())
            profile_us.add(v);
        for (double v : t.timings.backend.measure_us.values())
            measure_us.add(v);
    }
    const TrainLayers &one = train.front();
    report.set("core.campaign.pass_ms", campaign_ms.p50());
    report.set("cupti.profile_calls",
               static_cast<double>(one.timings.backend.profile_us.size()));
    report.set("cupti.profile_us_p50", profile_us.p50());
    report.set("nvml.measure_calls",
               static_cast<double>(one.timings.backend.measure_us.size()));
    report.set("nvml.measure_us_p50", measure_us.p50());
    report.set("nvml.idle_calls", static_cast<double>(one.timings.backend.idle_calls));
    report.set("core.estimator.pass_ms", estimator_ms.p50());
    report.set("core.estimator.share_pct", share_pct.p50());
    report.set("core.estimator.init_ms", init_ms.p50());
    report.set("core.estimator.iter_ms_p50", iter_ms.p50());
    report.set("core.estimator.iterations_titanx", one.iterations);
    report.set("core.predictor.calls",
               static_cast<double>(layers->predictor_calls));
    report.set("core.predictor.at_ns_p50", layers->at_ns.p50());
    report.set("monitor.probe_us_p50", layers->probe_us.p50());
    report.set("obs.tick_self_us_p50", layers->tick_self_us.p50());
    report.set("obs.tick_self_us_p99", layers->tick_self_us.quantile(0.99));
    report.set("obs.trace_store.offered", store_offered);
    report.set("obs.trace_store.evicted", store_evicted);
    report.set("obs.trace_store.high_water_bytes",
               static_cast<double>(store_high));
    report.set("obs.tsdb.points", tsdb_points);
    report.set("obs.tsdb.series", tsdb_series);
    report.set("obs.tsdb.high_water_bytes", static_cast<double>(tsdb_high));

    // Server and client both run one request at a time, in order, so
    // the i-th handler call served the i-th request.
    Samples overhead_us;
    {
        std::lock_guard<std::mutex> lock(layers->http_mu);
        const auto &rt = scraper.round_trip_us.values();
        const std::size_t n =
                std::min(rt.size(), layers->handler_in_order_us.size());
        for (std::size_t i = 0; i < n; ++i)
            overhead_us.add(rt[i] - layers->handler_in_order_us[i]);
        report.set("obs.http.metrics_handler_us_p50",
                   layers->handler_us["metrics"].p50());
        report.set("obs.http.query_handler_us_p50",
                   layers->handler_us["query"].p50());
        report.set("obs.http.traces_handler_us_p50",
                   layers->handler_us["traces"].p50());
        report.set("obs.http.metrics_bytes", layers->metrics_bytes.p50());
    }
    report.set("obs.http.overhead_us_p50", overhead_us.p50());
    report.set("monitor.scrape_late_ms_max", scraper.late_ms_max);
    report.set("bench.trace_overhead_pct",
               100.0 * (traced_ms.p50() - untraced_ms.p50()) /
                       untraced_ms.p50());
}

} // namespace perfbench
