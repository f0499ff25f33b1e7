#include "live.hh"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "common/numio.hh"
#include "obs/metrics.hh"
#include "obs/standard.hh"

namespace gpupm
{
namespace obs
{

std::vector<std::pair<std::string, std::string>>
queryParams(std::string_view query)
{
    std::vector<std::pair<std::string, std::string>> params;
    while (!query.empty()) {
        const std::string_view kv = query.substr(0, query.find('&'));
        query.remove_prefix(std::min(kv.size() + 1, query.size()));
        if (kv.empty())
            continue;
        const auto eq = kv.find('=');
        params.emplace_back(kv.substr(0, eq),
                            eq == std::string_view::npos
                                    ? std::string_view()
                                    : kv.substr(eq + 1));
    }
    return params;
}

void
serveData(HttpServer &server, const Tsdb &tsdb, const TraceStore &store,
          std::function<void()> refresh)
{
    server.route("/metrics", [refresh](const HttpRequest &) {
        touchProcessMetrics();
        refresh();
        return HttpResponse{200,
                            "text/plain; version=0.0.4; charset=utf-8",
                            Registry::global().renderPrometheus()};
    });
    server.route("/api/query", [&tsdb](const HttpRequest &req) {
        std::string series;
        double range_s = 60.0;
        double step_s = 1.0;
        long start_us = -1;
        long end_us = -1;
        bool bad = false;
        for (const auto &[key, val] : queryParams(req.query)) {
            if (key == "series") {
                series = val;
            } else if (key == "range") {
                range_s = numio::parseDuration(val);
                bad = bad || range_s < 0.0;
            } else if (key == "step") {
                step_s = numio::parseDuration(val);
                bad = bad || step_s <= 0.0;
            } else if (key == "start_us") {
                bad = bad || !numio::parseLong(val, start_us);
            } else if (key == "end_us") {
                bad = bad || !numio::parseLong(val, end_us);
            }
        }
        if (series.empty() || bad)
            return HttpResponse{
                    400, kJson,
                    "{\"ok\":false,\"error\":\"usage: /api/query"
                    "?series=<name>&range=60s&step=1s (or "
                    "start_us/end_us)\"}\n"};
        TsQuery q;
        q.series = series;
        q.end_us = end_us >= 0 ? end_us : tsdb.latestTimestamp();
        if (q.end_us == std::numeric_limits<std::int64_t>::min())
            return HttpResponse{
                    404, kJson,
                    "{\"ok\":false,\"error\":\"store is empty\"}\n"};
        q.start_us = start_us >= 0
                             ? start_us
                             : q.end_us - static_cast<std::int64_t>(
                                                  range_s * 1e6);
        q.step_us = static_cast<std::int64_t>(step_s * 1e6);
        const TsQueryResult res = tsdb.query(q);
        return HttpResponse{res.ok ? 200 : 404, kJson,
                            res.toJson(series) + "\n"};
    });
    server.route("/api/traces", [&store](const HttpRequest &req) {
        TraceQuery q;
        bool bad = false;
        for (const auto &[key, val] : queryParams(req.query)) {
            if (key == "category") {
                q.category = val;
            } else if (key == "min_ms") {
                double ms = 0.0;
                const bool ok = numio::parseDouble(val, ms) &&
                                ms >= 0.0 &&
                                ms <= numio::kMaxSeconds * 1e3;
                bad = bad || !ok;
                if (ok)
                    q.min_dur_us = static_cast<std::int64_t>(ms * 1e3);
            } else if (key == "error") {
                bad = bad || (val != "0" && val != "1");
                q.error_only = val == "1";
            } else if (key == "trace_id") {
                char *end = nullptr;
                q.trace_id = std::strtoull(val.c_str(), &end, 16);
                bad = bad || val.empty() || *end != '\0' ||
                      q.trace_id == 0;
            } else if (key == "limit") {
                long n = 0;
                bad = bad || !numio::parseLong(val, n) || n <= 0;
                q.limit = static_cast<std::size_t>(n > 0 ? n : 1);
            } else {
                bad = true;
            }
        }
        if (bad)
            return HttpResponse{
                    400, kJson,
                    "{\"ok\":false,\"error\":\"usage: "
                    "/api/traces?category=<cat>&min_ms=<ms>&"
                    "error=1&trace_id=<hex>&limit=<n>\"}\n"};
        return HttpResponse{200, kJson, store.renderJson(q)};
    });
}

} // namespace obs
} // namespace gpupm
