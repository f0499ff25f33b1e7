/**
 * @file
 * gpupm_trace_check: validator for the observability artifacts the
 * gpupm CLI emits, so tests (and scripts) can assert on them without
 * a Python or jq dependency.
 *
 *   gpupm_trace_check trace <t.json> [cat...]
 *       Parse a Chrome trace-event JSON file and structurally
 *       validate every event (complete "X" phase, non-negative
 *       timestamps and durations, name/cat present). Extra arguments
 *       are span categories that must appear at least once. When
 *       spans carry trace IDs (DESIGN.md §15) their referential
 *       integrity is validated too: span IDs globally unique, every
 *       parent resolving inside the same trace, exactly one root per
 *       trace (span ID == trace ID), and children nested inside
 *       their parent's timespan.
 *
 *   gpupm_trace_check summary <t.json>
 *       Per-category wall-clock table: span count, union wall-clock
 *       of the category's spans (overlap-merged, so nesting does not
 *       double-count), and the longest single span.
 *
 *   gpupm_trace_check metrics <m.prom> [name...]
 *       Validate Prometheus text exposition format line by line.
 *       Extra arguments are metric names that must be exposed.
 *
 *   gpupm_trace_check convergence <c.csv>
 *       Validate an estimator convergence CSV: expected header,
 *       iterations numbered 0..n without gaps, finite fields, and
 *       SSE non-increasing from the first real iteration on.
 *
 * Exit status: 0 valid, 1 validation failure, 2 usage.
 */

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/numio.hh"
#include "common/table.hh"

namespace
{

using namespace gpupm;
using json::Value;

/** Slurp a file; diagnoses open failures on stderr. */
bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
        return false;
    }
    std::ostringstream os;
    os << in.rdbuf();
    out = os.str();
    return true;
}

// -- trace -----------------------------------------------------------

/** One span's checked essentials, for summary and validation. */
struct Span
{
    std::string cat;
    double ts = 0.0;
    double dur = 0.0;
    unsigned long long trace_id = 0; ///< 0 when the file has no IDs
    unsigned long long span_id = 0;
    unsigned long long parent_span_id = 0;
};

/** Parse a 16-digit lowercase-hex ID string; 0 on malformed input. */
unsigned long long
parseHexId(const std::string &s)
{
    if (s.size() != 16)
        return 0;
    unsigned long long v = 0;
    for (char c : s) {
        v <<= 4;
        if (c >= '0' && c <= '9')
            v |= static_cast<unsigned long long>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= static_cast<unsigned long long>(c - 'a' + 10);
        else
            return 0;
    }
    return v;
}

/** Parse + structurally validate a trace file. */
bool
loadTrace(const std::string &path, std::vector<Span> &spans)
{
    std::string text;
    if (!readFile(path, text))
        return false;
    Value root;
    json::Error err;
    if (!json::parse(text, root, err)) {
        std::fprintf(stderr, "%s: invalid JSON: %s\n", path.c_str(),
                     err.message().c_str());
        return false;
    }
    if (root.kind != Value::Kind::Object) {
        std::fprintf(stderr, "%s: top level is not an object\n",
                     path.c_str());
        return false;
    }
    const Value *events = root.find("traceEvents");
    if (!events || events->kind != Value::Kind::Array) {
        std::fprintf(stderr, "%s: missing traceEvents array\n",
                     path.c_str());
        return false;
    }
    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const Value &ev = events->array[i];
        auto bad = [&](const char *what) {
            std::fprintf(stderr, "%s: event %zu: %s\n", path.c_str(),
                         i, what);
            return false;
        };
        if (ev.kind != Value::Kind::Object)
            return bad("not an object");
        const Value *name = ev.find("name");
        const Value *cat = ev.find("cat");
        const Value *ph = ev.find("ph");
        const Value *ts = ev.find("ts");
        const Value *dur = ev.find("dur");
        if (!name || name->kind != Value::Kind::String ||
            name->str.empty())
            return bad("missing name");
        if (!cat || cat->kind != Value::Kind::String ||
            cat->str.empty())
            return bad("missing cat");
        if (!ph || ph->str != "X")
            return bad("phase is not 'X' (complete event)");
        if (!ts || ts->kind != Value::Kind::Number ||
            !(ts->number >= 0))
            return bad("bad ts");
        if (!dur || dur->kind != Value::Kind::Number ||
            !(dur->number >= 0))
            return bad("bad dur");
        Span span;
        span.cat = cat->str;
        span.ts = ts->number;
        span.dur = dur->number;
        // Correlation IDs travel as 16-hex-digit strings; a span
        // either carries a (trace, span) pair or neither.
        const Value *tid_v = ev.find("trace_id");
        const Value *sid_v = ev.find("span_id");
        const Value *pid_v = ev.find("parent_span_id");
        if (tid_v || sid_v || pid_v) {
            if (!tid_v || tid_v->kind != Value::Kind::String ||
                !(span.trace_id = parseHexId(tid_v->str)))
                return bad("bad trace_id");
            if (!sid_v || sid_v->kind != Value::Kind::String ||
                !(span.span_id = parseHexId(sid_v->str)))
                return bad("bad span_id");
            if (pid_v) {
                if (pid_v->kind != Value::Kind::String ||
                    !(span.parent_span_id = parseHexId(pid_v->str)))
                    return bad("bad parent_span_id");
            }
        }
        spans.push_back(std::move(span));
    }
    return true;
}

/**
 * Referential integrity of the span IDs in a trace dump. A file with
 * no IDs at all (pre-correlation artifact) passes vacuously.
 */
bool
checkTraceIds(const std::string &path, const std::vector<Span> &spans)
{
    std::map<unsigned long long, const Span *> by_span_id;
    for (const auto &s : spans) {
        if (!s.trace_id)
            continue;
        if (!by_span_id.emplace(s.span_id, &s).second) {
            std::fprintf(stderr,
                         "%s: duplicate span id %016llx\n",
                         path.c_str(), s.span_id);
            return false;
        }
    }
    if (by_span_id.empty()) {
        std::printf("%s: no trace ids (pre-correlation artifact)\n",
                    path.c_str());
        return true;
    }
    std::map<unsigned long long, long> roots_per_trace;
    for (const auto &kv : by_span_id) {
        const Span &s = *kv.second;
        if (s.parent_span_id == 0) {
            if (s.span_id != s.trace_id) {
                std::fprintf(stderr,
                             "%s: root span %016llx does not name "
                             "its trace %016llx\n",
                             path.c_str(), s.span_id, s.trace_id);
                return false;
            }
            ++roots_per_trace[s.trace_id];
            continue;
        }
        const auto parent = by_span_id.find(s.parent_span_id);
        if (parent == by_span_id.end()) {
            std::fprintf(stderr,
                         "%s: span %016llx has orphan parent "
                         "%016llx\n",
                         path.c_str(), s.span_id, s.parent_span_id);
            return false;
        }
        const Span &p = *parent->second;
        if (p.trace_id != s.trace_id) {
            std::fprintf(stderr,
                         "%s: span %016llx (trace %016llx) has "
                         "parent in trace %016llx\n",
                         path.c_str(), s.span_id, s.trace_id,
                         p.trace_id);
            return false;
        }
        if (s.ts < p.ts || s.ts + s.dur > p.ts + p.dur) {
            std::fprintf(stderr,
                         "%s: span %016llx [%g, %g) escapes parent "
                         "%016llx [%g, %g)\n",
                         path.c_str(), s.span_id, s.ts, s.ts + s.dur,
                         p.span_id, p.ts, p.ts + p.dur);
            return false;
        }
    }
    long traces = 0;
    for (const auto &kv : by_span_id) {
        const Span &s = *kv.second;
        const auto it = roots_per_trace.find(s.trace_id);
        const long n = it == roots_per_trace.end() ? 0 : it->second;
        if (n != 1) {
            std::fprintf(stderr,
                         "%s: trace %016llx has %ld roots "
                         "(expected exactly 1)\n",
                         path.c_str(), s.trace_id, n);
            return false;
        }
    }
    traces = static_cast<long>(roots_per_trace.size());
    std::printf("%s: %zu correlated spans across %ld traces, ids "
                "consistent\n",
                path.c_str(), by_span_id.size(), traces);
    return true;
}

int
cmdTrace(const std::string &path,
         const std::vector<std::string> &required)
{
    std::vector<Span> spans;
    if (!loadTrace(path, spans))
        return 1;
    if (!checkTraceIds(path, spans))
        return 1;
    std::map<std::string, long> per_cat;
    for (const auto &s : spans)
        ++per_cat[s.cat];
    for (const auto &cat : required) {
        if (!per_cat.count(cat)) {
            std::fprintf(stderr,
                         "%s: required span category '%s' absent\n",
                         path.c_str(), cat.c_str());
            return 1;
        }
    }
    std::printf("%s: %zu spans, %zu categories:", path.c_str(),
                spans.size(), per_cat.size());
    for (const auto &kv : per_cat)
        std::printf(" %s=%ld", kv.first.c_str(), kv.second);
    std::printf("\n");
    return 0;
}

/**
 * Wall-clock of a set of spans: union of their [ts, ts+dur)
 * intervals, so nested and overlapping spans are not double-counted.
 */
double
unionUs(std::vector<std::pair<double, double>> &ivals)
{
    std::sort(ivals.begin(), ivals.end());
    double total = 0.0, lo = 0.0, hi = -1.0;
    for (const auto &iv : ivals) {
        if (iv.first > hi) {
            if (hi > lo)
                total += hi - lo;
            lo = iv.first;
            hi = iv.first + iv.second;
        } else {
            hi = std::max(hi, iv.first + iv.second);
        }
    }
    if (hi > lo)
        total += hi - lo;
    return total;
}

int
cmdSummary(const std::string &path)
{
    std::vector<Span> spans;
    if (!loadTrace(path, spans))
        return 1;
    std::map<std::string,
             std::vector<std::pair<double, double>>> per_cat;
    std::map<std::string, double> longest;
    for (const auto &s : spans) {
        per_cat[s.cat].emplace_back(s.ts, s.dur);
        longest[s.cat] = std::max(longest[s.cat], s.dur);
    }
    TextTable t({"category", "spans", "wall-clock ms", "longest ms"});
    t.setTitle("per-category wall-clock (from " + path + ")");
    for (auto &kv : per_cat)
        t.addRow({kv.first, std::to_string(kv.second.size()),
                  TextTable::num(unionUs(kv.second) / 1000.0, 2),
                  TextTable::num(longest[kv.first] / 1000.0, 2)});
    t.print(std::cout);
    return 0;
}

// -- metrics ---------------------------------------------------------

int
cmdMetrics(const std::string &path,
           const std::vector<std::string> &required)
{
    std::string text;
    if (!readFile(path, text))
        return 1;
    std::istringstream in(text);
    std::string line;
    std::set<std::string> exposed;
    long lineno = 0, samples = 0;
    auto bad = [&](const char *what) {
        std::fprintf(stderr, "%s:%ld: %s: %s\n", path.c_str(), lineno,
                     what, line.c_str());
        return 1;
    };
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            // "# HELP <name> <text>" / "# TYPE <name> <kind>"
            std::istringstream ls(line);
            std::string hash, verb, name;
            ls >> hash >> verb >> name;
            if (verb != "HELP" && verb != "TYPE")
                return bad("unknown comment verb");
            if (name.empty())
                return bad("comment without metric name");
            if (verb == "TYPE") {
                std::string kind;
                ls >> kind;
                if (kind != "counter" && kind != "gauge" &&
                    kind != "histogram")
                    return bad("unknown metric type");
            }
            continue;
        }
        // "<name>[{labels}] <value>[ # {labels} <exemplar-value>]"
        std::string sample = line;
        const auto ex = line.find(" # ");
        if (ex != std::string::npos) {
            // OpenMetrics-style exemplar after the sample value:
            // validate its shape, then strip it.
            const std::string exemplar = line.substr(ex + 3);
            const auto close = exemplar.find('}');
            double exv = 0.0;
            if (exemplar.empty() || exemplar[0] != '{' ||
                close == std::string::npos ||
                close + 2 >= exemplar.size() ||
                exemplar[close + 1] != ' ' ||
                !numio::parseDouble(exemplar.substr(close + 2), exv))
                return bad("malformed exemplar");
            sample = line.substr(0, ex);
        }
        const auto sp = sample.rfind(' ');
        if (sp == std::string::npos)
            return bad("sample without value");
        double v = 0.0;
        std::string val = sample.substr(sp + 1);
        if (val != "+Inf" && !numio::parseDouble(val, v))
            return bad("unparseable sample value");
        std::string name = sample.substr(0, sp);
        const auto brace = name.find('{');
        if (brace != std::string::npos) {
            if (name.back() != '}')
                return bad("unterminated label set");
            name = name.substr(0, brace);
        }
        if (name.empty())
            return bad("sample without name");
        ++samples;
        // Strip histogram-series suffixes so `foo` covers
        // foo_bucket / foo_sum / foo_count.
        for (const char *suffix : {"_bucket", "_sum", "_count"}) {
            const std::string s(suffix);
            if (name.size() > s.size() &&
                name.compare(name.size() - s.size(), s.size(), s) ==
                        0)
                exposed.insert(name.substr(0, name.size() - s.size()));
        }
        exposed.insert(name);
    }
    for (const auto &name : required) {
        if (!exposed.count(name)) {
            std::fprintf(stderr,
                         "%s: required metric '%s' absent\n",
                         path.c_str(), name.c_str());
            return 1;
        }
    }
    std::printf("%s: %ld samples, %zu metric names\n", path.c_str(),
                samples, exposed.size());
    return 0;
}

// -- convergence -----------------------------------------------------

int
cmdConvergence(const std::string &path)
{
    std::string text;
    if (!readFile(path, text))
        return 1;
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line) ||
        line !=
                "iteration,sse,delta_sse,max_dv,als_residual,"
                "condition") {
        std::fprintf(stderr, "%s: bad header: %s\n", path.c_str(),
                     line.c_str());
        return 1;
    }
    long expected_it = 0, rows = 0;
    double prev_sse = 0.0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::vector<double> fields;
        std::istringstream ls(line);
        std::string cell;
        while (std::getline(ls, cell, ',')) {
            double v = 0.0;
            if (!numio::parseDouble(cell, v) || !std::isfinite(v)) {
                std::fprintf(stderr, "%s: bad field '%s' in: %s\n",
                             path.c_str(), cell.c_str(),
                             line.c_str());
                return 1;
            }
            fields.push_back(v);
        }
        if (fields.size() != 6) {
            std::fprintf(stderr, "%s: expected 6 fields: %s\n",
                         path.c_str(), line.c_str());
            return 1;
        }
        if (static_cast<long>(fields[0]) != expected_it) {
            std::fprintf(stderr,
                         "%s: iteration gap: got %ld, expected %ld\n",
                         path.c_str(), static_cast<long>(fields[0]),
                         expected_it);
            return 1;
        }
        // The alternation only accepts SSE-improving steps, so from
        // the first real iteration on SSE must not increase (tiny
        // slack for the final, sub-tolerance step).
        if (expected_it >= 2 &&
            fields[1] > prev_sse * (1.0 + 1e-9)) {
            std::fprintf(stderr,
                         "%s: SSE increased at iteration %ld "
                         "(%g -> %g)\n",
                         path.c_str(), expected_it, prev_sse,
                         fields[1]);
            return 1;
        }
        prev_sse = fields[1];
        ++expected_it;
        ++rows;
    }
    if (rows < 2) {
        std::fprintf(stderr,
                     "%s: only %ld rows (need init + >=1 iteration)\n",
                     path.c_str(), rows);
        return 1;
    }
    std::printf("%s: %ld iterations, final SSE %g\n", path.c_str(),
                rows - 1, prev_sse);
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage:\n"
                 "  gpupm_trace_check trace <t.json> [required-cat...]"
                 "\n"
                 "  gpupm_trace_check summary <t.json>\n"
                 "  gpupm_trace_check metrics <m.prom> "
                 "[required-name...]\n"
                 "  gpupm_trace_check convergence <c.csv>\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string cmd = argv[1];
    const std::string path = argv[2];
    std::vector<std::string> rest(argv + 3, argv + argc);
    if (cmd == "trace")
        return cmdTrace(path, rest);
    if (cmd == "summary" && rest.empty())
        return cmdSummary(path);
    if (cmd == "metrics")
        return cmdMetrics(path, rest);
    if (cmd == "convergence" && rest.empty())
        return cmdConvergence(path);
    return usage();
}
