/**
 * @file
 * gpupm_bench_check: regression gate over the accuracy/telemetry
 * artifacts the bench harness and `gpupm audit` emit, so ctest and
 * scripts/reproduce_all.sh can fail a build on an accuracy or runtime
 * regression without a Python or jq dependency.
 *
 *   gpupm_bench_check validate <BENCH_*.json>...
 *       Structurally validate bench telemetry files (version, name,
 *       provenance, finite non-negative wall-clock and stats).
 *
 *   gpupm_bench_check bench <run.json> <golden.json>
 *                     [--stat-tol=<pp>] [--time-factor=<x>]
 *                     [--stale-factor=<x>]
 *       Diff one bench telemetry run against a golden: every stat
 *       whose key contains "_pct" (an error metric, lower is better)
 *       may not exceed the golden by more than --stat-tol
 *       (default 2.0 percentage points), and the run's wall-clock may
 *       not exceed --time-factor (default 2.0) times the golden's.
 *       With --stale-factor, a run faster than the golden's wall-clock
 *       divided by it fails as "golden stale": a speed-up lands with
 *       its regenerated golden. Off by default, because host speeds
 *       differ.
 *
 *   gpupm_bench_check scoreboard <run> <golden>
 *                     [--mae-tol=<pp>] [--app-tol=<pp>]
 *                     [--max-tol=<pp>]
 *       Diff two accuracy scoreboards (v2 envelope or raw JSON)
 *       through obs::compareScoreboards: overall MAE, per-app MAE and
 *       max error are gated by the tolerances (defaults 0.5 / 2.0 /
 *       5.0 percentage points).
 *
 *   gpupm_bench_check profile <run.json> <golden.json>
 *                     [--share-tol=<pp>] [--min-attributed=<pct>]
 *       Gate the `cpu` attribution block (sampling-profiler summary)
 *       of a bench telemetry run: span attribution must reach
 *       --min-attributed (default 90%), and no span category's CPU
 *       share may exceed the golden's by more than --share-tol
 *       (default 10 percentage points) — the per-phase CPU budget a
 *       hot-path regression trips even when wall-clock noise hides it.
 *
 * Every flag takes a finite, non-negative number as `--flag=<x>`.
 * Exit status: 0 pass, 1 regression, stale golden or invalid
 * artifact, 2 usage (including a malformed flag value, named on
 * stderr), 3 missing or unreadable golden (named `missing-golden`
 * error): a gate whose golden vanished must fail loudly, never skip.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/numio.hh"
#include "core/model_io.hh"
#include "obs/scoreboard.hh"

namespace
{

using namespace gpupm;
using json::Value;

/** Parsed `cpu` attribution block of a bench telemetry file. */
struct CpuBlock
{
    bool present = false;
    double samples = 0.0;
    double dropped = 0.0;
    double attributed_pct = 0.0;
    /** category -> CPU share in percent of all samples. */
    std::vector<std::pair<std::string, double>> shares;
};

/** Parsed essentials of one BENCH_<name>.json telemetry file. */
struct BenchRun
{
    std::string name;
    double wall_ms = 0.0;
    std::vector<std::pair<std::string, double>> stats;
    CpuBlock cpu;
};

/**
 * Exit status for a missing/unreadable golden reference. Distinct
 * from a regression (1) so callers can tell "the gate fired" from
 * "the gate could not run at all".
 */
constexpr int kMissingGoldenExit = 3;

/**
 * Named error for an absent or unreadable golden file. The gate must
 * not silently pass (or be skipped) just because the golden is gone —
 * that is exactly when a regression would slip through.
 */
int
missingGolden(const std::string &path)
{
    std::fprintf(stderr,
                 "error [missing-golden]: golden file '%s' is "
                 "missing or unreadable; refusing to skip the gate\n",
                 path.c_str());
    return kMissingGoldenExit;
}

/** True when the path is a regular file whose bytes can be read. */
bool
readable(const std::string &path)
{
    std::error_code ec;
    if (!std::filesystem::is_regular_file(path, ec) || ec)
        return false;
    return model::tryReadFile(path).ok();
}

/** Load + structurally validate one bench telemetry file. */
bool
loadBenchRun(const std::string &path, BenchRun &run)
{
    const auto text = model::tryReadFile(path);
    if (!text.ok()) {
        std::fprintf(stderr, "%s: cannot read file\n", path.c_str());
        return false;
    }
    Value root;
    json::Error err;
    if (!json::parse(text.value(), root, err)) {
        std::fprintf(stderr, "%s: invalid JSON: %s\n", path.c_str(),
                     err.message().c_str());
        return false;
    }
    auto bad = [&](const std::string &what) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), what.c_str());
        return false;
    };
    if (root.kind != Value::Kind::Object)
        return bad("top level is not an object");
    const Value *ver = root.find("gpupm_bench_version");
    if (!ver || ver->kind != Value::Kind::Number ||
        ver->number != 1.0)
        return bad("missing or unsupported gpupm_bench_version");
    const Value *name = root.find("name");
    if (!name || name->kind != Value::Kind::String ||
        name->str.empty())
        return bad("missing name");
    run.name = name->str;
    const Value *prov = root.find("provenance");
    if (!prov || prov->kind != Value::Kind::Object)
        return bad("missing provenance object");
    for (const char *key :
         {"version", "build_type", "device", "timestamp"}) {
        const Value *f = prov->find(key);
        if (!f || f->kind != Value::Kind::String)
            return bad(std::string("provenance missing '") + key +
                       "'");
    }
    const Value *wall = root.find("wall_ms");
    if (!wall || wall->kind != Value::Kind::Number || wall->number < 0)
        return bad("missing or implausible wall_ms");
    run.wall_ms = wall->number;
    const Value *phases = root.find("phases_ms");
    if (!phases || phases->kind != Value::Kind::Object)
        return bad("missing phases_ms object");
    for (const auto &kv : phases->object)
        if (kv.second.kind != Value::Kind::Number || kv.second.number < 0)
            return bad("implausible phase duration '" + kv.first +
                       "'");
    const Value *stats = root.find("stats");
    if (!stats || stats->kind != Value::Kind::Object)
        return bad("missing stats object");
    for (const auto &kv : stats->object) {
        if (kv.second.kind != Value::Kind::Number)
            return bad("non-numeric stat '" + kv.first + "'");
        run.stats.emplace_back(kv.first, kv.second.number);
    }
    // The `cpu` block (sampling-profiler summary) is optional — older
    // goldens predate it — but when present it must be well-formed so
    // `profile` gates never compare garbage.
    const Value *cpu = root.find("cpu");
    if (cpu) {
        if (cpu->kind != Value::Kind::Object)
            return bad("cpu block is not an object");
        auto num = [&](const char *key, double &out) {
            const Value *f = cpu->find(key);
            if (!f || f->kind != Value::Kind::Number || f->number < 0)
                return false;
            out = f->number;
            return true;
        };
        if (!num("samples", run.cpu.samples) ||
            !num("dropped", run.cpu.dropped) ||
            !num("attributed_pct", run.cpu.attributed_pct))
            return bad("cpu block missing samples/dropped/"
                       "attributed_pct");
        const Value *cats = cpu->find("categories");
        if (!cats || cats->kind != Value::Kind::Object)
            return bad("cpu block missing categories object");
        for (const auto &kv : cats->object) {
            if (kv.second.kind != Value::Kind::Object)
                return bad("cpu category '" + kv.first +
                           "' is not an object");
            const Value *share = kv.second.find("share_pct");
            if (!share || share->kind != Value::Kind::Number ||
                share->number < 0)
                return bad("cpu category '" + kv.first +
                           "' missing share_pct");
            run.cpu.shares.emplace_back(kv.first, share->number);
        }
        run.cpu.present = true;
    }
    return true;
}

int
cmdValidate(const std::vector<std::string> &paths)
{
    int rc = 0;
    for (const auto &path : paths) {
        BenchRun run;
        if (!loadBenchRun(path, run)) {
            rc = 1;
            continue;
        }
        std::printf("%s: OK (%s, %zu stats, %.0f ms)\n", path.c_str(),
                    run.name.c_str(), run.stats.size(), run.wall_ms);
    }
    return rc;
}

/**
 * Gate a bench run against its golden. Error stats (keys containing
 * "_pct" — MAE-style, lower is better) may not exceed the golden by
 * more than stat_tol percentage points; wall-clock may not exceed
 * time_factor times the golden's nor, when stale_factor is non-zero,
 * fall below the golden's divided by stale_factor. Stats present on
 * only one side are noted.
 */
int
cmdBench(const std::string &run_path, const std::string &golden_path,
         double stat_tol, double time_factor, double stale_factor)
{
    if (!readable(golden_path))
        return missingGolden(golden_path);
    BenchRun run, golden;
    if (!loadBenchRun(run_path, run) ||
        !loadBenchRun(golden_path, golden))
        return 1;
    if (run.name != golden.name)
        std::fprintf(stderr,
                     "note: comparing different benches "
                     "('%s' vs '%s')\n",
                     run.name.c_str(), golden.name.c_str());

    int regressions = 0;
    for (const auto &gkv : golden.stats) {
        const double *rv = nullptr;
        for (const auto &rkv : run.stats)
            if (rkv.first == gkv.first)
                rv = &rkv.second;
        if (!rv) {
            std::printf("note: stat '%s' absent from run\n",
                        gkv.first.c_str());
            continue;
        }
        const bool error_stat =
                gkv.first.find("_pct") != std::string::npos;
        if (error_stat && *rv > gkv.second + stat_tol) {
            std::printf("REGRESSION: %s %.3f -> %.3f "
                        "(tolerance +%.2f pp)\n",
                        gkv.first.c_str(), gkv.second, *rv, stat_tol);
            ++regressions;
        }
    }
    if (golden.wall_ms > 0 &&
        run.wall_ms > golden.wall_ms * time_factor) {
        std::printf("REGRESSION: wall-clock %.0f ms exceeds %.1fx "
                    "the golden's %.0f ms\n",
                    run.wall_ms, time_factor, golden.wall_ms);
        ++regressions;
    }
    if (stale_factor > 0 && run.wall_ms < golden.wall_ms / stale_factor) {
        std::printf("STALE: wall-clock %.0f ms is below the golden's "
                    "%.0f ms / %.1f (golden stale: regenerate it)\n",
                    run.wall_ms, golden.wall_ms, stale_factor);
        ++regressions;
    }
    std::printf("%s vs %s: %s (%d regression(s))\n", run_path.c_str(),
                golden_path.c_str(), regressions ? "FAIL" : "PASS",
                regressions);
    return regressions ? 1 : 0;
}

/**
 * Gate the run's CPU-attribution block against the golden's. Two
 * checks, both on ratios so they hold across machine speeds:
 *  - span attribution (percent of samples tagged with a taxonomy
 *    category) must not fall below min_attributed — instrumentation
 *    rot (a hot path losing its span) shows up here;
 *  - each category's CPU share may not exceed the golden's by more
 *    than share_tol percentage points — a phase silently eating a
 *    bigger slice of the pie is a budget breach even when total
 *    wall-clock still fits under `bench`'s time-factor.
 * Categories that shrank or are new-but-small are fine; a new
 * category is gated against a zero baseline.
 */
int
cmdProfile(const std::string &run_path,
           const std::string &golden_path, double share_tol,
           double min_attributed)
{
    if (!readable(golden_path))
        return missingGolden(golden_path);
    BenchRun run, golden;
    if (!loadBenchRun(run_path, run) ||
        !loadBenchRun(golden_path, golden))
        return 1;
    if (!run.cpu.present) {
        std::fprintf(stderr,
                     "%s: no cpu block (bench must run with "
                     "--json-out to embed the profiler summary)\n",
                     run_path.c_str());
        return 1;
    }
    if (!golden.cpu.present) {
        std::fprintf(stderr,
                     "%s: golden has no cpu block; refresh it from a "
                     "run that embeds the profiler summary\n",
                     golden_path.c_str());
        return kMissingGoldenExit;
    }
    if (run.cpu.samples < 1) {
        std::fprintf(stderr,
                     "%s: cpu block has zero samples; profiler never "
                     "fired\n",
                     run_path.c_str());
        return 1;
    }

    int regressions = 0;
    if (run.cpu.attributed_pct < min_attributed) {
        std::printf("REGRESSION: span attribution %.2f%% below the "
                    "%.2f%% floor\n",
                    run.cpu.attributed_pct, min_attributed);
        ++regressions;
    }
    auto goldenShare = [&](const std::string &cat) {
        for (const auto &kv : golden.cpu.shares)
            if (kv.first == cat)
                return kv.second;
        return 0.0; // new category: budget starts at zero
    };
    for (const auto &rkv : run.cpu.shares) {
        const double budget = goldenShare(rkv.first) + share_tol;
        if (rkv.second > budget) {
            std::printf("REGRESSION: category '%s' CPU share %.2f%% "
                        "exceeds budget %.2f%% (golden %.2f%% + "
                        "%.2f pp)\n",
                        rkv.first.c_str(), rkv.second, budget,
                        goldenShare(rkv.first), share_tol);
            ++regressions;
        }
    }
    for (const auto &gkv : golden.cpu.shares) {
        bool found = false;
        for (const auto &rkv : run.cpu.shares)
            if (rkv.first == gkv.first)
                found = true;
        if (!found)
            std::printf("note: category '%s' absent from run\n",
                        gkv.first.c_str());
    }
    std::printf("%s vs %s: %s (%.0f samples, %.2f%% attributed, "
                "%d regression(s))\n",
                run_path.c_str(), golden_path.c_str(),
                regressions ? "FAIL" : "PASS", run.cpu.samples,
                run.cpu.attributed_pct, regressions);
    return regressions ? 1 : 0;
}

int
cmdScoreboard(const std::string &run_path,
              const std::string &golden_path,
              const obs::ScoreboardTolerances &tol)
{
    if (!readable(golden_path))
        return missingGolden(golden_path);
    auto run = model::tryLoad<obs::Scoreboard>(run_path);
    if (!run.ok()) {
        std::fprintf(stderr, "%s: load failed [%s]: %s\n",
                     run_path.c_str(),
                     std::string(model::ioErrcName(run.error().code))
                             .c_str(),
                     run.error().message.c_str());
        return 1;
    }
    auto golden = model::tryLoad<obs::Scoreboard>(golden_path);
    if (!golden.ok()) {
        std::fprintf(stderr, "%s: load failed [%s]: %s\n",
                     golden_path.c_str(),
                     std::string(
                             model::ioErrcName(golden.error().code))
                             .c_str(),
                     golden.error().message.c_str());
        return 1;
    }
    const auto diff = obs::compareScoreboards(run.value(),
                                              golden.value(), tol);
    std::printf("%s", diff.summary().c_str());
    return diff.ok ? 0 : 1;
}

int
usage()
{
    std::fprintf(
            stderr,
            "usage:\n"
            "  gpupm_bench_check validate <BENCH.json>...\n"
            "  gpupm_bench_check bench <run.json> <golden.json> "
            "[--stat-tol=<pp>] [--time-factor=<x>] "
            "[--stale-factor=<x>]\n"
            "  gpupm_bench_check scoreboard <run> <golden> "
            "[--mae-tol=<pp>] [--app-tol=<pp>] [--max-tol=<pp>]\n"
            "  gpupm_bench_check profile <run.json> <golden.json> "
            "[--share-tol=<pp>] [--min-attributed=<pct>]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> positional;
    double stat_tol = 2.0, time_factor = 2.0, stale_factor = 0.0;
    double share_tol = 10.0, min_attributed = 90.0;
    obs::ScoreboardTolerances tol;
    const std::pair<std::string_view, double *> flags[] = {
            {"--stat-tol", &stat_tol},
            {"--time-factor", &time_factor},
            {"--stale-factor", &stale_factor},
            {"--mae-tol", &tol.overall_mae_pp},
            {"--app-tol", &tol.per_app_mae_pp},
            {"--max-tol", &tol.max_err_pp},
            {"--share-tol", &share_tol},
            {"--min-attributed", &min_attributed}};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional.push_back(arg);
            continue;
        }
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const auto flag = std::find_if(
                std::begin(flags), std::end(flags),
                [&key](const auto &row) { return row.first == key; });
        if (flag == std::end(flags)) {
            std::fprintf(stderr, "unknown flag '%s'\n", key.c_str());
            return usage();
        }
        double val = 0.0;
        if (eq == std::string::npos ||
            !numio::parseDouble(std::string_view(arg).substr(eq + 1),
                                val) ||
            !std::isfinite(val) || val < 0) {
            std::fprintf(stderr,
                         "bad value for flag '%s': want a finite, "
                         "non-negative number\n",
                         arg.c_str());
            return 2;
        }
        *flag->second = val;
    }
    if (positional.size() < 2)
        return usage();
    const std::string cmd = positional.front();
    if (cmd == "validate")
        return cmdValidate(
                {positional.begin() + 1, positional.end()});
    if (cmd == "bench" && positional.size() == 3)
        return cmdBench(positional[1], positional[2], stat_tol,
                        time_factor, stale_factor);
    if (cmd == "scoreboard" && positional.size() == 3)
        return cmdScoreboard(positional[1], positional[2], tol);
    if (cmd == "profile" && positional.size() == 3)
        return cmdProfile(positional[1], positional[2], share_tol,
                          min_attributed);
    return usage();
}
