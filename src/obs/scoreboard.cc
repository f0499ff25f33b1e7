#include "scoreboard.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "common/json.hh"
#include "common/numio.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "obs/standard.hh"

namespace gpupm
{
namespace obs
{

namespace
{

/** The stats fields shared by summary / per_app / per_config rows. */
void
putStats(std::ostringstream &os, const ScoreStats &st)
{
    os << "\"samples\":" << st.samples << ",\"mae_pct\":"
       << numio::formatDouble(st.mae_pct) << ",\"rmse_w\":"
       << numio::formatDouble(st.rmse_w) << ",\"max_err_pct\":"
       << numio::formatDouble(st.max_err_pct)
       << ",\"mean_measured_w\":"
       << numio::formatDouble(st.mean_measured_w);
}

} // namespace

ScoreStats
scoreOf(const std::vector<const ResidualSample *> &group)
{
    ScoreStats st;
    st.samples = static_cast<long>(group.size());
    if (group.empty())
        return st;
    std::vector<double> pred, meas;
    pred.reserve(group.size());
    meas.reserve(group.size());
    for (const ResidualSample *s : group) {
        pred.push_back(s->predicted_w);
        meas.push_back(s->measured_w);
        st.max_err_pct = std::max(st.max_err_pct, s->absErrPct());
    }
    st.mae_pct = stats::meanAbsPercentError(pred, meas);
    st.rmse_w = stats::rmse(pred, meas);
    st.mean_measured_w = stats::mean(meas);
    return st;
}

ScoreStats
combineScoreStats(const std::vector<ScoreStats> &groups)
{
    ScoreStats out;
    double mae_sum = 0.0, sq_sum = 0.0, meas_sum = 0.0;
    for (const ScoreStats &g : groups) {
        if (g.samples <= 0)
            continue;
        const double n = static_cast<double>(g.samples);
        out.samples += g.samples;
        mae_sum += g.mae_pct * n;
        sq_sum += g.rmse_w * g.rmse_w * n;
        meas_sum += g.mean_measured_w * n;
        out.max_err_pct = std::max(out.max_err_pct, g.max_err_pct);
    }
    if (out.samples > 0) {
        const double n = static_cast<double>(out.samples);
        out.mae_pct = mae_sum / n;
        out.rmse_w = std::sqrt(sq_sum / n);
        out.mean_measured_w = meas_sum / n;
    }
    return out;
}

Scoreboard
Scoreboard::fromSamples(int device, std::string device_name,
                        gpu::FreqConfig reference,
                        std::vector<ResidualSample> samples)
{
    Scoreboard sb;
    sb.device = device;
    sb.device_name = std::move(device_name);
    sb.reference = reference;
    sb.provenance = common::collectProvenance();
    sb.samples = std::move(samples);
    sb.recomputeAggregates();
    return sb;
}

void
Scoreboard::recomputeAggregates()
{
    per_app.clear();
    per_config.clear();
    core_marginal.clear();
    mem_marginal.clear();

    std::vector<const ResidualSample *> all;
    all.reserve(samples.size());
    for (const ResidualSample &s : samples)
        all.push_back(&s);
    overall = scoreOf(all);

    // Per app, in first-appearance (validation set) order.
    std::vector<std::string> app_order;
    std::map<std::string, std::vector<const ResidualSample *>> by_app;
    for (const ResidualSample &s : samples) {
        auto &group = by_app[s.app];
        if (group.empty())
            app_order.push_back(s.app);
        group.push_back(&s);
    }
    for (const std::string &app : app_order)
        per_app.push_back({app, scoreOf(by_app[app])});

    // Per (f_core, f_mem) cell and per-domain marginals.
    std::map<std::pair<int, int>, std::vector<const ResidualSample *>>
            by_cfg;
    std::map<int, std::vector<const ResidualSample *>> by_core, by_mem;
    for (const ResidualSample &s : samples) {
        by_cfg[{s.cfg.mem_mhz, s.cfg.core_mhz}].push_back(&s);
        by_core[s.cfg.core_mhz].push_back(&s);
        by_mem[s.cfg.mem_mhz].push_back(&s);
    }
    for (const auto &[key, group] : by_cfg)
        per_config.push_back(
                {gpu::FreqConfig{key.second, key.first},
                 scoreOf(group)});
    for (const auto &[mhz, group] : by_core)
        core_marginal.push_back({mhz, scoreOf(group)});
    for (const auto &[mhz, group] : by_mem)
        mem_marginal.push_back({mhz, scoreOf(group)});

    // Baseline MAEs, when the residuals carry baseline predictions.
    // A summary-only scoreboard keeps whatever rows it was loaded
    // with.
    std::map<std::string, std::pair<std::vector<double>,
                                    std::vector<double>>> by_base;
    for (const ResidualSample &s : samples)
        for (const auto &[name, w] : s.baseline_w) {
            by_base[name].first.push_back(w);
            by_base[name].second.push_back(s.measured_w);
        }
    if (!by_base.empty()) {
        baselines.clear();
        for (const auto &[name, series] : by_base)
            baselines.push_back(
                    {name, stats::meanAbsPercentError(series.first,
                                                      series.second)});
    }
}

std::string
Scoreboard::toJson(bool include_samples) const
{
    std::ostringstream os;
    os << "{\"gpupm_scoreboard_version\":1";
    os << ",\n\"provenance\":" << common::toJson(provenance);
    os << ",\n\"device\":" << device << ",\"device_name\":\""
       << json::escape(device_name) << "\"";
    os << ",\"reference\":[" << reference.core_mhz << ","
       << reference.mem_mhz << "]";
    os << ",\n\"summary\":{";
    putStats(os, overall);
    os << "}";
    os << ",\n\"per_app\":[";
    for (std::size_t i = 0; i < per_app.size(); ++i) {
        if (i)
            os << ",";
        os << "\n{\"app\":\"" << json::escape(per_app[i].app) << "\",";
        putStats(os, per_app[i].stats);
        os << "}";
    }
    os << "]";
    os << ",\n\"per_config\":[";
    for (std::size_t i = 0; i < per_config.size(); ++i) {
        if (i)
            os << ",";
        os << "\n{\"core_mhz\":" << per_config[i].cfg.core_mhz
           << ",\"mem_mhz\":" << per_config[i].cfg.mem_mhz << ",";
        putStats(os, per_config[i].stats);
        os << "}";
    }
    os << "]";
    auto putMarginal = [&os](const char *label,
                             const std::vector<MarginalScore> &rows) {
        os << ",\n\"" << label << "\":[";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (i)
                os << ",";
            os << "\n{\"mhz\":" << rows[i].mhz << ",";
            putStats(os, rows[i].stats);
            os << "}";
        }
        os << "]";
    };
    putMarginal("core_marginal", core_marginal);
    putMarginal("mem_marginal", mem_marginal);
    os << ",\n\"baselines\":[";
    for (std::size_t i = 0; i < baselines.size(); ++i) {
        if (i)
            os << ",";
        os << "{\"name\":\"" << json::escape(baselines[i].name)
           << "\",\"mae_pct\":"
           << numio::formatDouble(baselines[i].mae_pct) << "}";
    }
    os << "]";
    if (include_samples) {
        os << ",\n\"samples\":[";
        for (std::size_t i = 0; i < samples.size(); ++i) {
            const ResidualSample &s = samples[i];
            if (i)
                os << ",";
            os << "\n{\"app\":\"" << json::escape(s.app)
               << "\",\"core_mhz\":" << s.cfg.core_mhz
               << ",\"mem_mhz\":" << s.cfg.mem_mhz
               << ",\"measured_w\":"
               << numio::formatDouble(s.measured_w)
               << ",\"predicted_w\":"
               << numio::formatDouble(s.predicted_w)
               << ",\"constant_w\":"
               << numio::formatDouble(s.constant_w)
               << ",\"component_w\":[";
            for (std::size_t k = 0; k < s.component_w.size(); ++k) {
                if (k)
                    os << ",";
                os << numio::formatDouble(s.component_w[k]);
            }
            os << "]";
            if (!s.baseline_w.empty()) {
                os << ",\"baseline_w\":[";
                for (std::size_t k = 0; k < s.baseline_w.size(); ++k) {
                    if (k)
                        os << ",";
                    os << "{\"name\":\""
                       << json::escape(s.baseline_w[k].first)
                       << "\",\"w\":"
                       << numio::formatDouble(s.baseline_w[k].second)
                       << "}";
                }
                os << "]";
            }
            os << "}";
        }
        os << "]";
    }
    os << "}\n";
    return os.str();
}

std::string
Scoreboard::summaryText() const
{
    std::ostringstream os;
    os << "Accuracy scoreboard: " << device_name << " (reference "
       << reference.core_mhz << "/" << reference.mem_mhz << " MHz)\n";
    os << "overall: " << overall.samples << " samples, MAE "
       << TextTable::num(overall.mae_pct) << "%, RMSE "
       << TextTable::num(overall.rmse_w) << " W, max error "
       << TextTable::num(overall.max_err_pct) << "%\n\n";

    TextTable apps({"App", "Samples", "MAE [%]", "RMSE [W]",
                    "Max [%]", "Mean meas [W]"});
    apps.setTitle("Per-application accuracy (Fig. 7)");
    for (const AppScore &a : per_app)
        apps.addRow({a.app, std::to_string(a.stats.samples),
                     TextTable::num(a.stats.mae_pct),
                     TextTable::num(a.stats.rmse_w),
                     TextTable::num(a.stats.max_err_pct),
                     TextTable::num(a.stats.mean_measured_w)});
    apps.print(os);
    os << "\n";

    TextTable core({"f_core [MHz]", "Samples", "MAE [%]", "Max [%]"});
    core.setTitle("Core-frequency marginal (Fig. 8)");
    for (const MarginalScore &m : core_marginal)
        core.addRow({std::to_string(m.mhz),
                     std::to_string(m.stats.samples),
                     TextTable::num(m.stats.mae_pct),
                     TextTable::num(m.stats.max_err_pct)});
    core.print(os);
    os << "\n";

    TextTable mem({"f_mem [MHz]", "Samples", "MAE [%]", "Max [%]"});
    mem.setTitle("Memory-frequency marginal (Fig. 8)");
    for (const MarginalScore &m : mem_marginal)
        mem.addRow({std::to_string(m.mhz),
                    std::to_string(m.stats.samples),
                    TextTable::num(m.stats.mae_pct),
                    TextTable::num(m.stats.max_err_pct)});
    mem.print(os);

    if (!baselines.empty()) {
        os << "\n";
        TextTable base({"Model", "MAE [%]", "Delta vs proposed [pp]"});
        base.setTitle("Baseline comparison (Sec. VI)");
        for (const BaselineScore &b : baselines)
            base.addRow({b.name, TextTable::num(b.mae_pct),
                         TextTable::num(b.mae_pct - overall.mae_pct)});
        base.print(os);
    }
    return os.str();
}

std::string
Scoreboard::samplesCsv() const
{
    std::ostringstream os;
    os << residualCsvHeader() << "\n";
    for (const ResidualSample &s : samples)
        os << residualCsvRow(s) << "\n";
    return os.str();
}

void
Scoreboard::publishMetrics() const
{
    accuracyAuditsTotal().inc();
    accuracySamplesTotal().inc(static_cast<double>(overall.samples));
    accuracyLastMaePct().set(overall.mae_pct);
    accuracyLastRmseW().set(overall.rmse_w);
    accuracyLastMaxErrPct().set(overall.max_err_pct);
    Histogram &h = accuracyAbsErrPct();
    for (const ResidualSample &s : samples)
        h.observe(s.absErrPct());
}

std::string
ScoreboardDiff::summary() const
{
    std::ostringstream os;
    os << (ok ? "PASS" : "FAIL") << ": " << regressions.size()
       << " regression(s), " << notes.size() << " note(s)\n";
    for (const std::string &r : regressions)
        os << "REGRESSION: " << r << "\n";
    for (const std::string &n : notes)
        os << "note: " << n << "\n";
    return os.str();
}

ScoreboardDiff
compareScoreboards(const Scoreboard &run, const Scoreboard &golden,
                   const ScoreboardTolerances &tol)
{
    ScoreboardDiff diff;
    auto fail = [&diff](std::string msg) {
        diff.ok = false;
        diff.regressions.push_back(std::move(msg));
    };

    if (run.device != golden.device)
        fail("device mismatch: run " + std::to_string(run.device) +
             " vs golden " + std::to_string(golden.device));

    const double mae_delta = run.overall.mae_pct -
                             golden.overall.mae_pct;
    if (!(run.overall.mae_pct ==
          run.overall.mae_pct)) // NaN guard
        fail("overall MAE is NaN");
    else if (mae_delta > tol.overall_mae_pp)
        fail("overall MAE " + numio::formatDouble(run.overall.mae_pct) +
             "% exceeds golden " +
             numio::formatDouble(golden.overall.mae_pct) + "% by " +
             numio::formatDouble(mae_delta) + " pp (tolerance " +
             numio::formatDouble(tol.overall_mae_pp) + " pp)");
    else if (mae_delta < -tol.overall_mae_pp)
        diff.notes.push_back(
                "overall MAE improved by " +
                numio::formatDouble(-mae_delta) +
                " pp; consider refreshing the golden");

    const double max_delta = run.overall.max_err_pct -
                             golden.overall.max_err_pct;
    if (max_delta > tol.max_err_pp)
        fail("max error " +
             numio::formatDouble(run.overall.max_err_pct) +
             "% exceeds golden " +
             numio::formatDouble(golden.overall.max_err_pct) +
             "% by " + numio::formatDouble(max_delta) +
             " pp (tolerance " + numio::formatDouble(tol.max_err_pp) +
             " pp)");

    std::map<std::string, const ScoreStats *> golden_apps;
    for (const AppScore &a : golden.per_app)
        golden_apps[a.app] = &a.stats;
    for (const AppScore &a : run.per_app) {
        auto it = golden_apps.find(a.app);
        if (it == golden_apps.end()) {
            diff.notes.push_back("app '" + a.app +
                                 "' absent from the golden");
            continue;
        }
        const double d = a.stats.mae_pct - it->second->mae_pct;
        if (d > tol.per_app_mae_pp)
            fail("app '" + a.app + "' MAE " +
                 numio::formatDouble(a.stats.mae_pct) +
                 "% exceeds golden " +
                 numio::formatDouble(it->second->mae_pct) + "% by " +
                 numio::formatDouble(d) + " pp (tolerance " +
                 numio::formatDouble(tol.per_app_mae_pp) + " pp)");
        golden_apps.erase(it);
    }
    for (const auto &[app, st] : golden_apps) {
        (void)st;
        diff.notes.push_back("app '" + app +
                             "' in the golden but not in the run");
    }
    if (run.overall.samples != golden.overall.samples)
        diff.notes.push_back(
                "sample count " +
                std::to_string(run.overall.samples) + " vs golden " +
                std::to_string(golden.overall.samples));
    return diff;
}

} // namespace obs
} // namespace gpupm
