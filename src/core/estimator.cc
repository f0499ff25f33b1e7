#include "estimator.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/logging.hh"
#include "common/numio.hh"
#include "gpu/components.hh"
#include "linalg/isotonic.hh"
#include "linalg/lstsq.hh"
#include "linalg/quartic.hh"
#include "obs/standard.hh"
#include "obs/trace.hh"

namespace gpupm
{
namespace model
{

using gpu::Component;
using gpu::componentIndex;
using linalg::Vector;

namespace
{

/** Feature layout of the coefficient fit. */
constexpr std::size_t kFeatBeta0 = 0;
constexpr std::size_t kFeatBeta1 = 1;
constexpr std::size_t kFeatBeta2 = 2;
constexpr std::size_t kFeatBeta3 = 3;
constexpr std::size_t kFeatOmega = 4; // 6 core components, then DRAM
constexpr std::size_t kNumFeatures = kFeatOmega + gpu::kNumComponents;

/** Core-domain components in feature order (everything but DRAM). */
constexpr std::array<Component, 6> kCoreComponents = {
    Component::Int, Component::SP, Component::DP,
    Component::SF, Component::Shared, Component::L2,
};

} // namespace

std::optional<std::size_t>
TrainingData::configIndex(const gpu::FreqConfig &cfg) const
{
    for (std::size_t i = 0; i < configs.size(); ++i)
        if (configs[i] == cfg)
            return i;
    return std::nullopt;
}

std::string_view
fitErrcName(FitErrc code)
{
    switch (code) {
      case FitErrc::BadInput: return "BadInput";
      case FitErrc::DegenerateGrid: return "DegenerateGrid";
      case FitErrc::NumericalFailure: return "NumericalFailure";
    }
    return "Unknown";
}

ModelEstimator::ModelEstimator(EstimatorOptions opts) : opts_(opts)
{
    GPUPM_ASSERT(opts_.max_iterations >= 1, "need >= 1 iteration");
    GPUPM_ASSERT(opts_.v_min > 0.0 && opts_.v_max > opts_.v_min,
                 "bad voltage search range");
    GPUPM_ASSERT(opts_.ridge >= 0.0, "negative ridge ", opts_.ridge);
    // A non-positive weight would make the coefficient Gram indefinite.
    GPUPM_ASSERT(opts_.idle_row_weight > 0.0,
                 "idle row weight must be positive, got ",
                 opts_.idle_row_weight);
}

namespace
{

/** Idle rows are the all-zero-utilization microbenchmarks. */
bool
isIdleRow(const gpu::ComponentArray &util)
{
    for (double u : util)
        if (u != 0.0)
            return false;
    return true;
}

} // namespace

ModelParams
ModelEstimator::fitCoefficients(
        const TrainingData &data,
        const std::vector<VoltagePair> &voltages,
        const std::vector<std::size_t> &config_subset,
        linalg::LstsqDiagnostics *diag) const
{
    // One pass over the cells accumulates the weighted 11x11 normal
    // equations; both solvers work on those alone.
    linalg::NormalEquations ne(kNumFeatures);
    std::array<double, kNumFeatures> row;
    for (std::size_t b = 0; b < data.utils.size(); ++b) {
        const double w =
                isIdleRow(data.utils[b]) ? opts_.idle_row_weight : 1.0;
        for (std::size_t ci : config_subset) {
            const gpu::FreqConfig &cfg = data.configs[ci];
            const VoltagePair &v = voltages[ci];
            const double fc = 1e-3 * cfg.core_mhz;
            const double fm = 1e-3 * cfg.mem_mhz;
            const double vc2fc = v.core * v.core * fc;
            const double vm2fm = v.mem * v.mem * fm;

            row[kFeatBeta0] = v.core;
            row[kFeatBeta1] = vc2fc;
            row[kFeatBeta2] = v.mem;
            row[kFeatBeta3] = vm2fm;
            for (std::size_t k = 0; k < kCoreComponents.size(); ++k)
                row[kFeatOmega + k] =
                        vc2fc *
                        data.utils[b][componentIndex(kCoreComponents[k])];
            row[kFeatOmega + kCoreComponents.size()] =
                    vm2fm * data.utils[b][componentIndex(Component::Dram)];
            ne.addRow(row.data(), data.power_w[b][ci], w);
        }
    }

    // The pivoted Cholesky of the Gram gives the rank and condition,
    // and the signed fit's basic solution.
    const linalg::GramCholesky chol = linalg::choleskyPivoted(ne.gram());
    if (diag)
        *diag = chol.diagnostics();
    const Vector x = opts_.nonnegative ? linalg::nnls(ne, opts_.ridge)
                                       : chol.solve(ne.atb);

    ModelParams p;
    p.beta0 = x[kFeatBeta0];
    p.beta1 = x[kFeatBeta1];
    p.beta2 = x[kFeatBeta2];
    p.beta3 = x[kFeatBeta3];
    for (std::size_t k = 0; k < kCoreComponents.size(); ++k)
        p.omega[componentIndex(kCoreComponents[k])] =
                x[kFeatOmega + k];
    p.omega[componentIndex(Component::Dram)] =
            x[kFeatOmega + kCoreComponents.size()];
    return p;
}

std::vector<VoltagePair>
ModelEstimator::fitVoltages(const TrainingData &data,
                            const ModelParams &params,
                            const std::vector<VoltagePair> &start,
                            std::size_t ref_ci) const
{
    const std::size_t nb = data.utils.size();
    const std::size_t nc = data.configs.size();

    // Per-microbenchmark aggregates: A_b (core) and B_b (memory).
    std::vector<double> core_agg(nb), mem_agg(nb);
    for (std::size_t b = 0; b < nb; ++b) {
        double s = params.beta1;
        for (Component c : kCoreComponents)
            s += params.omega[componentIndex(c)] *
                 data.utils[b][componentIndex(c)];
        core_agg[b] = s;
        mem_agg[b] = params.beta3 +
                     params.omega[componentIndex(Component::Dram)] *
                     data.utils[b][componentIndex(Component::Dram)];
    }

    // With the coefficients fixed, a configuration's weighted SSE
    // Σ w_b (P_b - β0·vc - vc²·fc·A_b - β2·vm - vm²·fm·B_b)² is a
    // polynomial in (vc, vm) whose coefficients are weighted moments of
    // A_b, B_b and P_b. Those of A and B alone are shared by every
    // configuration.
    std::vector<double> w(nb);
    double sw = 0.0, swa = 0.0, swb = 0.0, swaa = 0.0, swbb = 0.0,
           swab = 0.0;
    for (std::size_t b = 0; b < nb; ++b) {
        w[b] = isIdleRow(data.utils[b]) ? opts_.idle_row_weight : 1.0;
        sw += w[b];
        swa += w[b] * core_agg[b];
        swb += w[b] * mem_agg[b];
        swaa += w[b] * core_agg[b] * core_agg[b];
        swbb += w[b] * mem_agg[b] * mem_agg[b];
        swab += w[b] * core_agg[b] * mem_agg[b];
    }

    // One coordinate step. Along one axis x (clock f, static
    // coefficient β, aggregate G_b) the residual is q_b - β·x - f·G_b·x²
    // with q_b fixed, so the SSE is the quartic
    //   f²ΣwG²·x⁴ + 2βfΣwG·x³ + (β²Σw - 2fΣwqG)·x² - 2βΣwq·x + const
    // and the step is its exact minimizer on [v_min, v_max].
    const auto axis_step = [&](double beta, double f, double swq,
                               double swqg, double swg, double swgg) {
        return linalg::argminQuartic(
                {0.0, -2.0 * beta * swq, beta * beta * sw - 2.0 * f * swqg,
                 2.0 * beta * f * swg, f * f * swgg},
                opts_.v_min, opts_.v_max);
    };

    std::vector<VoltagePair> v(nc);

    for (std::size_t ci = 0; ci < nc; ++ci) {
        if (ci == ref_ci)
            continue; // pinned at (1, 1): the Eq. 5 normalization
        const gpu::FreqConfig &cfg = data.configs[ci];
        const double fc = 1e-3 * cfg.core_mhz;
        const double fm = 1e-3 * cfg.mem_mhz;

        double swp = 0.0, swap = 0.0, swbp = 0.0;
        for (std::size_t b = 0; b < nb; ++b) {
            const double wp = w[b] * data.power_w[b][ci];
            swp += wp;
            swap += wp * core_agg[b];
            swbp += wp * mem_agg[b];
        }

        // Coordinate descent, warm-started from the previous outer
        // iterate; q_b is P_b less the other domain's terms.
        double vc = start[ci].core, vm = start[ci].mem;
        for (int round = 0; round < 4; ++round) {
            const double ms = params.beta2 * vm, mt = fm * vm * vm;
            vc = axis_step(params.beta0, fc, swp - ms * sw - mt * swb,
                           swap - ms * swa - mt * swab, swa, swaa);
            if (opts_.fit_mem_voltage) {
                const double cs = params.beta0 * vc, ct = fc * vc * vc;
                vm = axis_step(params.beta2, fm,
                               swp - cs * sw - ct * swa,
                               swbp - cs * swb - ct * swab, swb, swbb);
            }
        }
        v[ci] = {vc, vm};
    }

    if (!opts_.monotonic_voltages)
        return v;

    // Eq. 12 projection: V̄ must be non-decreasing in its domain's
    // frequency. The reference configuration is given an overwhelming
    // weight so pooling cannot move its pinned value.
    const auto weight_of = [&](std::size_t ci) {
        return ci == ref_ci ? 1e9 : 1.0;
    };

    // Core voltage along fcore, separately for each memory frequency.
    std::map<int, std::vector<std::size_t>> by_mem;
    for (std::size_t ci = 0; ci < nc; ++ci)
        by_mem[data.configs[ci].mem_mhz].push_back(ci);
    for (auto &[fm, group] : by_mem) {
        std::sort(group.begin(), group.end(),
                  [&](std::size_t x, std::size_t y) {
                      return data.configs[x].core_mhz <
                             data.configs[y].core_mhz;
                  });
        std::vector<double> vals, w;
        for (std::size_t ci : group) {
            vals.push_back(v[ci].core);
            w.push_back(weight_of(ci));
        }
        const auto fitted = linalg::isotonicNonDecreasing(vals, w);
        for (std::size_t k = 0; k < group.size(); ++k)
            v[group[k]].core = fitted[k];
    }

    // Memory voltage along fmem, separately for each core frequency.
    std::map<int, std::vector<std::size_t>> by_core;
    for (std::size_t ci = 0; ci < nc; ++ci)
        by_core[data.configs[ci].core_mhz].push_back(ci);
    for (auto &[fc, group] : by_core) {
        std::sort(group.begin(), group.end(),
                  [&](std::size_t x, std::size_t y) {
                      return data.configs[x].mem_mhz <
                             data.configs[y].mem_mhz;
                  });
        std::vector<double> vals, w;
        for (std::size_t ci : group) {
            vals.push_back(v[ci].mem);
            w.push_back(weight_of(ci));
        }
        const auto fitted = linalg::isotonicNonDecreasing(vals, w);
        for (std::size_t k = 0; k < group.size(); ++k)
            v[group[k]].mem = fitted[k];
    }

    // Keep the reference exactly pinned.
    v[ref_ci] = {1.0, 1.0};
    return v;
}

double
ModelEstimator::sse(const TrainingData &data, const ModelParams &params,
                    const std::vector<VoltagePair> &voltages) const
{
    DvfsPowerModel m(data.device, data.reference, params);
    double s = 0.0;
    for (std::size_t b = 0; b < data.utils.size(); ++b) {
        for (std::size_t ci = 0; ci < data.configs.size(); ++ci) {
            const auto pred = m.predictWithVoltages(
                    data.utils[b], data.configs[ci], voltages[ci]);
            const double r = data.power_w[b][ci] - pred.total_w;
            s += r * r;
        }
    }
    return s;
}

namespace
{

bool
finiteParams(const ModelParams &p)
{
    if (!std::isfinite(p.beta0) || !std::isfinite(p.beta1) ||
        !std::isfinite(p.beta2) || !std::isfinite(p.beta3))
        return false;
    for (double w : p.omega)
        if (!std::isfinite(w))
            return false;
    return true;
}

bool
finiteVoltages(const std::vector<VoltagePair> &v)
{
    for (const auto &p : v)
        if (!std::isfinite(p.core) || !std::isfinite(p.mem))
            return false;
    return true;
}

/** BadInput checks on the raw training data. */
std::optional<FitError>
checkInput(const TrainingData &data)
{
    const auto bad = [](std::string msg) {
        return FitError{FitErrc::BadInput, std::move(msg), {}, 0};
    };
    if (data.utils.empty())
        return bad("no training microbenchmarks");
    if (data.configs.empty())
        return bad("no measured configurations");
    if (data.power_w.size() != data.utils.size())
        return bad(detail::concat("power rows (", data.power_w.size(),
                                  ") != microbenchmarks (",
                                  data.utils.size(), ")"));
    for (const auto &row : data.power_w)
        if (row.size() != data.configs.size())
            return bad("power row size mismatch");
    for (const auto &u : data.utils)
        for (double x : u)
            if (!std::isfinite(x))
                return bad("non-finite utilization in training data");
    for (const auto &row : data.power_w)
        for (double p : row)
            if (!std::isfinite(p))
                return bad("non-finite power in training data");
    if (!data.configIndex(data.reference))
        return bad(detail::concat("reference configuration (",
                                  data.reference.core_mhz, ", ",
                                  data.reference.mem_mhz,
                                  ") not in training data"));
    return std::nullopt;
}

} // namespace

namespace
{

/** Largest per-domain voltage move between two outer iterates. */
double
maxVoltageDelta(const std::vector<VoltagePair> &prev,
                const std::vector<VoltagePair> &next)
{
    double dv = 0.0;
    for (std::size_t i = 0; i < prev.size(); ++i) {
        dv = std::max(dv, std::abs(next[i].core - prev[i].core));
        dv = std::max(dv, std::abs(next[i].mem - prev[i].mem));
    }
    return dv;
}

} // namespace

FitResult
ModelEstimator::tryEstimate(const TrainingData &data) const
{
    GPUPM_TRACE_SPAN_NAMED(fit_span, "estimator", "estimator.fit");
    fit_span.arg("benchmarks", numio::formatLong(
                                       (long)data.utils.size()));
    fit_span.arg("configs", numio::formatLong(
                                    (long)data.configs.size()));

    const auto fail = [&](FitError err) -> FitResult {
        obs::estimatorFitFailuresTotal().inc();
        if (opts_.observer)
            opts_.observer->onDone(false, err.iterations);
        return err;
    };

    if (auto err = checkInput(data))
        return fail(*err);

    const std::size_t nc = data.configs.size();
    const std::size_t ref_ci = *data.configIndex(data.reference);

    // Step 1: initial coefficient fit on {F1, F2, F3} with V̄ = 1
    // (Eq. 11). F2 perturbs the core clock, F3 the memory clock.
    std::vector<std::size_t> subset = {ref_ci};
    const auto push_if = [&](auto pred) {
        for (std::size_t ci = 0; ci < nc; ++ci) {
            if (ci != ref_ci && pred(data.configs[ci])) {
                subset.push_back(ci);
                return;
            }
        }
    };
    push_if([&](const gpu::FreqConfig &c) {
        return c.mem_mhz == data.reference.mem_mhz &&
               c.core_mhz < data.reference.core_mhz;
    });
    push_if([&](const gpu::FreqConfig &c) {
        return c.core_mhz == data.reference.core_mhz &&
               c.mem_mhz != data.reference.mem_mhz;
    });

    // Identifiability guardrails for the bilinear alternation: with
    // more than one configuration but no axis-aligned perturbation of
    // the reference, the Eq. 11 initialization cannot separate the
    // coefficients from the voltages, and the alternation would
    // polish garbage. Likewise when every row is idle: the dynamic
    // coefficients and the voltages only appear as a product.
    if (opts_.fit_voltages && nc >= 2) {
        if (subset.size() < 2) {
            return fail(FitError{
                FitErrc::DegenerateGrid,
                "no configuration shares a clock domain with the "
                "reference: the Eq. 11 initialization cannot identify "
                "the bilinear voltage/coefficient system",
                {},
                0});
        }
        std::size_t active_rows = 0;
        for (const auto &u : data.utils)
            if (!isIdleRow(u))
                ++active_rows;
        if (active_rows < 2) {
            return fail(FitError{
                FitErrc::DegenerateGrid,
                detail::concat(
                        "only ", active_rows,
                        " non-idle microbenchmark row(s): the "
                        "voltage/coefficient product is "
                        "under-identified"),
                {},
                0});
        }
    }

    std::vector<VoltagePair> voltages(nc); // all (1, 1)
    ModelParams params;
    {
        GPUPM_TRACE_SPAN("estimator", "estimator.init");
        params = fitCoefficients(data, voltages, subset);
    }

    EstimationResult res;
    res.sse_history.push_back(sse(data, params, voltages));

    // Convergence telemetry: one record per outer iteration, plus the
    // Eq. 11 initialization as iteration 0.
    const auto emit = [&](int iteration, double sse_now,
                          double prev_sse, double max_dv,
                          double condition) {
        if (!opts_.observer)
            return;
        obs::IterationRecord rec;
        rec.iteration = iteration;
        rec.sse = sse_now;
        rec.delta_sse = iteration == 0 ? 0.0 : prev_sse - sse_now;
        rec.max_dv = max_dv;
        rec.als_residual =
                iteration == 0
                        ? 0.0
                        : std::abs(prev_sse - sse_now) /
                                  std::max(prev_sse, 1.0);
        rec.condition = condition;
        opts_.observer->onIteration(rec);
    };
    emit(0, res.sse_history.back(), 0.0, 0.0, 0.0);

    const auto numerical_failure = [&](const char *when) {
        return FitError{FitErrc::NumericalFailure,
                        detail::concat("non-finite values while ",
                                       when, " (iteration ",
                                       res.iterations, ")"),
                        res.sse_history, res.iterations};
    };
    if (!finiteParams(params) ||
        !std::isfinite(res.sse_history.back()))
        return fail(numerical_failure("initializing coefficients"));

    // All-config index list for step 3.
    std::vector<std::size_t> all(nc);
    for (std::size_t i = 0; i < nc; ++i)
        all[i] = i;

    linalg::LstsqDiagnostics diag;
    if (!opts_.fit_voltages) {
        // Ablation: single step-3 pass with V̄ ≡ 1.
        params = fitCoefficients(data, voltages, all, &diag);
        res.sse_history.push_back(sse(data, params, voltages));
        res.iterations = 1;
        res.converged = true;
        if (!finiteParams(params) ||
            !std::isfinite(res.sse_history.back()))
            return fail(numerical_failure("fitting coefficients"));
        emit(1, res.sse_history.back(), res.sse_history.front(), 0.0,
             diag.condition);
    } else {
        for (int it = 0; it < opts_.max_iterations; ++it) {
            GPUPM_TRACE_SPAN_NAMED(it_span, "estimator",
                                   "estimator.iteration");
            it_span.arg("iteration", numio::formatLong(it + 1));
            // Step 2: voltages given coefficients.
            const std::vector<VoltagePair> prev_v = voltages;
            {
                GPUPM_TRACE_SPAN("estimator", "estimator.step2");
                voltages = fitVoltages(data, params, voltages, ref_ci);
            }
            if (!finiteVoltages(voltages))
                return fail(numerical_failure("fitting voltages"));
            // Step 3: coefficients given voltages, all configs.
            {
                GPUPM_TRACE_SPAN("estimator", "estimator.step3");
                params = fitCoefficients(data, voltages, all, &diag);
            }
            if (!finiteParams(params))
                return fail(
                        numerical_failure("fitting coefficients"));

            double s;
            {
                GPUPM_TRACE_SPAN("estimator", "estimator.sse");
                s = sse(data, params, voltages);
            }
            if (!std::isfinite(s))
                return fail(numerical_failure("evaluating the fit"));
            const double prev = res.sse_history.back();
            res.sse_history.push_back(s);
            res.iterations = it + 1;
            emit(it + 1, s, prev, maxVoltageDelta(prev_v, voltages),
                 diag.condition);
            // Relative improvement test with an absolute floor of
            // 1 W^2 so near-perfect (noise-free) fits also terminate.
            if (std::abs(prev - s) <=
                opts_.tolerance * std::max(prev, 1.0)) {
                res.converged = true;
                break;
            }
        }
    }
    res.condition_number = diag.condition;
    res.design_rank = diag.rank;

    res.model = DvfsPowerModel(data.device, data.reference, params);
    for (std::size_t ci = 0; ci < nc; ++ci)
        res.model.setVoltages(data.configs[ci], voltages[ci]);

    const double n = static_cast<double>(data.utils.size()) *
                     static_cast<double>(nc);
    res.rmse_w = std::sqrt(res.sse_history.back() / n);

    obs::estimatorFitsTotal().inc();
    obs::estimatorIterationsTotal().inc(res.iterations);
    obs::estimatorIterationsPerFit().observe(res.iterations);
    obs::estimatorLastIterations().set(res.iterations);
    obs::estimatorLastRmseW().set(res.rmse_w);
    obs::estimatorLastCondition().set(res.condition_number);
    fit_span.arg("iterations", numio::formatLong(res.iterations));
    fit_span.arg("converged", res.converged ? "true" : "false");
    if (opts_.observer)
        opts_.observer->onDone(res.converged, res.iterations);
    return res;
}

EstimationResult
ModelEstimator::estimate(const TrainingData &data) const
{
    auto res = tryEstimate(data);
    if (!res.ok()) {
        GPUPM_PANIC("model estimation failed [",
                    fitErrcName(res.error().code), "]: ",
                    res.error().message);
    }
    return res.value();
}

} // namespace model
} // namespace gpupm
