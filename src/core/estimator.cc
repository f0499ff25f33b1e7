#include "estimator.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/logging.hh"
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

/** Configuration scalars of the coefficient features. */
enum Scalar : std::size_t { kVc, kVc2Fc, kVm, kVm2Fm, kNumScalars };

constexpr std::size_t kNumFeatures = FitStatistics::kNumFeatures;
constexpr std::size_t kDram = componentIndex(Component::Dram);
static_assert(kDram + 1 == gpu::kNumComponents,
              "the feature tables below put DRAM last");

/**
 * Feature j (β0..β3, then ω in gpu::Component order) is the
 * configuration scalar kFeatScalar[j] times entry kFeatEntry[j] of
 * ũ_b = (1, U_INT, ..., U_DRAM).
 */
constexpr std::array<std::size_t, kNumFeatures> kFeatScalar = {
    kVc, kVc2Fc, kVm, kVm2Fm, kVc2Fc, kVc2Fc,
    kVc2Fc, kVc2Fc, kVc2Fc, kVc2Fc, kVm2Fm,
};
constexpr std::array<std::size_t, kNumFeatures> kFeatEntry = {
    0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7,
};

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

FitStatistics::FitStatistics(const TrainingData &data,
                             double idle_row_weight)
    : r_(data.configs.size()), q_(data.configs.size(), 0.0)
{
    const std::size_t nc = data.configs.size();
    for (const gpu::FreqConfig &cfg : data.configs) {
        fc_.push_back(1e-3 * cfg.core_mhz);
        fm_.push_back(1e-3 * cfg.mem_mhz);
    }
    for (auto &r : r_)
        r.fill(0.0);

    std::array<double, kDim> u;
    u[0] = 1.0;
    for (std::size_t b = 0; b < data.utils.size(); ++b) {
        const double w =
                isIdleRow(data.utils[b]) ? idle_row_weight : 1.0;
        for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
            u[1 + i] = data.utils[b][i];
        for (std::size_t i = 0; i < kDim; ++i)
            for (std::size_t j = i; j < kDim; ++j)
                m_[i][j] += w * u[i] * u[j];
        const std::vector<double> &power = data.power_w[b];
        for (std::size_t ci = 0; ci < nc; ++ci) {
            const double wp = w * power[ci];
            for (std::size_t i = 0; i < kDim; ++i)
                r_[ci][i] += wp * u[i];
            q_[ci] += wp * power[ci];
        }
    }
    for (std::size_t i = 1; i < kDim; ++i)
        for (std::size_t j = 0; j < i; ++j)
            m_[i][j] = m_[j][i];
}

void
FitStatistics::normalEquations(const std::vector<VoltagePair> &voltages,
                               const std::vector<std::size_t> &subset,
                               linalg::NormalEquations &ne) const
{
    GPUPM_ASSERT(ne.atb.size() == kNumFeatures, "normal equations of "
                 "order ", ne.atb.size(), ", want ", kNumFeatures);
    // S = Σ_c τ_c τ_cᵀ over the configuration scalars τ_c.
    std::array<std::array<double, kNumScalars>, kNumScalars> s{};
    for (std::size_t j = 0; j < kNumFeatures; ++j)
        ne.atb[j] = 0.0;
    ne.btb = 0.0;
    for (std::size_t ci : subset) {
        const VoltagePair &v = voltages[ci];
        const std::array<double, kNumScalars> tau = {
            v.core, v.core * v.core * fc_[ci], v.mem,
            v.mem * v.mem * fm_[ci]};
        for (std::size_t a = 0; a < kNumScalars; ++a)
            for (std::size_t b = a; b < kNumScalars; ++b)
                s[a][b] += tau[a] * tau[b];
        for (std::size_t j = 0; j < kNumFeatures; ++j)
            ne.atb[j] += tau[kFeatScalar[j]] * r_[ci][kFeatEntry[j]];
        ne.btb += q_[ci];
    }
    for (std::size_t a = 1; a < kNumScalars; ++a)
        for (std::size_t b = 0; b < a; ++b)
            s[a][b] = s[b][a];
    for (std::size_t j = 0; j < kNumFeatures; ++j)
        for (std::size_t k = j; k < kNumFeatures; ++k)
            ne.upper(j, k) = s[kFeatScalar[j]][kFeatScalar[k]] *
                             m_[kFeatEntry[j]][kFeatEntry[k]];
}

void
FitStatistics::voltageMoments(const ModelParams &p,
                              VoltageMoments &out) const
{
    // A_b = α·ũ_b and B_b = γ·ũ_b.
    std::array<double, kDim> alpha{}, gamma{};
    alpha[0] = p.beta1;
    gamma[0] = p.beta3;
    for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
        (i == kDram ? gamma : alpha)[1 + i] = p.omega[i];
    const auto dot = [](const std::array<double, kDim> &x,
                        const std::array<double, kDim> &y) {
        double d = 0.0;
        for (std::size_t i = 0; i < kDim; ++i)
            d += x[i] * y[i];
        return d;
    };
    std::array<double, kDim> m_alpha, m_gamma;
    for (std::size_t i = 0; i < kDim; ++i) {
        m_alpha[i] = dot(m_[i], alpha);
        m_gamma[i] = dot(m_[i], gamma);
    }
    out.sw = m_[0][0];
    out.swa = m_alpha[0];
    out.swb = m_gamma[0];
    out.swaa = dot(alpha, m_alpha);
    out.swbb = dot(gamma, m_gamma);
    out.swab = dot(alpha, m_gamma);

    const std::size_t nc = r_.size();
    out.swp.resize(nc);
    out.swap.resize(nc);
    out.swbp.resize(nc);
    for (std::size_t ci = 0; ci < nc; ++ci) {
        out.swp[ci] = r_[ci][0];
        out.swap[ci] = dot(alpha, r_[ci]);
        out.swbp[ci] = dot(gamma, r_[ci]);
    }
}

namespace
{

ModelParams
toParams(const Vector &x)
{
    ModelParams p;
    p.beta0 = x[0];
    p.beta1 = x[1];
    p.beta2 = x[2];
    p.beta3 = x[3];
    for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
        p.omega[i] = x[4 + i];
    return p;
}

/**
 * One fit's alternation: the sufficient statistics, the Eq. 12
 * chains and the workspace of every step, all sized once per fit.
 */
class Alternation
{
  public:
    Alternation(const TrainingData &data, const EstimatorOptions &opts,
                std::size_t ref_ci);

    /** Steps 1/3: coefficients at fixed voltages over `subset`,
     *  with the design's rank and condition in `diag`. */
    ModelParams fitCoefficients(const std::vector<VoltagePair> &voltages,
                                const std::vector<std::size_t> &subset,
                                linalg::LstsqDiagnostics &diag);

    /** Step 2: per-configuration voltage fit and Eq. 12 projection,
     *  warm-started from `v` and written back into it. */
    void fitVoltages(const ModelParams &params,
                     std::vector<VoltagePair> &v);

    /** Total (unweighted) squared error of a (params, voltages) pair,
     *  summed cell by cell. */
    double sse(const ModelParams &params,
               const std::vector<VoltagePair> &voltages);

  private:
    const TrainingData &data_;
    const EstimatorOptions &opts_;
    std::size_t ref_ci_;
    FitStatistics stats_;
    linalg::NormalEquations ne_;
    linalg::NnlsSolver nnls_;
    linalg::GramCholesky chol_;
    FitStatistics::VoltageMoments moments_;
    /** Eq. 12 chains: the configurations sharing a memory (core)
     *  clock, in ascending order of their core (memory) clock. */
    std::vector<std::vector<std::size_t>> core_chains_, mem_chains_;
    std::vector<double> chain_v_, chain_w_;
    /** Per configuration: β0·V̄c + β2·V̄m, V̄c²fc, V̄m²fm. */
    std::vector<double> static_w_, vc2fc_, vm2fm_;
};

Alternation::Alternation(const TrainingData &data,
                         const EstimatorOptions &opts, std::size_t ref_ci)
    : data_(data), opts_(opts), ref_ci_(ref_ci),
      stats_(data, opts.idle_row_weight), ne_(kNumFeatures),
      nnls_(kNumFeatures), static_w_(data.configs.size()),
      vc2fc_(data.configs.size()), vm2fm_(data.configs.size())
{
    const auto chains = [&](int gpu::FreqConfig::*shared,
                            int gpu::FreqConfig::*axis) {
        std::map<int, std::vector<std::size_t>> groups;
        for (std::size_t ci = 0; ci < data.configs.size(); ++ci)
            groups[data.configs[ci].*shared].push_back(ci);
        std::vector<std::vector<std::size_t>> out;
        for (auto &[clock, group] : groups) {
            std::sort(group.begin(), group.end(),
                      [&](std::size_t x, std::size_t y) {
                          return data.configs[x].*axis <
                                 data.configs[y].*axis;
                      });
            out.push_back(std::move(group));
        }
        return out;
    };
    core_chains_ = chains(&gpu::FreqConfig::mem_mhz,
                          &gpu::FreqConfig::core_mhz);
    mem_chains_ = chains(&gpu::FreqConfig::core_mhz,
                         &gpu::FreqConfig::mem_mhz);
}

ModelParams
Alternation::fitCoefficients(const std::vector<VoltagePair> &voltages,
                             const std::vector<std::size_t> &subset,
                             linalg::LstsqDiagnostics &diag)
{
    stats_.normalEquations(voltages, subset, ne_);
    // The pivoted Cholesky of the Gram gives the rank and condition,
    // and the signed fit's basic solution.
    ne_.gram(chol_.l);
    chol_.factor();
    diag = chol_.diagnostics();
    return toParams(opts_.nonnegative ? nnls_.solve(ne_, opts_.ridge)
                                      : chol_.solve(ne_.atb));
}

void
Alternation::fitVoltages(const ModelParams &params,
                         std::vector<VoltagePair> &v)
{
    stats_.voltageMoments(params, moments_);
    const FitStatistics::VoltageMoments &m = moments_;

    // One coordinate step. With the coefficients fixed, a
    // configuration's weighted SSE Σ w_b (P_b - β0·vc - vc²·fc·A_b -
    // β2·vm - vm²·fm·B_b)² is a polynomial in (vc, vm) whose
    // coefficients are the weighted moments. Along one axis x (clock
    // f, static coefficient β, aggregate G_b) the residual is
    // q_b - β·x - f·G_b·x² with q_b fixed, so the SSE is the quartic
    //   f²ΣwG²·x⁴ + 2βfΣwG·x³ + (β²Σw - 2fΣwqG)·x² - 2βΣwq·x + const
    // and the step is its exact minimizer on [v_min, v_max], found
    // from the current value.
    const auto axis_step = [&](double beta, double f, double swq,
                               double swqg, double swg, double swgg,
                               double current) {
        return linalg::argminQuartic(
                {0.0, -2.0 * beta * swq,
                 beta * beta * m.sw - 2.0 * f * swqg,
                 2.0 * beta * f * swg, f * f * swgg},
                opts_.v_min, opts_.v_max, current);
    };

    for (std::size_t ci = 0; ci < v.size(); ++ci) {
        if (ci == ref_ci_)
            continue; // pinned at (1, 1): the Eq. 5 normalization
        const gpu::FreqConfig &cfg = data_.configs[ci];
        const double fc = 1e-3 * cfg.core_mhz;
        const double fm = 1e-3 * cfg.mem_mhz;
        const double swp = m.swp[ci], swap = m.swap[ci],
                     swbp = m.swbp[ci];

        // Coordinate descent, warm-started from the previous outer
        // iterate; q_b is P_b less the other domain's terms.
        double vc = v[ci].core, vm = v[ci].mem;
        for (int round = 0; round < 4; ++round) {
            const double ms = params.beta2 * vm, mt = fm * vm * vm;
            vc = axis_step(params.beta0, fc, swp - ms * m.sw - mt * m.swb,
                           swap - ms * m.swa - mt * m.swab, m.swa,
                           m.swaa, vc);
            if (opts_.fit_mem_voltage) {
                const double cs = params.beta0 * vc, ct = fc * vc * vc;
                vm = axis_step(params.beta2, fm,
                               swp - cs * m.sw - ct * m.swa,
                               swbp - cs * m.swb - ct * m.swab, m.swb,
                               m.swbb, vm);
            }
        }
        v[ci] = {vc, vm};
    }

    if (opts_.monotonic_voltages) {
        // Eq. 12 projection: V̄ must be non-decreasing in its domain's
        // frequency, along each chain. The reference configuration is
        // given an overwhelming weight so pooling cannot move its
        // pinned value.
        const auto project = [&](const auto &chains,
                                 double VoltagePair::*field) {
            for (const std::vector<std::size_t> &chain : chains) {
                chain_v_.clear();
                chain_w_.clear();
                for (std::size_t ci : chain) {
                    chain_v_.push_back(v[ci].*field);
                    chain_w_.push_back(ci == ref_ci_ ? 1e9 : 1.0);
                }
                const auto fitted =
                        linalg::isotonicNonDecreasing(chain_v_, chain_w_);
                for (std::size_t k = 0; k < chain.size(); ++k)
                    v[chain[k]].*field = fitted[k];
            }
        };
        project(core_chains_, &VoltagePair::core);
        project(mem_chains_, &VoltagePair::mem);
    }

    // Keep the reference exactly pinned.
    v[ref_ci_] = {1.0, 1.0};
}

double
Alternation::sse(const ModelParams &params,
                 const std::vector<VoltagePair> &voltages)
{
    // A cell's prediction is β0·vc + β2·vm + vc²fc·A_b + vm²fm·B_b:
    // the first two are per configuration, A_b and B_b per
    // microbenchmark.
    for (std::size_t ci = 0; ci < voltages.size(); ++ci) {
        const VoltagePair &v = voltages[ci];
        const gpu::FreqConfig &cfg = data_.configs[ci];
        static_w_[ci] = params.beta0 * v.core + params.beta2 * v.mem;
        vc2fc_[ci] = v.core * v.core * (1e-3 * cfg.core_mhz);
        vm2fm_[ci] = v.mem * v.mem * (1e-3 * cfg.mem_mhz);
    }
    double s = 0.0;
    for (std::size_t b = 0; b < data_.utils.size(); ++b) {
        const gpu::ComponentArray &u = data_.utils[b];
        double a = params.beta1;
        for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
            if (i != kDram)
                a += params.omega[i] * u[i];
        const double bm = params.beta3 + params.omega[kDram] * u[kDram];
        const std::vector<double> &power = data_.power_w[b];
        for (std::size_t ci = 0; ci < voltages.size(); ++ci) {
            const double r = power[ci] - (static_w_[ci] + vc2fc_[ci] * a +
                                          vm2fm_[ci] * bm);
            s += r * r;
        }
    }
    return s;
}

} // namespace

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
    fit_span.arg("benchmarks", (long)data.utils.size());
    fit_span.arg("configs", (long)data.configs.size());

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
    linalg::LstsqDiagnostics diag;
    std::optional<Alternation> alt;
    {
        GPUPM_TRACE_SPAN("estimator", "estimator.init");
        alt.emplace(data, opts_, ref_ci);
        params = alt->fitCoefficients(voltages, subset, diag);
    }

    EstimationResult res;
    res.sse_history.push_back(alt->sse(params, voltages));

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

    if (!opts_.fit_voltages) {
        // Ablation: single step-3 pass with V̄ ≡ 1.
        params = alt->fitCoefficients(voltages, all, diag);
        res.sse_history.push_back(alt->sse(params, voltages));
        res.iterations = 1;
        res.converged = true;
        if (!finiteParams(params) ||
            !std::isfinite(res.sse_history.back()))
            return fail(numerical_failure("fitting coefficients"));
        emit(1, res.sse_history.back(), res.sse_history.front(), 0.0,
             diag.condition);
    } else {
        std::vector<VoltagePair> prev_v;
        for (int it = 0; it < opts_.max_iterations; ++it) {
            GPUPM_TRACE_SPAN_NAMED(it_span, "estimator",
                                   "estimator.iteration");
            it_span.arg("iteration", (long)it + 1);
            // Step 2: voltages given coefficients.
            prev_v = voltages;
            {
                GPUPM_TRACE_SPAN("estimator", "estimator.step2");
                alt->fitVoltages(params, voltages);
            }
            if (!finiteVoltages(voltages))
                return fail(numerical_failure("fitting voltages"));
            // Step 3: coefficients given voltages, all configs.
            {
                GPUPM_TRACE_SPAN("estimator", "estimator.step3");
                params = alt->fitCoefficients(voltages, all, diag);
            }
            if (!finiteParams(params))
                return fail(
                        numerical_failure("fitting coefficients"));

            double s;
            {
                GPUPM_TRACE_SPAN("estimator", "estimator.sse");
                s = alt->sse(params, voltages);
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
    fit_span.arg("iterations", (long)res.iterations);
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
