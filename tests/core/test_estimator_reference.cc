/**
 * @file
 * Differential test of the Sec. III-D estimator against a reference
 * implementation of the same algorithm kept here: step 2 by
 * golden-section coordinate search over the per-configuration SSE, and
 * steps 1/3 on the dense (benchmarks x configurations) x 11 design
 * matrix — Lawson–Hanson over linalg::leastSquares for the
 * non-negative fit, the pivoted-QR basic solution for the signed one,
 * and rank/condition from the same QR. The production estimator solves
 * the voltage step in closed form and the coefficient step on the
 * 11x11 normal equations; on real campaigns both must land on the same
 * fit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <utility>

#include "core/campaign.hh"
#include "core/estimator.hh"
#include "linalg/isotonic.hh"
#include "linalg/lstsq.hh"
#include "sim/physical_gpu.hh"
#include "ubench/suite.hh"

namespace
{

using namespace gpupm;
using gpu::Component;
using gpu::componentIndex;
using linalg::LstsqDiagnostics;
using linalg::Matrix;
using linalg::Vector;
using model::EstimatorOptions;
using model::ModelParams;
using model::TrainingData;
using model::VoltagePair;

constexpr std::size_t kNumFeatures = 4 + gpu::kNumComponents;
constexpr std::array<Component, 6> kCoreComponents = {
    Component::Int, Component::SP, Component::DP,
    Component::SF, Component::Shared, Component::L2,
};

bool
isIdleRow(const gpu::ComponentArray &util)
{
    for (double u : util)
        if (u != 0.0)
            return false;
    return true;
}

/** Golden-section minimization of a unimodal 1-D function. */
template <typename F>
double
minimize1d(F f, double lo, double hi, int iters = 80)
{
    constexpr double phi = 0.6180339887498949;
    double a = lo, b = hi;
    double x1 = b - phi * (b - a);
    double x2 = a + phi * (b - a);
    double f1 = f(x1), f2 = f(x2);
    for (int i = 0; i < iters; ++i) {
        if (f1 < f2) {
            b = x2;
            x2 = x1;
            f2 = f1;
            x1 = b - phi * (b - a);
            f1 = f(x1);
        } else {
            a = x1;
            x1 = x2;
            f1 = f2;
            x2 = a + phi * (b - a);
            f2 = f(x2);
        }
    }
    return 0.5 * (a + b);
}

/** Lawson–Hanson NNLS on the dense ridge-augmented system. */
Vector
denseNnlsRidge(const Matrix &design, const Vector &rhs, double ridge)
{
    const std::size_t m = design.rows() + design.cols();
    const std::size_t n = design.cols();
    Matrix a(m, n);
    Vector b(m, 0.0);
    for (std::size_t r = 0; r < design.rows(); ++r) {
        for (std::size_t c = 0; c < n; ++c)
            a(r, c) = design(r, c);
        b[r] = rhs[r];
    }
    for (std::size_t j = 0; j < n; ++j)
        a(design.rows() + j, j) = std::sqrt(ridge);

    const std::size_t max_iter = 3 * n + 30;
    std::vector<bool> in_p(n, false);
    Vector x(n, 0.0);
    const Matrix at = a.transposed();
    const double tol = 1e-10 * (1.0 + b.norm());
    for (std::size_t outer = 0; outer < max_iter; ++outer) {
        const Vector w = at * (b - a * x);
        std::size_t best = n;
        double best_w = tol;
        for (std::size_t j = 0; j < n; ++j) {
            if (!in_p[j] && w[j] > best_w) {
                best_w = w[j];
                best = j;
            }
        }
        if (best == n)
            break;
        in_p[best] = true;
        for (std::size_t inner = 0; inner <= max_iter; ++inner) {
            std::vector<std::size_t> p;
            for (std::size_t j = 0; j < n; ++j)
                if (in_p[j])
                    p.push_back(j);
            Matrix ap(m, p.size());
            for (std::size_t r = 0; r < m; ++r)
                for (std::size_t c = 0; c < p.size(); ++c)
                    ap(r, c) = a(r, p[c]);
            const Vector z = linalg::leastSquares(ap, b);
            bool all_positive = true;
            for (double v : z.data())
                if (v <= 0.0)
                    all_positive = false;
            if (all_positive) {
                for (std::size_t j = 0; j < n; ++j)
                    x[j] = 0.0;
                for (std::size_t c = 0; c < p.size(); ++c)
                    x[p[c]] = z[c];
                break;
            }
            double alpha = 1.0;
            for (std::size_t c = 0; c < p.size(); ++c) {
                if (z[c] <= 0.0) {
                    const double xj = x[p[c]];
                    const double denom = xj - z[c];
                    if (denom > 0.0)
                        alpha = std::min(alpha, xj / denom);
                }
            }
            for (std::size_t c = 0; c < p.size(); ++c)
                x[p[c]] += alpha * (z[c] - x[p[c]]);
            for (std::size_t c = 0; c < p.size(); ++c)
                if (x[p[c]] <= tol) {
                    x[p[c]] = 0.0;
                    in_p[p[c]] = false;
                }
        }
    }
    return x;
}

Vector
toVector(const ModelParams &p)
{
    Vector x(kNumFeatures);
    x[0] = p.beta0;
    x[1] = p.beta1;
    x[2] = p.beta2;
    x[3] = p.beta3;
    for (std::size_t k = 0; k < kCoreComponents.size(); ++k)
        x[4 + k] = p.omega[componentIndex(kCoreComponents[k])];
    x[4 + kCoreComponents.size()] =
            p.omega[componentIndex(Component::Dram)];
    return x;
}

ModelParams
toParams(const Vector &x)
{
    ModelParams p;
    p.beta0 = x[0];
    p.beta1 = x[1];
    p.beta2 = x[2];
    p.beta3 = x[3];
    for (std::size_t k = 0; k < kCoreComponents.size(); ++k)
        p.omega[componentIndex(kCoreComponents[k])] = x[4 + k];
    p.omega[componentIndex(Component::Dram)] =
            x[4 + kCoreComponents.size()];
    return p;
}

/**
 * The (benchmarks x configurations) x 11 coefficient design over a
 * configuration subset, each row scaled by the square root of its
 * weight.
 */
std::pair<Matrix, Vector>
denseDesign(const TrainingData &data,
            const std::vector<VoltagePair> &voltages,
            const std::vector<std::size_t> &subset, double idle_weight)
{
    const std::size_t nb = data.utils.size();
    Matrix a(nb * subset.size(), kNumFeatures);
    Vector rhs(nb * subset.size());
    std::size_t row = 0;
    for (std::size_t b = 0; b < nb; ++b) {
        const double rw =
                std::sqrt(isIdleRow(data.utils[b]) ? idle_weight : 1.0);
        for (std::size_t ci : subset) {
            const gpu::FreqConfig &cfg = data.configs[ci];
            const VoltagePair &v = voltages[ci];
            const double fc = 1e-3 * cfg.core_mhz;
            const double fm = 1e-3 * cfg.mem_mhz;
            const double vc2fc = v.core * v.core * fc;
            const double vm2fm = v.mem * v.mem * fm;
            a(row, 0) = rw * v.core;
            a(row, 1) = rw * vc2fc;
            a(row, 2) = rw * v.mem;
            a(row, 3) = rw * vm2fm;
            for (std::size_t k = 0; k < kCoreComponents.size(); ++k)
                a(row, 4 + k) =
                        rw * vc2fc *
                        data.utils[b][componentIndex(kCoreComponents[k])];
            a(row, 4 + kCoreComponents.size()) =
                    rw * vm2fm *
                    data.utils[b][componentIndex(Component::Dram)];
            rhs[row] = rw * data.power_w[b][ci];
            ++row;
        }
    }
    return {std::move(a), std::move(rhs)};
}

/** Step 1's subset: the reference, then a core and a memory
 *  perturbation of it (Eq. 11). */
std::vector<std::size_t>
initSubset(const TrainingData &data)
{
    const std::size_t ref_ci = *data.configIndex(data.reference);
    std::vector<std::size_t> subset = {ref_ci};
    const auto push_if = [&](auto pred) {
        for (std::size_t ci = 0; ci < data.configs.size(); ++ci) {
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
    return subset;
}

/** The reference estimator: same algorithm, dense kernels. */
class ReferenceEstimator
{
  public:
    explicit ReferenceEstimator(EstimatorOptions opts) : opts_(opts) {}

    struct Fit
    {
        ModelParams params;
        std::vector<VoltagePair> voltages;
        std::vector<double> sse_history;
        int iterations = 0;
        LstsqDiagnostics diag;
    };

    Fit estimate(const TrainingData &data) const
    {
        const std::size_t nc = data.configs.size();
        const std::size_t ref_ci = *data.configIndex(data.reference);

        Fit fit;
        fit.voltages.assign(nc, VoltagePair{});
        fit.params = fitCoefficients(data, fit.voltages,
                                     initSubset(data), nullptr);
        fit.sse_history.push_back(sse(data, fit.params, fit.voltages));

        std::vector<std::size_t> all(nc);
        for (std::size_t i = 0; i < nc; ++i)
            all[i] = i;
        if (!opts_.fit_voltages) {
            fit.params = fitCoefficients(data, fit.voltages, all,
                                         &fit.diag);
            fit.sse_history.push_back(
                    sse(data, fit.params, fit.voltages));
            fit.iterations = 1;
            return fit;
        }
        for (int it = 0; it < opts_.max_iterations; ++it) {
            fit.voltages = fitVoltages(data, fit.params, fit.voltages,
                                       ref_ci);
            fit.params = fitCoefficients(data, fit.voltages, all,
                                         &fit.diag);
            const double s = sse(data, fit.params, fit.voltages);
            const double prev = fit.sse_history.back();
            fit.sse_history.push_back(s);
            fit.iterations = it + 1;
            if (std::abs(prev - s) <=
                opts_.tolerance * std::max(prev, 1.0))
                break;
        }
        return fit;
    }

  private:
    ModelParams fitCoefficients(const TrainingData &data,
                                const std::vector<VoltagePair> &voltages,
                                const std::vector<std::size_t> &subset,
                                LstsqDiagnostics *diag) const
    {
        const auto [a, rhs] = denseDesign(data, voltages, subset,
                                          opts_.idle_row_weight);
        LstsqDiagnostics d;
        const Vector basic = linalg::leastSquares(a, rhs, 1e-12, &d);
        if (diag)
            *diag = d;
        return toParams(opts_.nonnegative
                                ? denseNnlsRidge(a, rhs, opts_.ridge)
                                : basic);
    }

    std::vector<VoltagePair>
    fitVoltages(const TrainingData &data, const ModelParams &params,
                const std::vector<VoltagePair> &start,
                std::size_t ref_ci) const
    {
        const std::size_t nb = data.utils.size();
        const std::size_t nc = data.configs.size();
        std::vector<double> core_agg(nb), mem_agg(nb);
        for (std::size_t b = 0; b < nb; ++b) {
            double s = params.beta1;
            for (Component c : kCoreComponents)
                s += params.omega[componentIndex(c)] *
                     data.utils[b][componentIndex(c)];
            core_agg[b] = s;
            mem_agg[b] = params.beta3 +
                         params.omega[componentIndex(Component::Dram)] *
                                 data.utils[b]
                                           [componentIndex(Component::Dram)];
        }

        std::vector<VoltagePair> v(nc);
        for (std::size_t ci = 0; ci < nc; ++ci) {
            if (ci == ref_ci)
                continue;
            const double fc = 1e-3 * data.configs[ci].core_mhz;
            const double fm = 1e-3 * data.configs[ci].mem_mhz;
            const auto config_sse = [&](double vc, double vm) {
                double s = 0.0;
                for (std::size_t b = 0; b < nb; ++b) {
                    const double pred = params.beta0 * vc +
                                        vc * vc * fc * core_agg[b] +
                                        params.beta2 * vm +
                                        vm * vm * fm * mem_agg[b];
                    const double r = data.power_w[b][ci] - pred;
                    const double w = isIdleRow(data.utils[b])
                                             ? opts_.idle_row_weight
                                             : 1.0;
                    s += w * r * r;
                }
                return s;
            };
            double vc = start[ci].core, vm = start[ci].mem;
            for (int round = 0; round < 4; ++round) {
                vc = minimize1d(
                        [&](double x) { return config_sse(x, vm); },
                        opts_.v_min, opts_.v_max);
                if (opts_.fit_mem_voltage)
                    vm = minimize1d(
                            [&](double x) { return config_sse(vc, x); },
                            opts_.v_min, opts_.v_max);
            }
            v[ci] = {vc, vm};
        }
        if (!opts_.monotonic_voltages)
            return v;

        const auto project = [&](auto key, auto axis, auto field) {
            std::map<int, std::vector<std::size_t>> groups;
            for (std::size_t ci = 0; ci < nc; ++ci)
                groups[key(data.configs[ci])].push_back(ci);
            for (auto &[k, group] : groups) {
                std::sort(group.begin(), group.end(),
                          [&](std::size_t x, std::size_t y) {
                              return axis(data.configs[x]) <
                                     axis(data.configs[y]);
                          });
                std::vector<double> vals, w;
                for (std::size_t ci : group) {
                    vals.push_back(v[ci].*field);
                    w.push_back(ci == ref_ci ? 1e9 : 1.0);
                }
                const auto fitted = linalg::isotonicNonDecreasing(vals, w);
                for (std::size_t i = 0; i < group.size(); ++i)
                    v[group[i]].*field = fitted[i];
            }
        };
        const auto mem = [](const gpu::FreqConfig &c) { return c.mem_mhz; };
        const auto core = [](const gpu::FreqConfig &c) {
            return c.core_mhz;
        };
        project(mem, core, &VoltagePair::core);
        project(core, mem, &VoltagePair::mem);
        v[ref_ci] = {1.0, 1.0};
        return v;
    }

    static double sse(const TrainingData &data, const ModelParams &params,
                      const std::vector<VoltagePair> &voltages)
    {
        model::DvfsPowerModel m(data.device, data.reference, params);
        double s = 0.0;
        for (std::size_t b = 0; b < data.utils.size(); ++b) {
            for (std::size_t ci = 0; ci < data.configs.size(); ++ci) {
                const double r =
                        data.power_w[b][ci] -
                        m.predictWithVoltages(data.utils[b],
                                              data.configs[ci],
                                              voltages[ci])
                                .total_w;
                s += r * r;
            }
        }
        return s;
    }

    EstimatorOptions opts_;
};

/** The fig7_validation campaign (5 repetitions) at a noise seed. */
const TrainingData &
campaign(gpu::DeviceKind kind, std::uint64_t seed)
{
    static std::map<std::pair<int, std::uint64_t>, TrainingData> cache;
    auto [it, fresh] =
            cache.try_emplace({static_cast<int>(kind), seed});
    if (fresh) {
        const sim::PhysicalGpu board(kind);
        model::CampaignOptions opts;
        opts.power_repetitions = 5;
        opts.seed = seed;
        it->second = model::runTrainingCampaign(
                board, ubench::buildSuite(), opts);
    }
    return it->second;
}

struct Case
{
    std::string name;
    gpu::DeviceKind kind;
    std::uint64_t seed;
    EstimatorOptions opts;
};

class EstimatorReference : public ::testing::TestWithParam<Case>
{
};

TEST_P(EstimatorReference, MatchesDenseGoldenSectionFit)
{
    const Case &c = GetParam();
    const TrainingData &data = campaign(c.kind, c.seed);
    const auto res = model::ModelEstimator(c.opts).tryEstimate(data);
    ASSERT_TRUE(res.ok()) << res.error().message;
    const model::EstimationResult &fit = res.value();
    const auto want = ReferenceEstimator(c.opts).estimate(data);

    EXPECT_EQ(fit.iterations, want.iterations);
    EXPECT_EQ(fit.design_rank, want.diag.rank);
    EXPECT_NEAR(fit.condition_number, want.diag.condition,
                1e-4 * want.diag.condition);
    EXPECT_NEAR(fit.sse_history.back(), want.sse_history.back(),
                1e-8 * want.sse_history.back());

    for (std::size_t ci = 0; ci < data.configs.size(); ++ci) {
        const VoltagePair got = fit.model.voltages(data.configs[ci]);
        EXPECT_NEAR(got.core, want.voltages[ci].core, 1e-6) << ci;
        EXPECT_NEAR(got.mem, want.voltages[ci].mem, 1e-6) << ci;
    }
    // Coefficients: the same zero pattern, and within 1e-6 of the
    // largest coefficient. Componentwise they can differ more: the
    // golden section resolves a voltage only to about 1e-8 (the
    // square root of the SSE's rounding), and on the K40c, whose
    // single memory clock leaves the β0/β2 static split to the ridge,
    // that noise moves β2 by up to 1e-5 of its own size.
    const Vector got = toVector(fit.model.params());
    const Vector ref = toVector(want.params);
    double scale = 0.0;
    for (std::size_t k = 0; k < kNumFeatures; ++k)
        scale = std::max(scale, std::abs(ref[k]));
    for (std::size_t k = 0; k < kNumFeatures; ++k) {
        EXPECT_EQ(got[k] == 0.0, ref[k] == 0.0) << "coefficient " << k;
        EXPECT_NEAR(got[k], ref[k], 1e-6 * scale) << "coefficient " << k;
    }
}

TEST(EstimatorReference, SignedInitializationZerosTheSameCoefficient)
{
    // With V̄ = 1 the β0 and β2 columns coincide: the signed fit's
    // basic solution must drop the same one of the pair as the QR.
    const TrainingData &data = campaign(gpu::DeviceKind::GtxTitanX, 42);
    const std::vector<VoltagePair> ones(data.configs.size());
    const auto [a, rhs] =
            denseDesign(data, ones, initSubset(data),
                        EstimatorOptions{}.idle_row_weight);
    LstsqDiagnostics qr;
    const Vector want = linalg::leastSquares(a, rhs, 1e-12, &qr);
    const auto ne = linalg::NormalEquations::of(a, rhs);
    linalg::GramCholesky chol;
    ne.gram(chol.l);
    chol.factor();
    const Vector got = chol.solve(ne.atb);

    ASSERT_EQ(qr.rank, kNumFeatures - 1);
    EXPECT_EQ(chol.rank, qr.rank);
    double scale = 0.0;
    for (std::size_t k = 0; k < kNumFeatures; ++k)
        scale = std::max(scale, std::abs(want[k]));
    for (std::size_t k = 0; k < kNumFeatures; ++k) {
        EXPECT_EQ(got[k] == 0.0, want[k] == 0.0) << "coefficient " << k;
        EXPECT_NEAR(got[k], want[k], 1e-6 * scale) << "coefficient " << k;
    }
    EXPECT_TRUE(want[0] == 0.0 || want[2] == 0.0);
}

void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.name;
}

std::vector<Case>
paperCampaigns()
{
    const std::pair<gpu::DeviceKind, const char *> boards[] = {
            {gpu::DeviceKind::TitanXp, "titanxp"},
            {gpu::DeviceKind::GtxTitanX, "titanx"},
            {gpu::DeviceKind::TeslaK40c, "k40c"},
    };
    std::vector<Case> out;
    for (const auto &[kind, token] : boards)
        for (std::uint64_t seed = 42; seed <= 44; ++seed)
            out.push_back({std::string(token) + "_" + std::to_string(seed),
                           kind, seed, {}});
    return out;
}

/** bench/ablation_voltage's variants, on its two boards. */
std::vector<Case>
ablationVariants()
{
    std::vector<std::pair<const char *, EstimatorOptions>> variants;
    EstimatorOptions o;
    o.fit_voltages = false;
    variants.emplace_back("no_voltages", o);
    o = {};
    o.monotonic_voltages = false;
    variants.emplace_back("no_monotonicity", o);
    o = {};
    o.fit_mem_voltage = false;
    variants.emplace_back("mem_pinned", o);
    o = {};
    o.nonnegative = false;
    variants.emplace_back("signed_ls", o);
    o = {};
    o.idle_row_weight = 1.0;
    variants.emplace_back("idle_weight_1", o);

    std::vector<Case> out;
    for (const auto &[kind, token] :
         {std::pair{gpu::DeviceKind::TitanXp, "titanxp"},
          std::pair{gpu::DeviceKind::GtxTitanX, "titanx"}})
        for (const auto &[vname, vopts] : variants)
            out.push_back({std::string(token) + "_" + vname, kind, 42,
                           vopts});
    return out;
}

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(PaperCampaigns, EstimatorReference,
                         ::testing::ValuesIn(paperCampaigns()), caseName);
INSTANTIATE_TEST_SUITE_P(AblationVariants, EstimatorReference,
                         ::testing::ValuesIn(ablationVariants()),
                         caseName);

} // namespace
