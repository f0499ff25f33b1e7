/**
 * @file
 * Unit and property tests of the least-squares solvers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/random.hh"
#include "linalg/lstsq.hh"

namespace
{

using gpupm::Rng;
using gpupm::linalg::GramCholesky;
using gpupm::linalg::LstsqDiagnostics;
using gpupm::linalg::Matrix;
using gpupm::linalg::NnlsSolver;
using gpupm::linalg::NormalEquations;
using gpupm::linalg::Vector;

TEST(LeastSquares, ExactSquareSystem)
{
    Matrix a = {{2.0, 0.0}, {0.0, 4.0}};
    Vector b = {6.0, 8.0};
    Vector x = gpupm::linalg::leastSquares(a, b);
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LeastSquares, OverdeterminedRecoversGenerator)
{
    // y = 2 + 3 t sampled with no noise.
    Matrix a(10, 2);
    Vector b(10);
    for (std::size_t i = 0; i < 10; ++i) {
        const double t = static_cast<double>(i);
        a(i, 0) = 1.0;
        a(i, 1) = t;
        b[i] = 2.0 + 3.0 * t;
    }
    Vector x = gpupm::linalg::leastSquares(a, b);
    EXPECT_NEAR(x[0], 2.0, 1e-10);
    EXPECT_NEAR(x[1], 3.0, 1e-10);
}

TEST(LeastSquares, ResidualOrthogonalToColumns)
{
    Rng rng(4);
    Matrix a(20, 3);
    Vector b(20);
    for (std::size_t r = 0; r < 20; ++r) {
        for (std::size_t c = 0; c < 3; ++c)
            a(r, c) = rng.normal();
        b[r] = rng.normal();
    }
    Vector x = gpupm::linalg::leastSquares(a, b);
    Vector resid = a * x - b;
    Matrix at = a.transposed();
    Vector g = at * resid;
    for (std::size_t c = 0; c < 3; ++c)
        EXPECT_NEAR(g[c], 0.0, 1e-9);
}

TEST(LeastSquares, RankDeficientZerosRedundantCoefficient)
{
    // Two identical columns: a basic solution should not explode.
    Matrix a(6, 2);
    Vector b(6);
    for (std::size_t r = 0; r < 6; ++r) {
        a(r, 0) = static_cast<double>(r + 1);
        a(r, 1) = static_cast<double>(r + 1);
        b[r] = 2.0 * static_cast<double>(r + 1);
    }
    Vector x = gpupm::linalg::leastSquares(a, b);
    EXPECT_NEAR(x[0] + x[1], 2.0, 1e-9);
    EXPECT_LT(std::abs(x[0]), 10.0);
    EXPECT_LT(std::abs(x[1]), 10.0);
}

TEST(LeastSquares, DimensionMismatchPanics)
{
    Matrix a(3, 2);
    Vector b(4);
    EXPECT_THROW(gpupm::linalg::leastSquares(a, b), std::logic_error);
}

/** NNLS on the normal equations of a dense system, cold started. */
Vector
nnlsOf(const Matrix &a, const Vector &b, double ridge = 0.0)
{
    NnlsSolver solver(a.cols());
    return solver.solve(NormalEquations::of(a, b), ridge);
}

TEST(Nnls, MatchesUnconstrainedWhenInterior)
{
    Matrix a = {{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
    Vector b = {1.0, 2.0, 3.0};
    Vector u = gpupm::linalg::leastSquares(a, b);
    Vector n = nnlsOf(a, b);
    ASSERT_GT(u[0], 0.0);
    ASSERT_GT(u[1], 0.0);
    EXPECT_NEAR(n[0], u[0], 1e-8);
    EXPECT_NEAR(n[1], u[1], 1e-8);
}

TEST(Nnls, ClampsNegativeComponent)
{
    // Unconstrained solution has a negative coefficient; NNLS must
    // return 0 there.
    Matrix a = {{1.0, 1.0}, {1.0, 1.0}, {0.0, 1.0}};
    Vector b = {1.0, 1.0, -2.0};
    Vector n = nnlsOf(a, b);
    EXPECT_GE(n[0], 0.0);
    EXPECT_GE(n[1], 0.0);
    EXPECT_DOUBLE_EQ(n[1], 0.0);
}

TEST(Nnls, AllZeroWhenRhsNegative)
{
    Matrix a = {{1.0}, {1.0}};
    Vector b = {-1.0, -2.0};
    Vector n = nnlsOf(a, b);
    EXPECT_DOUBLE_EQ(n[0], 0.0);
}

/** Property sweep: NNLS never returns negatives and never beats the
 *  unconstrained optimum. */
class NnlsProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(NnlsProperty, NonNegativeAndBounded)
{
    Rng rng(GetParam());
    const std::size_t m = 12 + rng.below(10);
    const std::size_t n = 2 + rng.below(5);
    Matrix a(m, n);
    Vector b(m);
    for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t c = 0; c < n; ++c)
            a(r, c) = rng.normal();
        b[r] = rng.normal();
    }
    Vector x = nnlsOf(a, b);
    for (std::size_t c = 0; c < n; ++c)
        EXPECT_GE(x[c], 0.0);
    const double rss_nnls = gpupm::linalg::residualSumSquares(a, x, b);
    Vector u = gpupm::linalg::leastSquares(a, b);
    const double rss_ls = gpupm::linalg::residualSumSquares(a, u, b);
    EXPECT_GE(rss_nnls, rss_ls - 1e-9);
    // And no worse than the zero solution.
    EXPECT_LE(rss_nnls, b.dot(b) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, NnlsProperty,
                         ::testing::Range(1, 21));

TEST(NnlsRidge, ShrinksDegenerateSplit)
{
    // Identical columns: ridge splits the weight instead of picking an
    // arbitrary basic solution.
    Matrix a(4, 2);
    Vector b(4);
    for (std::size_t r = 0; r < 4; ++r) {
        a(r, 0) = 1.0;
        a(r, 1) = 1.0;
        b[r] = 4.0;
    }
    Vector x = nnlsOf(a, b, 1e-6);
    EXPECT_NEAR(x[0] + x[1], 4.0, 1e-3);
    EXPECT_NEAR(x[0], x[1], 1e-3);
}

TEST(NnlsRidge, ZeroRidgeDelegates)
{
    Matrix a = {{1.0, 0.0}, {0.0, 1.0}};
    Vector b = {1.0, 2.0};
    Vector x = nnlsOf(a, b, 0.0);
    EXPECT_NEAR(x[0], 1.0, 1e-9);
    EXPECT_NEAR(x[1], 2.0, 1e-9);
}

TEST(NnlsRidge, NegativeRidgePanics)
{
    Matrix a(1, 1);
    Vector b(1);
    EXPECT_THROW(nnlsOf(a, b, -1.0), std::logic_error);
}

TEST(NormalEquations, WeightedRowsMatchScaledDenseSystem)
{
    // Weight w on a row is the row scaled by sqrt(w) in the dense form.
    Rng rng(9);
    Matrix a(15, 4), scaled(15, 4);
    Vector b(15), sb(15);
    NormalEquations ne(4);
    for (std::size_t r = 0; r < 15; ++r) {
        const double w = 0.5 + rng.uniform() * 8.0;
        for (std::size_t c = 0; c < 4; ++c) {
            a(r, c) = rng.normal();
            scaled(r, c) = std::sqrt(w) * a(r, c);
        }
        b[r] = rng.normal();
        sb[r] = std::sqrt(w) * b[r];
        ne.addRow(&a(r, 0), b[r], w);
    }
    const NormalEquations dense = NormalEquations::of(scaled, sb);
    Matrix got, want;
    ne.gram(got);
    dense.gram(want);
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
            EXPECT_NEAR(got(i, j), want(i, j), 1e-12);
            EXPECT_EQ(got(i, j), got(j, i));
        }
        EXPECT_NEAR(ne.atb[i], dense.atb[i], 1e-12);
    }
    EXPECT_NEAR(ne.btb, sb.dot(sb), 1e-12);
}

/** The pivoted Cholesky of the Gram of `ne`. */
GramCholesky
choleskyOf(const NormalEquations &ne)
{
    GramCholesky f;
    ne.gram(f.l);
    f.factor();
    return f;
}

TEST(GramCholesky, SolveMatchesQrOnFullRankSystems)
{
    for (int seed = 1; seed <= 10; ++seed) {
        Rng rng(seed);
        const std::size_t m = 20 + rng.below(10);
        const std::size_t n = 2 + rng.below(9);
        Matrix a(m, n);
        Vector b(m);
        for (std::size_t r = 0; r < m; ++r) {
            for (std::size_t c = 0; c < n; ++c)
                a(r, c) = rng.normal() * static_cast<double>(c + 1);
            b[r] = rng.normal();
        }
        LstsqDiagnostics qr_diag;
        const Vector want =
                gpupm::linalg::leastSquares(a, b, 1e-12, &qr_diag);
        const NormalEquations ne = NormalEquations::of(a, b);
        const GramCholesky chol = choleskyOf(ne);
        const Vector got = chol.solve(ne.atb);
        for (std::size_t c = 0; c < n; ++c)
            EXPECT_NEAR(got[c], want[c], 1e-9) << "seed " << seed;
        // The Gram pivots are the squared QR pivots.
        const LstsqDiagnostics d = chol.diagnostics();
        EXPECT_EQ(d.rank, qr_diag.rank);
        EXPECT_NEAR(d.condition, qr_diag.condition,
                    1e-9 * qr_diag.condition);
    }
}

TEST(GramCholesky, BasicSolutionZerosTheSameColumnAsQr)
{
    // Columns 0 and 2 are identical (the β0/β2 pair of the estimator's
    // V̄ = 1 initialization): both solvers keep the first pivoted of
    // the pair and zero the other.
    Rng rng(21);
    Matrix a(30, 4);
    Vector b(30);
    for (std::size_t r = 0; r < 30; ++r) {
        const double w = 1.0 + rng.uniform();
        a(r, 0) = w;
        a(r, 1) = w * rng.uniform();
        a(r, 2) = w;
        a(r, 3) = w * rng.uniform() * 3.0;
        b[r] = 50.0 + rng.normal();
    }
    LstsqDiagnostics qr_diag;
    const Vector want = gpupm::linalg::leastSquares(a, b, 1e-12, &qr_diag);
    const NormalEquations ne = NormalEquations::of(a, b);
    const GramCholesky chol = choleskyOf(ne);
    const Vector got = chol.solve(ne.atb);
    EXPECT_EQ(qr_diag.rank, 3u);
    EXPECT_EQ(chol.diagnostics().rank, 3u);
    for (std::size_t c = 0; c < 4; ++c) {
        EXPECT_EQ(got[c] == 0.0, want[c] == 0.0) << "column " << c;
        EXPECT_NEAR(got[c], want[c], 1e-8 * (1.0 + std::abs(want[c])));
    }
}

TEST(GramCholesky, ZeroGramHasRankZero)
{
    const GramCholesky chol = choleskyOf(NormalEquations(3));
    EXPECT_EQ(chol.rank, 0u);
    const Vector x = chol.solve(Vector{1.0, 2.0, 3.0});
    for (std::size_t c = 0; c < 3; ++c)
        EXPECT_EQ(x[c], 0.0);
}

/**
 * nnls before NnlsSolver, kept as the reference: Lawson–Hanson from
 * the empty passive set, with a fresh sub-Gram and factorization per
 * inner step.
 */
Vector
referenceNnls(const NormalEquations &ne, double ridge)
{
    const std::size_t n = ne.atb.size();
    const std::size_t max_iter = 3 * n + 30;
    Matrix g;
    ne.gram(g);
    for (std::size_t j = 0; j < n; ++j)
        g(j, j) += ridge;
    const double tol = 1e-10 * (1.0 + std::sqrt(ne.btb));

    std::vector<bool> in_p(n, false);
    Vector x(n, 0.0);
    for (std::size_t outer = 0; outer < max_iter; ++outer) {
        std::size_t best = n;
        double best_w = tol;
        for (std::size_t j = 0; j < n; ++j) {
            if (in_p[j])
                continue;
            double w = ne.atb[j];
            for (std::size_t c = 0; c < n; ++c)
                w -= g(j, c) * x[c];
            if (w > best_w) {
                best_w = w;
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
            GramCholesky gp;
            gp.l = Matrix(p.size(), p.size());
            Vector bp(p.size());
            for (std::size_t r = 0; r < p.size(); ++r) {
                for (std::size_t c = 0; c < p.size(); ++c)
                    gp.l(r, c) = g(p[r], p[c]);
                bp[r] = ne.atb[p[r]];
            }
            gp.factor();
            const Vector z = gp.solve(bp);
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

std::uint64_t
bitsOf(double x)
{
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

/** Bit-for-bit equality of two vectors. */
void
expectSameBits(const Vector &got, const Vector &want, const char *what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t j = 0; j < want.size(); ++j)
        EXPECT_EQ(bitsOf(got[j]), bitsOf(want[j]))
                << what << ", coefficient " << j << ": got " << got[j]
                << ", want " << want[j];
}

/**
 * A ridged 11-column problem shaped like the estimator's coefficient
 * step: non-negative features over 60 rows and a target whose
 * generating coefficients are partly negative, so the solution has
 * both free and bound columns.
 */
NormalEquations
estimatorLikeProblem(Rng &rng)
{
    constexpr std::size_t kN = 11;
    Vector truth(kN);
    for (std::size_t c = 0; c < kN; ++c)
        truth[c] = 20.0 * rng.uniform() - (c % 3 == 0 ? 15.0 : 2.0);
    NormalEquations ne(kN);
    double row[kN];
    for (int r = 0; r < 60; ++r) {
        double b = 0.0;
        for (std::size_t c = 0; c < kN; ++c) {
            row[c] = 0.5 + rng.uniform() * static_cast<double>(c + 1);
            b += truth[c] * row[c];
        }
        ne.addRow(row, b + rng.normal(), r % 10 == 0 ? 8.0 : 1.0);
    }
    return ne;
}

/** True when the free solve on `set` is positive on every column. */
bool
freeSolveIsPositive(const NormalEquations &ne, double ridge,
                    const std::vector<bool> &set)
{
    std::vector<std::size_t> p;
    for (std::size_t j = 0; j < set.size(); ++j)
        if (set[j])
            p.push_back(j);
    Matrix g;
    ne.gram(g);
    GramCholesky gp;
    gp.l = Matrix(p.size(), p.size());
    Vector bp(p.size());
    for (std::size_t r = 0; r < p.size(); ++r) {
        for (std::size_t c = 0; c < p.size(); ++c)
            gp.l(r, c) = g(p[r], p[c]) + (r == c ? ridge : 0.0);
        bp[r] = ne.atb[p[r]];
    }
    gp.factor();
    const Vector z = gp.solve(bp);
    return std::all_of(z.data().begin(), z.data().end(),
                       [](double v) { return v > 0.0; });
}

constexpr double kRidge = 1e-3;

TEST(NnlsSolver, ColdStartMatchesReferenceBitForBit)
{
    Rng rng(31);
    for (int trial = 0; trial < 50; ++trial) {
        const NormalEquations ne = estimatorLikeProblem(rng);
        const Vector want = referenceNnls(ne, kRidge);
        NnlsSolver solver(ne.atb.size());
        expectSameBits(solver.solve(ne, kRidge), want, "solver");
        for (std::size_t j = 0; j < want.size(); ++j)
            EXPECT_EQ(solver.passive[j], want[j] > 0.0) << j;
    }
}

TEST(NnlsSolver, CarriedFinalPassiveSetReturnsColdSolutionBitForBit)
{
    Rng rng(32);
    for (int trial = 0; trial < 50; ++trial) {
        const NormalEquations ne = estimatorLikeProblem(rng);
        const Vector want = referenceNnls(ne, kRidge);
        NnlsSolver solver(ne.atb.size());
        for (std::size_t j = 0; j < want.size(); ++j)
            solver.passive[j] = want[j] > 0.0;
        expectSameBits(solver.solve(ne, kRidge), want, "carried set");
    }
}

TEST(NnlsSolver, AnyOtherStartReturnsColdSolution)
{
    Rng rng(33);
    int not_positive = 0, positive_but_wrong = 0;
    for (int trial = 0; trial < 50; ++trial) {
        const NormalEquations ne = estimatorLikeProblem(rng);
        const Vector want = referenceNnls(ne, kRidge);
        const std::size_t n = want.size();
        std::vector<bool> final_set(n);
        for (std::size_t j = 0; j < n; ++j)
            final_set[j] = want[j] > 0.0;

        std::vector<std::vector<bool>> starts;
        starts.emplace_back(n, false);           // empty
        starts.emplace_back(n, true);            // every column
        std::vector<bool> superset = final_set;  // one bound column freed
        for (std::size_t j = 0; j < n; ++j)
            if (!superset[j]) {
                superset[j] = true;
                break;
            }
        starts.push_back(superset);
        std::vector<bool> subset = final_set;    // one free column bound
        for (std::size_t j = 0; j < n; ++j)
            if (subset[j]) {
                subset[j] = false;
                break;
            }
        starts.push_back(subset);
        std::vector<bool> random(n);             // unrelated
        for (std::size_t j = 0; j < n; ++j)
            random[j] = rng.uniform() < 0.5;
        starts.push_back(random);

        for (const std::vector<bool> &start : starts) {
            if (start == final_set)
                continue;
            const bool any = std::find(start.begin(), start.end(), true) !=
                             start.end();
            if (any && freeSolveIsPositive(ne, kRidge, start))
                ++positive_but_wrong;
            else if (any)
                ++not_positive;
            NnlsSolver solver(n);
            solver.passive = start;
            expectSameBits(solver.solve(ne, kRidge), want, "other start");
            EXPECT_EQ(solver.passive, final_set);
        }
    }
    // Both branches of the warm start ran: a carried set that was
    // dropped, and one Lawson–Hanson continued from.
    EXPECT_GT(not_positive, 0);
    EXPECT_GT(positive_but_wrong, 0);
}

TEST(NnlsSolver, CarriesItsSetAcrossASequenceOfProblems)
{
    // Successive estimator iterations: each problem a perturbation of
    // the last, each solve started from the previous passive set.
    Rng rng(34);
    NormalEquations ne = estimatorLikeProblem(rng);
    NnlsSolver solver(ne.atb.size());
    for (int step = 0; step < 30; ++step) {
        expectSameBits(solver.solve(ne, kRidge), referenceNnls(ne, kRidge),
                       "sequence");
        double row[11];
        for (double &a : row)
            a = rng.uniform();
        ne.addRow(row, 10.0 * rng.uniform(), 0.5);
    }
}

TEST(NnlsSolver, OrderMismatchPanics)
{
    NnlsSolver solver(3);
    EXPECT_THROW(solver.solve(NormalEquations(4)), std::logic_error);
    solver.passive.resize(2);
    EXPECT_THROW(solver.solve(NormalEquations(3)), std::logic_error);
}

} // namespace
