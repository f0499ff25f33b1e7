#include "lstsq.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace gpupm
{
namespace linalg
{

namespace
{

/**
 * In-place Householder QR with column pivoting on a copy of A.
 * Returns the permutation and effective numerical rank; b is replaced
 * by Q^T b.
 */
struct QrPivot
{
    Matrix r;                      // upper-triangular factor (in place)
    Vector qtb;                    // Q^T b
    std::vector<std::size_t> perm; // column permutation
    std::size_t rank = 0;
};

QrPivot
factorize(const Matrix &a, const Vector &b, double rcond)
{
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    GPUPM_ASSERT(b.size() == m, "lstsq rhs dimension ", b.size(),
                 " != rows ", m);
    GPUPM_ASSERT(m >= 1 && n >= 1, "empty system");

    QrPivot qr;
    qr.r = a;
    qr.qtb = b;
    qr.perm.resize(n);
    std::iota(qr.perm.begin(), qr.perm.end(), std::size_t{0});

    // Running squared column norms for pivot selection.
    std::vector<double> colnorm(n, 0.0);
    for (std::size_t c = 0; c < n; ++c)
        for (std::size_t r = 0; r < m; ++r)
            colnorm[c] += qr.r(r, c) * qr.r(r, c);

    const std::size_t steps = std::min(m, n);
    double first_pivot = 0.0;

    for (std::size_t k = 0; k < steps; ++k) {
        // Pivot: bring the column with the largest remaining norm to k.
        std::size_t best = k;
        for (std::size_t c = k + 1; c < n; ++c)
            if (colnorm[c] > colnorm[best])
                best = c;
        if (best != k) {
            for (std::size_t r = 0; r < m; ++r)
                std::swap(qr.r(r, k), qr.r(r, best));
            std::swap(colnorm[k], colnorm[best]);
            std::swap(qr.perm[k], qr.perm[best]);
        }

        // Householder reflection for column k.
        double alpha = 0.0;
        for (std::size_t r = k; r < m; ++r)
            alpha += qr.r(r, k) * qr.r(r, k);
        alpha = std::sqrt(alpha);
        if (alpha == 0.0) {
            colnorm[k] = 0.0;
            continue;
        }
        if (qr.r(k, k) > 0.0)
            alpha = -alpha;

        if (k == 0)
            first_pivot = std::abs(alpha);
        if (std::abs(alpha) <= rcond * first_pivot) {
            // Numerically rank-deficient from here on.
            break;
        }

        std::vector<double> v(m - k);
        v[0] = qr.r(k, k) - alpha;
        for (std::size_t r = k + 1; r < m; ++r)
            v[r - k] = qr.r(r, k);
        double vnorm2 = 0.0;
        for (double x : v)
            vnorm2 += x * x;
        if (vnorm2 == 0.0) {
            qr.rank = k + 1;
            continue;
        }

        qr.r(k, k) = alpha;
        for (std::size_t r = k + 1; r < m; ++r)
            qr.r(r, k) = 0.0;

        // Apply reflection to remaining columns and to b.
        for (std::size_t c = k + 1; c < n; ++c) {
            double dot = 0.0;
            for (std::size_t r = k; r < m; ++r)
                dot += v[r - k] * qr.r(r, c);
            const double scale = 2.0 * dot / vnorm2;
            for (std::size_t r = k; r < m; ++r)
                qr.r(r, c) -= scale * v[r - k];
        }
        {
            double dot = 0.0;
            for (std::size_t r = k; r < m; ++r)
                dot += v[r - k] * qr.qtb[r];
            const double scale = 2.0 * dot / vnorm2;
            for (std::size_t r = k; r < m; ++r)
                qr.qtb[r] -= scale * v[r - k];
        }

        // Update running column norms.
        for (std::size_t c = k + 1; c < n; ++c)
            colnorm[c] = std::max(0.0,
                                  colnorm[c] - qr.r(k, c) * qr.r(k, c));

        qr.rank = k + 1;
    }

    return qr;
}

/** Read rank/condition diagnostics off a finished factorization. */
LstsqDiagnostics
diagnosticsOf(const QrPivot &qr)
{
    LstsqDiagnostics d;
    d.rank = qr.rank;
    if (qr.rank > 0) {
        const double top = std::abs(qr.r(0, 0));
        const double bottom = std::abs(qr.r(qr.rank - 1, qr.rank - 1));
        d.condition = bottom > 0.0
                              ? top / bottom
                              : std::numeric_limits<double>::infinity();
    }
    return d;
}

} // namespace

Vector
leastSquares(const Matrix &a, const Vector &b, double rcond,
             LstsqDiagnostics *diag)
{
    const std::size_t n = a.cols();
    QrPivot qr = factorize(a, b, rcond);
    if (diag)
        *diag = diagnosticsOf(qr);

    // Back-substitute over the leading rank-by-rank triangle.
    Vector y(n, 0.0);
    for (std::size_t ii = qr.rank; ii-- > 0;) {
        double s = qr.qtb[ii];
        for (std::size_t c = ii + 1; c < qr.rank; ++c)
            s -= qr.r(ii, c) * y[c];
        y[ii] = s / qr.r(ii, ii);
    }

    Vector x(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        x[qr.perm[i]] = y[i];
    return x;
}

void
NormalEquations::addRow(const double *a, double b, double w)
{
    const std::size_t n = atb.size();
    for (std::size_t i = 0; i < n; ++i) {
        const double wa = w * a[i];
        double *row = &upper(i, 0);
        for (std::size_t j = i; j < n; ++j)
            row[j] += wa * a[j];
        atb[i] += wa * b;
    }
    btb += w * b * b;
}

Matrix
NormalEquations::gram() const
{
    Matrix g = upper;
    for (std::size_t i = 1; i < g.rows(); ++i)
        for (std::size_t j = 0; j < i; ++j)
            g(i, j) = g(j, i);
    return g;
}

NormalEquations
NormalEquations::of(const Matrix &a, const Vector &b)
{
    GPUPM_ASSERT(b.size() == a.rows(), "rhs dimension ", b.size(),
                 " != rows ", a.rows());
    NormalEquations ne(a.cols());
    for (std::size_t r = 0; r < a.rows(); ++r)
        ne.addRow(a.row(r).data().data(), b[r]);
    return ne;
}

GramCholesky
choleskyPivoted(const Matrix &gram, double rcond)
{
    const std::size_t n = gram.rows();
    GPUPM_ASSERT(n >= 1 && gram.cols() == n, "Gram matrix must be "
                 "square and non-empty, got ", gram.rows(), "x",
                 gram.cols());

    // Right-looking factorization in place: after step k, column k
    // below the diagonal holds L and the trailing block the Schur
    // complement, whose diagonal is the remaining squared column norms.
    GramCholesky f;
    f.l = gram;
    Matrix &s = f.l;
    f.perm.resize(n);
    std::iota(f.perm.begin(), f.perm.end(), std::size_t{0});

    double first_pivot = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        std::size_t best = k;
        for (std::size_t c = k + 1; c < n; ++c)
            if (s(c, c) > s(best, best))
                best = c;
        if (best != k) {
            for (std::size_t r = 0; r < n; ++r)
                std::swap(s(r, k), s(r, best));
            for (std::size_t c = 0; c < n; ++c)
                std::swap(s(k, c), s(best, c));
            std::swap(f.perm[k], f.perm[best]);
        }

        const double d = s(k, k);
        if (k == 0)
            first_pivot = d;
        if (d <= rcond * first_pivot)
            break; // numerically rank-deficient from here on

        const double lkk = std::sqrt(d);
        s(k, k) = lkk;
        for (std::size_t r = k + 1; r < n; ++r)
            s(r, k) /= lkk;
        for (std::size_t c = k + 1; c < n; ++c)
            for (std::size_t r = c; r < n; ++r) {
                s(r, c) -= s(r, k) * s(c, k);
                s(c, r) = s(r, c);
            }
        f.rank = k + 1;
    }
    return f;
}

LstsqDiagnostics
GramCholesky::diagnostics() const
{
    LstsqDiagnostics d;
    d.rank = rank;
    if (rank > 0)
        d.condition = l(0, 0) / l(rank - 1, rank - 1);
    return d;
}

Vector
GramCholesky::solve(const Vector &atb) const
{
    const std::size_t n = perm.size();
    GPUPM_ASSERT(atb.size() == n, "rhs dimension ", atb.size(),
                 " != Gram order ", n);

    // L y = P atb, then Lᵀ z = y, over the leading rank columns.
    Vector y(rank, 0.0);
    for (std::size_t i = 0; i < rank; ++i) {
        double s = atb[perm[i]];
        for (std::size_t c = 0; c < i; ++c)
            s -= l(i, c) * y[c];
        y[i] = s / l(i, i);
    }
    Vector x(n, 0.0);
    for (std::size_t i = rank; i-- > 0;) {
        double s = y[i];
        for (std::size_t r = i + 1; r < rank; ++r)
            s -= l(r, i) * x[perm[r]];
        x[perm[i]] = s / l(i, i);
    }
    return x;
}

Vector
nnls(const NormalEquations &ne, double ridge, std::size_t max_iter)
{
    GPUPM_ASSERT(ridge >= 0.0, "negative ridge ", ridge);
    const std::size_t n = ne.atb.size();
    if (max_iter == 0)
        max_iter = 3 * n + 30;

    Matrix g = ne.gram();
    for (std::size_t j = 0; j < n; ++j)
        g(j, j) += ridge;
    const double tol = 1e-10 * (1.0 + std::sqrt(ne.btb));

    std::vector<bool> in_p(n, false);
    Vector x(n, 0.0);
    for (std::size_t outer = 0; outer < max_iter; ++outer) {
        // Most positive gradient Aᵀb - G x outside P.
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
            break; // KKT satisfied.
        in_p[best] = true;

        // Inner loop: solve on P, trim negatives.
        for (std::size_t inner = 0; inner <= max_iter; ++inner) {
            std::vector<std::size_t> p;
            for (std::size_t j = 0; j < n; ++j)
                if (in_p[j])
                    p.push_back(j);

            Matrix gp(p.size(), p.size());
            Vector bp(p.size());
            for (std::size_t r = 0; r < p.size(); ++r) {
                for (std::size_t c = 0; c < p.size(); ++c)
                    gp(r, c) = g(p[r], p[c]);
                bp[r] = ne.atb[p[r]];
            }
            const Vector z = choleskyPivoted(gp).solve(bp);

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

            // Step from x toward z, stopping at the first boundary.
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

double
residualSumSquares(const Matrix &a, const Vector &x, const Vector &b)
{
    Vector r = a * x - b;
    return r.dot(r);
}

} // namespace linalg
} // namespace gpupm
