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

void
NormalEquations::gram(Matrix &into) const
{
    into = upper;
    for (std::size_t i = 1; i < into.rows(); ++i)
        for (std::size_t j = 0; j < i; ++j)
            into(i, j) = into(j, i);
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

namespace
{

/**
 * The pivoted Cholesky of GramCholesky, in place on the leading
 * n-by-n block of `s`; `perm` receives the pivot order. Returns the
 * rank.
 */
std::size_t
factorPivoted(Matrix &s, std::size_t n, std::size_t *perm, double rcond)
{
    // Right-looking factorization in place: after step k, column k
    // below the diagonal holds L and the trailing block the Schur
    // complement, whose diagonal is the remaining squared column norms.
    std::iota(perm, perm + n, std::size_t{0});

    std::size_t rank = 0;
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
            std::swap(perm[k], perm[best]);
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
        rank = k + 1;
    }
    return rank;
}

/**
 * GramCholesky::solve on the leading n-by-n block of a factor as
 * factorPivoted leaves it: x[0..n) receives the basic solution,
 * y[0..rank) is workspace.
 */
void
solveFactored(const Matrix &l, std::size_t n, const std::size_t *perm,
              std::size_t rank, const double *rhs, double *y, double *x)
{
    // L y = P rhs, then Lᵀ z = y, over the leading rank columns.
    for (std::size_t i = 0; i < rank; ++i) {
        double s = rhs[perm[i]];
        for (std::size_t c = 0; c < i; ++c)
            s -= l(i, c) * y[c];
        y[i] = s / l(i, i);
    }
    std::fill(x, x + n, 0.0);
    for (std::size_t i = rank; i-- > 0;) {
        double s = y[i];
        for (std::size_t r = i + 1; r < rank; ++r)
            s -= l(r, i) * x[perm[r]];
        x[perm[i]] = s / l(i, i);
    }
}

} // namespace

void
GramCholesky::factor(double rcond)
{
    const std::size_t n = l.rows();
    GPUPM_ASSERT(n >= 1 && l.cols() == n, "Gram matrix must be "
                 "square and non-empty, got ", l.rows(), "x", l.cols());
    perm.resize(n);
    rank = factorPivoted(l, n, perm.data(), rcond);
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
    std::vector<double> y(rank);
    Vector x(n);
    solveFactored(l, n, perm.data(), rank, atb.data().data(), y.data(),
                  x.data().data());
    return x;
}

NnlsSolver::NnlsSolver(std::size_t n)
    : passive(n, false), g_(n, n), l_(n, n), x_(n), z_(n), y_(n),
      rhs_(n), idx_(n), perm_(n)
{}

bool
NnlsSolver::solvePassive(const NormalEquations &ne)
{
    const std::size_t n = x_.size();
    k_ = 0;
    for (std::size_t j = 0; j < n; ++j)
        if (passive[j])
            idx_[k_++] = j;
    for (std::size_t r = 0; r < k_; ++r) {
        for (std::size_t c = 0; c < k_; ++c)
            l_(r, c) = g_(idx_[r], idx_[c]);
        rhs_[r] = ne.atb[idx_[r]];
    }
    const std::size_t rank = factorPivoted(l_, k_, perm_.data(), 1e-14);
    solveFactored(l_, k_, perm_.data(), rank, rhs_.data(), y_.data(),
                  z_.data());
    for (std::size_t c = 0; c < k_; ++c)
        if (z_[c] <= 0.0)
            return false;
    return true;
}

const Vector &
NnlsSolver::solve(const NormalEquations &ne, double ridge,
                  std::size_t max_iter)
{
    GPUPM_ASSERT(ridge >= 0.0, "negative ridge ", ridge);
    const std::size_t n = x_.size();
    GPUPM_ASSERT(ne.atb.size() == n && passive.size() == n,
                 "nnls order ", ne.atb.size(), " (passive set ",
                 passive.size(), ") != solver order ", n);
    if (max_iter == 0)
        max_iter = 3 * n + 30;

    ne.gram(g_);
    for (std::size_t j = 0; j < n; ++j)
        g_(j, j) += ridge;
    const double tol = 1e-10 * (1.0 + std::sqrt(ne.btb));

    const auto take_z = [&] {
        for (std::size_t j = 0; j < n; ++j)
            x_[j] = 0.0;
        for (std::size_t c = 0; c < k_; ++c)
            x_[idx_[c]] = z_[c];
    };
    for (std::size_t j = 0; j < n; ++j)
        x_[j] = 0.0;
    if (std::find(passive.begin(), passive.end(), true) != passive.end()) {
        if (solvePassive(ne))
            take_z();
        else
            std::fill(passive.begin(), passive.end(), false);
    }

    for (std::size_t outer = 0; outer < max_iter; ++outer) {
        // Most positive gradient Aᵀb - G x outside P.
        std::size_t best = n;
        double best_w = tol;
        for (std::size_t j = 0; j < n; ++j) {
            if (passive[j])
                continue;
            double w = ne.atb[j];
            for (std::size_t c = 0; c < n; ++c)
                w -= g_(j, c) * x_[c];
            if (w > best_w) {
                best_w = w;
                best = j;
            }
        }
        if (best == n)
            break; // KKT satisfied.
        passive[best] = true;

        // Inner loop: solve on P, trim negatives.
        for (std::size_t inner = 0; inner <= max_iter; ++inner) {
            if (solvePassive(ne)) {
                take_z();
                break;
            }

            // Step from x toward z, stopping at the first boundary.
            double alpha = 1.0;
            for (std::size_t c = 0; c < k_; ++c) {
                if (z_[c] <= 0.0) {
                    const double xj = x_[idx_[c]];
                    const double denom = xj - z_[c];
                    if (denom > 0.0)
                        alpha = std::min(alpha, xj / denom);
                }
            }
            for (std::size_t c = 0; c < k_; ++c)
                x_[idx_[c]] += alpha * (z_[c] - x_[idx_[c]]);
            for (std::size_t c = 0; c < k_; ++c)
                if (x_[idx_[c]] <= tol) {
                    x_[idx_[c]] = 0.0;
                    passive[idx_[c]] = false;
                }
        }
    }
    return x_;
}

double
residualSumSquares(const Matrix &a, const Vector &x, const Vector &b)
{
    Vector r = a * x - b;
    return r.dot(r);
}

} // namespace linalg
} // namespace gpupm
