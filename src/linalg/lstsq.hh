/**
 * @file
 * Linear least-squares solvers.
 *
 * The Sec. III-D estimator alternates two least-squares subproblems; the
 * coefficient fit (steps 1 and 3) has 11 unknowns over thousands of
 * (microbenchmark, configuration) cells, so it accumulates the 11x11
 * normal equations once and solves there: either the unconstrained
 * basic solution or non-negative least squares (the physical
 * coefficients β0, β1, ωi are capacitance/leakage aggregates and
 * cannot be negative). The dense QR solver serves the small baseline
 * regressions.
 */

#ifndef GPUPM_LINALG_LSTSQ_HH
#define GPUPM_LINALG_LSTSQ_HH

#include <vector>

#include "matrix.hh"

namespace gpupm
{
namespace linalg
{

/**
 * Numerical-conditioning diagnostics of a design matrix, read off the
 * column-pivoted QR factorization (or the pivoted Cholesky of its
 * Gram, whose pivots are the squared QR pivots): the effective rank at
 * the rcond cutoff and the ratio of the largest to the smallest
 * accepted pivot magnitude — a cheap, order-of-magnitude estimate of
 * the 2-norm condition number (the normal equations square it).
 * Estimation-layer guardrails use these to reject under-identified
 * systems and to report how trustworthy the fitted coefficients are.
 */
struct LstsqDiagnostics
{
    std::size_t rank = 0;      ///< numerical rank at the rcond cutoff
    double condition = 0.0;    ///< |pivot_1| / |pivot_rank| estimate
};

/**
 * Solve min_x ||A x - b||_2 via Householder QR with column pivoting.
 *
 * Rank-deficient systems are handled by zeroing the trailing pivots
 * (a basic solution, not the minimum-norm one), which is the behaviour
 * the alternating estimator needs: unidentifiable coefficients stay 0
 * instead of exploding.
 *
 * @param a  m-by-n design matrix, m >= 1.
 * @param b  right-hand side of dimension m.
 * @param rcond  relative condition cutoff for rank detection.
 * @param diag  when non-null, receives rank/condition diagnostics.
 * @return  solution vector of dimension n.
 */
Vector leastSquares(const Matrix &a, const Vector &b,
                    double rcond = 1e-12,
                    LstsqDiagnostics *diag = nullptr);

/**
 * The normal equations of the weighted least-squares problem
 * min_x Σ_r w_r (a_r·x - b_r)^2, accumulated one row at a time: the
 * Gram AᵀWA, the moment AᵀWb and bᵀWb. Building them costs O(n²) per
 * row and solving on them O(n³), independent of the row count.
 */
struct NormalEquations
{
    explicit NormalEquations(std::size_t n)
        : upper(n, n), atb(n, 0.0)
    {}

    /** Add the row a[0..n) with target b and weight w > 0. */
    void addRow(const double *a, double b, double w = 1.0);

    /** The normal equations of a dense system (unit weights). */
    static NormalEquations of(const Matrix &a, const Vector &b);

    /** The symmetric Gram AᵀWA, mirrored from `upper` into `into`
     *  (whose storage is reused when it already has this order). */
    void gram(Matrix &into) const;

    Matrix upper;     ///< AᵀWA on and above the diagonal (rest 0)
    Vector atb;       ///< AᵀWb
    double btb = 0.0; ///< bᵀWb
};

/**
 * Pivoted Cholesky P G Pᵀ = L Lᵀ of a symmetric positive semi-definite
 * Gram matrix G = AᵀA. Each step takes the largest remaining diagonal
 * of the Schur complement — the largest remaining squared column norm
 * of A — so the pivot order and the pivots d_k are those of A's
 * column-pivoted QR, with d_k = r_kk². The factorization stops at the
 * first pivot d_k <= rcond·d_1: the default 1e-14 sits above the
 * round-off that forming G leaves on an exactly dependent column
 * (about 1e-16·d_1) and corresponds to |r_kk| <= 1e-7·|r_11|.
 */
struct GramCholesky
{
    /** Factor the Gram held in `l` in place (its storage and that of
     *  `perm` are reused from one factorization to the next). */
    void factor(double rcond = 1e-14);

    /** Before factor(), the Gram; after, L in the lower triangle of
     *  the leading rank columns, the rest factorization workspace. */
    Matrix l;
    std::vector<std::size_t> perm; ///< pivot order: perm[k] = column
    std::size_t rank = 0;

    /** Rank and sqrt(d_1 / d_rank) condition estimate. */
    LstsqDiagnostics diagnostics() const;

    /**
     * Basic solution of G x = atb: the leading rank-by-rank system in
     * pivot order, every trailing coefficient zero (the same basic
     * solution leastSquares gives on A).
     */
    Vector solve(const Vector &atb) const;
};

/**
 * Solve min_x ||A x - b||_2^2 + ridge·||x||_2^2 subject to x >= 0 on
 * the normal equations (Lawson–Hanson active set, normal-equation
 * form): grow the passive set P by the most positive gradient
 * Aᵀb - (AᵀA + ridge·I) x, solve the free subproblem on P by pivoted
 * Cholesky of (AᵀA + ridge·I)_PP, and step back to the boundary when a
 * coefficient would go negative. A small ridge keeps the alternating
 * fit stable when microbenchmark utilizations are nearly collinear.
 *
 * One solver serves a sequence of problems of one order, such as the
 * coefficient step of successive estimator iterations. Its workspace
 * is sized once, so a solve allocates nothing, and a solve starts from
 * `passive`, which the previous solve left at its solution's passive
 * set. The carried set is kept only when the free subproblem on it has
 * a strictly positive solution — a point Lawson–Hanson itself passes
 * through — and Lawson–Hanson continues from there; otherwise the
 * solve starts from the empty set. Started from the final passive set
 * of a cold start (from the empty set), it returns the cold start's
 * solution bit for bit.
 */
class NnlsSolver
{
  public:
    /** A solver of order n, its passive set empty. */
    explicit NnlsSolver(std::size_t n);

    /**
     * Solve the problem of `ne`, starting from `passive`.
     *
     * @param ridge  Tikhonov weight, >= 0 (panics otherwise).
     * @param max_iter  iteration cap (0 means 3*n + 30).
     * @return  the non-negative solution, valid until the next solve.
     */
    const Vector &solve(const NormalEquations &ne, double ridge = 0.0,
                        std::size_t max_iter = 0);

    /** The passive set: the start of the next solve and, after a
     *  solve, the columns its solution leaves free. */
    std::vector<bool> passive;

  private:
    /** Solve the free subproblem on the passive set into z_ (in idx_
     *  order); true when every entry is positive. */
    bool solvePassive(const NormalEquations &ne);

    Matrix g_; ///< the ridged Gram
    Matrix l_; ///< factor of its passive block
    Vector x_;
    std::vector<double> z_, y_, rhs_;
    std::vector<std::size_t> idx_;  ///< passive columns, ascending
    std::vector<std::size_t> perm_; ///< pivot order of l_
    std::size_t k_ = 0;             ///< passive column count
};

/** Residual sum of squares ||A x - b||^2. */
double residualSumSquares(const Matrix &a, const Vector &x,
                          const Vector &b);

} // namespace linalg
} // namespace gpupm

#endif // GPUPM_LINALG_LSTSQ_HH
