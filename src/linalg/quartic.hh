/**
 * @file
 * Global minimization of a quartic polynomial over an interval.
 *
 * Step 2 of the Sec. III-D estimator moves one normalized voltage at a
 * time with the coefficients fixed; the squared error of a
 * configuration is then a quartic in that voltage, so each coordinate
 * step is solved exactly instead of searched.
 */

#ifndef GPUPM_LINALG_QUARTIC_HH
#define GPUPM_LINALG_QUARTIC_HH

#include <array>
#include <limits>

namespace gpupm
{
namespace linalg
{

/**
 * Argmin over [lo, hi] of q(x) = Σ_k c[k]·x^k, k = 0..4. The
 * candidates are both endpoints and every real root of q' inside the
 * interval: q' is split into monotone pieces at the roots of q'', and
 * each piece that changes sign is solved by bracketed Newton. Newton
 * stops once |q'(x)| is within the rounding error of its own
 * evaluation, 8ε·Σ_k |k·c[k]·x^(k-1)|: no later step can tell a
 * better root apart. No unimodality is assumed: with two interior
 * minima the lower one wins. Ties go to the smaller x.
 *
 * @param c  coefficients, c[k] multiplies x^k (c[0] cannot move the
 *           argmin and is ignored).
 * @param lo,hi  the interval, lo <= hi.
 * @param hint  Newton's start on a piece that strictly contains it
 *              (e.g. the previous minimizer); elsewhere, and when NaN,
 *              Newton starts at the middle of the piece.
 */
double argminQuartic(const std::array<double, 5> &c, double lo,
                     double hi,
                     double hint = std::numeric_limits<double>::quiet_NaN());

} // namespace linalg
} // namespace gpupm

#endif // GPUPM_LINALG_QUARTIC_HH
