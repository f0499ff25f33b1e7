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

namespace gpupm
{
namespace linalg
{

/**
 * Argmin over [lo, hi] of q(x) = Σ_k c[k]·x^k, k = 0..4. The
 * candidates are both endpoints and every real root of q' inside the
 * interval: q' is split into monotone pieces at the roots of q'', and
 * each piece that changes sign is solved by bracketed Newton to
 * machine precision. No unimodality is assumed: with two interior
 * minima the lower one wins. Ties go to the smaller x.
 *
 * @param c  coefficients, c[k] multiplies x^k (c[0] cannot move the
 *           argmin and is ignored).
 * @param lo,hi  the interval, lo <= hi.
 */
double argminQuartic(const std::array<double, 5> &c, double lo,
                     double hi);

} // namespace linalg
} // namespace gpupm

#endif // GPUPM_LINALG_QUARTIC_HH
