#include "quartic.hh"

#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.hh"

namespace gpupm
{
namespace linalg
{

double
argminQuartic(const std::array<double, 5> &c, double lo, double hi,
              double hint)
{
    GPUPM_ASSERT(lo <= hi, "empty interval [", lo, ", ", hi, "]");
    const auto q = [&](double x) {
        return (((c[4] * x + c[3]) * x + c[2]) * x + c[1]) * x;
    };
    const auto dq = [&](double x) {
        return ((4.0 * c[4] * x + 3.0 * c[3]) * x + 2.0 * c[2]) * x +
               c[1];
    };
    const auto d2q = [&](double x) {
        return (12.0 * c[4] * x + 6.0 * c[3]) * x + 2.0 * c[2];
    };
    // Rounding bound of dq(x): 8ε times the Horner sum of its terms'
    // magnitudes.
    const auto dq_noise = [&](double x) {
        const double ax = std::abs(x);
        const double mag =
                ((4.0 * std::abs(c[4]) * ax + 3.0 * std::abs(c[3])) * ax +
                 2.0 * std::abs(c[2])) * ax +
                std::abs(c[1]);
        return 8.0 * std::numeric_limits<double>::epsilon() * mag;
    };

    double best = lo, best_q = q(lo);
    const auto consider = [&](double x) {
        const double v = q(x);
        if (v < best_q || (v == best_q && x < best)) {
            best = x;
            best_q = v;
        }
    };

    // Knots: the ends and the roots of q'' = 12c4 x² + 6c3 x + 2c2
    // strictly inside; q' is monotone between consecutive knots.
    std::array<double, 4> knots;
    std::size_t n = 0;
    knots[n++] = lo;
    const auto add_inner = [&](double x) {
        if (x > lo && x < hi)
            knots[n++] = x;
    };
    const double a = 6.0 * c[4], b = 3.0 * c[3];
    if (a != 0.0) {
        const double disc = b * b - 4.0 * a * c[2];
        if (disc > 0.0) {
            // Cancellation-free pair of roots.
            const double t =
                    -0.5 * (b + std::copysign(std::sqrt(disc), b));
            add_inner(t / a);
            if (t != 0.0)
                add_inner(c[2] / t);
        }
    } else if (b != 0.0) {
        add_inner(-c[2] / b);
    }
    if (n == 3 && knots[1] > knots[2])
        std::swap(knots[1], knots[2]);
    knots[n++] = hi;

    for (std::size_t i = 0; i + 1 < n; ++i) {
        double p = knots[i], r = knots[i + 1];
        consider(r);
        const bool neg_at_p = dq(p) < 0.0;
        if (neg_at_p == (dq(r) < 0.0))
            continue; // q' keeps its sign: no root on this piece
        // Newton inside the shrinking bracket [p, r], bisecting
        // whenever a step would leave it, until q'(x) is rounding
        // noise.
        double x = hint > p && hint < r ? hint : 0.5 * (p + r);
        for (int it = 0; it < 200; ++it) {
            const double fx = dq(x);
            if (std::abs(fx) <= dq_noise(x))
                break;
            ((fx < 0.0) == neg_at_p ? p : r) = x;
            double next = x - fx / d2q(x);
            if (!(next > p && next < r))
                next = 0.5 * (p + r);
            if (next <= p || next >= r || next == x)
                break;
            x = next;
        }
        consider(x);
    }
    return best;
}

} // namespace linalg
} // namespace gpupm
