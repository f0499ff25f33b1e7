/**
 * @file
 * Tests of the exact quartic minimizer behind the estimator's voltage
 * step: agreement with a dense grid scan, every shape the coordinate
 * step can meet (two interior minima, minima at either end, a cubic
 * and a quadratic), and agreement of its rounding-noise Newton stop and
 * its start hint with the Newton-to-collapse solver it replaced, kept
 * here as the reference.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>

#include "common/random.hh"
#include "linalg/quartic.hh"

namespace
{

using gpupm::Rng;
using gpupm::linalg::argminQuartic;
using Coeffs = std::array<double, 5>;

double
evalQuartic(const Coeffs &c, double x)
{
    return (((c[4] * x + c[3]) * x + c[2]) * x + c[1]) * x + c[0];
}

/** Quartic whose derivative is 4·(x-r1)(x-r2)(x-r3). */
Coeffs
fromCriticalPoints(double r1, double r2, double r3)
{
    return {0.0, -4.0 * r1 * r2 * r3,
            2.0 * (r1 * r2 + r2 * r3 + r1 * r3),
            -4.0 / 3.0 * (r1 + r2 + r3), 1.0};
}

TEST(ArgminQuartic, MatchesDenseGridScan)
{
    Rng rng(5);
    for (int trial = 0; trial < 500; ++trial) {
        Coeffs c;
        for (double &x : c)
            x = rng.normal() * 10.0;
        if (trial % 5 == 0)
            c[4] = std::abs(c[4]); // the estimator's c4 is >= 0
        const double lo = 0.5 + rng.uniform();
        const double hi = lo + 0.1 + rng.uniform();
        const double x = argminQuartic(c, lo, hi);
        ASSERT_GE(x, lo);
        ASSERT_LE(x, hi);

        double grid_min = evalQuartic(c, lo);
        constexpr int kSteps = 100000;
        for (int i = 0; i <= kSteps; ++i)
            grid_min = std::min(
                    grid_min,
                    evalQuartic(c, lo + (hi - lo) * i / kSteps));
        EXPECT_LE(evalQuartic(c, x), grid_min + 1e-12) << "trial "
                                                        << trial;
    }
}

/**
 * The minimizer before the rounding-noise stop and the start hint:
 * Newton from the middle of each monotone piece of q', bisecting
 * whenever a step would leave the bracket, until the bracket stops
 * shrinking.
 */
double
referenceArgmin(const Coeffs &c, double lo, double hi)
{
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

    double best = lo, best_q = q(lo);
    const auto consider = [&](double x) {
        const double v = q(x);
        if (v < best_q || (v == best_q && x < best)) {
            best = x;
            best_q = v;
        }
    };

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
            continue;
        double x = 0.5 * (p + r);
        for (int it = 0; it < 200; ++it) {
            const double fx = dq(x);
            if (fx == 0.0)
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

/**
 * argminQuartic without a hint and with hints inside the interval,
 * outside it, on its ends and at the answer itself lands within 1e-12
 * (relative) of the reference.
 */
void
expectMatchesReference(const Coeffs &c, double lo, double hi,
                       double inside, int trial)
{
    const double want = referenceArgmin(c, lo, hi);
    const double hints[] = {std::numeric_limits<double>::quiet_NaN(),
                            inside, lo - 0.25, hi + 0.25, lo, hi, want};
    for (double hint : hints) {
        const double got = argminQuartic(c, lo, hi, hint);
        EXPECT_LE(std::abs(got - want), 1e-12 * std::abs(want))
                << "trial " << trial << ", hint " << hint << ": got "
                << got << ", want " << want;
    }
}

TEST(ArgminQuartic, NewtonStopMatchesReferenceOnRandomQuartics)
{
    // The quartics of MatchesDenseGridScan; the hints come from a
    // second generator so the quartics stay the same.
    Rng rng(5), hint_rng(6);
    for (int trial = 0; trial < 500; ++trial) {
        Coeffs c;
        for (double &x : c)
            x = rng.normal() * 10.0;
        if (trial % 5 == 0)
            c[4] = std::abs(c[4]);
        const double lo = 0.5 + rng.uniform();
        const double hi = lo + 0.1 + rng.uniform();
        expectMatchesReference(c, lo, hi,
                               lo + (hi - lo) * hint_rng.uniform(), trial);
    }
}

TEST(ArgminQuartic, NewtonStopMatchesReferenceOnEstimatorScaledQuartics)
{
    // The voltage step's quartics, f²ΣwG²·x⁴ + 2βfΣwG·x³ +
    // (β²Σw - 2fΣwqG)·x² - 2βΣwq·x, from moments of a synthetic
    // suite whose power P_b = β·x0 + f·G_b·x0² (plus noise) puts the
    // minimizer near x0: coefficients of 1e3 to 1e6. Every other trial
    // instead draws each coefficient's magnitude from 1e3 to 1e6 with
    // a random sign (c4 > 0, as in the estimator).
    Rng rng(17);
    for (int trial = 0; trial < 500; ++trial) {
        Coeffs c;
        if (trial % 2 == 0) {
            const double beta = 5.0 + 60.0 * rng.uniform();
            const double f = 0.4 + 1.2 * rng.uniform();
            const double x0 = 0.6 + 1.2 * rng.uniform();
            double sw = 0.0, swg = 0.0, swgg = 0.0, swq = 0.0, swqg = 0.0;
            for (int b = 0; b < 40; ++b) {
                const double w = b < 4 ? 8.0 : 1.0;
                const double g = b < 4 ? 20.0 : 20.0 + 80.0 * rng.uniform();
                const double p = beta * x0 + f * g * x0 * x0 +
                                 5.0 * rng.normal();
                sw += w;
                swg += w * g;
                swgg += w * g * g;
                swq += w * p;
                swqg += w * p * g;
            }
            c = {0.0, -2.0 * beta * swq, beta * beta * sw - 2.0 * f * swqg,
                 2.0 * beta * f * swg, f * f * swgg};
        } else {
            for (double &x : c)
                x = std::pow(10.0, 3.0 + 3.0 * rng.uniform()) *
                    (rng.uniform() < 0.5 ? -1.0 : 1.0);
            c[0] = 0.0;
            c[4] = std::abs(c[4]);
        }
        expectMatchesReference(c, 0.7, 1.7, 0.7 + rng.uniform(), trial);
    }
}

TEST(ArgminQuartic, GlobalOfTwoInteriorMinimaWins)
{
    // Minima at 0.8 and 1.6 around a maximum at 1.3: the minimum
    // further from the maximum is the deeper one.
    const Coeffs left = fromCriticalPoints(0.8, 1.3, 1.6);
    ASSERT_LT(evalQuartic(left, 0.8), evalQuartic(left, 1.6));
    EXPECT_NEAR(argminQuartic(left, 0.7, 1.7), 0.8, 1e-12);

    // Mirrored: the global minimum is now the right one. A
    // golden-section search on [0.7, 1.7] first compares x = 1.082
    // with x = 1.318, keeps [0.7, 1.318] and converges to the local
    // minimum at 1.0 instead.
    const Coeffs right = fromCriticalPoints(1.0, 1.25, 1.6);
    ASSERT_LT(evalQuartic(right, 1.6), evalQuartic(right, 1.0));
    ASSERT_LT(evalQuartic(right, 1.082), evalQuartic(right, 1.318));
    EXPECT_NEAR(argminQuartic(right, 0.7, 1.7), 1.6, 1e-12);
}

TEST(ArgminQuartic, MinimumAtEitherEnd)
{
    // Increasing on the interval (all critical points below it).
    const Coeffs rising = fromCriticalPoints(0.1, 0.3, 0.5);
    EXPECT_EQ(argminQuartic(rising, 0.7, 1.7), 0.7);
    // Decreasing on the interval: q = x⁴ - 32x, critical point at 2.
    const Coeffs falling = {0.0, -32.0, 0.0, 0.0, 1.0};
    EXPECT_EQ(argminQuartic(falling, 0.7, 1.7), 1.7);
    // Interior local minima that lose to an end: at 1.3 to v_min,
    // at 1.0 to v_max.
    const Coeffs low_end = fromCriticalPoints(0.5, 1.2, 1.3);
    ASSERT_LT(evalQuartic(low_end, 0.7), evalQuartic(low_end, 1.3));
    EXPECT_EQ(argminQuartic(low_end, 0.7, 1.7), 0.7);
    const Coeffs high_end = fromCriticalPoints(1.0, 1.1, 1.9);
    ASSERT_LT(evalQuartic(high_end, 1.7), evalQuartic(high_end, 1.0));
    EXPECT_EQ(argminQuartic(high_end, 0.7, 1.7), 1.7);
}

TEST(ArgminQuartic, CubicAndQuadraticDegenerations)
{
    // c4 = 0: q = x³ - 3x has its minimum at x = 1.
    EXPECT_NEAR(argminQuartic({0.0, -3.0, 0.0, 1.0, 0.0}, 0.7, 1.7), 1.0,
                1e-12);
    // c4 = 0 with the maximum inside: q = -x³ + 3x peaks at 1, so an
    // end wins.
    const Coeffs cap = {0.0, 3.0, 0.0, -1.0, 0.0};
    EXPECT_EQ(argminQuartic(cap, 0.7, 1.7),
              evalQuartic(cap, 0.7) < evalQuartic(cap, 1.7) ? 0.7 : 1.7);
    // c4 = c3 = 0: q = (x - 1.2)² has its minimum at 1.2.
    EXPECT_NEAR(argminQuartic({1.44, -2.4, 1.0, 0.0, 0.0}, 0.7, 1.7), 1.2,
                1e-12);
    // Linear and constant: an end, the lower one on a tie.
    EXPECT_EQ(argminQuartic({0.0, -1.0, 0.0, 0.0, 0.0}, 0.7, 1.7), 1.7);
    EXPECT_EQ(argminQuartic({3.0, 0.0, 0.0, 0.0, 0.0}, 0.7, 1.7), 0.7);
}

TEST(ArgminQuartic, EmptyIntervalPanics)
{
    EXPECT_THROW(argminQuartic({0.0, 1.0, 0.0, 0.0, 0.0}, 1.0, 0.5),
                 std::logic_error);
}

} // namespace
