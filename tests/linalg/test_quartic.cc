/**
 * @file
 * Tests of the exact quartic minimizer behind the estimator's voltage
 * step: agreement with a dense grid scan, and every shape the
 * coordinate step can meet (two interior minima, minima at either end,
 * a cubic and a quadratic).
 */

#include <gtest/gtest.h>

#include <cmath>

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
