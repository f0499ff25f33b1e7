/**
 * @file
 * Unit and statistical tests of the deterministic PRNG.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hh"
#include "common/stats.hh"

namespace
{

using gpupm::Rng;

TEST(Random, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Random, UniformInUnitInterval)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const double x = r.uniform();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Random, UniformRangeRespectsBounds)
{
    Rng r(8);
    for (int i = 0; i < 10000; ++i) {
        const double x = r.uniform(-3.0, 5.0);
        EXPECT_GE(x, -3.0);
        EXPECT_LT(x, 5.0);
    }
}

TEST(Random, UniformMeanIsCentered)
{
    Rng r(9);
    std::vector<double> xs(100000);
    for (double &x : xs)
        x = r.uniform();
    EXPECT_NEAR(gpupm::stats::mean(xs), 0.5, 0.01);
}

TEST(Random, NormalMomentsMatch)
{
    Rng r(10);
    std::vector<double> xs(200000);
    for (double &x : xs)
        x = r.normal();
    EXPECT_NEAR(gpupm::stats::mean(xs), 0.0, 0.02);
    EXPECT_NEAR(gpupm::stats::stddev(xs), 1.0, 0.02);
}

TEST(Random, NormalWithParamsScalesAndShifts)
{
    Rng r(11);
    std::vector<double> xs(100000);
    for (double &x : xs)
        x = r.normal(10.0, 2.0);
    EXPECT_NEAR(gpupm::stats::mean(xs), 10.0, 0.1);
    EXPECT_NEAR(gpupm::stats::stddev(xs), 2.0, 0.05);
}

TEST(Random, BelowStaysInRange)
{
    Rng r(12);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Random, SplitStreamsAreIndependent)
{
    Rng parent(99);
    Rng a = parent.split(1);
    Rng b = parent.split(2);
    // Correlation between the two derived streams should be near zero.
    std::vector<double> xs, ys;
    for (int i = 0; i < 20000; ++i) {
        xs.push_back(a.uniform());
        ys.push_back(b.uniform());
    }
    EXPECT_LT(std::abs(gpupm::stats::pearson(xs, ys)), 0.03);
}

TEST(Random, SplitIsDeterministic)
{
    Rng p1(5), p2(5);
    Rng a = p1.split(3);
    Rng b = p2.split(3);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(a.next(), b.next());
}

} // namespace
