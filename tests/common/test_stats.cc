/**
 * @file
 * Unit tests of the summary-statistics helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/stats.hh"

namespace
{

using namespace gpupm::stats;

const std::vector<double> kSample = {3.0, 1.0, 4.0, 1.0, 5.0};

TEST(Stats, MeanBasic)
{
    EXPECT_DOUBLE_EQ(mean(kSample), 14.0 / 5.0);
}

TEST(Stats, MeanEmptyIsZero)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, MedianOdd)
{
    EXPECT_DOUBLE_EQ(median(kSample), 3.0);
}

TEST(Stats, MedianEvenAveragesMiddle)
{
    const std::vector<double> v = {1.0, 2.0, 3.0, 10.0};
    EXPECT_DOUBLE_EQ(median(v), 2.5);
}

TEST(Stats, StddevKnownValue)
{
    const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0,
                                   9.0};
    EXPECT_NEAR(stddev(v), 2.0, 1e-12);
}

TEST(Stats, StddevSingleIsZero)
{
    EXPECT_DOUBLE_EQ(stddev(std::vector<double>{5.0}), 0.0);
}

TEST(Stats, MinMax)
{
    EXPECT_DOUBLE_EQ(minimum(kSample), 1.0);
    EXPECT_DOUBLE_EQ(maximum(kSample), 5.0);
    EXPECT_DOUBLE_EQ(minimum({}), 0.0);
    EXPECT_DOUBLE_EQ(maximum({}), 0.0);
}

TEST(Stats, PercentileEndpointsAndMiddle)
{
    const std::vector<double> v = {10.0, 20.0, 30.0, 40.0, 50.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 50.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 30.0);
    EXPECT_DOUBLE_EQ(percentile(v, 25.0), 20.0);
}

TEST(Stats, PercentileInterpolates)
{
    const std::vector<double> v = {0.0, 10.0};
    EXPECT_DOUBLE_EQ(percentile(v, 30.0), 3.0);
}

TEST(Stats, PercentileOutOfRangePanics)
{
    EXPECT_THROW(percentile(kSample, 101.0), std::logic_error);
}

TEST(Stats, MapeKnownValue)
{
    const std::vector<double> pred = {110.0, 90.0};
    const std::vector<double> meas = {100.0, 100.0};
    EXPECT_NEAR(meanAbsPercentError(pred, meas), 10.0, 1e-12);
}

TEST(Stats, MapeSkipsZeroMeasurements)
{
    const std::vector<double> pred = {110.0, 50.0};
    const std::vector<double> meas = {100.0, 0.0};
    EXPECT_NEAR(meanAbsPercentError(pred, meas), 10.0, 1e-12);
}

TEST(Stats, MapeSizeMismatchPanics)
{
    const std::vector<double> a = {1.0};
    const std::vector<double> b = {1.0, 2.0};
    EXPECT_THROW(meanAbsPercentError(a, b), std::logic_error);
}

TEST(Stats, SignedErrorKeepsSign)
{
    const std::vector<double> pred = {110.0, 90.0};
    const std::vector<double> meas = {100.0, 100.0};
    EXPECT_NEAR(meanPercentError(pred, meas), 0.0, 1e-12);
    const std::vector<double> over = {110.0, 120.0};
    EXPECT_NEAR(meanPercentError(over, meas), 15.0, 1e-12);
}

TEST(Stats, RmseKnownValue)
{
    const std::vector<double> pred = {3.0, 0.0};
    const std::vector<double> meas = {0.0, 4.0};
    EXPECT_NEAR(rmse(pred, meas), std::sqrt(12.5), 1e-12);
}

TEST(Stats, PearsonPerfectCorrelation)
{
    const std::vector<double> xs = {1.0, 2.0, 3.0};
    const std::vector<double> ys = {2.0, 4.0, 6.0};
    EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
    const std::vector<double> neg = {6.0, 4.0, 2.0};
    EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSeriesIsZero)
{
    const std::vector<double> xs = {1.0, 2.0, 3.0};
    const std::vector<double> c = {5.0, 5.0, 5.0};
    EXPECT_DOUBLE_EQ(pearson(xs, c), 0.0);
}

TEST(Stats, MadKnownValue)
{
    // median = 3, |x - 3| = {2, 2, 0, 1, 2} -> median 2.
    EXPECT_DOUBLE_EQ(mad(kSample), 2.0);
    EXPECT_DOUBLE_EQ(mad({}), 0.0);
}

TEST(Stats, MadOutlierMaskFlagsSpikes)
{
    const std::vector<double> v = {100.0, 100.4, 99.7, 100.1, 600.0};
    const auto mask = madOutlierMask(v);
    ASSERT_EQ(mask.size(), v.size());
    EXPECT_FALSE(mask[0]);
    EXPECT_FALSE(mask[1]);
    EXPECT_FALSE(mask[2]);
    EXPECT_FALSE(mask[3]);
    EXPECT_TRUE(mask[4]);
}

TEST(Stats, MadOutlierMaskAlwaysFlagsNonFinite)
{
    const std::vector<double> v = {
        100.0, std::numeric_limits<double>::quiet_NaN(), 100.2,
        std::numeric_limits<double>::infinity(), 99.9};
    const auto mask = madOutlierMask(v);
    EXPECT_FALSE(mask[0]);
    EXPECT_TRUE(mask[1]);
    EXPECT_FALSE(mask[2]);
    EXPECT_TRUE(mask[3]);
    EXPECT_FALSE(mask[4]);
}

TEST(Stats, MadOutlierMaskZeroSpreadKeepsEqualValues)
{
    // MAD = 0: only entries different from the median are outliers.
    const std::vector<double> v = {5.0, 5.0, 5.0, 5.0, 7.0};
    const auto mask = madOutlierMask(v);
    EXPECT_FALSE(mask[0]);
    EXPECT_FALSE(mask[3]);
    EXPECT_TRUE(mask[4]);
}

} // namespace
