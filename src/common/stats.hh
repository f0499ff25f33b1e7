/**
 * @file
 * Summary statistics used throughout the experiment harnesses: mean,
 * median, mean absolute (percentage) error, extrema and percentiles.
 */

#ifndef GPUPM_COMMON_STATS_HH
#define GPUPM_COMMON_STATS_HH

#include <span>
#include <vector>

namespace gpupm
{
namespace stats
{

/** Arithmetic mean; 0 for an empty input. */
double mean(std::span<const double> xs);

/** Median (average of middle two for even sizes); 0 for empty input. */
double median(std::span<const double> xs);

/** Population standard deviation; 0 for fewer than two samples. */
double stddev(std::span<const double> xs);

/** Smallest element; 0 for an empty input. */
double minimum(std::span<const double> xs);

/** Largest element; 0 for an empty input. */
double maximum(std::span<const double> xs);

/**
 * Linear-interpolated percentile, p in [0, 100].
 * 0 for an empty input.
 */
double percentile(std::span<const double> xs, double p);

/**
 * Mean absolute percentage error between predictions and reference
 * values, in percent: mean(|pred - meas| / meas) * 100.
 * Entries whose measured value is zero are skipped.
 */
double meanAbsPercentError(std::span<const double> predicted,
                           std::span<const double> measured);

/**
 * Signed mean percentage error in percent:
 * mean((pred - meas) / meas) * 100. Zero-measured entries are skipped.
 */
double meanPercentError(std::span<const double> predicted,
                        std::span<const double> measured);

/** Root mean square error between two equally sized series. */
double rmse(std::span<const double> predicted,
            std::span<const double> measured);

/**
 * Median absolute deviation: median(|x - median(xs)|).
 * 0 for an empty input. Not scaled to the normal distribution; apply
 * the 1.4826 consistency factor yourself when a sigma-equivalent is
 * needed (madOutlierMask does).
 */
double mad(std::span<const double> xs);

/**
 * Robust outlier detection by modified z-score. Entry i is flagged
 * (mask[i] = true) when |xs[i] - median| / (1.4826 * MAD) exceeds the
 * threshold, or when xs[i] is not finite. When the MAD is zero (at
 * least half the samples identical) only non-finite entries and
 * entries differing from the median by more than `zero_mad_tol` are
 * flagged, so a noise-free stream is never decimated.
 */
std::vector<bool> madOutlierMask(std::span<const double> xs,
                                 double threshold = 3.5,
                                 double zero_mad_tol = 1e-9);

/** Pearson correlation coefficient; 0 when either side is constant. */
double pearson(std::span<const double> xs, std::span<const double> ys);

} // namespace stats
} // namespace gpupm

#endif // GPUPM_COMMON_STATS_HH
