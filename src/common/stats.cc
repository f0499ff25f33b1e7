#include "stats.hh"

#include <algorithm>
#include <cmath>

#include "logging.hh"

namespace gpupm
{
namespace stats
{

double
mean(std::span<const double> xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

double
median(std::span<const double> xs)
{
    if (xs.empty())
        return 0.0;
    std::vector<double> v(xs.begin(), xs.end());
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n % 2 == 1)
        return v[n / 2];
    return 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
stddev(std::span<const double> xs)
{
    if (xs.size() < 2)
        return 0.0;
    const double m = mean(xs);
    double s = 0.0;
    for (double x : xs)
        s += (x - m) * (x - m);
    return std::sqrt(s / static_cast<double>(xs.size()));
}

double
minimum(std::span<const double> xs)
{
    if (xs.empty())
        return 0.0;
    return *std::min_element(xs.begin(), xs.end());
}

double
maximum(std::span<const double> xs)
{
    if (xs.empty())
        return 0.0;
    return *std::max_element(xs.begin(), xs.end());
}

double
percentile(std::span<const double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    GPUPM_ASSERT(p >= 0.0 && p <= 100.0, "percentile p=", p);
    std::vector<double> v(xs.begin(), xs.end());
    std::sort(v.begin(), v.end());
    if (v.size() == 1)
        return v.front();
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

double
meanAbsPercentError(std::span<const double> predicted,
                    std::span<const double> measured)
{
    GPUPM_ASSERT(predicted.size() == measured.size(),
                 "size mismatch ", predicted.size(), " vs ",
                 measured.size());
    double s = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < predicted.size(); ++i) {
        if (measured[i] == 0.0)
            continue;
        s += std::abs(predicted[i] - measured[i]) / std::abs(measured[i]);
        ++n;
    }
    return n ? 100.0 * s / static_cast<double>(n) : 0.0;
}

double
meanPercentError(std::span<const double> predicted,
                 std::span<const double> measured)
{
    GPUPM_ASSERT(predicted.size() == measured.size(),
                 "size mismatch ", predicted.size(), " vs ",
                 measured.size());
    double s = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < predicted.size(); ++i) {
        if (measured[i] == 0.0)
            continue;
        s += (predicted[i] - measured[i]) / measured[i];
        ++n;
    }
    return n ? 100.0 * s / static_cast<double>(n) : 0.0;
}

double
rmse(std::span<const double> predicted, std::span<const double> measured)
{
    GPUPM_ASSERT(predicted.size() == measured.size(),
                 "size mismatch ", predicted.size(), " vs ",
                 measured.size());
    if (predicted.empty())
        return 0.0;
    double s = 0.0;
    for (std::size_t i = 0; i < predicted.size(); ++i) {
        const double d = predicted[i] - measured[i];
        s += d * d;
    }
    return std::sqrt(s / static_cast<double>(predicted.size()));
}

double
mad(std::span<const double> xs)
{
    if (xs.empty())
        return 0.0;
    const double m = median(xs);
    std::vector<double> dev;
    dev.reserve(xs.size());
    for (double x : xs)
        dev.push_back(std::abs(x - m));
    return median(dev);
}

std::vector<bool>
madOutlierMask(std::span<const double> xs, double threshold,
               double zero_mad_tol)
{
    GPUPM_ASSERT(threshold > 0.0, "threshold=", threshold);
    std::vector<bool> mask(xs.size(), false);
    // The median/MAD must be computed over the finite entries only —
    // a NaN sample would poison std::sort's ordering.
    std::vector<double> finite;
    finite.reserve(xs.size());
    for (double x : xs)
        if (std::isfinite(x))
            finite.push_back(x);
    const double m = median(finite);
    const double scaled_mad = 1.4826 * mad(finite);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (!std::isfinite(xs[i])) {
            mask[i] = true;
        } else if (scaled_mad > 0.0) {
            mask[i] = std::abs(xs[i] - m) / scaled_mad > threshold;
        } else {
            mask[i] = std::abs(xs[i] - m) > zero_mad_tol;
        }
    }
    return mask;
}

double
pearson(std::span<const double> xs, std::span<const double> ys)
{
    GPUPM_ASSERT(xs.size() == ys.size(), "size mismatch ", xs.size(),
                 " vs ", ys.size());
    if (xs.size() < 2)
        return 0.0;
    const double mx = mean(xs);
    const double my = mean(ys);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx == 0.0 || syy == 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

} // namespace stats
} // namespace gpupm
