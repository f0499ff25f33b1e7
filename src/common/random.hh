/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic elements of the simulated substrate (sensor noise,
 * counter error, sampling jitter) draw from explicitly seeded streams so
 * every experiment is exactly reproducible. The generator is
 * xoshiro256** (public domain, Blackman & Vigna), chosen for speed and
 * statistical quality without pulling <random>'s unspecified-across-
 * implementations distributions into results.
 */

#ifndef GPUPM_COMMON_RANDOM_HH
#define GPUPM_COMMON_RANDOM_HH

#include <cmath>
#include <cstdint>

namespace gpupm
{

/**
 * The splitmix64 output function of `x` (Steele, Lea & Flood 2014):
 * one golden-ratio step, then the avalanche finalizer. Seeds the Rng
 * state, mints trace ids and composes fleet seeding and chaos keys.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Seeded, splittable PRNG with normal/uniform helpers. */
class Rng
{
  public:
    /** Construct from a 64-bit seed via splitmix64 expansion. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        // splitmix64 steps — decorrelate consecutive seeds.
        for (auto &word : state_) {
            word = mix64(seed);
            seed += 0x9e3779b97f4a7c15ull;
        }
    }

    /** Next raw 64-bit draw (xoshiro256**). */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t
    below(std::uint64_t n)
    {
        return next() % n;
    }

    /** Standard normal draw (Box–Muller; one value per call). */
    double
    normal()
    {
        if (has_spare_) {
            has_spare_ = false;
            return spare_;
        }
        double u1 = 0.0;
        while (u1 <= 1e-300)
            u1 = uniform();
        const double u2 = uniform();
        const double r = std::sqrt(-2.0 * std::log(u1));
        const double theta = 6.283185307179586476925286766559 * u2;
        spare_ = r * std::sin(theta);
        has_spare_ = true;
        return r * std::cos(theta);
    }

    /** Normal draw with the given mean and standard deviation. */
    double
    normal(double mean, double stddev)
    {
        return mean + stddev * normal();
    }

    /**
     * Derive an independent child stream. Used to give every device /
     * sensor / counter its own stream so adding one draw somewhere does
     * not shift every later value in the experiment.
     */
    Rng
    split(std::uint64_t stream_id)
    {
        return Rng(next() ^ (0x5851f42d4c957f2dull * (stream_id + 1)));
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
    double spare_ = 0.0;
    bool has_spare_ = false;
};

} // namespace gpupm

#endif // GPUPM_COMMON_RANDOM_HH
