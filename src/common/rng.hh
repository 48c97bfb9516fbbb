/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * A small xoshiro256** engine is used instead of std::mt19937 so that the
 * generated address streams are bit-identical across standard library
 * implementations, which keeps every experiment reproducible.
 */

#ifndef ZERODEV_COMMON_RNG_HH
#define ZERODEV_COMMON_RNG_HH

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace zerodev
{

/** xoshiro256** 1.0 pseudo-random generator (public-domain algorithm). */
class Rng
{
  public:
    /** Seed via splitmix64 so that nearby seeds give unrelated streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
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

    /** Uniform integer in [0, bound); bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Number of distinct 53-bit draws. */
    static constexpr std::uint64_t kDrawSpan = 1ull << 53;

    /** 53-bit draw m in [0, 2^53): the uniform double in [0, 1) it
     *  stands for is exactly m * 2^-53. */
    std::uint64_t
    draw53()
    {
        return next() >> 11;
    }

    /**
     * Integer form of probability @p p: for every 53-bit draw m,
     * m < threshold(p) holds exactly when m * 2^-53 < p. That bound is
     * ceil(p * 2^53), which is 0 for p <= 0 or NaN and 2^53 for p >= 1;
     * threshold(p) > 0 exactly when p > 0. Derive it once, outside the
     * draw loop.
     */
    static std::uint64_t
    threshold(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return kDrawSpan;
        return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
    }

    /** Bernoulli draw that is true with the probability whose
     *  threshold() is @p t. */
    bool
    chance(std::uint64_t t)
    {
        return draw53() < t;
    }

    /** A probability must become a threshold() first. */
    bool chance(double) = delete;

    /**
     * Approximate Zipf draw over [0, n): a cheap two-level scheme where
     * a "hot" prefix of the range receives most draws. Used for
     * reuse-skewed working sets; exact Zipf is not required.
     *
     * The candidate range starts at n and halves, rounding up, while
     * chance(@p skew) draws succeed, so draws concentrate geometrically
     * toward small indices. After j halvings it is
     * ceil(n / 2^j) = ((n - 1) >> j) + 1, and it reaches 1 after
     * bit_width(n - 1) halvings, where the loop stops. One below() draw
     * over the final range follows, also when that range is 1.
     */
    std::uint64_t
    zipfish(std::uint64_t n, std::uint64_t skew)
    {
        if (n <= 1)
            return 0;
        const int steps = std::bit_width(n - 1);
        int j = 0;
        while (j < steps && chance(skew))
            ++j;
        // For n > 2^63, steps is 64 and the shift would be undefined;
        // the range after the last halving is 1 for every n.
        return below(j == steps ? 1 : ((n - 1) >> j) + 1);
    }

    /** zipfish() takes its skew as a threshold(). */
    std::uint64_t zipfish(std::uint64_t, double) = delete;

    /** Raw engine state, exposed for snapshot serialization: restoring
     *  the four words resumes the stream exactly where it left off. */
    const std::array<std::uint64_t, 4> &state() const { return state_; }

    void setState(const std::array<std::uint64_t, 4> &s) { state_ = s; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_;
};

} // namespace zerodev

#endif // ZERODEV_COMMON_RNG_HH
