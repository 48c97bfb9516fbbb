/**
 * @file
 * Small bit-manipulation helpers used throughout the simulator.
 */

#ifndef ZERODEV_COMMON_BITOPS_HH
#define ZERODEV_COMMON_BITOPS_HH

#include <bit>
#include <bitset>
#include <cstddef>
#include <cstdint>

namespace zerodev
{

/** True iff @p v is a power of two (and non-zero). */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** floor(log2(v)); v must be non-zero. */
constexpr std::uint32_t
floorLog2(std::uint64_t v)
{
    return 63u - static_cast<std::uint32_t>(std::countl_zero(v));
}

/** ceil(log2(v)); v must be non-zero. */
constexpr std::uint32_t
ceilLog2(std::uint64_t v)
{
    return v <= 1 ? 0 : floorLog2(v - 1) + 1;
}

/** Round @p v down to a power of two (at least 1). */
constexpr std::uint64_t
floorPow2(std::uint64_t v)
{
    return v <= 1 ? 1 : 1ull << floorLog2(v);
}

/** Extract bit field [lo, lo+len) of @p v. */
constexpr std::uint64_t
bits(std::uint64_t v, std::uint32_t lo, std::uint32_t len)
{
    return len >= 64 ? (v >> lo) : ((v >> lo) & ((1ull << len) - 1));
}

/** Insert @p field into bits [lo, lo+len) of @p v, returning the result. */
constexpr std::uint64_t
insertBits(std::uint64_t v, std::uint32_t lo, std::uint32_t len,
           std::uint64_t field)
{
    const std::uint64_t mask =
        (len >= 64 ? ~0ull : ((1ull << len) - 1)) << lo;
    return (v & ~mask) | ((field << lo) & mask);
}

/** Call fn(i) for every set bit i of @p b, in ascending order, 64 bits
 *  at a time. The walk is over a copy, so fn may change @p b; it stops
 *  after the highest set bit. */
template <std::size_t N, typename Fn>
inline void
forEachSetBit(const std::bitset<N> &b, Fn &&fn)
{
    const std::bitset<N> low_word(~0ull);
    std::bitset<N> rest = b;
    for (std::uint32_t base = 0; rest.any(); base += 64, rest >>= 64) {
        for (std::uint64_t m = (rest & low_word).to_ullong(); m != 0;
             m &= m - 1)
            fn(base + static_cast<std::uint32_t>(std::countr_zero(m)));
    }
}

/** Lowest set bit of @p b, or N when none is set. */
template <std::size_t N>
inline std::uint32_t
firstSetBit(const std::bitset<N> &b)
{
    const std::bitset<N> low_word(~0ull);
    std::bitset<N> rest = b;
    for (std::uint32_t base = 0; rest.any(); base += 64, rest >>= 64) {
        if (const std::uint64_t m = (rest & low_word).to_ullong())
            return base + static_cast<std::uint32_t>(std::countr_zero(m));
    }
    return static_cast<std::uint32_t>(N);
}

/**
 * Exact unsigned division by a construction-time divisor, strength-
 * reduced to a multiply-high + shift (Granlund-Montgomery style, the
 * libdivide technique). The magic multiplier underestimates 2^(64+s)/d,
 * so the mul-shift quotient never overshoots and is at most 2 short; a
 * remainder-based fix-up loop closes the gap, keeping the result exactly
 * floor(n/d) for every 64-bit @p n. Used by the cache arrays' rare
 * non-power-of-two set-count geometries, where a hardware divide per
 * tag computation would sit inside the hottest scan loops.
 */
class MulShiftDiv
{
  public:
    MulShiftDiv() = default;

    explicit MulShiftDiv(std::uint64_t d) : d_(d == 0 ? 1 : d)
    {
        if (isPowerOfTwo(d_)) {
            mul_ = 0; // shift-only fast path
            shift_ = floorLog2(d_);
        } else {
            shift_ = floorLog2(d_);
            mul_ = static_cast<std::uint64_t>(
                (static_cast<unsigned __int128>(1) << (64 + shift_)) /
                d_);
        }
    }

    /** floor(@p n / divisor), exactly. */
    std::uint64_t
    operator()(std::uint64_t n) const
    {
        if (mul_ == 0)
            return n >> shift_;
        std::uint64_t q = static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(n) * mul_) >> 64);
        q >>= shift_;
        std::uint64_t r = n - q * d_; // q <= n/d, so this cannot wrap
        while (r >= d_) {
            ++q;
            r -= d_;
        }
        return q;
    }

    std::uint64_t divisor() const { return d_; }

  private:
    std::uint64_t d_ = 1;
    std::uint64_t mul_ = 0;
    std::uint32_t shift_ = 0;
};

} // namespace zerodev

#endif // ZERODEV_COMMON_BITOPS_HH
