/**
 * @file
 * Replacement-policy building blocks.
 *
 * LRU ordering lives in CacheArray as one recency rank byte per way,
 * counted within the set (0 = most recently used): LRU, spLRU and
 * dataLRU only ever compare the ways of one set. Victim selection is a
 * scan of the set (associativities here are at most 16, so a scan is
 * both simple and fast). The Section III-D extensions (spLRU, dataLRU)
 * are expressed as a priority class supplied by the caller: the victim
 * is the LRU line within the lowest-priority non-empty class, so dataLRU
 * evicts every ordinary block in a set before any spilled/fused entry.
 *
 * The sparse directory uses 1-bit NRU (Table I), provided by NruState.
 */

#ifndef ZERODEV_CACHE_REPLACEMENT_HH
#define ZERODEV_CACHE_REPLACEMENT_HH

#include <cstdint>
#include <vector>

namespace zerodev
{

class SerialIn;
class SerialOut;

/**
 * One-bit NRU state for a fixed number of ways, as used by the sparse
 * directory slices. A touched way gets its reference bit set; when every
 * bit in the set becomes set, all other bits are cleared. The victim is
 * the lowest-indexed way with a clear bit.
 */
class NruState
{
  public:
    NruState(std::size_t sets, std::uint32_t ways);

    /** Mark @p way of @p set recently used. */
    void touch(std::size_t set, std::uint32_t way);

    /** Way to evict from @p set. */
    std::uint32_t victim(std::size_t set) const;

    /**
     * Way to evict from @p set restricted to ways
     * [@p first, @p first + @p count). Because touch() only clears
     * reference bits when the *whole* set saturates, a partition's range
     * can be fully referenced while the set is not; the first way of the
     * range is the deterministic victim then (partitioned-tag mode).
     */
    std::uint32_t victimIn(std::size_t set, std::uint32_t first,
                           std::uint32_t count) const;

    /** Clear the reference bit (e.g. on invalidation). */
    void reset(std::size_t set, std::uint32_t way);

    /** Snapshot support: the reference bits are replacement state that
     *  must survive checkpoint/restore for bit-identical resume. */
    void save(SerialOut &out) const;
    void restore(SerialIn &in);

  private:
    std::size_t idx(std::size_t set, std::uint32_t way) const
    {
        return set * ways_ + way;
    }

    std::uint32_t ways_;
    std::vector<bool> ref_;
};

} // namespace zerodev

#endif // ZERODEV_CACHE_REPLACEMENT_HH
