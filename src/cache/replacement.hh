/**
 * @file
 * Replacement-policy building blocks.
 *
 * LRU ordering lives in CacheArray as one recency rank byte per way,
 * counted within the set (0 = most recently used): LRU, spLRU and
 * dataLRU only ever compare the ways of one set. No victim choice
 * compares ways with a branch: a plain LRU victim of a full set is the
 * way whose rank lane holds ways-1, found by a SWAR search of the rank
 * words, and a classified victim is one branch-free minimum over a key
 * of class and age per way. The Section III-D extensions (spLRU,
 * dataLRU) are expressed as a priority class supplied by the caller:
 * the victim is the LRU line within the lowest-priority non-empty
 * class, so dataLRU evicts every ordinary block in a set before any
 * spilled/fused entry.
 *
 * The sparse directory uses 1-bit NRU (Table I), provided by NruState,
 * whose operations act on a set's reference bits as one mask.
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
 *
 * The bits are packed one per way, way w of set s at bit s * ways + w
 * of a run of 64-bit words: exactly the image save() writes. Every
 * operation reads a set's bits as one mask (two words when the set
 * straddles a word boundary, which only non-power-of-two associativities
 * do) and writes the mask back whole.
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
     * [@p first, @p first + @p count), 1 <= count. Because touch() only
     * clears reference bits when the *whole* set saturates, a
     * partition's range can be fully referenced while the set is not;
     * the first way of the range is the deterministic victim then
     * (partitioned-tag mode).
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
    /** Reference bits of @p set, way w at bit w. */
    std::uint64_t refs(std::size_t set) const;

    /** Replace the reference bits of @p set with @p m (within full_). */
    void setRefs(std::size_t set, std::uint64_t m);

    std::uint32_t ways_;
    std::uint64_t full_;
    std::size_t bits_;
    /** ceil(bits_ / 64) words, then one zero word so that a set in the
     *  last word can read its (empty) upper half without a branch. */
    std::vector<std::uint64_t> words_;
};

} // namespace zerodev

#endif // ZERODEV_CACHE_REPLACEMENT_HH
