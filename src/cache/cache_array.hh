/**
 * @file
 * Generic set-associative tag/state array used by the private caches, the
 * LLC banks and the sparse directory slices.
 *
 * The array is laid out structure-of-arrays: tags, LRU stamps and payload
 * state live in parallel vectors, and per-set occupancy is a 64-bit mask.
 * The way-scan in find()/victim() therefore walks a contiguous
 * std::uint64_t tag row (one cache line per 8 ways) instead of striding
 * whole line structs, and free/occupied questions are single bit tests.
 *
 * CacheArray is a template over the *payload* type: the per-line state a
 * client keeps beyond tag/LRU/occupancy. A payload type must provide
 * `void reset()` (return the payload to its free-way state); tag, lastUse
 * and the occupied bit are owned by the array itself.
 *
 * A line's address is not stored: addrAt() rebuilds it from the set and
 * the tag, as the inverse of setOfAddr()/tagOfAddr(). Payloads therefore
 * hold only their real state (a private L2 line is one byte), and
 * clients that need a victim's block derive it from its position.
 */

#ifndef ZERODEV_CACHE_CACHE_ARRAY_HH
#define ZERODEV_CACHE_CACHE_ARRAY_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "cache/replacement.hh"
#include "common/bitops.hh"
#include "common/log.hh"
#include "common/serialize.hh"

namespace zerodev
{

/** Location of a line inside a CacheArray. */
struct WayRef
{
    std::size_t set = 0;
    std::uint32_t way = 0;
    bool found = false;
};

template <typename LineT>
class CacheArray
{
  public:
    CacheArray(std::size_t sets, std::uint32_t ways)
        : sets_(sets), ways_(ways), setMask_(sets - 1),
          pow2Sets_(isPowerOfTwo(sets)),
          tagShift_(pow2Sets_ ? floorLog2(sets) : 0),
          setDiv_(pow2Sets_ ? 1 : sets),
          waysMask_(ways >= 64 ? ~0ull : (1ull << ways) - 1),
          tags_(sets * ways, 0), lastUse_(sets * ways, 0), occ_(sets, 0),
          payload_(sets * ways)
    {
        if (sets == 0 || ways == 0)
            fatal("cache array with zero sets or ways");
        if (ways > 64)
            fatal("cache array associativity exceeds the 64-way "
                  "occupancy-mask limit");
    }

    std::size_t numSets() const { return sets_; }
    std::uint32_t numWays() const { return ways_; }

    /** Set index of @p addr: addr mod sets. For power-of-two set counts
     *  that is the low index bits, as the free setIndex() computes for
     *  that case only; other counts take the remainder of the
     *  tagOfAddr() reciprocal, so that addrAt() inverts both. */
    std::size_t
    setOfAddr(std::uint64_t addr) const
    {
        return static_cast<std::size_t>(
            pow2Sets_ ? addr & setMask_ : addr - setDiv_(addr) * sets_);
    }

    /** Tag of @p addr: addr / sets, strength-reduced to a shift for the
     *  power-of-two geometries every shipped config uses and to a
     *  multiply-shift reciprocal for odd geometries, so neither path
     *  pays a hardware divide inside the scan loops. */
    std::uint64_t
    tagOfAddr(std::uint64_t addr) const
    {
        return pow2Sets_ ? (addr >> tagShift_) : setDiv_(addr);
    }

    /** Address held at (@p set, @p way): the inverse of setOfAddr() and
     *  tagOfAddr(), tag * sets + set. Meaningful for occupied ways. */
    std::uint64_t
    addrAt(std::size_t set, std::uint32_t way) const
    {
        const std::uint64_t tag = tagAt(set, way);
        return pow2Sets_ ? (tag << tagShift_) | set : tag * sets_ + set;
    }

    /** Payload of (@p set, @p way). Valid whether or not the way is
     *  occupied; pair with occupiedAt() when that matters. */
    LineT &line(std::size_t set, std::uint32_t way)
    {
        return payload_[set * ways_ + way];
    }

    const LineT &line(std::size_t set, std::uint32_t way) const
    {
        return payload_[set * ways_ + way];
    }

    bool
    occupiedAt(std::size_t set, std::uint32_t way) const
    {
        return (occ_[set] >> way) & 1u;
    }

    std::uint64_t tagAt(std::size_t set, std::uint32_t way) const
    {
        return tags_[set * ways_ + way];
    }

    std::uint64_t lastUseAt(std::size_t set, std::uint32_t way) const
    {
        return lastUse_[set * ways_ + way];
    }

    /** Claim (@p set, @p way) for @p tag. The payload is left untouched
     *  (callers fill it in afterwards) and the LRU stamp is not bumped —
     *  pair with touch(). Occupying an already-occupied way simply
     *  retags it, which the L1 filter arrays rely on. */
    void
    occupy(std::size_t set, std::uint32_t way, std::uint64_t tag)
    {
        occ_[set] |= 1ull << way;
        tags_[set * ways_ + way] = tag;
    }

    /** Return (@p set, @p way) to the free state and reset its payload. */
    void
    release(std::size_t set, std::uint32_t way)
    {
        occ_[set] &= ~(1ull << way);
        payload_[set * ways_ + way].reset();
    }

    /** Locate a payload pointer previously handed out by line()/find()
     *  paths. Lets clients that traffic in payload pointers free a way
     *  without re-deriving its address. */
    WayRef
    refOf(const LineT *l) const
    {
        const std::size_t idx =
            static_cast<std::size_t>(l - payload_.data());
        return {idx / ways_, static_cast<std::uint32_t>(idx % ways_),
                true};
    }

    void
    releaseAt(const LineT *l)
    {
        const WayRef r = refOf(l);
        release(r.set, r.way);
    }

    /** Bit mask of occupied ways in @p set whose tag matches @p tag.
     *  The scan is branch-free over the contiguous tag row, so the
     *  compiler can vectorize the compares. */
    std::uint64_t
    matchMask(std::size_t set, std::uint64_t tag) const
    {
        const std::uint64_t *row = tags_.data() + set * ways_;
        std::uint64_t m = 0;
        for (std::uint32_t w = 0; w < ways_; ++w)
            m |= static_cast<std::uint64_t>(row[w] == tag) << w;
        return m & occ_[set];
    }

    /**
     * Find the line in @p set whose tag matches @p tag and which satisfies
     * @p pred. The LLC can legitimately hold two lines with the same tag
     * (a data block and its spilled directory entry, Section III-C1), so
     * the predicate selects which one the caller wants. Matches are
     * visited in ascending way order, preserving first-match semantics.
     */
    template <typename Pred>
    WayRef
    find(std::size_t set, std::uint64_t tag, Pred &&pred) const
    {
        for (std::uint64_t m = matchMask(set, tag); m != 0; m &= m - 1) {
            const auto w = static_cast<std::uint32_t>(std::countr_zero(m));
            if (pred(line(set, w)))
                return {set, w, true};
        }
        return {set, 0, false};
    }

    /** Find matching @p tag among occupied lines (no extra predicate). */
    WayRef
    find(std::size_t set, std::uint64_t tag) const
    {
        const std::uint64_t m = matchMask(set, tag);
        if (m == 0)
            return {set, 0, false};
        return {set, static_cast<std::uint32_t>(std::countr_zero(m)),
                true};
    }

    /** First free way in @p set, if any. */
    WayRef
    findFree(std::size_t set) const
    {
        const std::uint64_t free = ~occ_[set] & waysMask_;
        if (free == 0)
            return {set, 0, false};
        return {set, static_cast<std::uint32_t>(std::countr_zero(free)),
                true};
    }

    /** Mark @p way of @p set most recently used. */
    void
    touch(std::size_t set, std::uint32_t way)
    {
        lastUse_[set * ways_ + way] = clock_.tick();
    }

    /**
     * Pick a victim way in @p set: a free way if one exists, otherwise the
     * least-recently-used line within the lowest non-empty priority class.
     * @p classify maps a payload to a class; lower classes are evicted
     * first. Plain LRU is classify = [](auto&){ return 0; }.
     * @p exclude_way (if >= 0) is never selected.
     */
    template <typename Classify>
    std::uint32_t
    victim(std::size_t set, Classify &&classify,
           std::int32_t exclude_way = -1) const
    {
        std::uint64_t allowed = waysMask_;
        if (exclude_way >= 0)
            allowed &= ~(1ull << exclude_way);
        const std::uint64_t free = allowed & ~occ_[set];
        if (free != 0)
            return static_cast<std::uint32_t>(std::countr_zero(free));

        std::uint32_t best_way = 0;
        int best_class = std::numeric_limits<int>::max();
        std::uint64_t best_use = std::numeric_limits<std::uint64_t>::max();
        bool found = false;
        const std::uint64_t *use_row = lastUse_.data() + set * ways_;
        for (std::uint64_t m = allowed & occ_[set]; m != 0; m &= m - 1) {
            const auto w = static_cast<std::uint32_t>(std::countr_zero(m));
            const int cls = classify(line(set, w));
            if (cls < best_class ||
                (cls == best_class && use_row[w] < best_use)) {
                best_class = cls;
                best_use = use_row[w];
                best_way = w;
                found = true;
            }
        }
        if (!found)
            panic("victim(): no eligible way in set");
        return best_way;
    }

    /** LRU victim with a single priority class. */
    std::uint32_t
    victimLru(std::size_t set) const
    {
        return victim(set, [](const LineT &) { return 0; });
    }

    /** Count occupied lines satisfying @p pred over the whole array. */
    template <typename Pred>
    std::uint64_t
    count(Pred &&pred) const
    {
        std::uint64_t n = 0;
        for (std::size_t s = 0; s < sets_; ++s) {
            for (std::uint64_t m = occ_[s]; m != 0; m &= m - 1) {
                const auto w =
                    static_cast<std::uint32_t>(std::countr_zero(m));
                if (pred(line(s, w)))
                    ++n;
            }
        }
        return n;
    }

    /** Total occupied lines (popcount over the occupancy masks). */
    std::uint64_t
    occupiedCount() const
    {
        std::uint64_t n = 0;
        for (const std::uint64_t m : occ_)
            n += static_cast<std::uint64_t>(std::popcount(m));
        return n;
    }

    /** Visit every occupied line: fn(set, way, payload). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t s = 0; s < sets_; ++s) {
            for (std::uint64_t m = occ_[s]; m != 0; m &= m - 1) {
                const auto w =
                    static_cast<std::uint32_t>(std::countr_zero(m));
                fn(s, w, line(s, w));
            }
        }
    }

    /**
     * Snapshot the array: geometry guard, LRU clock, then only the
     * occupied lines as (set, way, tag, lastUse, payload) tuples in
     * set-major order. Sparse encoding keeps snapshots of mostly-empty
     * arrays small, and the fixed iteration order makes restore →
     * re-serialize byte-identical. The byte format is unchanged from the
     * array-of-structs layout this class used to have. @p saveLine
     * encodes the fields the payload type adds beyond tag/lastUse, as
     * saveLine(out, set, way, line); the position lets a payload write
     * fields derived from it, such as its block (addrAt()).
     */
    template <typename SaveLine>
    void
    save(SerialOut &out, SaveLine &&saveLine) const
    {
        out.u64(sets_);
        out.u32(ways_);
        out.u64(clock_.now());
        out.u64(occupiedCount());
        forEach([&](std::size_t s, std::uint32_t w, const LineT &l) {
            out.u64(s);
            out.u32(w);
            out.u64(tagAt(s, w));
            out.u64(lastUseAt(s, w));
            saveLine(out, s, w, l);
        });
    }

    /** Inverse of save(): clears every line, then repopulates the
     *  occupied ones via @p loadLine (which decodes the payload
     *  fields; occupancy is re-established by the array itself, so
     *  addrAt() already answers for the line). Like saveLine,
     *  @p loadLine is loadLine(in, set, way, line). */
    template <typename LoadLine>
    void
    restore(SerialIn &in, LoadLine &&loadLine)
    {
        if (!in.check(in.u64() == sets_, "cache array set count mismatch") ||
            !in.check(in.u32() == ways_, "cache array way count mismatch"))
            return;
        clock_.setNow(in.u64());
        std::fill(tags_.begin(), tags_.end(), 0);
        std::fill(lastUse_.begin(), lastUse_.end(), 0);
        std::fill(occ_.begin(), occ_.end(), 0);
        for (LineT &l : payload_)
            l = LineT{};
        const std::uint64_t n = in.u64();
        for (std::uint64_t i = 0; i < n && in.ok(); ++i) {
            const std::uint64_t s = in.u64();
            const std::uint32_t w = in.u32();
            if (!in.check(s < sets_ && w < ways_,
                          "cache array line out of range"))
                return;
            occupy(s, w, in.u64());
            lastUse_[s * ways_ + w] = in.u64();
            loadLine(in, s, w, line(s, w));
        }
    }

  private:
    std::size_t sets_;
    std::uint32_t ways_;
    std::size_t setMask_;
    bool pow2Sets_;
    unsigned tagShift_;
    MulShiftDiv setDiv_;
    std::uint64_t waysMask_;
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint64_t> occ_;
    std::vector<LineT> payload_;
    LruClock clock_;
};

/** Set index for a non-banked array with power-of-two sets. */
constexpr std::size_t
setIndex(std::uint64_t block_addr, std::size_t sets)
{
    return static_cast<std::size_t>(block_addr & (sets - 1));
}

/** Tag for a non-banked array with power-of-two sets. */
constexpr std::uint64_t
tagOf(std::uint64_t block_addr, std::size_t sets)
{
    return block_addr / sets;
}

/** Home bank of a block in a banked structure. */
constexpr std::uint32_t
bankOf(std::uint64_t block_addr, std::uint32_t banks)
{
    return static_cast<std::uint32_t>(block_addr & (banks - 1));
}

/** Set index within a bank: banks strip the low bits first. */
constexpr std::size_t
bankSetIndex(std::uint64_t block_addr, std::uint32_t banks,
             std::size_t sets_per_bank)
{
    return static_cast<std::size_t>((block_addr >> floorLog2(banks)) &
                                    (sets_per_bank - 1));
}

/** Tag within a banked structure. */
constexpr std::uint64_t
bankTag(std::uint64_t block_addr, std::uint32_t banks,
        std::size_t sets_per_bank)
{
    return (block_addr >> floorLog2(banks)) / sets_per_bank;
}

} // namespace zerodev

#endif // ZERODEV_CACHE_CACHE_ARRAY_HH
