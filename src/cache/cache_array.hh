/**
 * @file
 * Generic set-associative tag/state array used by the private caches, the
 * LLC banks and the sparse directory slices.
 *
 * The array is laid out structure-of-arrays: tags and payload state live
 * in parallel vectors, and each set has a small header of whole 64-bit
 * words: its occupancy mask, then one LRU rank byte per way. The way-scan
 * in find() therefore walks a contiguous std::uint64_t tag row (one
 * cache line per 8 ways) instead of striding whole line structs, and
 * free/occupied questions are single bit tests.
 *
 * Replacement only ever compares recency among the ways of one set, so
 * a way's recency is its rank in the set: 0 is the most recently used
 * way and ways-1 the least. The ranks of a set are always a permutation
 * of 0..ways-1; the bytes that pad the last rank word hold 0x7f, above
 * every rank, so the SWAR update in touch() never moves them. A new
 * array ranks way 0 oldest. Every client follows occupy() with touch(),
 * so among occupied ways rank order is exactly last-touch order, and
 * the LRU way of a full set is the one lane that holds ways-1: victim
 * selection reads it from the rank words instead of comparing ways.
 *
 * CacheArray is a template over the *payload* type: the per-line state a
 * client keeps beyond tag/LRU/occupancy. A payload type must provide
 * `void reset()` (return the payload to its free-way state); tag, rank
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
#include <vector>

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
          rankWords_((ways + 7) / 8), hdrWords_(1 + rankWords_),
          tags_(sets * ways, 0), payload_(sets * ways)
    {
        if (sets == 0 || ways == 0)
            fatal("cache array with zero sets or ways");
        if (ways > 64)
            fatal("cache array associativity exceeds the 64-way "
                  "occupancy-mask limit");
        resetHeaders();
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
        return (occ(set) >> way) & 1u;
    }

    std::uint64_t tagAt(std::size_t set, std::uint32_t way) const
    {
        return tags_[set * ways_ + way];
    }

    /** Recency rank of (@p set, @p way): 0 for the most recently used
     *  way of the set, ways-1 for the least. */
    std::uint32_t
    rankAt(std::size_t set, std::uint32_t way) const
    {
        return rankBytes(set)[way];
    }

    /** Claim (@p set, @p way) for @p tag. The payload is left untouched
     *  (callers fill it in afterwards) and the way's rank does not
     *  change — pair with touch(). Occupying an already-occupied way
     *  simply retags it, which the L1 filter arrays rely on. */
    void
    occupy(std::size_t set, std::uint32_t way, std::uint64_t tag)
    {
        occWord(set) |= 1ull << way;
        tags_[set * ways_ + way] = tag;
    }

    /** Return (@p set, @p way) to the free state and reset its payload. */
    void
    release(std::size_t set, std::uint32_t way)
    {
        occWord(set) &= ~(1ull << way);
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
        return m & occ(set);
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
        const std::uint64_t free = ~occ(set) & waysMask_;
        if (free == 0)
            return {set, 0, false};
        return {set, static_cast<std::uint32_t>(std::countr_zero(free)),
                true};
    }

    /** Mark @p way of @p set most recently used: every way younger than
     *  it (rank below its rank r) ages by one and it takes rank 0. The
     *  compare is SWAR over the set's rank words (see younger()); the
     *  touched lane is not younger than itself, so subtracting r clears
     *  it. Only whole words are stored; a set of up to eight ways
     *  updates one word. */
    void
    touch(std::size_t set, std::uint32_t way)
    {
        std::uint64_t *row = rankRow(set);
        const std::uint64_t r = rankAt(set, way);
        const std::uint64_t rs = r * kLaneLow;
        const std::uint64_t clear = r << laneShift(way);
        if (rankWords_ == 1) {
            *row += younger(*row, rs) - clear;
            return;
        }
        for (std::uint32_t i = 0; i < rankWords_; ++i)
            row[i] += younger(row[i], rs);
        row[way / 8] -= clear;
    }

    /**
     * Pick a victim way in @p set: a free way if one exists, otherwise the
     * least-recently-used (highest-ranked) line within the lowest
     * non-empty priority class.
     * @p classify maps a payload to a class in [0, 2^24); lower classes
     * are evicted first. Plain LRU is victimLru().
     * @p exclude_way (if >= 0) is never selected.
     *
     * The choice is one branch-free minimum over a key per eligible way,
     * (class << 8 | (0xff - rank)) << 6 | way: ranks are distinct within
     * a set, so the minimum is the oldest way of the lowest class, and
     * the way rides in the low bits.
     */
    template <typename Classify>
    std::uint32_t
    victim(std::size_t set, Classify &&classify,
           std::int32_t exclude_way = -1) const
    {
        std::uint64_t allowed = waysMask_;
        if (exclude_way >= 0)
            allowed &= ~(1ull << exclude_way);
        const std::uint64_t free = allowed & ~occ(set);
        if (free != 0)
            return static_cast<std::uint32_t>(std::countr_zero(free));
        if (allowed == 0)
            panic("victim(): no eligible way in set");

        const unsigned char *ranks = rankBytes(set);
        std::uint64_t best = ~0ull;
        for (std::uint64_t m = allowed; m != 0; m &= m - 1) {
            const auto w = static_cast<std::uint32_t>(std::countr_zero(m));
            const auto cls =
                static_cast<std::uint64_t>(classify(line(set, w)));
            const std::uint64_t key =
                ((cls << 8 | (0xffu - ranks[w])) << 6) | w;
            best = std::min(best, key);
        }
        return static_cast<std::uint32_t>(best & 63);
    }

    /**
     * LRU victim with a single priority class: the lowest free way if
     * the set has one, otherwise the way whose rank is ways-1. The ranks
     * of a set are a permutation of 0..ways-1, so exactly one lane of
     * the rank words holds ways-1; a SWAR zero-byte search of the rank
     * words XOR that rank finds it (see lruWay()).
     */
    std::uint32_t
    victimLru(std::size_t set) const
    {
        const std::uint64_t free = ~occ(set) & waysMask_;
        if (free != 0)
            return static_cast<std::uint32_t>(std::countr_zero(free));
        return lruWay(set);
    }

    /** Count occupied lines satisfying @p pred over the whole array. */
    template <typename Pred>
    std::uint64_t
    count(Pred &&pred) const
    {
        std::uint64_t n = 0;
        for (std::size_t s = 0; s < sets_; ++s) {
            for (std::uint64_t m = occ(s); m != 0; m &= m - 1) {
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
        for (std::size_t s = 0; s < sets_; ++s)
            n += static_cast<std::uint64_t>(std::popcount(occ(s)));
        return n;
    }

    /** Visit every occupied line: fn(set, way, payload). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t s = 0; s < sets_; ++s) {
            for (std::uint64_t m = occ(s); m != 0; m &= m - 1) {
                const auto w =
                    static_cast<std::uint32_t>(std::countr_zero(m));
                fn(s, w, line(s, w));
            }
        }
    }

    /**
     * Snapshot the array: geometry guard, then only the occupied lines as
     * (set, way, tag, rank, payload) tuples in set-major order. The rank
     * is a u8 counted among the set's *occupied* ways (0 for the most
     * recently used of them): the stale ranks of free ways are not
     * state, so this keeps the image canonical and restore →
     * re-serialize byte-identical. Sparse encoding keeps snapshots of
     * mostly-empty arrays small. @p saveLine encodes the fields the
     * payload type adds beyond tag/rank, as saveLine(out, set, way,
     * line); the position lets a payload write fields derived from it,
     * such as its block (addrAt()).
     */
    template <typename SaveLine>
    void
    save(SerialOut &out, SaveLine &&saveLine) const
    {
        out.u64(sets_);
        out.u32(ways_);
        out.u64(occupiedCount());
        std::uint8_t occRank[64] = {};
        for (std::size_t s = 0; s < sets_; ++s) {
            const std::uint64_t o = occ(s);
            if (o == 0)
                continue;
            std::uint8_t wayOfRank[64] = {};
            for (std::uint32_t w = 0; w < ways_; ++w)
                wayOfRank[rankAt(s, w)] = static_cast<std::uint8_t>(w);
            std::uint8_t k = 0;
            for (std::uint32_t r = 0; r < ways_; ++r) {
                if ((o >> wayOfRank[r]) & 1u)
                    occRank[wayOfRank[r]] = k++;
            }
            for (std::uint64_t m = o; m != 0; m &= m - 1) {
                const auto w =
                    static_cast<std::uint32_t>(std::countr_zero(m));
                out.u64(s);
                out.u32(w);
                out.u64(tagAt(s, w));
                out.u8(occRank[w]);
                saveLine(out, s, w, line(s, w));
            }
        }
    }

    /** Inverse of save(): clears every line, then repopulates the
     *  occupied ones via @p loadLine (which decodes the payload
     *  fields; occupancy is re-established by the array itself, so
     *  addrAt() already answers for the line). Like saveLine,
     *  @p loadLine is loadLine(in, set, way, line). A set whose
     *  occupied ranks are not a permutation of 0..k-1 is rejected;
     *  its free ways take the ranks above, the lowest way oldest. */
    template <typename LoadLine>
    void
    restore(SerialIn &in, LoadLine &&loadLine)
    {
        if (!in.check(in.u64() == sets_, "cache array set count mismatch") ||
            !in.check(in.u32() == ways_, "cache array way count mismatch"))
            return;
        std::fill(tags_.begin(), tags_.end(), 0);
        resetHeaders();
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
            setRank(s, w, in.u8());
            loadLine(in, s, w, line(s, w));
        }
        for (std::size_t s = 0; s < sets_ && in.ok(); ++s) {
            const std::uint64_t o = occ(s);
            if (o == 0)
                continue;
            const auto k = static_cast<std::uint32_t>(std::popcount(o));
            std::uint64_t seen = 0;
            for (std::uint64_t m = o; m != 0; m &= m - 1) {
                const std::uint32_t r =
                    rankAt(s, static_cast<std::uint32_t>(std::countr_zero(m)));
                if (!in.check(r < k && !((seen >> r) & 1u),
                              "cache array ranks are not a permutation "
                              "of the set's occupied ways"))
                    return;
                seen |= 1ull << r;
            }
            std::uint32_t r = ways_;
            for (std::uint64_t m = ~o & waysMask_; m != 0; m &= m - 1)
                setRank(s, static_cast<std::uint32_t>(std::countr_zero(m)),
                        --r);
        }
    }

  private:
    /** One set's header: the occupancy word, then rankWords_ rank words.
     *  Way w's rank is byte w of the rank words, so it lies in word
     *  w / 8 at bit laneShift(w). */
    static constexpr std::uint64_t kLaneLow = 0x0101010101010101ull;
    static constexpr std::uint64_t kLaneHigh = 0x8080808080808080ull;
    static constexpr std::uint64_t kPadRank = 0x7f;

    static unsigned
    laneShift(std::uint32_t way)
    {
        const unsigned lane = way % 8;
        return 8 * (std::endian::native == std::endian::little ? lane
                                                                : 7 - lane);
    }

    /** Way (within its rank word) of the lane at byte @p byte of the
     *  word's value: the inverse of laneShift(). */
    static std::uint32_t
    laneOf(unsigned byte)
    {
        return std::endian::native == std::endian::little ? byte
                                                           : 7 - byte;
    }

    /** 0x01 in each lane of @p w below the rank broadcast in @p rs, 0x00
     *  elsewhere. Every lane is below 0x80, so (lane | 0x80) - r keeps
     *  its high bit exactly when lane >= r, and no lane borrows from its
     *  neighbour. */
    static std::uint64_t
    younger(std::uint64_t w, std::uint64_t rs)
    {
        return ((((w | kLaneHigh) - rs) & kLaneHigh) ^ kLaneHigh) >> 7;
    }

    /** The way of @p set whose rank lane holds ways-1. XOR with the
     *  broadcast rank zeroes exactly that lane; (x - 0x01..) & ~x &
     *  0x80.. flags a zero lane with its high bit. A borrow can flag
     *  lanes above a true zero lane but never one below it, so the
     *  lowest flag is the match. Padding lanes (kPadRank) never match:
     *  ways-1 is at most 63. Sets of up to eight ways read one word. */
    std::uint32_t
    lruWay(std::size_t set) const
    {
        const std::uint64_t *row = hdr_.data() + set * hdrWords_ + 1;
        const std::uint64_t oldest = (ways_ - 1) * kLaneLow;
        for (std::uint32_t i = 0;; ++i) {
            const std::uint64_t x = row[i] ^ oldest;
            const std::uint64_t z = (x - kLaneLow) & ~x & kLaneHigh;
            if (z != 0 || i + 1 == rankWords_)
                return 8 * i + laneOf(
                           static_cast<unsigned>(std::countr_zero(z)) / 8);
        }
    }

    std::uint64_t occ(std::size_t set) const
    {
        return hdr_[set * hdrWords_];
    }

    std::uint64_t &occWord(std::size_t set) { return hdr_[set * hdrWords_]; }

    std::uint64_t *rankRow(std::size_t set)
    {
        return hdr_.data() + set * hdrWords_ + 1;
    }

    const unsigned char *rankBytes(std::size_t set) const
    {
        return reinterpret_cast<const unsigned char *>(
            hdr_.data() + set * hdrWords_ + 1);
    }

    void
    setRank(std::size_t set, std::uint32_t way, std::uint32_t rank)
    {
        reinterpret_cast<unsigned char *>(rankRow(set))[way] =
            static_cast<unsigned char>(rank);
    }

    /** Every set empty, way 0 oldest, padding lanes at kPadRank. The
     *  header row is composed once and copied a word at a time. */
    void
    resetHeaders()
    {
        std::uint64_t row[1 + 8] = {};
        for (std::uint32_t w = 0; w < rankWords_ * 8; ++w) {
            const std::uint64_t rank = w < ways_ ? ways_ - 1 - w : kPadRank;
            row[1 + w / 8] |= rank << laneShift(w);
        }
        hdr_.clear();
        hdr_.reserve(sets_ * hdrWords_);
        for (std::size_t s = 0; s < sets_; ++s)
            hdr_.insert(hdr_.end(), row, row + hdrWords_);
    }

    std::size_t sets_;
    std::uint32_t ways_;
    std::size_t setMask_;
    bool pow2Sets_;
    unsigned tagShift_;
    MulShiftDiv setDiv_;
    std::uint64_t waysMask_;
    std::uint32_t rankWords_;
    std::uint32_t hdrWords_;
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> hdr_;
    std::vector<LineT> payload_;
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

} // namespace zerodev

#endif // ZERODEV_CACHE_CACHE_ARRAY_HH
