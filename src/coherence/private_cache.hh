/**
 * @file
 * The private cache hierarchy of one core: L1I + L1D backed by a unified
 * L2 that is inclusive of both L1s (Table I geometry). Coherence is
 * tracked at the L2: the directory sees one sharer per core, and an L2
 * eviction (which back-invalidates the L1s) emits the eviction notice the
 * baseline protocol relies on to keep the directory precise [24].
 *
 * An access searches the L1 first. Because the L2 is inclusive, every L1
 * line's block is in the L2, and the line's one payload byte holds the
 * L2 way of that block: an L1 hit reads its MESI state and updates its
 * L2 recency at (L2 set, way) without searching the L2 tags. Only an L1
 * miss searches the L2. The way byte is set wherever an L1 line is
 * filled; a block cannot change L2 way while an L1 holds it, since
 * leaving the L2 drops it from both L1s. The byte is not serialized:
 * restore() rebuilds it with an L2 search.
 */

#ifndef ZERODEV_COHERENCE_PRIVATE_CACHE_HH
#define ZERODEV_COHERENCE_PRIVATE_CACHE_HH

#include <bit>
#include <cstdint>
#include <optional>

#include "cache/cache_array.hh"
#include "common/config.hh"
#include "common/types.hh"

namespace zerodev
{

/** Where a core access was satisfied, or what it needs from the uncore. */
enum class CoreLookup : std::uint8_t
{
    L1Hit,       //!< served by the L1 (includes silent E->M upgrades)
    L2Hit,       //!< served by the L2, filled into the L1
    NeedUpgrade, //!< block held in S, store needs M permission
    Miss,        //!< not present: issue GetS/GetX to the home bank
};

/** An L2 eviction emitted while filling a new block. */
struct PrivateEviction
{
    BlockAddr block = 0;
    MesiState state = MesiState::Invalid; //!< state at eviction
    bool valid = false;
};

/** Statistics of one core's private hierarchy. */
struct PrivateCacheStats
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t ifetches = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidationsReceived = 0; //!< all external invs
    std::uint64_t devInvalidations = 0;      //!< of which DEVs
};

class PrivateCache
{
  public:
    /** An L2 line's payload: its MESI state. The block is not stored;
     *  CacheArray::addrAt() rebuilds it from the set and tag. */
    struct L2Line
    {
        MesiState state = MesiState::Invalid;

        void reset() { state = MesiState::Invalid; }
    };
    static_assert(sizeof(L2Line) == 1, "an L2 payload is its MESI state");

    explicit PrivateCache(const SystemConfig &cfg);

    /**
     * Look up @p block for an access of @p type, updating L1/L2 recency
     * and performing silent E->M upgrades on stores. Does not fill.
     */
    CoreLookup access(AccessType type, BlockAddr block);

    /**
     * Fill @p block into L2 (and the L1 selected by @p type) in @p state.
     * Returns the L2 victim eviction, if a valid block was displaced.
     */
    PrivateEviction fill(AccessType type, BlockAddr block, MesiState state);

    /** Current L2 state of @p block (Invalid if absent). */
    MesiState state(BlockAddr block) const;

    /** True iff the L2 holds @p block in any valid state. */
    bool holds(BlockAddr block) const { return state(block) != MesiState::Invalid; }

    /**
     * Invalidate @p block (external request). Returns the state the
     * block was in (so the caller can collect dirty data).
     * @param dev true when the invalidation stems from a directory
     *        entry eviction (DEV accounting).
     */
    MesiState invalidate(BlockAddr block, bool dev);

    /** Downgrade @p block M/E -> S; returns the previous state. */
    MesiState downgrade(BlockAddr block);

    /** Grant M permission after an upgrade response. */
    void upgradeToModified(BlockAddr block);

    /** Lookup latency of one L1 (an L1 hit) and of the L2 (added to
     *  it for an L2 hit). */
    std::uint32_t l1Cycles() const { return l1Cycles_; }
    std::uint32_t l2Cycles() const { return l2Cycles_; }

    const PrivateCacheStats &stats() const { return stats_; }
    void clearStats() { stats_ = PrivateCacheStats{}; }

    /** Number of valid L2 blocks (invariant checks). */
    std::uint64_t validBlocks() const;

    /** Snapshot the full hierarchy state (L1I/L1D/L2 + counters).
     *  restore() rejects an L1 line whose block the L2 does not hold
     *  and a block held twice in one L1. */
    void save(SerialOut &out) const;
    void restore(SerialIn &in);

    /** L2 way of @p block, if the L2 holds it. */
    std::optional<std::uint32_t> l2Way(BlockAddr block) const;

    /** Visit every valid L2 block: fn(block, state). */
    template <typename Fn>
    void
    forEachBlock(Fn &&fn) const
    {
        l2_.forEach([&](std::size_t s, std::uint32_t w, const L2Line &l) {
            fn(l2_.addrAt(s, w), l.state);
        });
    }

    /** Visit every valid line of both L1s: fn(block, l2Way, copies),
     *  where l2Way is the line's way byte and copies the number of
     *  lines of that L1 holding the block (invariant checks). */
    template <typename Fn>
    void
    forEachL1Line(Fn &&fn) const
    {
        for (const CacheArray<L1Line> *l1 : {&l1i_, &l1d_}) {
            l1->forEach([&](std::size_t s, std::uint32_t w, const L1Line &l) {
                fn(l1->addrAt(s, w), std::uint32_t{l.l2Way},
                   static_cast<std::uint32_t>(
                       std::popcount(l1->matchMask(s, l1->tagAt(s, w)))));
            });
        }
    }

  private:
    /** An L1 line's payload: the way of its block in the L2. */
    struct L1Line
    {
        std::uint8_t l2Way = 0;

        void reset() { l2Way = 0; }
    };
    static_assert(sizeof(L1Line) == 1, "an L1 payload is its L2 way");

    CacheArray<L1Line> &l1For(AccessType type)
    {
        return type == AccessType::Ifetch ? l1i_ : l1d_;
    }

    /** Remove @p block from both L1s (inclusion on L2 eviction). */
    void dropFromL1s(BlockAddr block);

    /** Fill @p block, held in L2 way @p l2Way, into the L1 used by
     *  @p type. */
    void fillL1(AccessType type, BlockAddr block, std::uint32_t l2Way);

    std::uint32_t l1Cycles_;
    std::uint32_t l2Cycles_;
    CacheArray<L1Line> l1i_;
    CacheArray<L1Line> l1d_;
    CacheArray<L2Line> l2_;
    PrivateCacheStats stats_;
};

} // namespace zerodev

#endif // ZERODEV_COHERENCE_PRIVATE_CACHE_HH
