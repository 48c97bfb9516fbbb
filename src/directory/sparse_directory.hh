/**
 * @file
 * The sparse coherence directory: a tagged set-associative cache of
 * DirEntry payloads, sliced per LLC bank (Section III-A), with 1-bit NRU
 * replacement (Table I).
 *
 * Three operating modes cover the paper's design space:
 *  - normal: a full set evicts the NRU victim (the eviction generates
 *    DEVs; that is the caller's responsibility to act on);
 *  - replacement-disabled (Section III-C4, ZeroDEV): a full set refuses
 *    the allocation and the entry is accommodated in the LLC instead;
 *  - unbounded: the structure never runs out of space (Figures 2-3's
 *    unlimited-capacity reference).
 */

#ifndef ZERODEV_DIRECTORY_SPARSE_DIRECTORY_HH
#define ZERODEV_DIRECTORY_SPARSE_DIRECTORY_HH

#include <cstdint>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/replacement.hh"
#include "common/flat_table.hh"
#include "common/types.hh"
#include "directory/dir_entry.hh"

namespace zerodev
{

/** Statistics of one sparse directory. */
struct SparseDirStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t allocs = 0;
    std::uint64_t evictions = 0; //!< valid entries evicted (DEV sources)
    std::uint64_t refusals = 0;  //!< replacement-disabled set-full refusals
    std::uint64_t frees = 0;
};

/** Result of an allocation attempt. */
struct DirAllocResult
{
    DirEntry *entry = nullptr;    //!< the new entry, null if refused
    bool evictedVictim = false;   //!< a valid entry was evicted
    BlockAddr victimBlock = 0;    //!< block the victim tracked
    DirEntry victimEntry;         //!< payload of the evicted victim
};

class SparseDirectory
{
  public:
    /**
     * @param slices number of slices (one per LLC bank; also the bank
     *        hash used for slice selection)
     * @param sets_per_slice sets in each slice; 0 selects unbounded mode
     * @param ways slice associativity
     * @param replacement_disabled ZeroDEV mode (Section III-C4)
     * @param tag_partitions partitioned-tag strict isolation: split each
     *        set's ways into this many per-core domains; an allocation
     *        only uses (and only victimises) its domain's way range.
     *        0 disables partitioning; must divide @p ways evenly.
     */
    SparseDirectory(std::uint32_t slices, std::uint64_t sets_per_slice,
                    std::uint32_t ways, bool replacement_disabled,
                    std::uint32_t tag_partitions = 0);

    /** Unbounded-mode factory. */
    static SparseDirectory makeUnbounded(std::uint32_t slices);

    /** Find the live entry tracking @p block; null if absent. Touches
     *  the replacement state and hit statistics. */
    DirEntry *find(BlockAddr block);

    /** Side-effect-free lookup (invariant checks, introspection). */
    const DirEntry *peek(BlockAddr block) const;

    /**
     * Allocate an entry for @p block (which must not already have one).
     * In normal mode a full set evicts its NRU victim and reports it; in
     * replacement-disabled mode a full set returns entry == nullptr; in
     * unbounded mode allocation always succeeds.
     *
     * With tag partitioning active, @p domain (the requesting core's
     * in-socket id) selects the way range the allocation — and any
     * victim — is confined to; @p domain is ignored otherwise.
     */
    DirAllocResult alloc(BlockAddr block, std::uint32_t domain = 0);

    /** Free the entry tracking @p block (it became untracked). */
    void free(BlockAddr block);

    /** Live entries currently held. */
    std::uint64_t liveEntries() const;

    /** High-water mark of live entries (sizing studies, Figure 5). */
    std::uint64_t peakEntries() const { return peak_; }

    /** Total entry capacity; 0 in unbounded mode (occupancy series). */
    std::uint64_t
    capacityEntries() const
    {
        return unbounded_ ? 0
                          : static_cast<std::uint64_t>(numSlices_) *
                                setsPerSlice_ * ways_;
    }

    bool unbounded() const { return unbounded_; }
    bool replacementDisabled() const { return replacementDisabled_; }
    std::uint32_t tagPartitions() const { return tagPartitions_; }

    const SparseDirStats &stats() const { return stats_; }
    void clearStats() { stats_ = SparseDirStats{}; }

    /** Snapshot the slices (or the unbounded map, serialized in sorted
     *  block order so re-serialization is byte-identical), the NRU bits
     *  and the counters. */
    void save(SerialOut &out) const;
    void restore(SerialIn &in);

    /** Visit every live entry: fn(block, entry). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        if (unbounded_) {
            map_.forEach(fn);
            return;
        }
        for (std::uint32_t i = 0; i < numSlices_; ++i) {
            slices_[i].array.forEach(
                [&](std::size_t s, std::uint32_t w, const Line &l) {
                    fn(blockAt(i, s, w), l.payload);
                });
        }
    }

  private:
    /** The block is not stored: blockAt() rebuilds it from the slice,
     *  set and tag. */
    struct Line
    {
        DirEntry payload;

        void reset() { payload.clear(); }
    };
    static_assert(sizeof(Line) == sizeof(DirEntry),
                  "a directory line is its entry");

    struct Slice
    {
        Slice(std::uint64_t sets, std::uint32_t ways)
            : array(sets, ways), nru(sets, ways)
        {}

        CacheArray<Line> array;
        NruState nru;
    };

    std::uint32_t sliceOf(BlockAddr block) const;
    std::size_t setOf(BlockAddr block) const;
    std::uint64_t tagOfBlock(BlockAddr block) const;

    /** Block held at (@p set, @p way) of slice @p slice. */
    BlockAddr
    blockAt(std::uint32_t slice, std::size_t set, std::uint32_t way) const
    {
        return (slices_[slice].array.addrAt(set, way) << sliceShift_) |
               slice;
    }

    std::uint32_t numSlices_;
    std::uint64_t setsPerSlice_;
    std::uint32_t ways_;
    bool replacementDisabled_;
    bool unbounded_;
    /** Per-core way-partition count (0 = off). Config-derived, so it is
     *  deliberately not serialized: the snapshot fingerprint guard
     *  already pins the configuration. */
    std::uint32_t tagPartitions_ = 0;
    /** Precomputed decomposition (slices and sets/slice are enforced
     *  powers of two): block -> slice | set | tag without per-lookup
     *  floorLog2 or division. */
    unsigned sliceShift_ = 0;
    std::uint64_t setMask_ = 0;
    unsigned tagShift_ = 0;

    std::vector<Slice> slices_;
    FlatTable<DirEntry> map_; //!< unbounded mode

    std::uint64_t live_ = 0;
    std::uint64_t peak_ = 0;
    SparseDirStats stats_;
};

} // namespace zerodev

#endif // ZERODEV_DIRECTORY_SPARSE_DIRECTORY_HH
