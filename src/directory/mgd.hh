/**
 * @file
 * Multi-grain Directory (MgD) baseline (Zebchuk et al., MICRO 2013), as
 * used in the Figure 26 comparison of the ZeroDEV paper.
 *
 * MgD invests a single directory entry to track a whole *private region*
 * (1 KB in the paper: 16 blocks) owned in M/E by one core, falling back to
 * conventional per-block entries for shared blocks. This makes a small
 * directory go a long way for private-heavy footprints, but evicting a
 * region entry invalidates every tracked block of the region in the owner
 * core — a burst of DEVs — so performance degrades as the directory
 * shrinks (the effect Figure 26 shows against ZeroDEV).
 *
 * Approximation: region entries here track only blocks the owner holds in
 * M/E; blocks in S state always use block-grain entries. (MgD proper also
 * covers one-core S-state regions; M/E-private data dominates the private
 * footprint, so the tracking-cost behaviour is preserved.)
 */

#ifndef ZERODEV_DIRECTORY_MGD_HH
#define ZERODEV_DIRECTORY_MGD_HH

#include <cstdint>
#include <vector>

#include "cache/cache_array.hh"
#include "directory/dir_org.hh"

namespace zerodev
{

/** Statistics specific to MgD. */
struct MgdStats
{
    std::uint64_t regionAllocs = 0;
    std::uint64_t blockAllocs = 0;
    std::uint64_t regionEvictions = 0; //!< multi-block DEV bursts
    std::uint64_t blockEvictions = 0;
    std::uint64_t regionBreaks = 0;    //!< block pulled out on sharing
};

class MultiGrainDirectory : public DirOrgBase
{
  public:
    /**
     * @param cores socket core count
     * @param slices number of slices (LLC bank hash)
     * @param sets_per_slice sets per slice
     * @param ways slice associativity
     * @param blocks_per_region region grain (16 for 1 KB regions)
     */
    MultiGrainDirectory(std::uint32_t cores, std::uint32_t slices,
                        std::uint64_t sets_per_slice, std::uint32_t ways,
                        std::uint32_t blocks_per_region);

    std::optional<DirEntry> lookup(BlockAddr block) override;
    std::optional<DirEntry> peek(BlockAddr block) const override;
    using DirOrgBase::set;
    bool set(BlockAddr block, const DirEntry &e,
             std::vector<Invalidation> &invs, CoreId requester) override;
    std::uint64_t liveEntries() const override;

    void save(SerialOut &out) const override;
    void restore(SerialIn &in) override;

    const MgdStats &stats() const { return stats_; }

  private:
    /** A way holds either a block-grain or a region-grain entry. */
    struct Line
    {
        bool isRegion = false;
        BlockAddr base = 0;       //!< block addr, or region base block
        CoreId owner = 0;         //!< region grain: owning core
        std::uint32_t presentMap = 0; //!< region grain: tracked blocks
        DirEntry payload;         //!< block grain

        void
        reset()
        {
            isRegion = false;
            presentMap = 0;
            payload.clear();
        }
    };

    struct Slice
    {
        Slice(std::uint64_t sets, std::uint32_t ways) : array(sets, ways) {}
        CacheArray<Line> array;
    };

    std::uint32_t sliceOf(BlockAddr b) const;

    /** Region base block of @p b. */
    BlockAddr regionOf(BlockAddr b) const
    {
        return b & ~static_cast<BlockAddr>(blocksPerRegion_ - 1);
    }

    /** Find the block-grain line for @p b; null if absent. */
    Line *findBlockLine(BlockAddr b);

    /** Find the region-grain line covering @p b; null if absent. */
    Line *findRegionLine(BlockAddr b);

    /** Allocate a line in @p b's set, evicting if needed. */
    Line *allocLine(BlockAddr b, std::vector<Invalidation> &invs);

    /** Turn an evicted line into invalidation orders (the caller frees
     *  the way afterwards). */
    void evictLine(const Line &line, std::vector<Invalidation> &invs);

    /** Slice holding @p b's block-grain line. */
    Slice &blockSlice(BlockAddr b) { return slices_[sliceOf(b)]; }

    /** Slice holding the region-grain line covering @p b. */
    Slice &
    regionSlice(BlockAddr b)
    {
        return slices_[sliceOf(regionOf(b) / blocksPerRegion_)];
    }

    std::uint32_t cores_;
    std::uint32_t numSlices_;
    std::uint64_t setsPerSlice_;
    std::uint32_t blocksPerRegion_;
    std::vector<Slice> slices_;
    MgdStats stats_;
};

} // namespace zerodev

#endif // ZERODEV_DIRECTORY_MGD_HH
