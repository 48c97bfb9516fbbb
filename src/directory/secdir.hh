/**
 * @file
 * SecDir baseline (Yan et al., ISCA 2019), as described in Sections I-A2
 * and V of the ZeroDEV paper.
 *
 * Each directory slice is divided into one *shared* partition and one
 * *private* partition per core. A new entry starts in the shared
 * partition. When it is evicted from the shared partition by a cross-core
 * conflict, it migrates into the private partitions of the cores that are
 * caching the block, so cross-core conflicts no longer *directly*
 * invalidate private copies. However, the migration can cause
 * self-conflicts inside a core's private partition; evicting a private
 * partition entry invalidates that core's copy (a DEV limited to one
 * core). Private-partition entries need no sharer list (only a tag and an
 * owned bit), which is why the iso-storage configurations of the paper
 * give SecDir slightly more entries than the baseline.
 */

#ifndef ZERODEV_DIRECTORY_SECDIR_HH
#define ZERODEV_DIRECTORY_SECDIR_HH

#include <cstdint>
#include <vector>

#include "cache/cache_array.hh"
#include "directory/dir_org.hh"

namespace zerodev
{

/** Per-slice geometry of a SecDir instance. */
struct SecDirGeometry
{
    std::uint64_t sharedSets = 0;
    std::uint32_t sharedWays = 0;
    std::uint64_t privateSets = 0;  //!< per core
    std::uint32_t privateWays = 0;

    /**
     * The iso-storage geometries of Section V: for an 8-core socket a
     * baseline slice of (sets, 8 ways) becomes 8 private zones of
     * (sets/16, 7 ways) plus a shared zone of (sets, 5 ways); for a
     * 128-core socket it becomes 128 private zones of (max(sets/64, 1),
     * 8 or 4 ways) plus a shared zone of (sets, 4 ways).
     */
    static SecDirGeometry forConfig(std::uint32_t cores,
                                    std::uint64_t slice_sets,
                                    std::uint32_t slice_ways);
};

/** Statistics specific to SecDir. */
struct SecDirStats
{
    std::uint64_t sharedEvictions = 0;   //!< migrations out of shared zone
    std::uint64_t privateEvictions = 0;  //!< self-conflict DEV sources
    std::uint64_t migrationsBack = 0;    //!< private -> shared promotions
};

class SecDir : public DirOrgBase
{
  public:
    SecDir(std::uint32_t cores, std::uint32_t slices,
           const SecDirGeometry &geom);

    std::optional<DirEntry> lookup(BlockAddr block) override;
    std::optional<DirEntry> peek(BlockAddr block) const override;
    using DirOrgBase::set;
    bool set(BlockAddr block, const DirEntry &e,
             std::vector<Invalidation> &invs, CoreId requester) override;
    std::uint64_t liveEntries() const override;

    void save(SerialOut &out) const override;
    void restore(SerialIn &in) override;

    const SecDirStats &stats() const { return stats_; }

  private:
    struct SharedLine
    {
        BlockAddr block = 0;
        DirEntry payload;

        void reset() { payload.clear(); }
    };

    struct PrivateLine
    {
        BlockAddr block = 0;
        bool owned = false; //!< this core holds the block in M/E

        void reset() { owned = false; }
    };

    struct Slice
    {
        Slice(const SecDirGeometry &g, std::uint32_t cores)
            : shared(g.sharedSets, g.sharedWays)
        {
            priv.reserve(cores);
            for (std::uint32_t c = 0; c < cores; ++c)
                priv.emplace_back(g.privateSets, g.privateWays);
        }

        CacheArray<SharedLine> shared;
        std::vector<CacheArray<PrivateLine>> priv;
    };

    std::uint32_t sliceOf(BlockAddr b) const;
    std::uint64_t sliceAddr(BlockAddr b) const;

    /** Remove every private-zone entry for @p block; returns the merged
     *  tracking state they represented. */
    DirEntry collectPrivate(Slice &slice, BlockAddr block);

    /** Install @p e for @p block in the shared zone, migrating any evicted
     *  victim into private zones (appending DEV orders to @p invs). */
    void installShared(Slice &slice, BlockAddr block, const DirEntry &e,
                       std::vector<Invalidation> &invs);

    /** Migrate evicted shared-zone entry @p victim into the private zones
     *  of its sharer cores. */
    void migrateToPrivate(Slice &slice, BlockAddr block,
                          const DirEntry &victim,
                          std::vector<Invalidation> &invs);

    std::uint32_t cores_;
    std::uint32_t numSlices_;
    SecDirGeometry geom_;
    std::vector<Slice> slices_;
    SecDirStats stats_;
};

} // namespace zerodev

#endif // ZERODEV_DIRECTORY_SECDIR_HH
