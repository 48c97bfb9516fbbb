/**
 * @file
 * Abstract interface over the directory organisations the paper compares:
 * the baseline sparse directory (and its unbounded reference), SecDir
 * (ISCA'19), the Multi-grain Directory (MICRO'13), the phase-priority
 * rival and ZeroDEV's replacement-disabled sparse directory.
 *
 * The protocol engine reads tracking state with lookup() and writes the
 * new tracking state with set(); an organisation reports any *forced
 * invalidations* (the source of directory eviction victims) that the
 * write caused. A replacement-disabled organisation never forces one: a
 * full set refuses the write instead, and the CMP system accommodates
 * the entry in the LLC and, beyond it, in home memory (Section III-C4).
 */

#ifndef ZERODEV_DIRECTORY_DIR_ORG_HH
#define ZERODEV_DIRECTORY_DIR_ORG_HH

#include <memory>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "directory/dir_entry.hh"
#include "directory/sparse_directory.hh"

namespace zerodev
{

/**
 * An invalidation order produced by a directory conflict: the listed
 * cores must drop their copies of @p block. Each invalidated private
 * copy is a directory eviction victim (DEV).
 */
struct Invalidation
{
    BlockAddr block = 0;
    SharerSet cores;
    bool wasOwned = false; //!< the entry tracked an M/E owner
};

/** Common statistics across organisations. */
struct DirOrgStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t forcedInvalidations = 0; //!< Invalidation orders issued
    std::uint64_t entryEvictions = 0;      //!< live entries displaced
    std::uint64_t refusals = 0; //!< writes refused by a full set
};

class DirOrgBase
{
  public:
    virtual ~DirOrgBase() = default;

    /** Current tracking state of @p block, if tracked. Touches the
     *  replacement/hit state. */
    virtual std::optional<DirEntry> lookup(BlockAddr block) = 0;

    /** Side-effect-free lookup (invariant checks, introspection). */
    virtual std::optional<DirEntry> peek(BlockAddr block) const = 0;

    /**
     * Record that @p block is now tracked as @p e (a dead @p e erases the
     * tracking). Forced invalidations caused by conflicts are appended to
     * @p invs. The caller must apply them to the private caches.
     * @p requester is the in-socket core driving the update; partitioned
     * organisations confine any allocation to its domain (others ignore
     * it).
     * @return false when a full replacement-disabled set refused to
     *         allocate: the tracking is unchanged and @p invs untouched.
     */
    virtual bool set(BlockAddr block, const DirEntry &e,
                     std::vector<Invalidation> &invs,
                     CoreId requester) = 0;

    /** Convenience overload for callers with no meaningful requester
     *  (tests, unpartitioned organisations): domain 0. */
    bool
    set(BlockAddr block, const DirEntry &e,
        std::vector<Invalidation> &invs)
    {
        return set(block, e, invs, 0);
    }

    /** Number of live tracked blocks. */
    virtual std::uint64_t liveEntries() const = 0;

    /** Total entry slots, 0 when unbounded or not meaningfully bounded
     *  (occupancy probes report 0 occupancy then). */
    virtual std::uint64_t capacityEntries() const { return 0; }

    /** Snapshot the organisation's full tracking + counter state. The
     *  target of restore() must have been built from the same config. */
    virtual void save(SerialOut &out) const = 0;
    virtual void restore(SerialIn &in) = 0;

    const DirOrgStats &orgStats() const { return orgStats_; }

  protected:
    void saveOrgStats(SerialOut &out) const;
    void restoreOrgStats(SerialIn &in);

    DirOrgStats orgStats_;
};

/** Adapter presenting SparseDirectory (normal, replacement-disabled or
 *  unbounded mode) as a DirOrg. */
class SparseOrg : public DirOrgBase
{
  public:
    explicit SparseOrg(SparseDirectory dir) : dir_(std::move(dir)) {}

    std::optional<DirEntry> lookup(BlockAddr block) override;
    std::optional<DirEntry> peek(BlockAddr block) const override;
    using DirOrgBase::set;
    bool set(BlockAddr block, const DirEntry &e,
             std::vector<Invalidation> &invs, CoreId requester) override;
    std::uint64_t liveEntries() const override
    {
        return dir_.liveEntries();
    }

    std::uint64_t capacityEntries() const override
    {
        return dir_.capacityEntries();
    }

    void save(SerialOut &out) const override;
    void restore(SerialIn &in) override;

    const SparseDirectory &dir() const { return dir_; }

  private:
    SparseDirectory dir_;
};

/**
 * Bounded set-associative directory for the phase-priority backend: every
 * entry remembers the access phase (0 = store/upgrade, 1 = load,
 * 2 = ifetch) of the request that last touched it, and victim selection
 * prefers entries last touched by the *lowest-priority* phase (highest
 * phase number), breaking ties towards the oldest touch. The protocol
 * backend stamps the current request phase with notePhase() before
 * driving the generic lookup()/set() path.
 *
 * Geometry mirrors the sparse directory: one slice per LLC bank,
 * power-of-two sets per slice, `ways` entries per set.
 */
class PhasePriorityOrg : public DirOrgBase
{
  public:
    /** Lowest-priority phase; also the reset stamp for empty ways. */
    static constexpr std::uint8_t kLowestPhase = 2;

    PhasePriorityOrg(std::uint32_t slices, std::uint64_t sets_per_slice,
                     std::uint32_t ways);

    /** Stamp the phase of the request about to drive lookup()/set(). */
    void notePhase(std::uint8_t phase) { phase_ = phase; }

    std::optional<DirEntry> lookup(BlockAddr block) override;
    std::optional<DirEntry> peek(BlockAddr block) const override;
    using DirOrgBase::set;
    bool set(BlockAddr block, const DirEntry &e,
             std::vector<Invalidation> &invs, CoreId requester) override;
    std::uint64_t liveEntries() const override { return live_; }
    std::uint64_t capacityEntries() const override
    {
        return static_cast<std::uint64_t>(slices_) * setsPerSlice_ * ways_;
    }

    void save(SerialOut &out) const override;
    void restore(SerialIn &in) override;

  private:
    struct Line
    {
        BlockAddr block = 0;
        DirEntry entry;
        std::uint8_t phase = kLowestPhase; //!< phase of the last touch
        std::uint64_t tick = 0;            //!< logical time of the last touch
    };

    std::size_t rowOf(BlockAddr block) const;
    Line *find(BlockAddr block);
    const Line *find(BlockAddr block) const;
    void stamp(Line &l);

    std::uint32_t slices_;
    std::uint64_t setsPerSlice_;
    std::uint32_t ways_;
    std::uint32_t sliceShift_; //!< log2(slices_)
    std::vector<Line> lines_;  //!< row-major: (slice * sets + set) * ways
    std::uint64_t live_ = 0;
    std::uint64_t tick_ = 0;
    std::uint8_t phase_ = kLowestPhase;
};

} // namespace zerodev

#endif // ZERODEV_DIRECTORY_DIR_ORG_HH
