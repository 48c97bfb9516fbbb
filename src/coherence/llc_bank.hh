/**
 * @file
 * The banked shared LLC. Besides ordinary data blocks, a line can hold a
 * *spilled* directory entry (a whole block in state V=0,D=1) or a *fused*
 * directory entry (a data block whose low bits were overwritten by its
 * entry) — the ZeroDEV directory caching substrate of Section III-C.
 *
 * A set can legitimately contain two lines with the same tag: the data
 * block and its spilled directory entry; probe() returns both. Victim
 * selection implements the baseline LRU and the two Section III-D
 * extensions: spLRU (a spilled entry is re-touched right after its data
 * block, keeping it younger) and dataLRU (ordinary data blocks are
 * evicted before any spilled/fused entry in the set).
 */

#ifndef ZERODEV_COHERENCE_LLC_BANK_HH
#define ZERODEV_COHERENCE_LLC_BANK_HH

#include <cstdint>
#include <vector>

#include "cache/block_state.hh"
#include "cache/cache_array.hh"
#include "common/config.hh"
#include "common/types.hh"
#include "directory/dir_entry.hh"

namespace zerodev
{

/** One LLC line (payload fields; tag/LRU live in the CacheArray). */
struct LlcLine
{
    LlcLineKind kind = LlcLineKind::Invalid;
    bool dirty = false; //!< data dirty bit (preserved across fusion)
    /** Multi-socket: other sockets may also hold copies, so a local
     *  store must consult the home socket first. */
    bool globalShared = false;
    BlockAddr block = 0;
    DirEntry de; //!< payload when kind is SpilledDe/FusedDe

    bool occupied() const { return kind != LlcLineKind::Invalid; }

    bool holdsDe() const { return holdsDirEntry(kind); }

    void
    reset()
    {
        kind = LlcLineKind::Invalid;
        dirty = false;
        globalShared = false;
        de.clear();
    }
};

/** Result of a probe: the data-bearing line and/or the spilled entry. */
struct LlcProbe
{
    LlcLine *data = nullptr;    //!< kind Data or FusedDe
    LlcLine *spilled = nullptr; //!< kind SpilledDe
    std::size_t set = 0;
    std::uint32_t dataWay = 0;
    std::uint32_t spilledWay = 0;
};

/** Description of a line displaced by an allocation. */
struct LlcVictim
{
    bool valid = false;
    LlcLineKind kind = LlcLineKind::Invalid;
    BlockAddr block = 0;
    bool dirty = false;
    DirEntry de;
};

/** LLC statistics. */
struct LlcStats
{
    std::uint64_t lookups = 0;
    std::uint64_t dataHits = 0;
    std::uint64_t dataMisses = 0;
    std::uint64_t dataEvictions = 0;
    std::uint64_t dirtyWritebacks = 0;
    std::uint64_t spillAllocs = 0;
    std::uint64_t fuseOps = 0;
    std::uint64_t unfuseOps = 0;
    std::uint64_t deEvictions = 0;  //!< spilled/fused entries evicted
    std::uint64_t deUpdates = 0;    //!< extra data-array writes to DEs
    std::uint64_t peakDeLines = 0;  //!< high-water mark of DE-bearing lines
    std::uint64_t dataArrayReads = 0; //!< data-array reads on request
                                      //!< critical paths (latency probes)
};

class Llc
{
  public:
    explicit Llc(const SystemConfig &cfg);

    /** Locate @p block's lines in its home bank (a counted tag lookup). */
    LlcProbe probe(BlockAddr block);

    /** probe() without counting a lookup, for observers such as the
     *  invariant sweeps that must leave the statistics alone. Do not
     *  modify lines through the result. */
    LlcProbe peek(BlockAddr block) const;

    /** Count a tag lookup whose lines were located through peek(). */
    void noteLookup() { ++stats_.lookups; }

    /** Home bank of @p block. */
    std::uint32_t bankOfBlock(BlockAddr block) const;

    /** Mark the data line of @p probe recently used, applying the spLRU
     *  shadow-touch of the spilled entry when configured. */
    void touchData(const LlcProbe &p);

    /** Mark the spilled line recently used. */
    void touchSpilled(const LlcProbe &p);

    /**
     * Allocate a line for @p block with the given kind, choosing a victim
     * per the configured replacement policy. @p exclude_way, if >= 0,
     * protects a way in the target set (used when converting a line in
     * the same set during the allocation).
     * @return the displaced line, if one was valid.
     */
    LlcVictim allocate(BlockAddr block, LlcLineKind kind, bool dirty,
                       const DirEntry &de, std::int32_t exclude_way = -1);

    /** Convert a Data line into a FusedDe line (Section III-C2/3). */
    void fuse(LlcLine &line, const DirEntry &de);

    /** Convert a FusedDe line back into a Data line (reconstruction). */
    void unfuse(LlcLine &line);

    /** Record an in-place update of an LLC-resident directory entry. */
    void noteDeUpdate() { ++stats_.deUpdates; }

    /** Record a block-serving hit/miss outcome (kept by the protocol
     *  engine, which knows the request intent). */
    void noteDataHit() { ++stats_.dataHits; }
    void noteDataMiss() { ++stats_.dataMisses; }

    /** Record a data-array read charged to a request's critical path
     *  (block reads, spilled/fused entry reads). */
    void noteDataRead() { ++stats_.dataArrayReads; }

    /** Free one line. */
    void invalidateLine(LlcLine &line);

    /** Count of lines holding directory entries right now. */
    std::uint64_t deLines() const { return deLines_; }

    /** Of which: whole lines holding a spilled entry. */
    std::uint64_t spilledLines() const { return spilledLines_; }

    /** Of which: data lines with a fused entry. */
    std::uint64_t fusedLines() const { return fusedLines_; }

    /** Count of valid data-bearing lines (Data + FusedDe). */
    std::uint64_t dataLines() const;

    std::uint32_t tagCycles() const { return tagCycles_; }
    std::uint32_t dataCycles() const { return dataCycles_; }

    const LlcStats &stats() const { return stats_; }
    void clearStats() { stats_ = LlcStats{}; }

    std::uint64_t totalBlocks() const { return totalBlocks_; }

    /** Snapshot every bank including spilled/fused directory-entry
     *  lines, the DE-line occupancy counters and the statistics. */
    void save(SerialOut &out) const;
    void restore(SerialIn &in);

    /** Visit every occupied line: fn(line). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &bank : banks_) {
            bank.forEach([&](std::size_t, std::uint32_t, const LlcLine &l) {
                fn(l);
            });
        }
    }

  private:
    /** Replacement class of a line under the configured policy. */
    int replClass(const LlcLine &l) const;

    void bumpDeLines(LlcLineKind kind, std::int64_t delta);

    /** Set index of @p block within its bank (precomputed mask/shift
     *  form of bankSetIndex()). */
    std::size_t
    setOfBlock(BlockAddr block) const
    {
        return static_cast<std::size_t>((block >> bankShift_) &
                                        setMask_);
    }

    /** Tag of @p block within its bank (bankTag(), division strength-
     *  reduced to a shift for power-of-two sets-per-bank and to a
     *  multiply-shift reciprocal otherwise). */
    std::uint64_t
    tagOfBlock(BlockAddr block) const
    {
        return setsPow2_ ? (block >> tagShift_)
                         : setDiv_(block >> bankShift_);
    }

    std::uint32_t numBanks_;
    std::uint64_t setsPerBank_;
    unsigned bankShift_ = 0;
    std::uint64_t bankMask_ = 0;
    std::uint64_t setMask_ = 0;
    bool setsPow2_ = false;
    unsigned tagShift_ = 0;
    MulShiftDiv setDiv_;
    std::uint32_t ways_;
    std::uint32_t tagCycles_;
    std::uint32_t dataCycles_;
    std::uint64_t totalBlocks_;
    LlcReplPolicy policy_;
    std::vector<CacheArray<LlcLine>> banks_;
    std::uint64_t deLines_ = 0;
    std::uint64_t spilledLines_ = 0;
    std::uint64_t fusedLines_ = 0;
    LlcStats stats_;
};

} // namespace zerodev

#endif // ZERODEV_COHERENCE_LLC_BANK_HH
