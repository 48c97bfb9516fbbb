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
 *
 * Lines are 8 bytes wide. Only spilled and fused lines hold a directory
 * entry, and those are few (Figure 5), so the entries live in a per-Llc
 * slot pool and a line holds a 32-bit slot; entry()/setEntry() reach it.
 * A line's block is not stored either: the bank, set and tag give it
 * (LlcProbe carries the bank, forEach() hands the block out).
 */

#ifndef ZERODEV_COHERENCE_LLC_BANK_HH
#define ZERODEV_COHERENCE_LLC_BANK_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "cache/block_state.hh"
#include "cache/cache_array.hh"
#include "common/config.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "directory/dir_entry.hh"

namespace zerodev
{

/** One LLC line (payload fields; tag/LRU live in the CacheArray). */
struct LlcLine
{
    static constexpr std::uint32_t kNoSlot = ~0u;

    LlcLineKind kind = LlcLineKind::Invalid;
    bool dirty = false; //!< data dirty bit (preserved across fusion)
    /** Multi-socket: other sockets may also hold copies, so a local
     *  store must consult the home socket first. */
    bool globalShared = false;
    /** Entry-pool slot when kind is SpilledDe/FusedDe (Llc::entry()). */
    std::uint32_t slot = kNoSlot;

    bool occupied() const { return kind != LlcLineKind::Invalid; }

    bool holdsDe() const { return holdsDirEntry(kind); }

    void
    reset()
    {
        kind = LlcLineKind::Invalid;
        dirty = false;
        globalShared = false;
        slot = kNoSlot;
    }
};
static_assert(sizeof(LlcLine) <= 8, "an LLC line payload fits 8 bytes");

/** Result of a probe: the data-bearing line and/or the spilled entry. */
struct LlcProbe
{
    LlcLine *data = nullptr;    //!< kind Data or FusedDe
    LlcLine *spilled = nullptr; //!< kind SpilledDe
    std::uint32_t bank = 0;
    std::size_t set = 0;
    std::uint32_t dataWay = 0;
    std::uint32_t spilledWay = 0;
};

/** Description of a line displaced by an allocation, plus the line the
 *  allocation filled. */
struct LlcVictim
{
    bool valid = false;
    LlcLineKind kind = LlcLineKind::Invalid;
    BlockAddr block = 0;
    bool dirty = false;
    DirEntry de;
    LlcLine *filled = nullptr; //!< the newly allocated line
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

    /** Count the lines of @p block's set that hold @p block and whose
     *  kind satisfies @p want, without counting a lookup (an observer
     *  for the invariant sweeps; unlike peek() it sees every match, so
     *  it can count a third one). */
    template <typename Pred>
    std::uint32_t
    countLines(BlockAddr block, Pred want) const
    {
        const CacheArray<LlcLine> &bank = banks_[bankOfBlock(block)];
        const std::uint64_t addr = block >> bankShift_;
        const std::size_t set = bank.setOfAddr(addr);
        std::uint32_t n = 0;
        for (std::uint64_t m = bank.matchMask(set, bank.tagOfAddr(addr));
             m != 0; m &= m - 1) {
            const auto w = static_cast<std::uint32_t>(std::countr_zero(m));
            n += want(bank.line(set, w).kind);
        }
        return n;
    }

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
     * per the configured replacement policy. @p de is the entry of a
     * SpilledDe/FusedDe line and ignored for a Data line. @p exclude_way,
     * if >= 0, protects a way in the target set (used when converting a
     * line in the same set during the allocation).
     * @return the displaced line, if one was valid, and the filled one.
     */
    LlcVictim allocate(BlockAddr block, LlcLineKind kind, bool dirty,
                       const DirEntry &de, std::int32_t exclude_way = -1);

    /** Directory entry held by a SpilledDe/FusedDe @p line. The
     *  reference lasts until the next allocate() or fuse(), which may
     *  grow the pool. */
    const DirEntry &
    entry(const LlcLine &line) const
    {
        if (!line.holdsDe())
            panic("entry() of a %s LLC line", toString(line.kind));
        return entries_[line.slot];
    }

    /** Overwrite the entry held by a SpilledDe/FusedDe @p line. */
    void
    setEntry(LlcLine &line, const DirEntry &de)
    {
        if (!line.holdsDe())
            panic("setEntry() on a %s LLC line", toString(line.kind));
        entries_[line.slot] = de;
    }

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

    /** Free @p line, which is @p p's data or spilled line. */
    void invalidateLine(const LlcProbe &p, LlcLine &line);

    /** Count of lines holding directory entries right now: the live
     *  slots of the entry pool. */
    std::uint64_t
    deLines() const
    {
        return entries_.size() - freeSlots_.size();
    }

    /** Of which: whole lines holding a spilled entry. */
    std::uint64_t spilledLines() const { return spilledLines_; }

    /** Of which: data lines with a fused entry. */
    std::uint64_t fusedLines() const { return fusedLines_; }

    /** Count of valid data-bearing lines (Data + FusedDe). */
    std::uint64_t dataLines() const;

    /** Count of occupied lines of every kind. */
    std::uint64_t occupiedLines() const;

    std::uint32_t tagCycles() const { return tagCycles_; }
    std::uint32_t dataCycles() const { return dataCycles_; }

    const LlcStats &stats() const { return stats_; }
    void clearStats() { stats_ = LlcStats{}; }

    std::uint64_t totalBlocks() const { return totalBlocks_; }

    /** Snapshot every bank including spilled/fused directory-entry
     *  lines, the DE-line occupancy counters and the statistics. Each
     *  line record keeps its derived block and, for a data line, an
     *  empty entry; restore() checks both, rebuilds the pool and checks
     *  the occupancy counters against it. */
    void save(SerialOut &out) const;
    void restore(SerialIn &in);

    /** Visit every occupied line: fn(block, line). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::uint32_t b = 0; b < numBanks_; ++b) {
            banks_[b].forEach(
                [&](std::size_t s, std::uint32_t w, const LlcLine &l) {
                    fn(blockAt(b, s, w), l);
                });
        }
    }

  private:
    /** Replacement class of a line under the configured policy. */
    int replClass(const LlcLine &l) const;

    /** Give @p line, which just became SpilledDe/FusedDe, a pool slot
     *  holding @p de, and count it as a DE line. */
    void takeSlot(LlcLine &line, const DirEntry &de);

    /** Return the pool slot of the DE-bearing @p line and stop counting
     *  it; the line's kind is left to the caller. */
    void dropSlot(LlcLine &line);

    /** Block held at (@p set, @p way) of bank @p bank. */
    BlockAddr
    blockAt(std::uint32_t bank, std::size_t set, std::uint32_t way) const
    {
        return (banks_[bank].addrAt(set, way) << bankShift_) | bank;
    }

    std::uint32_t numBanks_;
    std::uint64_t setsPerBank_;
    unsigned bankShift_ = 0;
    std::uint64_t bankMask_ = 0;
    std::uint32_t ways_;
    std::uint32_t tagCycles_;
    std::uint32_t dataCycles_;
    std::uint64_t totalBlocks_;
    LlcReplPolicy policy_;
    std::vector<CacheArray<LlcLine>> banks_;
    /** Entry pool of the DE-bearing lines: dense slots, reused LIFO. */
    std::vector<DirEntry> entries_;
    std::vector<std::uint32_t> freeSlots_;
    std::uint64_t spilledLines_ = 0;
    std::uint64_t fusedLines_ = 0;
    LlcStats stats_;
};

} // namespace zerodev

#endif // ZERODEV_COHERENCE_LLC_BANK_HH
