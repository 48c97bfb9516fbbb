#include "coherence/llc_bank.hh"

#include <bit>

#include "common/log.hh"

namespace zerodev
{

Llc::Llc(const SystemConfig &cfg)
    : numBanks_(cfg.llcBanks),
      setsPerBank_(cfg.llcSetsPerBank()),
      ways_(cfg.llcWays),
      tagCycles_(cfg.llcTagCycles),
      dataCycles_(cfg.llcDataCycles),
      totalBlocks_(cfg.llcBlocks()),
      policy_(cfg.llcReplPolicy)
{
    // Precompute the bank/set/tag decomposition: probe() runs on every
    // uncore access and the per-call floorLog2 + division dominated it.
    bankShift_ = floorLog2(numBanks_);
    bankMask_ = numBanks_ - 1;
    setMask_ = setsPerBank_ - 1;
    setsPow2_ = isPowerOfTwo(setsPerBank_);
    tagShift_ = setsPow2_ ? bankShift_ + floorLog2(setsPerBank_) : 0;
    setDiv_ = MulShiftDiv(setsPerBank_);

    banks_.reserve(numBanks_);
    for (std::uint32_t b = 0; b < numBanks_; ++b)
        banks_.emplace_back(setsPerBank_, ways_);
}

std::uint32_t
Llc::bankOfBlock(BlockAddr block) const
{
    return static_cast<std::uint32_t>(block & bankMask_);
}

namespace
{

/** The lines of @p bank's set @p set that hold @p tag. Forced inline so
 *  that probe(), on every uncore access, stays a single call. */
[[gnu::always_inline]] inline LlcProbe
locate(const CacheArray<LlcLine> &bank, std::size_t set, std::uint64_t tag)
{
    LlcProbe p;
    p.set = set;
    for (std::uint64_t m = bank.matchMask(set, tag); m != 0; m &= m - 1) {
        const auto w = static_cast<std::uint32_t>(std::countr_zero(m));
        // LlcProbe hands out mutable lines for probe()'s callers; peek()
        // callers only read through them.
        LlcLine &l = const_cast<LlcLine &>(bank.line(set, w));
        if (l.kind == LlcLineKind::SpilledDe) {
            p.spilled = &l;
            p.spilledWay = w;
        } else {
            p.data = &l;
            p.dataWay = w;
        }
    }
    return p;
}

} // namespace

LlcProbe
Llc::probe(BlockAddr block)
{
    ++stats_.lookups;
    return locate(banks_[bankOfBlock(block)], setOfBlock(block),
                  tagOfBlock(block));
}

LlcProbe
Llc::peek(BlockAddr block) const
{
    return locate(banks_[bankOfBlock(block)], setOfBlock(block),
                  tagOfBlock(block));
}

void
Llc::touchData(const LlcProbe &p)
{
    if (!p.data)
        panic("touchData without a data line");
    auto &bank = banks_[bankOfBlock(p.data->block)];
    bank.touch(p.set, p.dataWay);
    if (policy_ == LlcReplPolicy::SpLru && p.spilled) {
        // spLRU: the spilled entry shadows its block at the MRU position,
        // guaranteeing the block is evicted first (Section III-D1).
        bank.touch(p.set, p.spilledWay);
    }
}

void
Llc::touchSpilled(const LlcProbe &p)
{
    if (!p.spilled)
        panic("touchSpilled without a spilled line");
    auto &bank = banks_[bankOfBlock(p.spilled->block)];
    bank.touch(p.set, p.spilledWay);
}

int
Llc::replClass(const LlcLine &l) const
{
    if (policy_ == LlcReplPolicy::DataLru && l.holdsDe()) {
        // dataLRU: evict every ordinary data block in the set before any
        // spilled or fused entry (Section III-D1).
        return 1;
    }
    return 0;
}

LlcVictim
Llc::allocate(BlockAddr block, LlcLineKind kind, bool dirty,
              const DirEntry &de, std::int32_t exclude_way)
{
    if (kind == LlcLineKind::Invalid)
        panic("allocating an Invalid LLC line");
    auto &bank = banks_[bankOfBlock(block)];
    const std::size_t set = setOfBlock(block);
    const std::uint64_t tag = tagOfBlock(block);

    const std::uint32_t way = bank.victim(
        set, [this](const LlcLine &l) { return replClass(l); },
        exclude_way);

    LlcLine &line = bank.line(set, way);
    LlcVictim victim;
    if (bank.occupiedAt(set, way)) {
        victim.valid = true;
        victim.kind = line.kind;
        victim.block = line.block;
        victim.dirty = line.dirty;
        victim.de = line.de;
        if (line.holdsDe()) {
            ++stats_.deEvictions;
            bumpDeLines(line.kind, -1);
        } else {
            ++stats_.dataEvictions;
            if (line.dirty)
                ++stats_.dirtyWritebacks;
        }
        bank.release(set, way);
    }
    bank.occupy(set, way, tag);

    line.kind = kind;
    line.block = block;
    line.dirty = dirty;
    line.de = de;
    bank.touch(set, way);
    if (holdsDirEntry(kind)) {
        bumpDeLines(kind, +1);
        if (kind == LlcLineKind::SpilledDe)
            ++stats_.spillAllocs;
    }
    return victim;
}

void
Llc::fuse(LlcLine &line, const DirEntry &de)
{
    if (line.kind != LlcLineKind::Data)
        panic("fusing a %s line", toString(line.kind));
    line.kind = LlcLineKind::FusedDe;
    line.de = de;
    ++stats_.fuseOps;
    bumpDeLines(LlcLineKind::FusedDe, +1);
}

void
Llc::unfuse(LlcLine &line)
{
    if (line.kind != LlcLineKind::FusedDe)
        panic("unfusing a %s line", toString(line.kind));
    line.kind = LlcLineKind::Data;
    line.de.clear();
    ++stats_.unfuseOps;
    bumpDeLines(LlcLineKind::FusedDe, -1);
}

void
Llc::invalidateLine(LlcLine &line)
{
    if (!line.occupied())
        return;
    if (line.holdsDe())
        bumpDeLines(line.kind, -1);
    auto &bank = banks_[bankOfBlock(line.block)];
    const WayRef r = bank.refOf(&line);
    bank.release(r.set, r.way);
}

void
Llc::bumpDeLines(LlcLineKind kind, std::int64_t delta)
{
    deLines_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(deLines_) + delta);
    auto &split =
        kind == LlcLineKind::SpilledDe ? spilledLines_ : fusedLines_;
    split = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(split) + delta);
    stats_.peakDeLines = std::max(stats_.peakDeLines, deLines_);
}

void
Llc::save(SerialOut &out) const
{
    out.u32(numBanks_);
    for (const auto &bank : banks_) {
        bank.save(out, [](SerialOut &o, const LlcLine &l) {
            o.u8(static_cast<std::uint8_t>(l.kind));
            o.b(l.dirty);
            o.b(l.globalShared);
            o.u64(l.block);
            saveEntry(o, l.de);
        });
    }
    out.u64(deLines_);
    out.u64(spilledLines_);
    out.u64(fusedLines_);
    out.u64(stats_.lookups);
    out.u64(stats_.dataHits);
    out.u64(stats_.dataMisses);
    out.u64(stats_.dataEvictions);
    out.u64(stats_.dirtyWritebacks);
    out.u64(stats_.spillAllocs);
    out.u64(stats_.fuseOps);
    out.u64(stats_.unfuseOps);
    out.u64(stats_.deEvictions);
    out.u64(stats_.deUpdates);
    out.u64(stats_.peakDeLines);
    out.u64(stats_.dataArrayReads);
}

void
Llc::restore(SerialIn &in)
{
    if (!in.check(in.u32() == numBanks_, "LLC bank count mismatch"))
        return;
    for (auto &bank : banks_) {
        bank.restore(in, [](SerialIn &i, LlcLine &l) {
            l.kind = static_cast<LlcLineKind>(i.u8());
            l.dirty = i.b();
            l.globalShared = i.b();
            l.block = i.u64();
            l.de = loadEntry(i);
            i.check(l.kind != LlcLineKind::Invalid &&
                        l.kind <= LlcLineKind::FusedDe,
                    "bad LLC line kind");
        });
    }
    deLines_ = in.u64();
    spilledLines_ = in.u64();
    fusedLines_ = in.u64();
    stats_.lookups = in.u64();
    stats_.dataHits = in.u64();
    stats_.dataMisses = in.u64();
    stats_.dataEvictions = in.u64();
    stats_.dirtyWritebacks = in.u64();
    stats_.spillAllocs = in.u64();
    stats_.fuseOps = in.u64();
    stats_.unfuseOps = in.u64();
    stats_.deEvictions = in.u64();
    stats_.deUpdates = in.u64();
    stats_.peakDeLines = in.u64();
    stats_.dataArrayReads = in.u64();
}

std::uint64_t
Llc::dataLines() const
{
    std::uint64_t n = 0;
    for (const auto &bank : banks_) {
        n += bank.count([](const LlcLine &l) {
            return l.kind == LlcLineKind::Data ||
                   l.kind == LlcLineKind::FusedDe;
        });
    }
    return n;
}

} // namespace zerodev
