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
    // Precompute the bank split: probe() runs on every uncore access and
    // a per-call floorLog2 dominated it. Within a bank the set and tag
    // come from the bank's own array (CacheArray::setOfAddr/tagOfAddr on
    // the block with its bank bits stripped), which addrAt() inverts.
    bankShift_ = floorLog2(numBanks_);
    bankMask_ = numBanks_ - 1;

    // Only ZeroDEV keeps directory entries in the LLC. Reserve its pool
    // for a quarter of the blocks, the most the hostbench ZeroDEV
    // workloads hold at once (15.6% of the blocks on mt8-migratory-zdev,
    // up to 257 of 1024 on fuzz15-lockstep), so a run rarely regrows it.
    // Other configs reserve nothing. On fuzz15-lockstep the reservation
    // also sways whether glibc trims the fuzz streams between batches
    // (docs/PERFORMANCE.md, "Host footprint").
    if (cfg.dirOrg == DirOrg::ZeroDev) {
        entries_.reserve(totalBlocks_ / 4);
        freeSlots_.reserve(totalBlocks_ / 4);
    }

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
locate(const CacheArray<LlcLine> &bank, std::uint32_t bank_id,
       std::uint64_t addr)
{
    LlcProbe p;
    p.bank = bank_id;
    const std::size_t set = bank.setOfAddr(addr);
    const std::uint64_t tag = bank.tagOfAddr(addr);
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
    const std::uint32_t b = bankOfBlock(block);
    return locate(banks_[b], b, block >> bankShift_);
}

LlcProbe
Llc::peek(BlockAddr block) const
{
    const std::uint32_t b = bankOfBlock(block);
    return locate(banks_[b], b, block >> bankShift_);
}

void
Llc::touchData(const LlcProbe &p)
{
    if (!p.data)
        panic("touchData without a data line");
    auto &bank = banks_[p.bank];
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
    banks_[p.bank].touch(p.set, p.spilledWay);
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
    const std::uint32_t b = bankOfBlock(block);
    auto &bank = banks_[b];
    const std::uint64_t addr = block >> bankShift_;
    const std::size_t set = bank.setOfAddr(addr);
    const std::uint64_t tag = bank.tagOfAddr(addr);

    const std::uint32_t way = bank.victim(
        set, [this](const LlcLine &l) { return replClass(l); },
        exclude_way);

    LlcLine &line = bank.line(set, way);
    LlcVictim victim;
    if (bank.occupiedAt(set, way)) {
        victim.valid = true;
        victim.kind = line.kind;
        victim.block = blockAt(b, set, way);
        victim.dirty = line.dirty;
        if (line.holdsDe()) {
            victim.de = entries_[line.slot];
            ++stats_.deEvictions;
            dropSlot(line);
        } else {
            ++stats_.dataEvictions;
            if (line.dirty)
                ++stats_.dirtyWritebacks;
        }
        bank.release(set, way);
    }
    bank.occupy(set, way, tag);

    line.kind = kind;
    line.dirty = dirty;
    bank.touch(set, way);
    if (holdsDirEntry(kind)) {
        takeSlot(line, de);
        if (kind == LlcLineKind::SpilledDe)
            ++stats_.spillAllocs;
    }
    victim.filled = &line;
    return victim;
}

void
Llc::fuse(LlcLine &line, const DirEntry &de)
{
    if (line.kind != LlcLineKind::Data)
        panic("fusing a %s line", toString(line.kind));
    line.kind = LlcLineKind::FusedDe;
    takeSlot(line, de);
    ++stats_.fuseOps;
}

void
Llc::unfuse(LlcLine &line)
{
    if (line.kind != LlcLineKind::FusedDe)
        panic("unfusing a %s line", toString(line.kind));
    dropSlot(line);
    line.kind = LlcLineKind::Data;
    ++stats_.unfuseOps;
}

void
Llc::invalidateLine(const LlcProbe &p, LlcLine &line)
{
    if (&line != p.data && &line != p.spilled)
        panic("invalidateLine() of a line outside its probe");
    if (!line.occupied())
        return;
    if (line.holdsDe())
        dropSlot(line);
    banks_[p.bank].release(p.set,
                           &line == p.data ? p.dataWay : p.spilledWay);
}

void
Llc::takeSlot(LlcLine &line, const DirEntry &de)
{
    if (freeSlots_.empty()) {
        line.slot = static_cast<std::uint32_t>(entries_.size());
        entries_.push_back(de);
    } else {
        line.slot = freeSlots_.back();
        freeSlots_.pop_back();
        entries_[line.slot] = de;
    }
    ++(line.kind == LlcLineKind::SpilledDe ? spilledLines_ : fusedLines_);
    stats_.peakDeLines = std::max(stats_.peakDeLines, deLines());
}

void
Llc::dropSlot(LlcLine &line)
{
    freeSlots_.push_back(line.slot);
    line.slot = LlcLine::kNoSlot;
    --(line.kind == LlcLineKind::SpilledDe ? spilledLines_ : fusedLines_);
}

void
Llc::save(SerialOut &out) const
{
    out.u32(numBanks_);
    for (std::uint32_t b = 0; b < numBanks_; ++b) {
        banks_[b].save(out, [&](SerialOut &o, std::size_t s, std::uint32_t w,
                                const LlcLine &l) {
            o.u8(static_cast<std::uint8_t>(l.kind));
            o.b(l.dirty);
            o.b(l.globalShared);
            o.u64(blockAt(b, s, w));
            saveEntry(o, l.holdsDe() ? entries_[l.slot] : DirEntry{});
        });
    }
    out.u64(deLines());
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
    entries_.clear();
    freeSlots_.clear();
    spilledLines_ = 0;
    fusedLines_ = 0;
    for (std::uint32_t b = 0; b < numBanks_; ++b) {
        banks_[b].restore(in, [&](SerialIn &i, std::size_t s,
                                  std::uint32_t w, LlcLine &l) {
            l.kind = static_cast<LlcLineKind>(i.u8());
            l.dirty = i.b();
            l.globalShared = i.b();
            i.check(i.u64() == blockAt(b, s, w),
                    "LLC block does not match its bank, set and tag");
            const DirEntry de = loadEntry(i);
            i.check(l.kind != LlcLineKind::Invalid &&
                        l.kind <= LlcLineKind::FusedDe,
                    "bad LLC line kind");
            if (l.holdsDe()) {
                l.slot = static_cast<std::uint32_t>(entries_.size());
                entries_.push_back(de);
                ++(l.kind == LlcLineKind::SpilledDe ? spilledLines_
                                                    : fusedLines_);
            } else {
                i.check(!de.live() && de.sharers.none(),
                        "LLC data line carries a directory entry");
            }
        });
    }
    in.check(in.u64() == deLines(),
             "LLC DE-line count does not match its lines");
    const std::uint64_t spilled = in.u64();
    const std::uint64_t fused = in.u64();
    in.check(spilled == spilledLines_ && fused == fusedLines_,
             "LLC spilled and fused line counts do not match its lines");
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
Llc::occupiedLines() const
{
    std::uint64_t n = 0;
    for (const auto &bank : banks_)
        n += bank.occupiedCount();
    return n;
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
