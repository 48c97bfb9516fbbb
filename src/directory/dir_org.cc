#include "directory/dir_org.hh"

#include "common/bitops.hh"
#include "common/log.hh"

namespace zerodev
{

std::optional<DirEntry>
SparseOrg::lookup(BlockAddr block)
{
    ++orgStats_.lookups;
    DirEntry *e = dir_.find(block);
    if (!e)
        return std::nullopt;
    ++orgStats_.hits;
    return *e;
}

std::optional<DirEntry>
SparseOrg::peek(BlockAddr block) const
{
    const DirEntry *e = dir_.peek(block);
    if (!e)
        return std::nullopt;
    return *e;
}

bool
SparseOrg::set(BlockAddr block, const DirEntry &e,
               std::vector<Invalidation> &invs, CoreId requester)
{
    DirEntry *existing = dir_.find(block);
    if (!e.live()) {
        if (existing)
            dir_.free(block);
        return true;
    }
    if (existing) {
        *existing = e;
        return true;
    }
    DirAllocResult res = dir_.alloc(block, requester);
    if (!res.entry) {
        ++orgStats_.refusals; // replacement-disabled and the set is full
        return false;
    }
    if (res.evictedVictim && res.victimEntry.live()) {
        invs.push_back({res.victimBlock, res.victimEntry.sharers,
                        res.victimEntry.state == DirState::Owned});
        ++orgStats_.forcedInvalidations;
        ++orgStats_.entryEvictions;
    }
    *res.entry = e;
    return true;
}

void
DirOrgBase::saveOrgStats(SerialOut &out) const
{
    out.u64(orgStats_.lookups);
    out.u64(orgStats_.hits);
    out.u64(orgStats_.forcedInvalidations);
    out.u64(orgStats_.entryEvictions);
    out.u64(orgStats_.refusals);
}

void
DirOrgBase::restoreOrgStats(SerialIn &in)
{
    orgStats_.lookups = in.u64();
    orgStats_.hits = in.u64();
    orgStats_.forcedInvalidations = in.u64();
    orgStats_.entryEvictions = in.u64();
    orgStats_.refusals = in.u64();
}

void
SparseOrg::save(SerialOut &out) const
{
    dir_.save(out);
    saveOrgStats(out);
}

void
SparseOrg::restore(SerialIn &in)
{
    dir_.restore(in);
    restoreOrgStats(in);
}

PhasePriorityOrg::PhasePriorityOrg(std::uint32_t slices,
                                   std::uint64_t sets_per_slice,
                                   std::uint32_t ways)
    : slices_(slices), setsPerSlice_(sets_per_slice), ways_(ways)
{
    if (!isPowerOfTwo(slices_))
        panic("PhasePriorityOrg: slice count must be a power of two");
    if (!isPowerOfTwo(setsPerSlice_))
        panic("PhasePriorityOrg: sets per slice must be a power of two");
    if (ways_ == 0)
        panic("PhasePriorityOrg: zero ways");
    sliceShift_ = floorLog2(slices_);
    lines_.resize(capacityEntries());
}

std::size_t
PhasePriorityOrg::rowOf(BlockAddr block) const
{
    // Same block interleaving as the sparse directory: low bits pick the
    // slice (one per LLC bank), the next bits pick the set.
    const std::uint64_t slice = block & (slices_ - 1);
    const std::uint64_t set = (block >> sliceShift_) & (setsPerSlice_ - 1);
    return static_cast<std::size_t>((slice * setsPerSlice_ + set) * ways_);
}

PhasePriorityOrg::Line *
PhasePriorityOrg::find(BlockAddr block)
{
    Line *row = &lines_[rowOf(block)];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (row[w].entry.live() && row[w].block == block)
            return &row[w];
    }
    return nullptr;
}

const PhasePriorityOrg::Line *
PhasePriorityOrg::find(BlockAddr block) const
{
    const Line *row = &lines_[rowOf(block)];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (row[w].entry.live() && row[w].block == block)
            return &row[w];
    }
    return nullptr;
}

void
PhasePriorityOrg::stamp(Line &l)
{
    l.phase = phase_;
    l.tick = ++tick_;
}

std::optional<DirEntry>
PhasePriorityOrg::lookup(BlockAddr block)
{
    ++orgStats_.lookups;
    Line *l = find(block);
    if (!l)
        return std::nullopt;
    ++orgStats_.hits;
    stamp(*l);
    return l->entry;
}

std::optional<DirEntry>
PhasePriorityOrg::peek(BlockAddr block) const
{
    const Line *l = find(block);
    if (!l)
        return std::nullopt;
    return l->entry;
}

bool
PhasePriorityOrg::set(BlockAddr block, const DirEntry &e,
                      std::vector<Invalidation> &invs, CoreId requester)
{
    (void)requester; // whole sets are shared; no per-core domains
    Line *existing = find(block);
    if (!e.live()) {
        if (existing) {
            existing->entry.clear();
            --live_;
        }
        return true;
    }
    if (existing) {
        existing->entry = e;
        stamp(*existing);
        return true;
    }
    Line *row = &lines_[rowOf(block)];
    Line *victim = nullptr;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (!row[w].entry.live()) {
            victim = &row[w];
            break;
        }
        // Prefer the way last touched by the lowest-priority phase
        // (highest phase number); among equals evict the oldest touch.
        if (!victim || row[w].phase > victim->phase ||
            (row[w].phase == victim->phase && row[w].tick < victim->tick)) {
            victim = &row[w];
        }
    }
    if (victim->entry.live()) {
        invs.push_back({victim->block, victim->entry.sharers,
                        victim->entry.state == DirState::Owned});
        ++orgStats_.forcedInvalidations;
        ++orgStats_.entryEvictions;
        --live_;
    }
    victim->block = block;
    victim->entry = e;
    stamp(*victim);
    ++live_;
    return true;
}

void
PhasePriorityOrg::save(SerialOut &out) const
{
    out.u64(lines_.size());
    for (const Line &l : lines_) {
        out.u64(l.block);
        saveEntry(out, l.entry);
        out.u8(l.phase);
        out.u64(l.tick);
    }
    out.u64(live_);
    out.u64(tick_);
    out.u8(phase_);
    saveOrgStats(out);
}

void
PhasePriorityOrg::restore(SerialIn &in)
{
    if (!in.check(in.u64() == lines_.size(),
                  "phase-priority directory geometry mismatch"))
        return;
    std::uint64_t held = 0;
    for (Line &l : lines_) {
        l.block = in.u64();
        l.entry = loadEntry(in);
        l.phase = in.u8();
        l.tick = in.u64();
        held += l.entry.live();
    }
    live_ = in.u64();
    if (!in.check(live_ == held,
                  "phase-priority directory live count does not match "
                  "its lines"))
        return;
    tick_ = in.u64();
    phase_ = in.u8();
    restoreOrgStats(in);
}

} // namespace zerodev
