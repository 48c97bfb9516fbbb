#include "directory/mgd.hh"

#include <bit>

#include "common/bitops.hh"
#include "common/log.hh"

namespace zerodev
{

MultiGrainDirectory::MultiGrainDirectory(std::uint32_t cores,
                                         std::uint32_t slices,
                                         std::uint64_t sets_per_slice,
                                         std::uint32_t ways,
                                         std::uint32_t blocks_per_region)
    : cores_(cores),
      numSlices_(slices),
      setsPerSlice_(sets_per_slice),
      blocksPerRegion_(blocks_per_region)
{
    if (!isPowerOfTwo(slices) || !isPowerOfTwo(sets_per_slice) ||
        !isPowerOfTwo(blocks_per_region)) {
        fatal("MgD geometry must be powers of two");
    }
    if (blocks_per_region > 32)
        fatal("MgD present map supports at most 32 blocks per region");
    slices_.reserve(slices);
    for (std::uint32_t i = 0; i < slices; ++i)
        slices_.emplace_back(sets_per_slice, ways);
}

std::uint32_t
MultiGrainDirectory::sliceOf(BlockAddr b) const
{
    return static_cast<std::uint32_t>(b & (numSlices_ - 1));
}

MultiGrainDirectory::Line *
MultiGrainDirectory::findBlockLine(BlockAddr b)
{
    Slice &slice = slices_[sliceOf(b)];
    const std::uint64_t sa = b >> floorLog2(numSlices_);
    const std::size_t set = setIndex(sa, setsPerSlice_);
    WayRef ref = slice.array.find(set, sa, [](const Line &l) {
        return !l.isRegion;
    });
    if (!ref.found)
        return nullptr;
    slice.array.touch(set, ref.way);
    return &slice.array.line(set, ref.way);
}

MultiGrainDirectory::Line *
MultiGrainDirectory::findRegionLine(BlockAddr b)
{
    // Region lines are indexed by the region *number* (base >> grain):
    // indexing by the 16-block-aligned base address would collapse every
    // region onto slice 0.
    const BlockAddr region = regionOf(b) / blocksPerRegion_;
    Slice &slice = slices_[sliceOf(region)];
    const std::uint64_t sa = region >> floorLog2(numSlices_);
    const std::size_t set = setIndex(sa, setsPerSlice_);
    WayRef ref = slice.array.find(set, sa, [](const Line &l) {
        return l.isRegion;
    });
    if (!ref.found)
        return nullptr;
    slice.array.touch(set, ref.way);
    return &slice.array.line(set, ref.way);
}

void
MultiGrainDirectory::evictLine(const Line &line,
                               std::vector<Invalidation> &invs)
{
    if (line.isRegion) {
        ++stats_.regionEvictions;
        for (std::uint32_t i = 0; i < blocksPerRegion_; ++i) {
            if (line.presentMap & (1u << i)) {
                Invalidation inv;
                inv.block = line.base + i;
                inv.cores.set(line.owner);
                inv.wasOwned = true;
                invs.push_back(inv);
                ++orgStats_.forcedInvalidations;
            }
        }
    } else {
        ++stats_.blockEvictions;
        if (line.payload.live()) {
            invs.push_back({line.base, line.payload.sharers,
                            line.payload.state == DirState::Owned});
            ++orgStats_.forcedInvalidations;
        }
    }
    ++orgStats_.entryEvictions;
}

MultiGrainDirectory::Line *
MultiGrainDirectory::allocLine(BlockAddr index_addr,
                               std::vector<Invalidation> &invs)
{
    Slice &slice = slices_[sliceOf(index_addr)];
    const std::uint64_t sa = index_addr >> floorLog2(numSlices_);
    const std::size_t set = setIndex(sa, setsPerSlice_);
    WayRef free_way = slice.array.findFree(set);
    if (!free_way.found) {
        // Protect dense region entries: evicting one invalidates every
        // tracked block of the region at once, so block-grain and
        // sparse region entries go first.
        const std::uint32_t vway = slice.array.victim(
            set, [](const Line &l) {
                if (!l.isRegion)
                    return 0;
                const int pop = std::popcount(l.presentMap);
                return pop > 8 ? 2 : pop > 2 ? 1 : 0;
            });
        evictLine(slice.array.line(set, vway), invs);
        slice.array.release(set, vway);
        free_way = {set, vway, true};
    }
    slice.array.occupy(set, free_way.way, sa);
    slice.array.touch(set, free_way.way);
    return &slice.array.line(set, free_way.way);
}

std::optional<DirEntry>
MultiGrainDirectory::lookup(BlockAddr block)
{
    ++orgStats_.lookups;
    if (Line *bl = findBlockLine(block)) {
        ++orgStats_.hits;
        return bl->payload;
    }
    if (Line *rl = findRegionLine(block)) {
        const std::uint32_t off =
            static_cast<std::uint32_t>(block - rl->base);
        if (rl->presentMap & (1u << off)) {
            ++orgStats_.hits;
            DirEntry e;
            e.makeOwned(rl->owner);
            return e;
        }
    }
    return std::nullopt;
}

std::optional<DirEntry>
MultiGrainDirectory::peek(BlockAddr block) const
{
    // Block-grain probe.
    {
        const Slice &slice = slices_[sliceOf(block)];
        const std::uint64_t sa = block >> floorLog2(numSlices_);
        const std::size_t set = setIndex(sa, setsPerSlice_);
        WayRef ref = slice.array.find(set, sa, [](const Line &l) {
            return !l.isRegion;
        });
        if (ref.found)
            return slice.array.line(set, ref.way).payload;
    }
    // Region-grain probe (indexed by region number; see findRegionLine).
    const BlockAddr region = regionOf(block) / blocksPerRegion_;
    const Slice &slice = slices_[sliceOf(region)];
    const std::uint64_t sa = region >> floorLog2(numSlices_);
    const std::size_t set = setIndex(sa, setsPerSlice_);
    WayRef ref = slice.array.find(set, sa, [](const Line &l) {
        return l.isRegion;
    });
    if (ref.found) {
        const Line &l = slice.array.line(set, ref.way);
        const std::uint32_t off =
            static_cast<std::uint32_t>(block - l.base);
        if (l.presentMap & (1u << off)) {
            DirEntry e;
            e.makeOwned(l.owner);
            return e;
        }
    }
    return std::nullopt;
}

bool
MultiGrainDirectory::set(BlockAddr block, const DirEntry &e,
                         std::vector<Invalidation> &invs, CoreId requester)
{
    (void)requester; // no way partitioning in MgD
    Line *bl = findBlockLine(block);
    Line *rl = findRegionLine(block);
    const std::uint32_t off =
        rl ? static_cast<std::uint32_t>(block - rl->base) : 0;
    const bool in_region = rl && (rl->presentMap & (1u << off));

    if (!e.live()) {
        if (bl)
            blockSlice(block).array.releaseAt(bl);
        if (in_region) {
            rl->presentMap &= ~(1u << off);
            if (rl->presentMap == 0)
                regionSlice(block).array.releaseAt(rl);
        }
        return true;
    }

    if (bl) {
        // Keep block-grain tracking once it exists.
        bl->payload = e;
        return true;
    }

    const bool private_owned =
        e.state == DirState::Owned && e.count() == 1;

    bool region_conflicted = false;
    if (in_region) {
        if (private_owned && rl->owner == e.owner()) {
            // Already tracked at region grain by the right owner.
            return true;
        }
        // Sharing broke the private region for this block.
        rl->presentMap &= ~(1u << off);
        if (rl->presentMap == 0)
            regionSlice(block).array.releaseAt(rl);
        ++stats_.regionBreaks;
        region_conflicted = true;
        rl = nullptr;
    }

    if (private_owned && !region_conflicted) {
        if (rl && rl->owner == e.owner()) {
            rl->presentMap |= 1u << off;
            return true;
        }
        if (!rl) {
            // Allocate a region entry covering this block (indexed by
            // region number).
            Line *nl = allocLine(regionOf(block) / blocksPerRegion_,
                                 invs);
            nl->isRegion = true;
            nl->base = regionOf(block);
            nl->owner = e.owner();
            nl->presentMap = 1u << (block - nl->base);
            ++stats_.regionAllocs;
            return true;
        }
        // Region exists with a different owner: fall through to a block
        // entry for this block.
    }

    Line *nl = allocLine(block, invs);
    nl->isRegion = false;
    nl->base = block;
    nl->payload = e;
    ++stats_.blockAllocs;
    return true;
}

std::uint64_t
MultiGrainDirectory::liveEntries() const
{
    std::uint64_t n = 0;
    for (const Slice &slice : slices_) {
        slice.array.forEach(
            [&](std::size_t, std::uint32_t, const Line &l) {
                n += l.isRegion
                         ? std::popcount(l.presentMap)
                         : static_cast<std::uint32_t>(l.payload.live());
            });
    }
    return n;
}

void
MultiGrainDirectory::save(SerialOut &out) const
{
    out.u32(cores_);
    out.u32(numSlices_);
    out.u32(blocksPerRegion_);
    for (const Slice &slice : slices_) {
        slice.array.save(out, [](SerialOut &o, std::size_t, std::uint32_t,
                                 const Line &l) {
            o.b(l.isRegion);
            o.u64(l.base);
            o.u32(l.owner);
            o.u32(l.presentMap);
            saveEntry(o, l.payload);
        });
    }
    out.u64(stats_.regionAllocs);
    out.u64(stats_.blockAllocs);
    out.u64(stats_.regionEvictions);
    out.u64(stats_.blockEvictions);
    out.u64(stats_.regionBreaks);
    saveOrgStats(out);
}

void
MultiGrainDirectory::restore(SerialIn &in)
{
    if (!in.check(in.u32() == cores_ && in.u32() == numSlices_ &&
                      in.u32() == blocksPerRegion_,
                  "MgD geometry mismatch"))
        return;
    for (Slice &slice : slices_) {
        slice.array.restore(in, [](SerialIn &i, std::size_t, std::uint32_t,
                                   Line &l) {
            l.isRegion = i.b();
            l.base = i.u64();
            l.owner = i.u32();
            l.presentMap = i.u32();
            l.payload = loadEntry(i);
        });
    }
    stats_.regionAllocs = in.u64();
    stats_.blockAllocs = in.u64();
    stats_.regionEvictions = in.u64();
    stats_.blockEvictions = in.u64();
    stats_.regionBreaks = in.u64();
    restoreOrgStats(in);
}

} // namespace zerodev
