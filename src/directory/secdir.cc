#include "directory/secdir.hh"

#include <unordered_set>

#include "common/bitops.hh"
#include "common/log.hh"

namespace zerodev
{

SecDirGeometry
SecDirGeometry::forConfig(std::uint32_t cores, std::uint64_t slice_sets,
                          std::uint32_t slice_ways)
{
    SecDirGeometry g;
    if (cores <= 8) {
        // 8-core instance (Section V): 8 private zones of (sets/16, 7)
        // and a shared zone of (sets, 5).
        g.privateSets = std::max<std::uint64_t>(slice_sets / 16, 1);
        g.privateWays = 7;
        g.sharedSets = slice_sets;
        g.sharedWays = 5;
    } else {
        // 128-core instance: private zones of (sets/64, 8) and a shared
        // zone of (sets, 4); at the 1/8x size the private zones collapse
        // to 4-way fully associative.
        g.privateSets = slice_sets / 64;
        g.privateWays = 8;
        if (g.privateSets == 0) {
            g.privateSets = 1;
            g.privateWays = 4;
        }
        g.sharedSets = slice_sets;
        g.sharedWays = 4;
    }
    (void)slice_ways;
    return g;
}

SecDir::SecDir(std::uint32_t cores, std::uint32_t slices,
               const SecDirGeometry &geom)
    : cores_(cores), numSlices_(slices), geom_(geom)
{
    if (!isPowerOfTwo(slices))
        fatal("SecDir slice count must be a power of two");
    slices_.reserve(slices);
    for (std::uint32_t i = 0; i < slices; ++i)
        slices_.emplace_back(geom, cores);
}

std::uint32_t
SecDir::sliceOf(BlockAddr b) const
{
    return static_cast<std::uint32_t>(b & (numSlices_ - 1));
}

std::uint64_t
SecDir::sliceAddr(BlockAddr b) const
{
    return b >> floorLog2(numSlices_);
}

std::optional<DirEntry>
SecDir::lookup(BlockAddr block)
{
    ++orgStats_.lookups;
    Slice &slice = slices_[sliceOf(block)];
    const std::uint64_t sa = sliceAddr(block);

    const std::size_t sset = setIndex(sa, slice.shared.numSets());
    const std::uint64_t stag = tagOf(sa, slice.shared.numSets());
    WayRef ref = slice.shared.find(sset, stag);
    if (ref.found) {
        ++orgStats_.hits;
        slice.shared.touch(sset, ref.way);
        return slice.shared.line(sset, ref.way).payload;
    }

    DirEntry merged;
    for (std::uint32_t c = 0; c < cores_; ++c) {
        auto &zone = slice.priv[c];
        const std::size_t pset = setIndex(sa, zone.numSets());
        const std::uint64_t ptag = tagOf(sa, zone.numSets());
        WayRef pref = zone.find(pset, ptag);
        if (pref.found) {
            zone.touch(pset, pref.way);
            merged.sharers.set(c);
            if (zone.line(pset, pref.way).owned)
                merged.state = DirState::Owned;
        }
    }
    if (merged.sharers.none())
        return std::nullopt;
    if (merged.state != DirState::Owned)
        merged.state = DirState::Shared;
    ++orgStats_.hits;
    return merged;
}

std::optional<DirEntry>
SecDir::peek(BlockAddr block) const
{
    const Slice &slice = slices_[sliceOf(block)];
    const std::uint64_t sa = sliceAddr(block);

    const std::size_t sset = setIndex(sa, slice.shared.numSets());
    const std::uint64_t stag = tagOf(sa, slice.shared.numSets());
    WayRef ref = slice.shared.find(sset, stag);
    if (ref.found)
        return slice.shared.line(sset, ref.way).payload;

    DirEntry merged;
    for (std::uint32_t c = 0; c < cores_; ++c) {
        const auto &zone = slice.priv[c];
        const std::size_t pset = setIndex(sa, zone.numSets());
        const std::uint64_t ptag = tagOf(sa, zone.numSets());
        WayRef pref = zone.find(pset, ptag);
        if (pref.found) {
            merged.sharers.set(c);
            if (zone.line(pset, pref.way).owned)
                merged.state = DirState::Owned;
        }
    }
    if (merged.sharers.none())
        return std::nullopt;
    if (merged.state != DirState::Owned)
        merged.state = DirState::Shared;
    return merged;
}

DirEntry
SecDir::collectPrivate(Slice &slice, BlockAddr block)
{
    const std::uint64_t sa = sliceAddr(block);
    DirEntry merged;
    for (std::uint32_t c = 0; c < cores_; ++c) {
        auto &zone = slice.priv[c];
        const std::size_t pset = setIndex(sa, zone.numSets());
        const std::uint64_t ptag = tagOf(sa, zone.numSets());
        WayRef pref = zone.find(pset, ptag);
        if (pref.found) {
            merged.sharers.set(c);
            if (zone.line(pset, pref.way).owned)
                merged.state = DirState::Owned;
            zone.release(pset, pref.way);
        }
    }
    if (merged.sharers.any() && merged.state != DirState::Owned)
        merged.state = DirState::Shared;
    return merged;
}

void
SecDir::migrateToPrivate(Slice &slice, BlockAddr block,
                         const DirEntry &victim,
                         std::vector<Invalidation> &invs)
{
    const std::uint64_t sa = sliceAddr(block);
    forEachSetBit(victim.sharers, [&](CoreId c) {
        auto &zone = slice.priv[c];
        const std::size_t pset = setIndex(sa, zone.numSets());
        const std::uint64_t ptag = tagOf(sa, zone.numSets());
        WayRef free_way = zone.findFree(pset);
        if (!free_way.found) {
            // Self-conflict inside core c's private partition: the
            // evicted entry invalidates c's copy of its block (a DEV).
            const std::uint32_t vway = zone.victimLru(pset);
            const PrivateLine &vline = zone.line(pset, vway);
            Invalidation inv;
            inv.block = vline.block;
            inv.cores.set(c);
            inv.wasOwned = vline.owned;
            invs.push_back(inv);
            ++stats_.privateEvictions;
            ++orgStats_.forcedInvalidations;
            ++orgStats_.entryEvictions;
            zone.release(pset, vway);
            free_way = {pset, vway, true};
        }
        zone.occupy(pset, free_way.way, ptag);
        PrivateLine &line = zone.line(pset, free_way.way);
        line.block = block;
        line.owned = victim.state == DirState::Owned;
        zone.touch(pset, free_way.way);
    });
}

void
SecDir::installShared(Slice &slice, BlockAddr block, const DirEntry &e,
                      std::vector<Invalidation> &invs)
{
    const std::uint64_t sa = sliceAddr(block);
    const std::size_t sset = setIndex(sa, slice.shared.numSets());
    const std::uint64_t stag = tagOf(sa, slice.shared.numSets());

    WayRef free_way = slice.shared.findFree(sset);
    if (!free_way.found) {
        const std::uint32_t vway = slice.shared.victimLru(sset);
        const SharedLine &vline = slice.shared.line(sset, vway);
        // Cross-core conflict: migrate the victim into the private
        // partitions of its sharers instead of invalidating them.
        ++stats_.sharedEvictions;
        ++orgStats_.entryEvictions;
        const BlockAddr vblock = vline.block;
        const DirEntry ventry = vline.payload;
        slice.shared.release(sset, vway);
        migrateToPrivate(slice, vblock, ventry, invs);
        free_way = {sset, vway, true};
    }
    slice.shared.occupy(sset, free_way.way, stag);
    SharedLine &line = slice.shared.line(sset, free_way.way);
    line.block = block;
    line.payload = e;
    slice.shared.touch(sset, free_way.way);
}

bool
SecDir::set(BlockAddr block, const DirEntry &e,
            std::vector<Invalidation> &invs, CoreId requester)
{
    (void)requester; // no way partitioning in SecDir
    Slice &slice = slices_[sliceOf(block)];
    const std::uint64_t sa = sliceAddr(block);
    const std::size_t sset = setIndex(sa, slice.shared.numSets());
    const std::uint64_t stag = tagOf(sa, slice.shared.numSets());

    WayRef ref = slice.shared.find(sset, stag);
    if (ref.found) {
        if (!e.live()) {
            slice.shared.release(sset, ref.way);
            return true;
        }
        slice.shared.line(sset, ref.way).payload = e;
        slice.shared.touch(sset, ref.way);
        return true;
    }

    // Not in the shared zone: the block may be tracked by private zones.
    DirEntry old = collectPrivate(slice, block);
    if (!e.live())
        return true; // tracking erased
    if (old.sharers.any()) {
        const bool subset = (e.sharers & ~old.sharers).none();
        if (subset && e.sharers.count() == old.sharers.count()) {
            // Same sharer set (e.g. an upgrade): keep it private.
            migrateToPrivate(slice, block, e, invs);
            return true;
        }
        if (subset) {
            // Pure removal (eviction notices): shrink in place.
            migrateToPrivate(slice, block, e, invs);
            return true;
        }
        // A new core joined: promote the entry back to the shared zone.
        ++stats_.migrationsBack;
    }
    installShared(slice, block, e, invs);
    return true;
}

std::uint64_t
SecDir::liveEntries() const
{
    std::unordered_set<BlockAddr> blocks;
    for (const Slice &slice : slices_) {
        slice.shared.forEach(
            [&](std::size_t, std::uint32_t, const SharedLine &l) {
                blocks.insert(l.block);
            });
        for (const auto &zone : slice.priv) {
            zone.forEach(
                [&](std::size_t, std::uint32_t, const PrivateLine &l) {
                    blocks.insert(l.block);
                });
        }
    }
    return blocks.size();
}

void
SecDir::save(SerialOut &out) const
{
    out.u32(cores_);
    out.u32(numSlices_);
    for (const Slice &slice : slices_) {
        slice.shared.save(out, [](SerialOut &o, std::size_t, std::uint32_t,
                                  const SharedLine &l) {
            o.u64(l.block);
            saveEntry(o, l.payload);
        });
        for (const auto &zone : slice.priv) {
            zone.save(out, [](SerialOut &o, std::size_t, std::uint32_t,
                              const PrivateLine &l) {
                o.u64(l.block);
                o.b(l.owned);
            });
        }
    }
    out.u64(stats_.sharedEvictions);
    out.u64(stats_.privateEvictions);
    out.u64(stats_.migrationsBack);
    saveOrgStats(out);
}

void
SecDir::restore(SerialIn &in)
{
    if (!in.check(in.u32() == cores_ && in.u32() == numSlices_,
                  "SecDir geometry mismatch"))
        return;
    for (Slice &slice : slices_) {
        slice.shared.restore(in, [](SerialIn &i, std::size_t, std::uint32_t,
                                    SharedLine &l) {
            l.block = i.u64();
            l.payload = loadEntry(i);
        });
        for (auto &zone : slice.priv) {
            zone.restore(in, [](SerialIn &i, std::size_t, std::uint32_t,
                                PrivateLine &l) {
                l.block = i.u64();
                l.owned = i.b();
            });
        }
    }
    stats_.sharedEvictions = in.u64();
    stats_.privateEvictions = in.u64();
    stats_.migrationsBack = in.u64();
    restoreOrgStats(in);
}

} // namespace zerodev
