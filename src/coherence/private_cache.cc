#include "coherence/private_cache.hh"

#include <bit>

#include "common/log.hh"

namespace zerodev
{

PrivateCache::PrivateCache(const SystemConfig &cfg)
    : l1Cycles_(cfg.l1d.lookupCycles),
      l2Cycles_(cfg.l2.lookupCycles),
      l1i_(cfg.l1i.sets(cfg.blockBytes), cfg.l1i.ways),
      l1d_(cfg.l1d.sets(cfg.blockBytes), cfg.l1d.ways),
      l2_(cfg.l2.sets(cfg.blockBytes), cfg.l2.ways)
{
}

CoreLookup
PrivateCache::access(AccessType type, BlockAddr block)
{
    switch (type) {
      case AccessType::Load: ++stats_.loads; break;
      case AccessType::Store: ++stats_.stores; break;
      case AccessType::Ifetch: ++stats_.ifetches; break;
    }

    // The L1 first: a hit finds its L2 line through the way byte.
    auto &l1 = l1For(type);
    const std::size_t l1set = l1.setOfAddr(block);
    const WayRef l1ref = l1.find(l1set, l1.tagOfAddr(block));
    const std::size_t l2set = l2_.setOfAddr(block);
    std::uint32_t l2way;
    if (l1ref.found) {
        l2way = l1.line(l1set, l1ref.way).l2Way;
    } else {
        const WayRef l2ref = l2_.find(l2set, l2_.tagOfAddr(block));
        if (!l2ref.found) {
            ++stats_.misses;
            return CoreLookup::Miss;
        }
        l2way = l2ref.way;
    }
    L2Line &l2line = l2_.line(l2set, l2way);

    if (type == AccessType::Store) {
        if (l2line.state == MesiState::Shared) {
            ++stats_.upgrades;
            return CoreLookup::NeedUpgrade;
        }
        // Silent E->M upgrade; the directory cannot distinguish [22].
        l2line.state = MesiState::Modified;
    }

    l2_.touch(l2set, l2way);

    if (l1ref.found) {
        l1.touch(l1set, l1ref.way);
        ++stats_.l1Hits;
        return CoreLookup::L1Hit;
    }
    fillL1(type, block, l2way);
    ++stats_.l2Hits;
    return CoreLookup::L2Hit;
}

void
PrivateCache::fillL1(AccessType type, BlockAddr block, std::uint32_t l2Way)
{
    auto &l1 = l1For(type);
    const std::size_t set = l1.setOfAddr(block);
    const std::uint32_t way = l1.victimLru(set);
    l1.occupy(set, way, l1.tagOfAddr(block));
    l1.line(set, way).l2Way = static_cast<std::uint8_t>(l2Way);
    l1.touch(set, way);
    // L1 evictions are silent: the L2 is inclusive and already tracks
    // the block in the right state.
}

PrivateEviction
PrivateCache::fill(AccessType type, BlockAddr block, MesiState state)
{
    if (state == MesiState::Invalid)
        panic("filling a block in Invalid state");

    PrivateEviction ev;
    const std::size_t set = l2_.setOfAddr(block);
    const std::uint64_t tag = l2_.tagOfAddr(block);
    WayRef ref = l2_.find(set, tag);
    if (!ref.found) {
        const std::uint32_t way = l2_.victimLru(set);
        if (l2_.occupiedAt(set, way)) {
            ev.block = l2_.addrAt(set, way);
            ev.state = l2_.line(set, way).state;
            ev.valid = true;
            ++stats_.evictions;
            dropFromL1s(ev.block);
            l2_.release(set, way);
        }
        l2_.occupy(set, way, tag);
        ref = {set, way, true};
    }
    L2Line &line = l2_.line(set, ref.way);
    line.state = state;
    l2_.touch(set, ref.way);
    fillL1(type, block, ref.way);
    return ev;
}

MesiState
PrivateCache::state(BlockAddr block) const
{
    const std::size_t set = l2_.setOfAddr(block);
    const WayRef ref = l2_.find(set, l2_.tagOfAddr(block));
    if (!ref.found)
        return MesiState::Invalid;
    return l2_.line(set, ref.way).state;
}

MesiState
PrivateCache::invalidate(BlockAddr block, bool dev)
{
    const std::size_t set = l2_.setOfAddr(block);
    const WayRef ref = l2_.find(set, l2_.tagOfAddr(block));
    if (!ref.found)
        return MesiState::Invalid;
    const MesiState prev = l2_.line(set, ref.way).state;
    l2_.release(set, ref.way);
    dropFromL1s(block);
    ++stats_.invalidationsReceived;
    if (dev)
        ++stats_.devInvalidations;
    return prev;
}

MesiState
PrivateCache::downgrade(BlockAddr block)
{
    const std::size_t set = l2_.setOfAddr(block);
    const WayRef ref = l2_.find(set, l2_.tagOfAddr(block));
    if (!ref.found)
        panic("downgrade of absent block");
    L2Line &line = l2_.line(set, ref.way);
    const MesiState prev = line.state;
    if (prev != MesiState::Modified && prev != MesiState::Exclusive)
        panic("downgrade of a %s block", toString(prev));
    line.state = MesiState::Shared;
    return prev;
}

void
PrivateCache::upgradeToModified(BlockAddr block)
{
    const std::size_t set = l2_.setOfAddr(block);
    const WayRef ref = l2_.find(set, l2_.tagOfAddr(block));
    if (!ref.found)
        panic("upgrade of absent block");
    l2_.line(set, ref.way).state = MesiState::Modified;
}

void
PrivateCache::dropFromL1s(BlockAddr block)
{
    for (CacheArray<L1Line> *l1 : {&l1i_, &l1d_}) {
        const std::size_t set = l1->setOfAddr(block);
        const WayRef ref = l1->find(set, l1->tagOfAddr(block));
        if (ref.found)
            l1->release(set, ref.way);
    }
}

std::optional<std::uint32_t>
PrivateCache::l2Way(BlockAddr block) const
{
    const WayRef ref = l2_.find(l2_.setOfAddr(block), l2_.tagOfAddr(block));
    if (!ref.found)
        return std::nullopt;
    return ref.way;
}

std::uint64_t
PrivateCache::validBlocks() const
{
    return l2_.occupiedCount();
}

void
PrivateCache::save(SerialOut &out) const
{
    const auto l1Line = [](SerialOut &, std::size_t, std::uint32_t,
                           const L1Line &) {
        // The way byte is derived state: restore() rebuilds it.
    };
    l1i_.save(out, l1Line);
    l1d_.save(out, l1Line);
    l2_.save(out, [this](SerialOut &o, std::size_t s, std::uint32_t w,
                         const L2Line &l) {
        o.u8(static_cast<std::uint8_t>(l.state));
        o.u64(l2_.addrAt(s, w));
    });
    out.u64(stats_.loads);
    out.u64(stats_.stores);
    out.u64(stats_.ifetches);
    out.u64(stats_.l1Hits);
    out.u64(stats_.l2Hits);
    out.u64(stats_.upgrades);
    out.u64(stats_.misses);
    out.u64(stats_.evictions);
    out.u64(stats_.invalidationsReceived);
    out.u64(stats_.devInvalidations);
}

void
PrivateCache::restore(SerialIn &in)
{
    const auto l1Line = [](SerialIn &, std::size_t, std::uint32_t,
                           L1Line &) {};
    l1i_.restore(in, l1Line);
    l1d_.restore(in, l1Line);
    l2_.restore(in, [this](SerialIn &i, std::size_t s, std::uint32_t w,
                           L2Line &l) {
        l.state = static_cast<MesiState>(i.u8());
        i.check(i.u64() == l2_.addrAt(s, w),
                "L2 block does not match its set and tag");
        i.check(l.state != MesiState::Invalid &&
                    l.state <= MesiState::Modified,
                "bad L2 MESI state");
    });
    // Inclusion: every L1 line's block is in the L2, at most once per
    // L1. An L1 line outside the L2 would hit on a block nothing tracks.
    for (CacheArray<L1Line> *l1 : {&l1i_, &l1d_}) {
        l1->forEach([&](std::size_t s, std::uint32_t w, const L1Line &) {
            const std::optional<std::uint32_t> way = l2Way(l1->addrAt(s, w));
            if (in.check(way.has_value(), "L1 line outside the L2") &&
                in.check(std::popcount(l1->matchMask(s, l1->tagAt(s, w))) ==
                             1,
                         "block held twice in one L1"))
                l1->line(s, w).l2Way = static_cast<std::uint8_t>(*way);
        });
    }
    stats_.loads = in.u64();
    stats_.stores = in.u64();
    stats_.ifetches = in.u64();
    stats_.l1Hits = in.u64();
    stats_.l2Hits = in.u64();
    stats_.upgrades = in.u64();
    stats_.misses = in.u64();
    stats_.evictions = in.u64();
    stats_.invalidationsReceived = in.u64();
    stats_.devInvalidations = in.u64();
}

} // namespace zerodev
