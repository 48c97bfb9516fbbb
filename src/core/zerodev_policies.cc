/**
 * @file
 * Tracking-state management: locating a block's directory entry
 * (directory organisation, then for ZeroDEV the LLC spilled/fused lines
 * and home memory), writing updated entries back through the same path
 * while maintaining the FusePrivateSpillShared invariants
 * (fused => M/E when co-resident with the block; spilled otherwise), the
 * replacement-disabled allocation path, and the WB_DE flow that houses an
 * LLC-evicted entry inside the (stale) home memory block (Sections III-C
 * and III-D of the paper).
 */

#include "core/cmp_system.hh"

#include "common/log.hh"
#include "obs/latency.hh"
#include "obs/trace.hh"

namespace zerodev
{

Tracking
CmpSystem::findTracking(Socket &s, BlockAddr block,
                        std::optional<LlcProbe> *llcProbe)
{
    Tracking trk;
    if (s.dirOrg) {
        if (auto e = s.dirOrg->lookup(block)) {
            trk.where = TrackWhere::Org;
            trk.entry = *e;
            return trk;
        }
        if (!zeroDev())
            return trk;
        // ZeroDEV: the sparse directory holds only the entries it had
        // room for; the others live in the LLC.
    }
    LlcProbe p = s.llc.probe(block);
    if (p.spilled) {
        trk.where = TrackWhere::LlcSpilled;
        trk.entry = s.llc.entry(*p.spilled);
        s.llc.touchSpilled(p);
    } else if (p.data && p.data->kind == LlcLineKind::FusedDe) {
        trk.where = TrackWhere::LlcFused;
        trk.entry = s.llc.entry(*p.data);
        s.llc.touchData(p);
    }
    if (llcProbe)
        *llcProbe = p;
    return trk;
}

bool
CmpSystem::applyOrgSet(Socket &s, BlockAddr block, const DirEntry &entry,
                       Cycle now)
{
    // Borrow the member scratch instead of allocating a vector on every
    // set() — this runs once per access in every organisation.
    // Borrow-by-move (not a reference) because applyInvalidation() can
    // re-enter this function via LLC victim handling; a nested call then
    // simply starts from an empty buffer.
    std::vector<Invalidation> invs = std::move(invScratch_);
    invs.clear();
    const bool accepted =
        s.dirOrg->set(block, entry, invs, localCore(txnCore_));
    for (const Invalidation &inv : invs)
        applyInvalidation(s, inv, now);
    invScratch_ = std::move(invs);
    return accepted;
}

void
CmpSystem::writeTracking(Socket &s, BlockAddr block, TrackWhere where,
                         const DirEntry &entry, Cycle now)
{
    switch (where) {
      case TrackWhere::Org:
        applyOrgSet(s, block, entry, now);
        return;

      case TrackWhere::None:
        installNewTracking(s, block, entry, now);
        return;

      case TrackWhere::LlcSpilled: {
        LlcProbe p = s.llc.probe(block);
        if (!p.spilled) {
            // An LLC allocation earlier in this transaction displaced
            // the entry to home memory; pull it back and reinstall.
            if (!extractEntryFromMemory(s, block, now))
                panic("spilled entry vanished during a transaction");
            writeTracking(s, block, TrackWhere::None, entry, now);
            return;
        }
        if (!entry.live()) {
            s.llc.invalidateLine(p, *p.spilled);
            return;
        }
        if (cfg_.dirCachePolicy == DirCachePolicy::Fpss &&
            entry.state == DirState::Owned && p.data &&
            p.data->kind == LlcLineKind::Data) {
            // S -> M/E with the block resident: free the spilled entry
            // and fuse it into the block (FPSS invariant, Sec. III-C2).
            s.llc.invalidateLine(p, *p.spilled);
            s.llc.fuse(*p.data, entry);
            ZDEV_TRACE(trc_, obs::TraceEventKind::Fuse,
                       obs::TraceComp::Llc, s.id, 0, block, now, 0, 0,
                       txn_);
            return;
        }
        s.llc.setEntry(*p.spilled, entry);
        s.llc.noteDeUpdate();
        s.llc.touchSpilled(p);
        return;
      }

      case TrackWhere::LlcFused: {
        LlcProbe p = s.llc.probe(block);
        if (!p.data || p.data->kind != LlcLineKind::FusedDe) {
            if (!extractEntryFromMemory(s, block, now))
                panic("fused entry vanished during a transaction");
            writeTracking(s, block, TrackWhere::None, entry, now);
            return;
        }
        if (!entry.live()) {
            // The last private copy is gone; the eviction notice carried
            // the reconstruction bits, so the block returns to a plain
            // valid line with its preserved dirty state.
            s.llc.unfuse(*p.data);
            ZDEV_TRACE(trc_, obs::TraceEventKind::Unfuse,
                       obs::TraceComp::Llc, s.id, 0, block, now, 0, 0,
                       txn_);
            return;
        }
        if (cfg_.dirCachePolicy == DirCachePolicy::Fpss &&
            entry.state == DirState::Shared) {
            // M/E -> S: the owner's busy-clear message carried the low
            // bits; reconstruct the block and spill the entry into the
            // same set (Section III-C2).
            s.llc.unfuse(*p.data);
            ZDEV_TRACE(trc_, obs::TraceEventKind::Unfuse,
                       obs::TraceComp::Llc, s.id, 0, block, now, 0, 0,
                       txn_);
            const LlcVictim victim = s.llc.allocate(
                block, LlcLineKind::SpilledDe, false, entry,
                static_cast<std::int32_t>(p.dataWay));
            handleLlcVictim(s, victim, now);
            return;
        }
        s.llc.setEntry(*p.data, entry);
        s.llc.noteDeUpdate();
        return;
      }
    }
    panic("unreachable tracking location");
}

void
CmpSystem::installNewTracking(Socket &s, BlockAddr block,
                              const DirEntry &entry, Cycle now)
{
    // A baseline organisation always takes the entry. ZeroDEV's
    // replacement-disabled sparse directory (Section III-C4) takes it
    // into a free way or refuses, and the entry goes to the LLC.
    if (s.dirOrg && applyOrgSet(s, block, entry, now))
        return;
    if (entry.live())
        cacheEntryInLlc(s, block, entry, now);
}

void
CmpSystem::cacheEntryInLlc(Socket &s, BlockAddr block,
                           const DirEntry &entry, Cycle now)
{
    if (cfg_.dirCachePolicy == DirCachePolicy::None)
        panic("ZeroDEV without a directory-entry caching policy");
    LlcProbe p = s.llc.probe(block);
    const bool block_resident =
        p.data && p.data->kind == LlcLineKind::Data;

    // Fuse into the resident block: FuseAll every entry, FPSS the M/E
    // ones (Sections III-C2/C3).
    if (block_resident &&
        (cfg_.dirCachePolicy == DirCachePolicy::FuseAll ||
         (cfg_.dirCachePolicy == DirCachePolicy::Fpss &&
          entry.state == DirState::Owned))) {
        s.llc.fuse(*p.data, entry);
        ZDEV_TRACE(trc_, obs::TraceEventKind::Fuse, obs::TraceComp::Llc,
                   s.id, 0, block, now, 0, 0, txn_);
        return;
    }

    // Spill: SpillAll always, FPSS in the S state (or block-absent, e.g.
    // EPD), FuseAll when the block is absent. A co-resident data line is
    // excluded from victim selection: victimising the very block being
    // tracked would, under an inclusive LLC, invalidate the copies this
    // entry is about to record.
    const LlcVictim victim = s.llc.allocate(
        block, LlcLineKind::SpilledDe, false, entry,
        block_resident ? static_cast<std::int32_t>(p.dataWay) : -1);
    ZDEV_TRACE(trc_, obs::TraceEventKind::Spill, obs::TraceComp::Llc,
               s.id, 0, block, now, 0, 0, txn_);
    handleLlcVictim(s, victim, now);
}

void
CmpSystem::writebackEntryToMemory(Socket &s, BlockAddr block,
                                  const DirEntry &entry, Cycle now)
{
    ++proto_.llcDeEvictWbs;
    ZDEV_TRACE(trc_, obs::TraceEventKind::WbDe, obs::TraceComp::Memory,
               s.id, 0, block, now, 0,
               static_cast<std::uint32_t>(entry.count()), txn_);
    Socket &h = home(block);
    send(s, MsgType::WbDe);
    Cycle t = now;
    if (h.id != s.id)
        t += cfg_.interSocketCycles;

    // Figure 14: if another socket's entry is already housed in the
    // block, the home must read-modify-write; otherwise the prepared
    // 64-byte image is written directly.
    bool other_segment = false;
    for (SocketId g = 0; g < cfg_.sockets; ++g) {
        if (g != s.id && h.memStore.hasSegment(block, g)) {
            other_segment = true;
            break;
        }
    }
    if (other_segment) {
        const Cycle de_start = t;
        t = h.dram.read(block, t, true);
        // WB_DE is posted: the read-modify-write delays no requester.
        if (lat_)
            lat_->addOffPath(obs::LatComp::DeMemory, t - de_start);
        send(h, MsgType::MemRead);
    }
    h.dram.write(block, t, true);
    send(h, MsgType::MemWrite);
    h.memStore.storeSegment(block, s.id, entry);

    if (cfg_.sockets > 1) {
        // The socket-level entry switches to the corrupted state with
        // the sharer vector unchanged.
        SocketDirEntry &se = socketEntry(block);
        se.state = SocketDirState::Corrupted;
        se.sharers.set(s.id);
    }
}

std::optional<DirEntry>
CmpSystem::extractEntryFromMemory(Socket &s, BlockAddr block, Cycle now)
{
    Socket &h = home(block);
    auto entry = h.memStore.loadSegment(block, s.id);
    if (!entry)
        return std::nullopt;
    h.memStore.clearSegment(block, s.id);
    ZDEV_TRACE(trc_, obs::TraceEventKind::DeExtract,
               obs::TraceComp::Memory, h.id, 0, block, now, 0,
               static_cast<std::uint32_t>(entry->count()), txn_);
    return entry;
}

} // namespace zerodev
