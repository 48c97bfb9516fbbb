/**
 * @file
 * Request-side protocol flows: core cache misses (GetS/GetX), upgrades,
 * tracked-entry service (2-hop and 3-hop paths), and socket misses,
 * covering the baseline MESI protocol, the three ZeroDEV directory
 * caching policies and both single- and multi-socket systems.
 */

#include "core/cmp_system.hh"

#include <algorithm>

#include "coherence/backend.hh"
#include "common/log.hh"
#include "obs/latency.hh"
#include "obs/trace.hh"

namespace zerodev
{

using obs::LatComp;

void
CmpSystem::handleMiss(Socket &s, CoreId c, AccessType type,
                      BlockAddr block, obs::LatencyChain &ch)
{
    const Cycle now = ch.now();
    requestToBank(s, c, block,
                  type == AccessType::Store ? MsgType::GetX : MsgType::GetS,
                  ch);
    const Cycle base = ch.now();

    // The tracking search's LLC probe, when it made one, is the probe
    // this miss needs: nothing runs in between. It counts as a lookup
    // all the same.
    std::optional<LlcProbe> seen;
    Tracking trk = findTracking(s, block, &seen);
    if (seen)
        s.llc.noteLookup();
    LlcProbe probe = seen ? *seen : s.llc.probe(block);
    ZDEV_TRACE(trc_, obs::TraceEventKind::DirLookup,
               obs::TraceComp::Directory, s.id, c, block, base, 0,
               static_cast<std::uint32_t>(trk.where), txn_);

    if (trk.found()) {
        serveTracked(s, c, type, block, now, trk, probe, ch);
        return;
    }

    if (probe.data && probe.data->kind == LlcLineKind::Data) {
        // LLC data hit with no in-socket directory entry. The dataLRU /
        // evict-together guarantee (Section III-D2 case iiia) means the
        // block has no sharer in this socket.
        const bool global_shared = probe.data->globalShared;
        readLlcData(s, probe, ch);
        ch.add(LatComp::Mesh, meshBankToCore(s, block, c));
        send(s, MsgType::DataResp);
        ++proto_.twoHopReads;

        if (type == AccessType::Store && global_shared)
            invalidateRemoteSharers(s, block, base, now, ch);
        const MesiState fill = fillState(type, global_shared);
        if (cfg_.llcFlavor == LlcFlavor::Epd && fill != MesiState::Shared) {
            // EPD: the block turns temporarily private and leaves the LLC
            // (Section III-E).
            epdDeallocate(s, block);
        }
        writeTracking(s, block, TrackWhere::None, entryFor(c, fill), now);
        fillCore(s, c, type, block, fill, now);
        return;
    }

    s.llc.noteDataMiss();
    serveSocketMiss(s, c, type, block, now, ch);
}

void
CmpSystem::handleUpgrade(Socket &s, CoreId c, BlockAddr block,
                         obs::LatencyChain &ch)
{
    const Cycle now = ch.now();
    requestToBank(s, c, block, MsgType::Upgrade, ch);

    Tracking trk = findTracking(s, block);
    if (!trk.found()) {
        // The entry migrated to home memory (ZeroDEV): retrieve it via
        // the corrupted-block special response. The requester is a
        // sharer, so the home returns its segment (Figure 15, step 3).
        if (home(block).id != s.id) {
            ch.add(LatComp::InterSocket, cfg_.interSocketCycles);
            send(s, MsgType::GetDe);
        }
        trk.entry = takeEntryFromCorruptedHome(s, block, ch);
    }

    DirEntry entry = trk.entry;
    if (!entry.isSharer(c))
        panic("upgrade from a core the directory does not track");

    // Reading a spilled entry costs a data-array access (Section
    // III-C2: "for upgrade requests, only EB is read out").
    if (trk.where == TrackWhere::LlcSpilled ||
        trk.where == TrackWhere::LlcFused) {
        ch.add(LatComp::FuseSpill, s.llc.dataCycles());
        s.llc.noteDataRead();
    }

    // Invalidate the other sharers; the dataless response carries the
    // expected acknowledgment count.
    const Cycle base = ch.now();
    const Cycle inv_done =
        invalidateSharers(s, entry.sharers, c, block, base);
    send(s, MsgType::AckResp);
    ch.add(LatComp::Mesh, meshBankToCore(s, block, c));
    ch.join(LatComp::InvStall, inv_done);
    invalidateRemoteSharers(s, block, base, now, ch);

    entry.makeOwned(c);
    if (cfg_.llcFlavor == LlcFlavor::Epd)
        epdDeallocate(s, block);
    writeTracking(s, block, trk.where, entry, now);
    s.cores[c].upgradeToModified(block);
}

void
CmpSystem::serveTracked(Socket &s, CoreId c, AccessType type,
                        BlockAddr block, Cycle now, Tracking &trk,
                        LlcProbe &probe, obs::LatencyChain &ch)
{
    DirEntry entry = trk.entry;
    const bool data_in_llc =
        probe.data && probe.data->kind == LlcLineKind::Data;
    const bool fused_in_llc =
        probe.data && probe.data->kind == LlcLineKind::FusedDe;
    const bool two_tag_match = probe.data && probe.spilled;
    const bool llc_global_shared = probe.data && probe.data->globalShared;
    const Cycle base = ch.now();

    if (entry.state == DirState::Owned) {
        const CoreId o = entry.owner();
        if (o == c)
            panic("owner missed on its own block");
        // Three-hop transaction: forward to the owner, which responds to
        // the requester directly and sends busy-clear to the home.
        forwardThrough(s, o, c, block, ch);
        ZDEV_TRACE(trc_, obs::TraceEventKind::Forward,
                   obs::TraceComp::Mesh, s.id, c, block, base,
                   ch.now() - base, o, txn_);

        if (type == AccessType::Store) {
            send(s, MsgType::FwdGetX);
            send(s, MsgType::DataResp);
            send(s, MsgType::BusyClear);
            s.cores[o].invalidate(block, false);
            entry.makeOwned(c);
            if (llc_global_shared)
                invalidateRemoteSharers(s, block, base, now, ch);
            writeTracking(s, block, trk.where, entry, now);
            fillCore(s, c, type, block, MesiState::Modified, now);
        } else {
            ++proto_.threeHopReads;
            ch.cls = AccessClass::ThreeHop;
            send(s, MsgType::FwdGetS);
            send(s, MsgType::DataResp);
            // The busy-clear carries reconstruction bits when the entry
            // is fused in the LLC and must be spilled on the M/E -> S
            // transition (Section III-C2).
            send(s, trk.where == TrackWhere::LlcFused
                                 ? MsgType::BusyClearBits
                                 : MsgType::BusyClear);
            const MesiState prev = s.cores[o].downgrade(block);
            entry.addSharer(c);
            sharingDegree_.record(entry.count());
            writeTracking(s, block, trk.where, entry, now);
            if (prev == MesiState::Modified) {
                // Sharing writeback: the dirty data also lands in the
                // LLC so future readers conclude in two hops.
                llcWritebackData(s, block, true, now);
            } else if (!data_in_llc && !fused_in_llc) {
                // The block became shared: allocate it in the LLC to
                // accelerate future sharing (also the EPD rule of
                // Section III-E).
                llcWritebackData(s, block, false, now);
            }
            fillCore(s, c, type, block, MesiState::Shared, now);
        }
        return;
    }

    // entry.state == Shared.
    if (type == AccessType::Store) {
        // Read-exclusive to a shared block: invalidations to all sharers
        // plus data. With a spilled entry both the block and the entry
        // are read out one by one (Section III-C2).
        if (data_in_llc) {
            readLlcData(s, probe, ch);
            if (two_tag_match) {
                // entry + block, serialised
                ch.add(LatComp::FuseSpill, s.llc.dataCycles());
                s.llc.noteDataRead();
            }
            ch.add(LatComp::Mesh, meshBankToCore(s, block, c));
            send(s, MsgType::DataResp);
        } else {
            // No usable data in the LLC (absent, or corrupted by a
            // FuseAll fusion): combine the forward with the invalidation
            // of an elected sharer (Section III-C3).
            const CoreId x = entry.anySharer();
            send(s, MsgType::FwdGetX);
            send(s, MsgType::DataResp);
            forwardThrough(s, x, c, block, ch);
        }
        ch.join(LatComp::InvStall,
                invalidateSharers(s, entry.sharers, c, block, base));
        if (llc_global_shared || !data_in_llc)
            invalidateRemoteSharers(s, block, base, now, ch);
        entry.makeOwned(c);
        if (cfg_.llcFlavor == LlcFlavor::Epd)
            epdDeallocate(s, block);
        writeTracking(s, block, trk.where, entry, now);
        fillCore(s, c, type, block, MesiState::Modified, now);
        return;
    }

    // Read (or instruction fetch) of a shared block.
    if (data_in_llc) {
        readLlcData(s, probe, ch);
        ++proto_.twoHopReads;
        if (two_tag_match && cfg_.dirCachePolicy == DirCachePolicy::SpillAll) {
            // SpillAll reads the entry first, then the block: the read
            // sees one extra data-array latency (Section III-C1). FPSS
            // reads the block first and updates the entry off the
            // critical path (Section III-C2).
            ch.add(LatComp::FuseSpill, s.llc.dataCycles());
            s.llc.noteDataRead();
        }
        ch.add(LatComp::Mesh, meshBankToCore(s, block, c));
        send(s, MsgType::DataResp);
        if (trk.where == TrackWhere::LlcSpilled ||
            trk.where == TrackWhere::LlcFused) {
            s.llc.noteDeUpdate(); // sharer added off the critical path
        }
    } else {
        // FuseAll fused block (corrupted data) or LLC miss with a live
        // entry: forward to an elected sharer — the read critical path
        // becomes three hops (Section III-C3).
        const CoreId x = entry.anySharer();
        ++proto_.threeHopReads;
        ch.cls = AccessClass::ThreeHop;
        send(s, MsgType::FwdGetS);
        send(s, MsgType::DataResp);
        send(s, MsgType::BusyClear);
        forwardThrough(s, x, c, block, ch);
        if (!fused_in_llc && cfg_.llcFlavor != LlcFlavor::Epd &&
            cfg_.dirCachePolicy != DirCachePolicy::FuseAll) {
            // The sharer's response also refills the LLC so later reads
            // conclude in two hops again.
            llcWritebackData(s, block, false, now);
        }
    }
    entry.addSharer(c);
    sharingDegree_.record(entry.count());
    writeTracking(s, block, trk.where, entry, now);
    fillCore(s, c, type, block, MesiState::Shared, now);
}

void
CmpSystem::serveSocketMiss(Socket &s, CoreId c, AccessType type,
                           BlockAddr block, Cycle now,
                           obs::LatencyChain &ch)
{
    ++proto_.socketMisses;
    const Cycle base = ch.now();
    ZDEV_TRACE(trc_, obs::TraceEventKind::SocketMiss,
               obs::TraceComp::Protocol, s.id, c, block, base, 0, 0,
               txn_);
    if (cfg_.sockets > 1) {
        serveSocketMissMulti(s, c, type, block, now, ch);
        return;
    }

    // Single socket: home memory is local.
    if (s.memStore.destroyed(block)) {
        // The memory block houses our evicted directory entry and its
        // data is unusable; extract the entry and serve the request from
        // the caches it lists (Figure 15's corrupted flow, degenerated
        // to one socket).
        serveCorruptedHome(s, c, type, block, now, ch);
        return;
    }

    readHomeMemory(s, block, ch);
    ZDEV_TRACE(trc_, obs::TraceEventKind::MemRead, obs::TraceComp::Memory,
               s.id, c, block, base, ch.now() - base, 0, txn_);
    ch.add(LatComp::Mesh, meshBankToCore(s, block, c));
    fillSocketMiss(s, c, type, block, fillState(type, false), false, false,
                   now);
    ch.cls = AccessClass::Memory;
}

void
CmpSystem::requestToBank(Socket &s, CoreId c, BlockAddr block, MsgType t,
                         obs::LatencyChain &ch)
{
    // Miss detection in L1+L2, then the request crosses the mesh to the
    // home bank where the LLC tag array and the directory slice are
    // looked up in parallel (Section III-A).
    const PrivateCache &pc = s.cores[c];
    ch.add(LatComp::CoreLookup, pc.l1Cycles() + pc.l2Cycles());
    ch.add(LatComp::Mesh, meshCoreToBank(s, c, block));
    send(s, t);
    ch.add(LatComp::DirLookup, s.llc.tagCycles());
}

void
CmpSystem::readLlcData(Socket &s, LlcProbe &probe, obs::LatencyChain &ch)
{
    s.llc.noteDataHit();
    s.llc.noteDataRead();
    s.llc.touchData(probe);
    ch.add(LatComp::LlcData, s.llc.dataCycles());
}

void
CmpSystem::forwardThrough(Socket &s, CoreId x, CoreId c, BlockAddr block,
                          obs::LatencyChain &ch) const
{
    ch.add(LatComp::Mesh, meshBankToCore(s, block, x));
    ch.add(LatComp::CoreLookup, s.cores[x].l2Cycles());
    ch.add(LatComp::Mesh, meshCoreToCore(s, x, c));
}

Cycle
CmpSystem::invalidateSharers(Socket &s, const SharerSet &sharers, CoreId c,
                             BlockAddr block, Cycle base)
{
    Cycle done = base;
    forEachSetBit(sharers, [&](CoreId x) {
        if (x == c)
            return;
        s.cores[x].invalidate(block, false);
        send(s, MsgType::Inv);
        send(s, MsgType::InvAck);
        done = std::max(done, base + meshBankToCore(s, block, x) +
                                  meshCoreToCore(s, x, c));
    });
    return done;
}

void
CmpSystem::readHomeMemory(Socket &h, BlockAddr block, obs::LatencyChain &ch)
{
    ch.join(LatComp::Dram, h.dram.read(block, ch.now(), false));
    send(h, MsgType::MemRead);
    send(h, MsgType::MemReadResp);
}

DirEntry
CmpSystem::takeEntryFromCorruptedHome(Socket &s, BlockAddr block,
                                      obs::LatencyChain &ch)
{
    Socket &h = home(block);
    const auto entry = extractEntryFromMemory(s, block, ch.now());
    if (!entry)
        panic("socket %u has no directory entry for block %#llx in its "
              "home memory", s.id, static_cast<unsigned long long>(block));
    ++proto_.corruptedResponses;
    send(h, MsgType::DataRespCorrupted);
    ch.join(LatComp::DeMemory, h.dram.read(block, ch.now(), true) + 1);
    if (h.id != s.id)
        ch.add(LatComp::InterSocket, cfg_.interSocketCycles);
    return *entry;
}

void
CmpSystem::serveCorruptedHome(Socket &s, CoreId c, AccessType type,
                              BlockAddr block, Cycle now,
                              obs::LatencyChain &ch)
{
    if (type != AccessType::Store)
        ++proto_.corruptedReadMisses;
    send(home(block), MsgType::MemRead);
    Tracking trk; // not in the socket: TrackWhere::None
    trk.entry = takeEntryFromCorruptedHome(s, block, ch);
    LlcProbe probe = s.llc.probe(block); // no data lines here
    serveTracked(s, c, type, block, now, trk, probe, ch);
    ch.cls = AccessClass::Corrupted;
}

MesiState
CmpSystem::fillState(AccessType type, bool shared)
{
    if (type == AccessType::Store)
        return MesiState::Modified;
    return type == AccessType::Ifetch || shared ? MesiState::Shared
                                                : MesiState::Exclusive;
}

DirEntry
CmpSystem::entryFor(CoreId c, MesiState st)
{
    DirEntry entry;
    if (st == MesiState::Shared)
        entry.addSharer(c);
    else
        entry.makeOwned(c);
    return entry;
}

void
CmpSystem::fillSocketMiss(Socket &s, CoreId c, AccessType type,
                          BlockAddr block, MesiState st, bool llc_dirty,
                          bool global_shared, Cycle now)
{
    // Demand fills allocate in the LLC (baseline non-inclusive and
    // inclusive); EPD keeps temporarily-private blocks out of the LLC.
    if (cfg_.llcFlavor != LlcFlavor::Epd || st == MesiState::Shared)
        llcAllocData(s, block, llc_dirty, now, !global_shared);
    writeTracking(s, block, TrackWhere::None, entryFor(c, st), now);
    fillCore(s, c, type, block, st, now);
}

void
CmpSystem::fillCore(Socket &s, CoreId c, AccessType type, BlockAddr block,
                    MesiState state, Cycle now)
{
    const PrivateEviction ev = s.cores[c].fill(type, block, state);
    if (ev.valid)
        backend_->privateEviction(s.id, c, ev, now);
}

void
CmpSystem::llcAllocData(Socket &s, BlockAddr block, bool dirty, Cycle now,
                        bool global_exclusive)
{
    LlcProbe probe = s.llc.probe(block);
    if (probe.data) {
        probe.data->dirty = probe.data->dirty || dirty;
        if (!global_exclusive)
            probe.data->globalShared = true;
        s.llc.touchData(probe);
        return;
    }
    const LlcVictim victim =
        s.llc.allocate(block, LlcLineKind::Data, dirty, DirEntry{});
    // allocate() hands back the filled line. The tag lookup that marks
    // it stays counted: lookups are simulated state.
    s.llc.noteLookup();
    if (!global_exclusive)
        victim.filled->globalShared = true;
    handleLlcVictim(s, victim, now);
}

void
CmpSystem::llcWritebackData(Socket &s, BlockAddr block, bool dirty,
                            Cycle now)
{
    LlcProbe probe = s.llc.probe(block);
    if (probe.data) {
        if (probe.data->kind == LlcLineKind::FusedDe) {
            // The fused line keeps tracking; only its data/dirty state
            // changes (e.g. a dirty-DEV retrieval under FuseAll).
            probe.data->dirty = probe.data->dirty || dirty;
            return;
        }
        probe.data->dirty = probe.data->dirty || dirty;
        s.llc.touchData(probe);
        return;
    }
    llcAllocData(s, block, dirty, now, cfg_.sockets == 1);
}

void
CmpSystem::epdDeallocate(Socket &s, BlockAddr block)
{
    LlcProbe probe = s.llc.probe(block);
    if (probe.data && probe.data->kind == LlcLineKind::Data)
        s.llc.invalidateLine(probe, *probe.data);
}

void
CmpSystem::applyInvalidation(Socket &s, const Invalidation &inv, Cycle now)
{
    devSize_.record(inv.cores.count());
    ZDEV_TRACE(trc_, obs::TraceEventKind::Dev, obs::TraceComp::Directory,
               s.id, 0, inv.block, now, 0,
               static_cast<std::uint32_t>(inv.cores.count()), txn_,
               txnCore_);
    bool dirty_retrieved = false;
    forEachSetBit(inv.cores, [&](CoreId x) {
        const MesiState prev = s.cores[x].invalidate(inv.block, true);
        if (prev == MesiState::Invalid)
            return;
        noteDevInvalidation();
        send(s, MsgType::Inv);
        send(s, MsgType::InvAck);
        if (prev == MesiState::Modified || prev == MesiState::Exclusive)
            ++proto_.devOwnedInvalidations;
        if (prev == MesiState::Modified)
            dirty_retrieved = true;
    });
    if (dirty_retrieved) {
        // The dirty block comes back with the DEV and lands in the LLC —
        // the effect that lets later requests be served from the LLC
        // (the freqmine observation in Section I-A1).
        send(s, MsgType::PutM);
        llcWritebackData(s, inv.block, true, now);
    }
    if (cfg_.sockets > 1) {
        // If the socket lost its last copy, tell the home.
        LlcProbe probe = s.llc.probe(inv.block);
        const bool llc_has = probe.data != nullptr;
        if (!llc_has)
            socketEvictionNotice(s.id, inv.block, true, now);
    }
}

} // namespace zerodev
