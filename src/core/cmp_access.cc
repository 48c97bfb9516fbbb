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

Cycle
CmpSystem::handleMiss(Socket &s, CoreId c, AccessType type,
                      BlockAddr block, Cycle now)
{
    PrivateCache &pc = s.cores[c];
    // Miss detection in L1+L2, then the request crosses the mesh to the
    // home bank where the LLC tag array and the directory slice are
    // looked up in parallel (Section III-A).
    const Cycle lookup = pc.l1Cycles() + pc.l2Cycles();
    const Cycle to_bank = meshCoreToBank(s, c, block);
    Cycle base = now + lookup + to_bank;
    ZDEV_LAT(lat_, obs::LatComp::CoreLookup, lookup);
    ZDEV_LAT(lat_, obs::LatComp::Mesh, to_bank);
    send(s, type == AccessType::Store ? MsgType::GetX
                                               : MsgType::GetS);
    base += s.llc.tagCycles();
    ZDEV_LAT(lat_, obs::LatComp::DirLookup, s.llc.tagCycles());

    Tracking trk = findTracking(s, block);
    LlcProbe probe = s.llc.probe(block);
    ZDEV_TRACE(trc_, obs::TraceEventKind::DirLookup,
               obs::TraceComp::Directory, s.id, c, block, base, 0,
               static_cast<std::uint32_t>(trk.where), txn_);

    if (trk.found())
        return serveTracked(s, c, type, block, now, trk, probe, base);

    if (probe.data && probe.data->kind == LlcLineKind::Data) {
        // LLC data hit with no in-socket directory entry. The dataLRU /
        // evict-together guarantee (Section III-D2 case iiia) means the
        // block has no sharer in this socket.
        s.llc.noteDataHit();
        s.llc.noteDataRead();
        const bool global_shared = probe.data->globalShared;
        s.llc.touchData(probe);
        const Cycle back = meshBankToCore(s, block, c);
        Cycle lat = base + s.llc.dataCycles() + back;
        ZDEV_LAT(lat_, obs::LatComp::LlcData, s.llc.dataCycles());
        ZDEV_LAT(lat_, obs::LatComp::Mesh, back);
        send(s, MsgType::DataResp);
        ++proto_.twoHopReads;

        MesiState fill;
        DirEntry entry;
        if (type == AccessType::Store) {
            if (cfg_.sockets > 1 && global_shared) {
                const Cycle data_path = lat;
                lat = std::max(lat, base + invalidateRemoteSharers(
                                        s, block, now));
                ZDEV_LAT(lat_, obs::LatComp::InvStall, lat - data_path);
            }
            fill = MesiState::Modified;
            entry.makeOwned(c);
        } else if (type == AccessType::Ifetch) {
            fill = MesiState::Shared;
            entry.addSharer(c);
        } else {
            fill = global_shared ? MesiState::Shared : MesiState::Exclusive;
            if (fill == MesiState::Exclusive)
                entry.makeOwned(c);
            else
                entry.addSharer(c);
        }

        if (cfg_.llcFlavor == LlcFlavor::Epd &&
            (fill == MesiState::Modified || fill == MesiState::Exclusive)) {
            // EPD: the block turns temporarily private and leaves the LLC
            // (Section III-E).
            epdDeallocate(s, block);
        }

        writeTracking(s, block, TrackWhere::None, entry, now);
        fillCore(s, c, type, block, fill, now);
        return lat;
    }

    s.llc.noteDataMiss();
    return serveSocketMiss(s, c, type, block, now, base);
}

Cycle
CmpSystem::handleUpgrade(Socket &s, CoreId c, BlockAddr block, Cycle now)
{
    PrivateCache &pc = s.cores[c];
    const Cycle lookup = pc.l1Cycles() + pc.l2Cycles();
    const Cycle to_bank = meshCoreToBank(s, c, block);
    Cycle base = now + lookup + to_bank;
    ZDEV_LAT(lat_, obs::LatComp::CoreLookup, lookup);
    ZDEV_LAT(lat_, obs::LatComp::Mesh, to_bank);
    send(s, MsgType::Upgrade);
    base += s.llc.tagCycles();
    ZDEV_LAT(lat_, obs::LatComp::DirLookup, s.llc.tagCycles());

    Tracking trk = findTracking(s, block);
    if (!trk.found()) {
        // The entry migrated to home memory (ZeroDEV): retrieve it via
        // the corrupted-block special response. The requester is a
        // sharer, so the home returns its segment (Figure 15, step 3).
        Socket &h = home(block);
        Cycle mem_base = base;
        if (h.id != s.id) {
            mem_base += cfg_.interSocketCycles;
            ZDEV_LAT(lat_, obs::LatComp::InterSocket,
                     cfg_.interSocketCycles);
            send(s, MsgType::GetDe);
        }
        auto entry = extractEntryFromMemory(s, block, mem_base);
        if (!entry)
            panic("upgrade with no directory entry anywhere for block "
                  "%#llx", static_cast<unsigned long long>(block));
        ++proto_.corruptedResponses;
        send(h, MsgType::DataRespCorrupted);
        base = h.dram.read(block, mem_base, true) + 1; // +1: extraction
        ZDEV_LAT(lat_, obs::LatComp::DeMemory, base - mem_base);
        if (h.id != s.id) {
            base += cfg_.interSocketCycles;
            ZDEV_LAT(lat_, obs::LatComp::InterSocket,
                     cfg_.interSocketCycles);
        }
        trk.where = TrackWhere::None;
        trk.entry = *entry;
    }

    DirEntry entry = trk.entry;
    if (!entry.isSharer(c))
        panic("upgrade from a core the directory does not track");

    // Reading a spilled entry costs a data-array access (Section
    // III-C2: "for upgrade requests, only EB is read out").
    if (trk.where == TrackWhere::LlcSpilled ||
        trk.where == TrackWhere::LlcFused) {
        base += s.llc.dataCycles();
        s.llc.noteDataRead();
        ZDEV_LAT(lat_, obs::LatComp::FuseSpill, s.llc.dataCycles());
    }

    // Invalidate the other sharers; the dataless response carries the
    // expected acknowledgment count.
    Cycle inv_done = base;
    forEachSetBit(entry.sharers, [&](CoreId x) {
        if (x == c)
            return;
        s.cores[x].invalidate(block, false);
        send(s, MsgType::Inv);
        send(s, MsgType::InvAck);
        inv_done = std::max(inv_done,
                            base + meshBankToCore(s, block, x) +
                                meshCoreToCore(s, x, c));
    });
    send(s, MsgType::AckResp);
    const Cycle back = meshBankToCore(s, block, c);
    ZDEV_LAT(lat_, obs::LatComp::Mesh, back);
    Cycle lat = std::max(base + back, inv_done);

    if (cfg_.sockets > 1)
        lat = std::max(lat, base + invalidateRemoteSharers(s, block, now));
    ZDEV_LAT(lat_, obs::LatComp::InvStall, lat - (base + back));

    entry.makeOwned(c);
    if (cfg_.llcFlavor == LlcFlavor::Epd)
        epdDeallocate(s, block);
    writeTracking(s, block, trk.where, entry, now);
    s.cores[c].upgradeToModified(block);
    return lat;
}

Cycle
CmpSystem::serveTracked(Socket &s, CoreId c, AccessType type,
                        BlockAddr block, Cycle now, Tracking &trk,
                        LlcProbe &probe, Cycle base)
{
    DirEntry entry = trk.entry;
    const bool data_in_llc =
        probe.data && probe.data->kind == LlcLineKind::Data;
    const bool fused_in_llc =
        probe.data && probe.data->kind == LlcLineKind::FusedDe;
    const bool two_tag_match = probe.data && probe.spilled;
    const bool llc_global_shared = probe.data && probe.data->globalShared;

    if (entry.state == DirState::Owned) {
        const CoreId o = entry.owner();
        if (o == c)
            panic("owner missed on its own block");
        // Three-hop transaction: forward to the owner, which responds to
        // the requester directly and sends busy-clear to the home.
        const Cycle fwd = meshBankToCore(s, block, o);
        const Cycle resp = meshCoreToCore(s, o, c);
        Cycle lat = base + fwd + s.cores[o].l2Cycles() + resp;
        ZDEV_LAT(lat_, obs::LatComp::Mesh, fwd + resp);
        ZDEV_LAT(lat_, obs::LatComp::CoreLookup, s.cores[o].l2Cycles());
        ZDEV_TRACE(trc_, obs::TraceEventKind::Forward,
                   obs::TraceComp::Mesh, s.id, c, block, base, lat - base,
                   o, txn_);

        if (type == AccessType::Store) {
            send(s, MsgType::FwdGetX);
            send(s, MsgType::DataResp);
            send(s, MsgType::BusyClear);
            s.cores[o].invalidate(block, false);
            entry.makeOwned(c);
            if (cfg_.sockets > 1 && llc_global_shared) {
                const Cycle data_path = lat;
                lat = std::max(lat, base + invalidateRemoteSharers(
                                        s, block, now));
                ZDEV_LAT(lat_, obs::LatComp::InvStall, lat - data_path);
            }
            writeTracking(s, block, trk.where, entry, now);
            fillCore(s, c, type, block, MesiState::Modified, now);
        } else {
            ++proto_.threeHopReads;
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
        return lat;
    }

    // entry.state == Shared.
    if (type == AccessType::Store) {
        // Read-exclusive to a shared block: invalidations to all sharers
        // plus data. With a spilled entry both the block and the entry
        // are read out one by one (Section III-C2).
        Cycle data_ready;
        if (data_in_llc) {
            s.llc.noteDataHit();
            s.llc.noteDataRead();
            s.llc.touchData(probe);
            Cycle read = s.llc.dataCycles();
            ZDEV_LAT(lat_, obs::LatComp::LlcData, s.llc.dataCycles());
            if (two_tag_match) {
                read += s.llc.dataCycles(); // entry + block, serialised
                s.llc.noteDataRead();
                ZDEV_LAT(lat_, obs::LatComp::FuseSpill,
                         s.llc.dataCycles());
            }
            const Cycle back = meshBankToCore(s, block, c);
            ZDEV_LAT(lat_, obs::LatComp::Mesh, back);
            data_ready = base + read + back;
            send(s, MsgType::DataResp);
        } else {
            // No usable data in the LLC (absent, or corrupted by a
            // FuseAll fusion): combine the forward with the invalidation
            // of an elected sharer (Section III-C3).
            const CoreId x = entry.anySharer();
            send(s, MsgType::FwdGetX);
            send(s, MsgType::DataResp);
            const Cycle fwd = meshBankToCore(s, block, x);
            const Cycle resp = meshCoreToCore(s, x, c);
            ZDEV_LAT(lat_, obs::LatComp::Mesh, fwd + resp);
            ZDEV_LAT(lat_, obs::LatComp::CoreLookup,
                     s.cores[x].l2Cycles());
            data_ready = base + fwd + s.cores[x].l2Cycles() + resp;
        }
        Cycle inv_done = base;
        forEachSetBit(entry.sharers, [&](CoreId x) {
            s.cores[x].invalidate(block, false);
            send(s, MsgType::Inv);
            send(s, MsgType::InvAck);
            inv_done = std::max(inv_done,
                                base + meshBankToCore(s, block, x) +
                                    meshCoreToCore(s, x, c));
        });
        Cycle lat = std::max(data_ready, inv_done);
        if (cfg_.sockets > 1 && (llc_global_shared || !data_in_llc))
            lat = std::max(lat,
                           base + invalidateRemoteSharers(s, block, now));
        ZDEV_LAT(lat_, obs::LatComp::InvStall, lat - data_ready);
        entry.makeOwned(c);
        if (cfg_.llcFlavor == LlcFlavor::Epd)
            epdDeallocate(s, block);
        writeTracking(s, block, trk.where, entry, now);
        fillCore(s, c, type, block, MesiState::Modified, now);
        return lat;
    }

    // Read (or instruction fetch) of a shared block.
    Cycle lat;
    if (data_in_llc) {
        s.llc.noteDataHit();
        s.llc.noteDataRead();
        s.llc.touchData(probe);
        ++proto_.twoHopReads;
        Cycle read = s.llc.dataCycles();
        ZDEV_LAT(lat_, obs::LatComp::LlcData, s.llc.dataCycles());
        if (two_tag_match && cfg_.dirCachePolicy == DirCachePolicy::SpillAll) {
            // SpillAll reads the entry first, then the block: the read
            // sees one extra data-array latency (Section III-C1). FPSS
            // reads the block first and updates the entry off the
            // critical path (Section III-C2).
            read += s.llc.dataCycles();
            s.llc.noteDataRead();
            ZDEV_LAT(lat_, obs::LatComp::FuseSpill, s.llc.dataCycles());
        }
        const Cycle back = meshBankToCore(s, block, c);
        ZDEV_LAT(lat_, obs::LatComp::Mesh, back);
        lat = base + read + back;
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
        send(s, MsgType::FwdGetS);
        send(s, MsgType::DataResp);
        send(s, MsgType::BusyClear);
        const Cycle fwd = meshBankToCore(s, block, x);
        const Cycle resp = meshCoreToCore(s, x, c);
        ZDEV_LAT(lat_, obs::LatComp::Mesh, fwd + resp);
        ZDEV_LAT(lat_, obs::LatComp::CoreLookup, s.cores[x].l2Cycles());
        lat = base + fwd + s.cores[x].l2Cycles() + resp;
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
    return lat;
}

Cycle
CmpSystem::serveSocketMiss(Socket &s, CoreId c, AccessType type,
                           BlockAddr block, Cycle now, Cycle base)
{
    ++proto_.socketMisses;
    ZDEV_TRACE(trc_, obs::TraceEventKind::SocketMiss,
               obs::TraceComp::Protocol, s.id, c, block, base, 0, 0,
               txn_);
    if (cfg_.sockets > 1)
        return serveSocketMissMulti(s, c, type, block, now, base);

    // Single socket: home memory is local.
    Socket &h = s;
    if (h.memStore.destroyed(block)) {
        // The memory block houses our evicted directory entry and its
        // data is unusable; extract the entry and serve the request from
        // the caches it lists (Figure 15's corrupted flow, degenerated
        // to one socket).
        if (type != AccessType::Store)
            ++proto_.corruptedReadMisses;
        auto entry = extractEntryFromMemory(s, block, base);
        if (!entry)
            panic("destroyed memory block without our segment");
        ++proto_.corruptedResponses;
        const Cycle mem_done = h.dram.read(block, base, true) + 1;
        ZDEV_LAT(lat_, obs::LatComp::DeMemory, mem_done - base);
        send(s, MsgType::MemRead);
        send(s, MsgType::DataRespCorrupted);
        Tracking trk;
        trk.where = TrackWhere::None;
        trk.entry = *entry;
        LlcProbe probe = s.llc.probe(block); // no data lines here
        return finishAccess(
            AccessClass::Corrupted, now,
            serveTracked(s, c, type, block, now, trk, probe, mem_done));
    }

    send(s, MsgType::MemRead);
    send(s, MsgType::MemReadResp);
    const Cycle mem_done = h.dram.read(block, base, false);
    ZDEV_TRACE(trc_, obs::TraceEventKind::MemRead, obs::TraceComp::Memory,
               h.id, c, block, base, mem_done - base, 0, txn_);
    ZDEV_LAT(lat_, obs::LatComp::Dram, mem_done - base);
    const Cycle back = meshBankToCore(s, block, c);
    ZDEV_LAT(lat_, obs::LatComp::Mesh, back);
    const Cycle lat = mem_done + back;

    MesiState fill;
    DirEntry entry;
    if (type == AccessType::Store) {
        fill = MesiState::Modified;
        entry.makeOwned(c);
    } else if (type == AccessType::Ifetch) {
        fill = MesiState::Shared;
        entry.addSharer(c);
    } else {
        fill = MesiState::Exclusive;
        entry.makeOwned(c);
    }

    // Demand fills allocate in the LLC (baseline non-inclusive and
    // inclusive); EPD keeps temporarily-private blocks out of the LLC.
    if (cfg_.llcFlavor != LlcFlavor::Epd || fill == MesiState::Shared)
        llcAllocData(s, block, false, now, true);

    writeTracking(s, block, TrackWhere::None, entry, now);
    fillCore(s, c, type, block, fill, now);
    return finishAccess(AccessClass::Memory, now, lat);
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
    LlcProbe fresh = s.llc.probe(block);
    if (fresh.data && !global_exclusive)
        fresh.data->globalShared = true;
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
        s.llc.invalidateLine(*probe.data);
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
