/**
 * @file
 * Inter-socket protocol flows (Sections III-D3/D4/D5, Figure 15): the
 * socket-level directory at each home (memory-backed, the solution the
 * paper's four-socket evaluation uses), socket-miss service including the
 * corrupted-block forwards, the DENF_NACK racing-entry flow, and
 * socket-level eviction notices with last-copy memory restoration.
 */

#include "core/cmp_system.hh"

#include "common/log.hh"
#include "obs/latency.hh"

namespace zerodev
{

using obs::LatComp;

SocketDirEntry &
CmpSystem::socketEntry(BlockAddr block)
{
    Socket &h = home(block);
    if (!h.socketDir)
        panic("socket-level directory access in a single-socket system");
    return h.socketDir->access(block).entry;
}

void
CmpSystem::socketEvictionNotice(SocketId sid, BlockAddr block,
                                bool restore_data, Cycle now)
{
    Socket &h = home(block);
    send(*sockets_[sid], MsgType::PutS);
    SocketDirEntry &se = socketEntry(block);
    se.sharers.reset(sid);
    h.memStore.clearSegment(block, sid);

    if (se.sharers.any())
        return;

    // When restore_data is false the data reached home through a
    // full-block writeback in the same flow.
    if (h.memStore.destroyed(block) && restore_data) {
        // System-wide last copy of a destroyed block: retrieve it from
        // the evicting cache.
        send(*sockets_[sid], MsgType::DataResp);
        restoreLastCopy(block, now);
    }
    se.clear();
}

void
CmpSystem::invalidateRemoteSharers(Socket &s, BlockAddr block, Cycle base,
                                   Cycle now, obs::LatencyChain &ch)
{
    if (cfg_.sockets == 1)
        return;
    SocketDirEntry &se = socketEntry(block);
    const SocketSet dropped = dropOtherSockets(se, s.id, block, now);
    if (dropped.none())
        return;
    forEachSetBit(dropped, [&](SocketId g) {
        send(s, MsgType::Inv);
        send(*sockets_[g], MsgType::InvAck);
    });
    se.sharers.set(s.id);
    if (se.state != SocketDirState::Corrupted)
        se.state = SocketDirState::Owned;
    // Request to home, invalidations fanned out, acks collected: roughly
    // three inter-socket crossings on the critical path.
    ch.join(LatComp::InvStall, base + 3ull * cfg_.interSocketCycles);
}

void
CmpSystem::dropSocketCopies(Socket &g, BlockAddr block, const Tracking &trk,
                            Cycle now)
{
    if (trk.found()) {
        forEachSetBit(trk.entry.sharers, [&](CoreId x) {
            g.cores[x].invalidate(block, false);
        });
        // Erase the tracking first (it may live in an LLC line), then
        // drop whatever lines remain.
        writeTracking(g, block, trk.where, DirEntry{}, now);
    } else {
        home(block).memStore.clearSegment(block, g.id);
    }
    LlcProbe probe = g.llc.probe(block);
    dropLlcLines(g, probe);
}

SocketSet
CmpSystem::dropOtherSockets(SocketDirEntry &se, SocketId keep,
                            BlockAddr block, Cycle now)
{
    SocketSet dropped;
    for (SocketId g = 0; g < cfg_.sockets; ++g) {
        if (g == keep || !se.sharers.test(g))
            continue;
        Socket &gs = *sockets_[g];
        dropSocketCopies(gs, block, findTracking(gs, block), now);
        se.sharers.reset(g);
        dropped.set(g);
    }
    return dropped;
}

void
CmpSystem::dropLlcLines(Socket &s, LlcProbe &probe)
{
    if (probe.data)
        s.llc.invalidateLine(probe, *probe.data);
    if (probe.spilled)
        s.llc.invalidateLine(probe, *probe.spilled);
}

CoreId
CmpSystem::reachSupplier(Socket &f, BlockAddr block, const DirEntry &entry,
                         obs::LatencyChain &ch)
{
    const CoreId x = entry.state == DirState::Owned ? entry.owner()
                                                    : entry.anySharer();
    ch.add(LatComp::DirLookup, f.llc.tagCycles());
    ch.add(LatComp::Mesh, meshBankToCore(f, block, x));
    ch.add(LatComp::CoreLookup, f.cores[x].l2Cycles());
    return x;
}

void
CmpSystem::supplyFromSocket(Socket &f, BlockAddr block, bool invalidate_all,
                            obs::LatencyChain &ch)
{
    const Cycle now = ch.now();
    Tracking trk = findTracking(f, block);
    Socket &h = home(block);
    if (!trk.found()) {
        // The socket may hold the block only in its LLC (every core
        // evicted its copy, freeing the entry, while the LLC line
        // survived): serve straight from the LLC.
        LlcProbe probe = f.llc.probe(block);
        if (!probe.data || probe.data->kind != LlcLineKind::Data) {
            panic("supplyFromSocket: socket %u has neither entry nor LLC "
                  "copy of block %#llx", f.id,
                  static_cast<unsigned long long>(block));
        }
        ch.add(LatComp::DirLookup, f.llc.tagCycles());
        ch.add(LatComp::LlcData, f.llc.dataCycles());
        f.llc.noteDataRead();
        if (invalidate_all) {
            dropLlcLines(f, probe);
        } else {
            probe.data->globalShared = true;
            f.llc.touchData(probe);
        }
    } else if (invalidate_all) {
        reachSupplier(f, block, trk.entry, ch);
        dropSocketCopies(f, block, trk, now);
    } else {
        DirEntry entry = trk.entry;
        const CoreId x = reachSupplier(f, block, entry, ch);
        if (entry.state == DirState::Owned) {
            const MesiState prev = f.cores[x].downgrade(block);
            entry.state = DirState::Shared;
            if (prev == MesiState::Modified &&
                !h.memStore.destroyed(block)) {
                // The downgrade writes the dirty data back to home
                // memory (baseline inter-socket sharing writeback).
                h.dram.write(block, now, false);
                send(h, MsgType::MemWrite);
            }
        }
        LlcProbe probe = f.llc.probe(block);
        if (probe.data)
            probe.data->globalShared = true;
        writeTracking(f, block, trk.where, entry, now);
    }
    if (invalidate_all)
        socketEntry(block).sharers.reset(f.id);
    send(f, MsgType::DataResp);
}

void
CmpSystem::forwardToSharerSocket(Socket &s, AccessType type,
                                 BlockAddr block, SocketDirEntry &sentry,
                                 obs::LatencyChain &ch)
{
    Socket &h = home(block);
    const SocketId fid = sentry.anySharerExcept(s.id);
    if (fid == static_cast<SocketId>(~0u))
        panic("forward with no sharer socket");
    Socket &f = *sockets_[fid];

    send(h, type == AccessType::Store ? MsgType::FwdGetX
                                               : MsgType::FwdGetS);
    ch.add(LatComp::InterSocket, cfg_.interSocketCycles); // home -> F

    Tracking trk = findTracking(f, block);
    bool llc_copy = false;
    {
        LlcProbe fp = f.llc.probe(block);
        llc_copy = fp.data && fp.data->kind == LlcLineKind::Data;
    }
    if (!trk.found() && !llc_copy) {
        // F's intra-socket entry was evicted and written back to home
        // memory: DENF_NACK, home extracts F's entry and re-forwards it
        // with the request (Figure 15, steps 7-11).
        ++proto_.denfNacks;
        send(f, MsgType::DenfNack);
        ch.add(LatComp::InterSocket, cfg_.interSocketCycles); // F -> home
        auto fentry = h.memStore.loadSegment(block, fid);
        if (!fentry)
            panic("DENF_NACK but no segment for the forwarded socket");
        // Read the corrupted block.
        ch.join(LatComp::DeMemory, h.dram.read(block, ch.now(), true));
        send(h, MsgType::FwdWithDe);
        ch.add(LatComp::InterSocket, cfg_.interSocketCycles); // resend
        h.memStore.clearSegment(block, fid);

        // F concludes the request using the carried entry.
        DirEntry entry = *fentry;
        const CoreId x = reachSupplier(f, block, entry, ch);
        if (type == AccessType::Store) {
            forEachSetBit(entry.sharers, [&](CoreId y) {
                f.cores[y].invalidate(block, false);
            });
            sentry.sharers.reset(fid);
        } else {
            if (entry.state == DirState::Owned) {
                f.cores[x].downgrade(block);
                entry.state = DirState::Shared;
            }
            // The updated entry returns to its home memory segment.
            send(f, MsgType::PutDe);
            h.dram.write(block, ch.now(), true);
            send(h, MsgType::MemWrite);
            h.memStore.storeSegment(block, fid, entry);
        }
        send(f, MsgType::DataResp);
    } else {
        supplyFromSocket(f, block, type == AccessType::Store, ch);
    }
    ch.add(LatComp::InterSocket, cfg_.interSocketCycles); // F -> requester
}

void
CmpSystem::serveSocketMissMulti(Socket &s, CoreId c, AccessType type,
                                BlockAddr block, Cycle now,
                                obs::LatencyChain &ch)
{
    Socket &h = home(block);
    if (h.id != s.id) {
        ch.add(LatComp::InterSocket, cfg_.interSocketCycles);
        send(s, type == AccessType::Store ? MsgType::GetX
                                                   : MsgType::GetS);
    }
    // Socket-level directory cache lookup.
    ch.add(LatComp::DirLookup, 2);

    SocketDirectory::Access acc = h.socketDir->access(block);
    if (acc.cacheMiss && acc.entry.live()) {
        // Directory-cache miss: the entry comes from home memory — a
        // backup read (solution 1) or a DirEvict-bit extraction from
        // the block itself (solution 2).
        ch.join(LatComp::DeMemory, h.dram.read(block, ch.now(), true));
        send(h, MsgType::MemRead);
    }
    SocketDirEntry &se = acc.entry;

    const bool is_store = type == AccessType::Store;
    MesiState fill = fillState(type, false);

    switch (se.state) {
      case SocketDirState::Invalid:
      case SocketDirState::Shared: {
        // Home memory supplies the data. A store to a Shared block first
        // invalidates the sharer sockets; their acks overlap the read.
        const bool global_shared =
            se.state == SocketDirState::Shared && !is_store;
        if (se.state == SocketDirState::Shared && is_store) {
            forEachSetBit(dropOtherSockets(se, s.id, block, now),
                          [&](SocketId g) {
                              send(h, MsgType::Inv);
                              send(*sockets_[g], MsgType::InvAck);
                          });
            const Cycle t = ch.now();
            readHomeMemory(h, block, ch);
            ch.join(LatComp::InvStall, t + 2ull * cfg_.interSocketCycles);
        } else {
            readHomeMemory(h, block, ch);
        }
        if (global_shared)
            fill = MesiState::Shared;
        se.state = fill == MesiState::Shared ? SocketDirState::Shared
                                             : SocketDirState::Owned;
        se.sharers.set(s.id);
        ch.add(LatComp::Mesh, meshBankToCore(s, block, c));
        if (h.id != s.id)
            ch.add(LatComp::InterSocket, cfg_.interSocketCycles);
        fillSocketMiss(s, c, type, block, fill, false, global_shared, now);
        ch.cls = AccessClass::Memory;
        return;
      }

      case SocketDirState::Owned: {
        const SocketId fid = se.anySharerExcept(s.id);
        if (fid == static_cast<SocketId>(~0u))
            panic("socket-level Owned entry with no owner socket");
        send(h, is_store ? MsgType::FwdGetX : MsgType::FwdGetS);
        ch.add(LatComp::InterSocket, cfg_.interSocketCycles); // home -> F
        supplyFromSocket(*sockets_[fid], block, is_store, ch);
        ch.add(LatComp::InterSocket, cfg_.interSocketCycles); // F -> req
        if (is_store) {
            se.sharers.reset(fid);
            se.sharers.set(s.id);
            se.state = SocketDirState::Owned;
            fill = MesiState::Modified;
        } else {
            se.sharers.set(s.id);
            se.state = SocketDirState::Shared;
            fill = MesiState::Shared;
        }
        fillSocketMiss(s, c, type, block, fill, false, !is_store, now);
        return;
      }

      case SocketDirState::Corrupted: {
        if (se.isSharer(s.id)) {
            // The requesting socket lost its entry to home memory but
            // still has cached copies: the home returns the corrupted
            // block; the socket extracts its entry and concludes within
            // the socket (Figure 15, step 3).
            serveCorruptedHome(s, c, type, block, now, ch);
            return;
        }

        if (!is_store)
            ++proto_.corruptedReadMisses;
        forwardToSharerSocket(s, type, block, se, ch);
        if (is_store) {
            // Every other socket's copies die; memory stays destroyed
            // until a full-block write restores it.
            dropOtherSockets(se, s.id, block, now);
            se.sharers.set(s.id);
            fillSocketMiss(s, c, type, block, MesiState::Modified, false,
                           false, now);
            return;
        }
        se.sharers.set(s.id);
        // The forwarded data may be dirtier than (destroyed) memory;
        // keep the socket's LLC copy dirty so it eventually writes back
        // and restores the home block.
        fillSocketMiss(s, c, type, block, MesiState::Shared, true, true,
                       now);
        ch.cls = AccessClass::Corrupted;
        return;
      }
    }
    panic("unreachable socket-directory state");
}

} // namespace zerodev
