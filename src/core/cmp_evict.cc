/**
 * @file
 * Eviction-side protocol flows: private-cache eviction notices (which keep
 * the directory precise), the Figure 16 GET_DE flow for evictions whose
 * directory entry migrated to home memory, LLC victim handling (data
 * writebacks, inclusive back-invalidations, and the WB_DE flow for
 * spilled/fused entries), and the Section III-D4 last-copy restoration of
 * destroyed memory blocks.
 */

#include "core/cmp_system.hh"

#include "common/log.hh"
#include "obs/latency.hh"
#include "obs/trace.hh"

namespace zerodev
{

void
CmpSystem::handlePrivateEviction(Socket &s, CoreId c,
                                 const PrivateEviction &ev, Cycle now)
{
    const BlockAddr block = ev.block;
    const MesiState st = ev.state;

    Tracking trk = findTracking(s, block);
    if (!trk.found()) {
        evictionWithoutEntry(s, c, block, st, now);
        return;
    }

    DirEntry entry = trk.entry;
    if (!entry.isSharer(c))
        panic("eviction notice from an untracked core");
    entry.removeSharer(c);

    // Record the notice on the wire. E-state notices carry the
    // reconstruction bits when the entry is fused (Section III-C2);
    // FuseAll retrieves the low bits from the last sharer with a special
    // acknowledgment (Section III-C3).
    if (st == MesiState::Modified) {
        send(s, MsgType::PutM);
    } else if (st == MesiState::Exclusive) {
        send(s, trk.where == TrackWhere::LlcFused
                             ? MsgType::PutEBits
                             : MsgType::PutE);
        send(s, MsgType::EvictAck);
    } else {
        send(s, MsgType::PutS);
        if (!entry.live() && trk.where == TrackWhere::LlcFused &&
            cfg_.dirCachePolicy == DirCachePolicy::FuseAll) {
            send(s, MsgType::EvictAckFetchBits);
        } else {
            send(s, MsgType::EvictAck);
        }
    }

    writeTracking(s, block, trk.where, entry, now);

    if (st == MesiState::Modified) {
        // Dirty writeback: the data lands in the LLC (all flavours: EPD
        // explicitly allocates owner-eviction victims, Section III-E).
        llcWritebackData(s, block, true, now);
    } else if (st == MesiState::Exclusive &&
               cfg_.llcFlavor == LlcFlavor::Epd) {
        // EPD allocates the clean owner-eviction victim too.
        llcWritebackData(s, block, false, now);
    }

    if (!entry.live()) {
        const bool wrote_data = st == MesiState::Modified;
        lastCopyInSocketGone(s, block, wrote_data, now);
    }
}

void
CmpSystem::evictionWithoutEntry(Socket &s, CoreId c, BlockAddr block,
                                MesiState st, Cycle now)
{
    Socket &h = home(block);
    Cycle t = now;
    if (h.id != s.id)
        t += cfg_.interSocketCycles;

    if (st == MesiState::Modified) {
        // Figure 16, step 2: a full-block writeback that finds no entry
        // in the socket must come from the system-wide owner; execute
        // the baseline writeback-to-home flow. The full-block write also
        // restores the destroyed memory data.
        send(s, MsgType::PutM);
        h.dram.write(block, t, false);
        send(h, MsgType::MemWrite);
        h.memStore.clearSegment(block, s.id);
        if (h.memStore.destroyed(block)) {
            h.memStore.restoreData(block);
            ++proto_.lastCopyRestores;
        }
        if (cfg_.sockets > 1)
            socketEvictionNotice(s.id, block, false, now);
        return;
    }

    // Figure 16, steps 3-6: fetch the directory entry from the home
    // memory block (GET_DE), update it, and send it back.
    ++proto_.getDeFlows;
    ZDEV_TRACE(trc_, obs::TraceEventKind::GetDe, obs::TraceComp::Memory,
               s.id, c, block, t, 0, 0, txn_);
    send(s, MsgType::GetDe);
    auto entry = extractEntryFromMemory(s, block, t);
    if (!entry) {
        panic("eviction notice for block %#llx found no directory entry "
              "anywhere", static_cast<unsigned long long>(block));
    }
    const Cycle de_start = t;
    t = h.dram.read(block, t, true);
    // GET_DE runs behind the eviction notice, off the requester's
    // critical path: account it as background entry-memory work.
    if (lat_)
        lat_->addOffPath(obs::LatComp::DeMemory, t - de_start);
    send(h, MsgType::DeResp);
    if (!entry->isSharer(c))
        panic("GET_DE entry does not track the evicting core");
    entry->removeSharer(c);

    if (entry->live()) {
        // Other cores in this socket still cache the block: write the
        // updated entry back into the memory segment.
        send(s, MsgType::PutDe);
        h.dram.write(block, t, true);
        send(h, MsgType::MemWrite);
        h.memStore.storeSegment(block, s.id, *entry);
        return;
    }

    // The socket's last copy left. If the memory data was destroyed and
    // no other socket holds a copy, the block is retrieved from the
    // evicting core and written back (Section III-D4).
    lastCopyInSocketGone(s, block, false, now);
}

void
CmpSystem::lastCopyInSocketGone(Socket &s, BlockAddr block,
                                bool data_written_back, Cycle now)
{
    // If the LLC still holds a data copy, the socket hasn't lost the
    // block (non-inclusive flavours).
    LlcProbe probe = s.llc.probe(block);
    if (probe.data)
        return;
    if (cfg_.sockets > 1) {
        socketEvictionNotice(s.id, block, !data_written_back, now);
        return;
    }
    if (home(block).memStore.destroyed(block) && !data_written_back) {
        // System-wide last copy of a destroyed block: the block is
        // retrieved from the evicting core.
        send(s, MsgType::DataResp);
        restoreLastCopy(block, now);
    }
}

void
CmpSystem::restoreLastCopy(BlockAddr block, Cycle now)
{
    Socket &h = home(block);
    h.dram.write(block, now, true);
    send(h, MsgType::MemWrite);
    h.memStore.clearBlock(block);
    h.memStore.restoreData(block);
    ++proto_.lastCopyRestores;
}

void
CmpSystem::handleLlcVictim(Socket &s, const LlcVictim &victim, Cycle now)
{
    if (!victim.valid)
        return;
    const BlockAddr block = victim.block;
    Socket &h = home(block);
    ZDEV_TRACE(trc_, obs::TraceEventKind::LlcVictim, obs::TraceComp::Llc,
               s.id, 0, block, now, 0,
               static_cast<std::uint32_t>(victim.kind), txn_, txnCore_);

    if (victim.kind == LlcLineKind::Data) {
        if (cfg_.llcFlavor == LlcFlavor::Inclusive)
            inclusionInvalidate(s, block, now);
        if (victim.dirty) {
            Cycle t = now;
            if (h.id != s.id) {
                t += cfg_.interSocketCycles;
                send(s, MsgType::MemWrite);
            }
            h.dram.write(block, t, false);
            send(h, MsgType::MemWrite);
            if (h.memStore.destroyed(block)) {
                h.memStore.clearBlock(block);
                h.memStore.restoreData(block);
                ++proto_.lastCopyRestores;
            }
        }
        if (cfg_.sockets > 1) {
            // The socket keeps the block only if cores still cache it
            // (the entry may live in-socket or in a home memory segment).
            Tracking trk = peekTrackingCounted(s, block);
            if (!trk.found() && !h.memStore.hasSegment(block, s.id))
                socketEvictionNotice(s.id, block, !victim.dirty, now);
        } else if (!victim.dirty && h.memStore.destroyed(block)) {
            // A clean LLC copy can still be the system-wide last copy of
            // a destroyed memory block; write it back before it is lost.
            Tracking trk = peekTrackingCounted(s, block);
            if (!trk.found() && !h.memStore.hasSegment(block, s.id))
                restoreLastCopy(block, now);
        }
        return;
    }

    // A spilled or fused directory entry left the LLC.
    if (!victim.de.live())
        panic("LLC evicted a dead directory entry");

    if (cfg_.llcFlavor == LlcFlavor::Inclusive) {
        // Inclusive LLCs never write entries to memory: evicting the
        // line invalidates the tracked copies (inclusion property), so
        // the entry simply dies (Section III-F).
        backInvalidate(s, victim.de.sharers, block, now);
        if (cfg_.sockets > 1)
            socketEvictionNotice(s.id, block, false, now);
        return;
    }

    // Evict-together rule: if the victim was a spilled entry whose data
    // block is still resident (possible under plain LRU), the data block
    // leaves with it, so "block in LLC but entry in memory" can never be
    // observed (Section III-D2).
    if (victim.kind == LlcLineKind::SpilledDe) {
        LlcProbe probe = s.llc.probe(block);
        if (probe.data && probe.data->kind == LlcLineKind::Data) {
            const bool dirty = probe.data->dirty;
            s.llc.invalidateLine(probe, *probe.data);
            if (dirty) {
                h.dram.write(block, now, false);
                send(h, MsgType::MemWrite);
                h.memStore.restoreData(block);
            }
        }
    }

    writebackEntryToMemory(s, block, victim.de, now);
}

void
CmpSystem::inclusionInvalidate(Socket &s, BlockAddr block, Cycle now)
{
    Tracking trk = findTracking(s, block);
    if (!trk.found())
        return;
    backInvalidate(s, trk.entry.sharers, block, now);
    DirEntry dead;
    writeTracking(s, block, trk.where, dead, now);
}

void
CmpSystem::backInvalidate(Socket &s, const SharerSet &sharers,
                          BlockAddr block, Cycle now)
{
    bool dirty = false;
    forEachSetBit(sharers, [&](CoreId x) {
        const MesiState prev = s.cores[x].invalidate(block, false);
        if (prev != MesiState::Invalid) {
            noteInclusionInvalidation();
            send(s, MsgType::Inv);
            send(s, MsgType::InvAck);
            if (prev == MesiState::Modified)
                dirty = true;
        }
    });
    if (dirty) {
        Socket &h = home(block);
        h.dram.write(block, now, false);
        send(h, MsgType::MemWrite);
        h.memStore.restoreData(block);
    }
}

} // namespace zerodev
