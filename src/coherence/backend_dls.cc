/**
 * @file
 * DLS backend: a directoryless shared-LLC coherence protocol.
 *
 * There is no directory structure of any kind — the home LLC bank is the
 * serialization point, and on a bank miss the holders are found by
 * probing the private caches (the transaction-level model makes the
 * broadcast atomic, so the probe is a core scan). Because nothing ever
 * tracks sharers, there are no directory eviction victims, no entry
 * spill/fuse machinery and no entry-in-memory flows: memory data is
 * never destroyed, which is exactly why the differential farm can hold
 * DLS to the shadow value oracle against every MESI-family variant.
 *
 * Protocol rules (MSI over the shared LLC):
 *  - Loads and ifetches fill Shared. An LLC data hit is a 2-hop fill; a
 *    hit in another core is a 3-hop forward (an M owner downgrades and
 *    its dirty data refills the LLC); otherwise memory supplies the data
 *    and the LLC allocates a clean copy.
 *  - A store (miss or upgrade) invalidates every other holder through
 *    the serializing bank and removes the LLC data line: the writer
 *    takes system-wide exclusivity, so an LLC data line implies no M/E
 *    holder exists (checked by the DLS invariant rules).
 *  - M victims write back into the LLC; S victims are silent.
 */

#include "coherence/backend.hh"

#include <algorithm>

#include "obs/latency.hh"

namespace zerodev
{

using obs::LatComp;

CoreId
DlsBackend::findHolder(CmpSystem::Socket &s, CoreId except, BlockAddr block,
                       bool *owned) const
{
    CoreId sharer = kInvalidCore;
    for (CoreId x = 0; x < sys_.cfg_.coresPerSocket; ++x) {
        if (x == except)
            continue;
        const MesiState st = s.cores[x].state(block);
        if (st == MesiState::Modified || st == MesiState::Exclusive) {
            *owned = true;
            return x;
        }
        if (st == MesiState::Shared && sharer == kInvalidCore)
            sharer = x;
    }
    *owned = false;
    return sharer;
}

Cycle
DlsBackend::invalidateOthers(CmpSystem::Socket &s, CoreId c,
                             BlockAddr block, Cycle base)
{
    Cycle done = base;
    for (CoreId x = 0; x < sys_.cfg_.coresPerSocket; ++x) {
        if (x == c)
            continue;
        // Not the DEV path: there is no directory to evict from, the
        // writer itself demands the exclusivity.
        const MesiState prev = s.cores[x].invalidate(block, false);
        if (prev == MesiState::Invalid)
            continue;
        CmpSystem::send(s, MsgType::Inv);
        CmpSystem::send(s, MsgType::InvAck);
        const Cycle ack = base + sys_.meshBankToCore(s, block, x) +
                          sys_.meshCoreToCore(s, x, c);
        done = std::max(done, ack);
    }
    return done;
}

void
DlsBackend::miss(SocketId sid, CoreId c, AccessType type, BlockAddr block,
                 obs::LatencyChain &ch)
{
    const Cycle now = ch.now();
    CmpSystem::Socket &s = *sys_.sockets_[sid];
    sys_.requestToBank(
        s, c, block,
        type == AccessType::Store ? MsgType::GetX : MsgType::GetS, ch);

    LlcProbe probe = s.llc.probe(block);
    LlcLine *data = probe.data && probe.data->kind == LlcLineKind::Data
                        ? probe.data
                        : nullptr;

    if (type != AccessType::Store) {
        if (data) {
            // 2-hop: the serializing bank has the data; any private
            // copies are Shared (the writer removed this line).
            sys_.readLlcData(s, probe, ch);
            ++sys_.proto_.twoHopReads;
            CmpSystem::send(s, MsgType::DataResp);
            ch.add(LatComp::Mesh, sys_.meshBankToCore(s, block, c));
            sys_.fillCore(s, c, type, block, MesiState::Shared, now);
            return;
        }
        s.llc.noteDataMiss();
        ++broadcastProbes_;
        bool owned = false;
        const CoreId holder = findHolder(s, c, block, &owned);
        if (holder != kInvalidCore) {
            // 3-hop: the bank forwards to a holder, which supplies the
            // requester directly; an M owner downgrades and its dirty
            // data refills the LLC.
            ++sys_.proto_.threeHopReads;
            ch.cls = AccessClass::ThreeHop;
            ++snoopSupplies_;
            CmpSystem::send(s, MsgType::FwdGetS);
            CmpSystem::send(s, MsgType::DataResp);
            sys_.forwardThrough(s, holder, c, block, ch);
            if (owned) {
                const MesiState prev = s.cores[holder].downgrade(block);
                sys_.llcWritebackData(s, block,
                                      prev == MesiState::Modified, now);
            }
            sys_.fillCore(s, c, type, block, MesiState::Shared, now);
            return;
        }
        // Memory fill; nothing on chip holds the block.
        ++sys_.proto_.socketMisses;
        CmpSystem::send(s, MsgType::MemRead);
        CmpSystem::send(s, MsgType::MemReadResp);
        ch.join(LatComp::Dram, s.dram.read(block, ch.now(), false));
        ch.add(LatComp::Mesh, sys_.meshBankToCore(s, block, c));
        sys_.llcAllocData(s, block, false, now, true);
        sys_.fillCore(s, c, type, block, MesiState::Shared, now);
        ch.cls = AccessClass::Memory;
        return;
    }

    // Store miss: the serializing bank invalidates every holder and the
    // writer takes exclusivity (the LLC data line leaves with it).
    ++broadcastProbes_;
    bool owned = false;
    const CoreId holder = findHolder(s, c, block, &owned);
    const Cycle inv_done = invalidateOthers(s, c, block, ch.now());

    if (data) {
        s.llc.noteDataHit();
        s.llc.noteDataRead();
        CmpSystem::send(s, MsgType::DataResp);
        ch.add(LatComp::LlcData, s.llc.dataCycles());
        ch.add(LatComp::Mesh, sys_.meshBankToCore(s, block, c));
        s.llc.invalidateLine(probe, *data);
    } else if (holder != kInvalidCore) {
        s.llc.noteDataMiss();
        ++sys_.proto_.threeHopReads;
        ch.cls = AccessClass::ThreeHop;
        ++snoopSupplies_;
        CmpSystem::send(s, MsgType::FwdGetX);
        CmpSystem::send(s, MsgType::DataResp);
        // The holder's data rides with its acknowledgment.
        sys_.forwardThrough(s, holder, c, block, ch);
    } else {
        s.llc.noteDataMiss();
        ++sys_.proto_.socketMisses;
        ch.cls = AccessClass::Memory;
        CmpSystem::send(s, MsgType::MemRead);
        CmpSystem::send(s, MsgType::MemReadResp);
        ch.join(LatComp::Dram, s.dram.read(block, ch.now(), false));
        ch.add(LatComp::Mesh, sys_.meshBankToCore(s, block, c));
    }

    ch.join(LatComp::InvStall, inv_done);
    sys_.fillCore(s, c, type, block, MesiState::Modified, now);
}

void
DlsBackend::upgrade(SocketId sid, CoreId c, BlockAddr block,
                    obs::LatencyChain &ch)
{
    CmpSystem::Socket &s = *sys_.sockets_[sid];
    sys_.requestToBank(s, c, block, MsgType::Upgrade, ch);

    const Cycle inv_done = invalidateOthers(s, c, block, ch.now());

    // The writer takes exclusivity: the LLC data line leaves with it.
    LlcProbe probe = s.llc.probe(block);
    if (probe.data && probe.data->kind == LlcLineKind::Data)
        s.llc.invalidateLine(probe, *probe.data);

    CmpSystem::send(s, MsgType::AckResp);
    ch.add(LatComp::Mesh, sys_.meshBankToCore(s, block, c));
    ch.join(LatComp::InvStall, inv_done);
    s.cores[c].upgradeToModified(block);
}

void
DlsBackend::privateEviction(SocketId sid, CoreId c,
                            const PrivateEviction &ev, Cycle now)
{
    CmpSystem::Socket &s = *sys_.sockets_[sid];
    (void)c;
    switch (ev.state) {
      case MesiState::Modified:
        CmpSystem::send(s, MsgType::PutM);
        sys_.llcWritebackData(s, ev.block, true, now);
        break;
      case MesiState::Exclusive:
        // Defensive: DLS fills only S and M, but a clean owner victim
        // still lands in the LLC.
        CmpSystem::send(s, MsgType::PutE);
        sys_.llcWritebackData(s, ev.block, false, now);
        break;
      default:
        // Shared victims are silent: nothing tracks them.
        break;
    }
}

void
DlsBackend::save(SerialOut &out) const
{
    out.u64(broadcastProbes_);
    out.u64(snoopSupplies_);
}

void
DlsBackend::restore(SerialIn &in)
{
    broadcastProbes_ = in.u64();
    snoopSupplies_ = in.u64();
}

void
DlsBackend::reportStats(StatDump &d) const
{
    d.add("backend.broadcast_probes",
          static_cast<double>(broadcastProbes_));
    d.add("backend.snoop_supplies", static_cast<double>(snoopSupplies_));
}

} // namespace zerodev
