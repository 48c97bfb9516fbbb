#include "core/cmp_system.hh"

#include <algorithm>

#include "coherence/backend.hh"
#include "common/bitops.hh"
#include "common/log.hh"
#include "directory/mgd.hh"
#include "directory/secdir.hh"
#include "obs/latency.hh"
#include "obs/trace.hh"

namespace zerodev
{

CmpSystem::Socket::Socket(const SystemConfig &cfg, SocketId sid)
    : id(sid),
      llc(cfg),
      dram(cfg.dram, cfg.blockBytes),
      mesh(std::max(cfg.coresPerSocket, cfg.llcBanks), cfg.meshHopCycles),
      traffic(cfg.coresPerSocket)
{
    cores.reserve(cfg.coresPerSocket);
    while (cores.size() < cfg.coresPerSocket)
        cores.emplace_back(cfg);
}

CmpSystem::~CmpSystem() = default;

CmpSystem::CmpSystem(const SystemConfig &cfg) : cfg_(cfg)
{
    cfg_.validate();
    sockets_.reserve(cfg_.sockets);
    for (SocketId s = 0; s < cfg_.sockets; ++s) {
        auto sock = std::make_unique<Socket>(cfg_, s);
        sock->dirOrg = buildDirOrg();
        if (cfg_.sockets > 1) {
            sock->socketDir = std::make_unique<SocketDirectory>(
                cfg_.socketDirZeroDev
                    ? SocketDirectory::Backing::DirEvictBit
                    : SocketDirectory::Backing::MemoryBackup,
                cfg_.socketDirCacheSets, cfg_.socketDirCacheWays,
                sock->memStore);
        }
        sockets_.push_back(std::move(sock));
    }

    // After the sockets: the backend may cache per-socket pointers.
    backend_ = makeProtocolBackend(*this);

    // Eviction provenance: one attribution slot per possible inducing
    // core.
    proto_.devByInducer.assign(totalCores(), 0);
    proto_.inclusionByInducer.assign(totalCores(), 0);
}

void
CmpSystem::noteDevInvalidation()
{
    ++proto_.devInvalidations;
    ++proto_.devByInducer[txnCore_];
}

void
CmpSystem::noteInclusionInvalidation()
{
    ++proto_.inclusionInvalidations;
    ++proto_.inclusionByInducer[txnCore_];
}

std::unique_ptr<DirOrgBase>
CmpSystem::buildDirOrg() const
{
    const std::uint64_t sets = floorPow2(cfg_.dirSetsPerSlice());
    if (cfg_.protocol == ProtocolKind::Dls)
        return nullptr; // DLS has no directory structure at all
    if (cfg_.protocol == ProtocolKind::PhasePriority) {
        // Same geometry as the sparse directory it replaces, but victim
        // selection follows request-phase priority.
        return std::make_unique<PhasePriorityOrg>(cfg_.llcBanks, sets,
                                                  cfg_.directory.ways);
    }
    switch (cfg_.dirOrg) {
      case DirOrg::ZeroDev:
        if (cfg_.directory.sizeRatio <= 0.0)
            return nullptr; // every entry lives in the LLC or memory
        // Section III-C4: a full set refuses, it never evicts.
        return std::make_unique<SparseOrg>(SparseDirectory(
            cfg_.llcBanks, sets, cfg_.directory.ways,
            /*replacement_disabled=*/true));
      case DirOrg::SparseNru:
        return std::make_unique<SparseOrg>(SparseDirectory(
            cfg_.llcBanks, sets, cfg_.directory.ways, false,
            cfg_.directory.tagPartitions));
      case DirOrg::Unbounded:
        return std::make_unique<SparseOrg>(
            SparseDirectory::makeUnbounded(cfg_.llcBanks));
      case DirOrg::SecDir:
        return std::make_unique<SecDir>(
            cfg_.coresPerSocket, cfg_.llcBanks,
            SecDirGeometry::forConfig(cfg_.coresPerSocket, sets,
                                      cfg_.directory.ways));
      case DirOrg::MultiGrain:
        return std::make_unique<MultiGrainDirectory>(
            cfg_.coresPerSocket, cfg_.llcBanks, sets, cfg_.directory.ways,
            cfg_.mgd.regionBytes / cfg_.blockBytes);
    }
    panic("unknown directory organisation");
}

SocketId
CmpSystem::homeSocket(BlockAddr block) const
{
    if (cfg_.sockets == 1)
        return 0;
    // 4 KB-granular home interleave (64 blocks): decorrelates the home
    // socket from the LLC bank index bits.
    return static_cast<SocketId>((block >> 6) & (cfg_.sockets - 1));
}

Cycle
CmpSystem::meshCoreToBank(Socket &s, CoreId c, BlockAddr block) const
{
    return s.mesh.latency(s.mesh.tileOfCore(c),
                          s.mesh.tileOfBank(s.llc.bankOfBlock(block)));
}

Cycle
CmpSystem::meshBankToCore(Socket &s, BlockAddr block, CoreId c) const
{
    return meshCoreToBank(s, c, block);
}

Cycle
CmpSystem::meshCoreToCore(Socket &s, CoreId a, CoreId b) const
{
    return s.mesh.latency(s.mesh.tileOfCore(a), s.mesh.tileOfCore(b));
}

Cycle
CmpSystem::access(CoreId gcore, AccessType type, BlockAddr block,
                  Cycle now)
{
    Socket &s = *sockets_[socketOfCore(gcore)];
    const CoreId c = localCore(gcore);
    PrivateCache &pc = s.cores[c];
    ++proto_.accesses;
    txn_ = proto_.accesses;
    txnCore_ = gcore;
    txnBlock_ = block;
    ZDEV_TRACE(trc_, obs::TraceEventKind::Request, obs::TraceComp::Core,
               s.id, gcore, block, now, 0,
               static_cast<std::uint32_t>(type), txn_);
    obs::LatencyChain ch(now);

    switch (pc.access(type, block)) {
      case CoreLookup::L1Hit:
        ch.cls = AccessClass::L1Hit;
        ch.add(obs::LatComp::CoreLookup, pc.l1Cycles());
        break;
      case CoreLookup::L2Hit:
        ch.cls = AccessClass::L2Hit;
        ch.add(obs::LatComp::CoreLookup, pc.l1Cycles() + pc.l2Cycles());
        break;
      case CoreLookup::NeedUpgrade:
        ch.cls = AccessClass::Upgrade;
        backend_->upgrade(s.id, c, block, ch);
        break;
      case CoreLookup::Miss:
        ++proto_.l2Misses;
        // A 2-hop uncore transaction unless the flow that serves it
        // says otherwise (ThreeHop, Memory, Corrupted).
        ch.cls = AccessClass::TwoHop;
        backend_->miss(s.id, c, type, block, ch);
        break;
    }
    return finishAccess(ch);
}

Tracking
CmpSystem::peekTracking(SocketId sid, BlockAddr block) const
{
    const Socket &s = *sockets_[sid];
    Tracking trk;
    if (s.dirOrg) {
        if (auto e = s.dirOrg->peek(block)) {
            trk.where = TrackWhere::Org;
            trk.entry = *e;
            return trk;
        }
        if (!zeroDev())
            return trk;
    }
    LlcProbe p = s.llc.peek(block);
    if (p.spilled) {
        trk.where = TrackWhere::LlcSpilled;
        trk.entry = s.llc.entry(*p.spilled);
    } else if (p.data && p.data->kind == LlcLineKind::FusedDe) {
        trk.where = TrackWhere::LlcFused;
        trk.entry = s.llc.entry(*p.data);
    }
    return trk;
}

Tracking
CmpSystem::peekTrackingCounted(Socket &s, BlockAddr block)
{
    const Tracking trk = peekTracking(s.id, block);
    if (trk.where != TrackWhere::Org && (zeroDev() || !s.dirOrg))
        s.llc.noteLookup(); // the peek fell through to the LLC tags
    return trk;
}

SocketDirEntry
CmpSystem::peekSocketEntry(BlockAddr block) const
{
    const Socket &h = *sockets_[homeSocket(block)];
    if (!h.socketDir)
        return SocketDirEntry{};
    return h.socketDir->peek(block);
}

std::uint64_t
CmpSystem::totalTrafficBytes() const
{
    std::uint64_t n = 0;
    for (const auto &s : sockets_)
        n += s->traffic.totalBytes();
    return n;
}

DramStats
CmpSystem::totalDramStats() const
{
    DramStats agg;
    for (const auto &s : sockets_) {
        const DramStats &d = s->dram.stats();
        agg.reads += d.reads;
        agg.writes += d.writes;
        agg.rowHits += d.rowHits;
        agg.rowMisses += d.rowMisses;
        agg.rowConflicts += d.rowConflicts;
        agg.deReads += d.deReads;
        agg.deWrites += d.deWrites;
    }
    return agg;
}

Cycle
CmpSystem::finishAccess(const obs::LatencyChain &ch)
{
    const auto i = static_cast<std::size_t>(ch.cls);
    ++proto_.classCount[i];
    proto_.classCycles[i] += ch.latency();
    if (lat_)
        lat_->record(static_cast<std::uint32_t>(i), ch);
    ZDEV_TRACE(trc_, obs::TraceEventKind::Complete,
               obs::TraceComp::Protocol, socketOfCore(txnCore_), txnCore_,
               txnBlock_, ch.start(), ch.latency(),
               static_cast<std::uint32_t>(i), txn_);
    return ch.now();
}

const char *
toString(AccessClass c)
{
    switch (c) {
      case AccessClass::L1Hit: return "l1_hit";
      case AccessClass::L2Hit: return "l2_hit";
      case AccessClass::Upgrade: return "upgrade";
      case AccessClass::TwoHop: return "two_hop";
      case AccessClass::ThreeHop: return "three_hop";
      case AccessClass::Memory: return "memory";
      case AccessClass::Corrupted: return "corrupted";
      case AccessClass::NumClasses: break;
    }
    return "?";
}

StatDump
CmpSystem::report() const
{
    StatDump d;
    d.add("accesses", static_cast<double>(proto_.accesses));
    d.add("l2_misses", static_cast<double>(proto_.l2Misses));
    d.add("dev_invalidations",
          static_cast<double>(proto_.devInvalidations));
    d.add("dev_owned_invalidations",
          static_cast<double>(proto_.devOwnedInvalidations));
    d.add("inclusion_invalidations",
          static_cast<double>(proto_.inclusionInvalidations));
    for (std::size_t c = 0; c < proto_.devByInducer.size(); ++c) {
        d.add("prov.dev_by_core." + std::to_string(c),
              static_cast<double>(proto_.devByInducer[c]));
    }
    for (std::size_t c = 0; c < proto_.inclusionByInducer.size(); ++c) {
        d.add("prov.incl_by_core." + std::to_string(c),
              static_cast<double>(proto_.inclusionByInducer[c]));
    }
    d.add("two_hop_reads", static_cast<double>(proto_.twoHopReads));
    d.add("three_hop_reads", static_cast<double>(proto_.threeHopReads));
    d.add("llc_de_evict_wbs", static_cast<double>(proto_.llcDeEvictWbs));
    d.add("get_de_flows", static_cast<double>(proto_.getDeFlows));
    d.add("denf_nacks", static_cast<double>(proto_.denfNacks));
    d.add("corrupted_read_misses",
          static_cast<double>(proto_.corruptedReadMisses));
    d.add("corrupted_responses",
          static_cast<double>(proto_.corruptedResponses));
    d.add("socket_misses", static_cast<double>(proto_.socketMisses));
    d.add("last_copy_restores",
          static_cast<double>(proto_.lastCopyRestores));
    d.add("traffic_bytes", static_cast<double>(totalTrafficBytes()));

    const DramStats dram = totalDramStats();
    d.add("dram.reads", static_cast<double>(dram.reads));
    d.add("dram.writes", static_cast<double>(dram.writes));
    d.add("dram.de_reads", static_cast<double>(dram.deReads));
    d.add("dram.de_writes", static_cast<double>(dram.deWrites));

    for (SocketId s = 0; s < cfg_.sockets; ++s) {
        const std::string p = "s" + std::to_string(s) + ".";
        const LlcStats &l = sockets_[s]->llc.stats();
        d.add(p + "llc.data_evictions",
              static_cast<double>(l.dataEvictions));
        d.add(p + "llc.de_evictions", static_cast<double>(l.deEvictions));
        d.add(p + "llc.spill_allocs", static_cast<double>(l.spillAllocs));
        d.add(p + "llc.fuse_ops", static_cast<double>(l.fuseOps));
        d.add(p + "llc.peak_de_lines",
              static_cast<double>(l.peakDeLines));
        d.add(p + "llc.data_array_reads",
              static_cast<double>(l.dataArrayReads));
        d.add(p + "llc.de_lines",
              static_cast<double>(sockets_[s]->llc.deLines()));
        const Mesh &m = sockets_[s]->mesh;
        d.add(p + "mesh.traversals",
              static_cast<double>(m.stats().traversals));
        d.add(p + "mesh.total_hops", static_cast<double>(m.stats().hops));
        m.hopHist().addTo(d, p + "mesh.hops");
        if (const DirOrgBase *org = sockets_[s]->dirOrg.get()) {
            d.add(p + "dir.live", static_cast<double>(org->liveEntries()));
            if (zeroDev())
                d.add(p + "dir.refusals",
                      static_cast<double>(org->orgStats().refusals));
            else
                d.add(p + "dir.forced_invs",
                      static_cast<double>(
                          org->orgStats().forcedInvalidations));
        }
        d.add(p + "mem.corrupted_blocks",
              static_cast<double>(sockets_[s]->memStore.corruptedBlocks()));
    }
    sharingDegree_.addTo(d, "sharing_degree");
    devSize_.addTo(d, "dev_size");
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(AccessClass::NumClasses); ++i) {
        const auto cls = static_cast<AccessClass>(i);
        if (proto_.classCount[i] == 0)
            continue;
        const std::string p = std::string("latency.") + toString(cls);
        d.add(p + ".count", static_cast<double>(proto_.classCount[i]));
        d.add(p + ".mean", proto_.meanLatency(cls));
    }
    // Backend-specific series: empty for the MESI+ZeroDev family, so
    // every pre-backend report stays byte-identical.
    backend_->reportStats(d);
    return d;
}

} // namespace zerodev
