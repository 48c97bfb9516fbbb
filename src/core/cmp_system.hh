/**
 * @file
 * The full CMP system model: per-core private hierarchies, banked shared
 * LLC, coherence directory (in any of the paper's organisations), 2D mesh,
 * DRAM, and — when configured — the complete ZeroDEV protocol with its
 * directory-entry caching policies, LLC replacement extensions and
 * entry-in-memory flows, for one or more sockets.
 *
 * The simulator is transaction-level: access() executes one memory
 * operation of one core atomically (full functional protocol update) and
 * returns its completion time, composed from array lookup latencies, mesh
 * hops, inter-socket links, and DRAM bank timing. Transactions must be
 * issued in globally non-decreasing time order (the Runner guarantees
 * this), which makes the protocol race-free by construction; the races
 * the paper reasons about (e.g. a forwarded socket having lost its
 * directory entry to memory) appear as explicit protocol states instead.
 */

#ifndef ZERODEV_CORE_CMP_SYSTEM_HH
#define ZERODEV_CORE_CMP_SYSTEM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "coherence/llc_bank.hh"
#include "coherence/private_cache.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "directory/dir_org.hh"
#include "core/socket_dir.hh"
#include "interconnect/mesh.hh"
#include "interconnect/message.hh"
#include "mem/dram.hh"
#include "mem/memory_store.hh"

namespace zerodev
{

namespace obs
{
class Tracer;
class LatencyChain;
class LatencyProfiler;
} // namespace obs

class ProtocolBackend;

/** Where a block's in-socket directory entry currently lives. The
 *  values are the `dir_lookup` trace event's arg, so they stay fixed
 *  (1 is unused). */
enum class TrackWhere : std::uint8_t
{
    None = 0,       //!< untracked within the socket
    LlcSpilled = 2, //!< spilled line in the LLC (ZeroDEV)
    LlcFused = 3,   //!< fused into the block's LLC line (ZeroDEV)
    Org = 4,        //!< the socket's directory organisation
};

/** Snapshot of a block's tracking state within one socket. */
struct Tracking
{
    TrackWhere where = TrackWhere::None;
    DirEntry entry;

    bool found() const { return where != TrackWhere::None; }
};

/** Service class of one completed access (latency accounting). */
enum class AccessClass : std::uint8_t
{
    L1Hit,
    L2Hit,
    Upgrade,
    TwoHop,      //!< uncore hit served by the home bank
    ThreeHop,    //!< forwarded to an owner/sharer core
    Memory,      //!< filled from DRAM
    Corrupted,   //!< served through a corrupted-block flow
    NumClasses,
};

const char *toString(AccessClass c);

/** System-wide protocol counters. */
struct ProtocolStats
{
    /**
     * Eviction provenance (leakage observability): every DEV and
     * inclusion invalidation is attributed to the *inducing* core — the
     * global core whose in-flight transaction forced the eviction.
     * Indexed by global core id; sized by CmpSystem's constructor. The
     * per-core sums always equal devInvalidations respectively
     * inclusionInvalidations (the provenance-conservation invariant).
     */
    std::vector<std::uint64_t> devByInducer;
    std::vector<std::uint64_t> inclusionByInducer;

    std::uint64_t accesses = 0;
    std::uint64_t l2Misses = 0;       //!< core cache misses (paper metric)
    std::uint64_t devInvalidations = 0; //!< DEV blocks invalidated
    std::uint64_t devOwnedInvalidations = 0; //!< of which M/E blocks
    std::uint64_t inclusionInvalidations = 0; //!< inclusive back-invs
    std::uint64_t threeHopReads = 0;
    std::uint64_t twoHopReads = 0;
    std::uint64_t llcDeEvictWbs = 0;  //!< WB_DE flows executed
    std::uint64_t getDeFlows = 0;     //!< GET_DE core-eviction flows
    std::uint64_t denfNacks = 0;      //!< racing-entry NACK flows
    std::uint64_t corruptedReadMisses = 0; //!< LLC misses to corrupted mem
    std::uint64_t corruptedResponses = 0;  //!< special corrupted responses
    std::uint64_t socketMisses = 0;
    std::uint64_t lastCopyRestores = 0; //!< memory un-corruption writes

    /** Per-service-class access counts and total latency cycles. */
    std::array<std::uint64_t,
               static_cast<std::size_t>(AccessClass::NumClasses)>
        classCount{};
    std::array<std::uint64_t,
               static_cast<std::size_t>(AccessClass::NumClasses)>
        classCycles{};

    double
    meanLatency(AccessClass c) const
    {
        const auto i = static_cast<std::size_t>(c);
        return classCount[i] == 0
                   ? 0.0
                   : static_cast<double>(classCycles[i]) /
                         static_cast<double>(classCount[i]);
    }
};

class CmpSystem
{
  public:
    explicit CmpSystem(const SystemConfig &cfg);
    ~CmpSystem(); //!< out-of-line: ProtocolBackend is incomplete here

    CmpSystem(const CmpSystem &) = delete;
    CmpSystem &operator=(const CmpSystem &) = delete;

    /**
     * Execute one memory access of global core @p gcore at time @p now.
     * @return the cycle at which the access completes.
     */
    Cycle access(CoreId gcore, AccessType type, BlockAddr block, Cycle now);

    const SystemConfig &config() const { return cfg_; }

    std::uint32_t totalCores() const
    {
        return cfg_.sockets * cfg_.coresPerSocket;
    }

    // --- Introspection (tests, invariant checks, examples) ---

    const PrivateCache &privateCache(SocketId s, CoreId c) const
    {
        return sockets_[s]->cores[c];
    }

    const Llc &llc(SocketId s) const { return sockets_[s]->llc; }
    const Mesh &mesh(SocketId s) const { return sockets_[s]->mesh; }
    const Dram &dram(SocketId s) const { return sockets_[s]->dram; }
    const MemoryStore &memStore(SocketId s) const
    {
        return sockets_[s]->memStore;
    }
    const TrafficStats &traffic(SocketId s) const
    {
        return sockets_[s]->traffic;
    }

    /** Tracking state of @p block within socket @p s (does not touch
     *  recency state or statistics; safe for invariant checking). */
    Tracking peekTracking(SocketId s, BlockAddr block) const;

    /** Socket-level directory entry of a home block (multi-socket). */
    SocketDirEntry peekSocketEntry(BlockAddr block) const;

    /** Home socket of @p block. */
    SocketId homeSocket(BlockAddr block) const;

    const ProtocolStats &protoStats() const { return proto_; }

    /** Distribution of sharing degrees observed when sharers join. */
    const Histogram &sharingDegreeHist() const { return sharingDegree_; }

    /** Distribution of copies invalidated per DEV order. */
    const Histogram &devSizeHist() const { return devSize_; }

    /** Directory organisation of socket @p s; null under DLS and under
     *  ZeroDEV with no sparse directory. */
    const DirOrgBase *dirOrg(SocketId s) const
    {
        return sockets_[s]->dirOrg.get();
    }

    /** Socket-directory statistics of socket @p s, or null. */
    const SocketDirStats *socketDirStats(SocketId s) const
    {
        return sockets_[s]->socketDir
                   ? &sockets_[s]->socketDir->stats()
                   : nullptr;
    }

    /** Aggregate interconnect bytes over all sockets. */
    std::uint64_t totalTrafficBytes() const;

    /** Aggregate DRAM stats over all sockets. */
    DramStats totalDramStats() const;

    /** Full statistics dump. */
    StatDump report() const;

    /** Attach (or detach, with null) a coherence tracer. The tracer must
     *  outlive the attachment; events flow only while it is enabled. */
    void attachTracer(obs::Tracer *t) { trc_ = t; }
    obs::Tracer *tracer() const { return trc_; }

    /** Attach (or detach, with null) a critical-path latency profiler.
     *  Same lifetime/cost contract as the tracer. */
    void attachLatencyProfiler(obs::LatencyProfiler *p) { lat_ = p; }
    obs::LatencyProfiler *latencyProfiler() const { return lat_; }

    // ----- snapshots (cmp_snapshot.cc / sim/snapshot.cc) -----

    /**
     * Serialize the complete architectural + statistics state: private
     * caches, directory organisation, LLC banks
     * including spilled/fused DE lines, memory-store DE regions, socket
     * directory, DRAM timing state and every counter. The stream begins
     * with the config fingerprint; restoreState() refuses a stream whose
     * fingerprint does not match its own config. Must be called between
     * transactions (never mid-access).
     */
    void saveState(SerialOut &out) const;

    /** Inverse of saveState() on a system built from the same config.
     *  On mismatch/corruption the error is reported through @p in. */
    void restoreState(SerialIn &in);

    /** Write / read a `zerodev-snapshot-v3` container file holding this
     *  system's state. Returns false and sets @p err on failure. */
    bool saveSnapshot(const std::string &path,
                      std::string *err = nullptr) const;
    bool restoreSnapshot(const std::string &path,
                         std::string *err = nullptr);

    /** The coherence protocol backend driving this system's misses,
     *  upgrades and private evictions (selected by cfg.protocol). */
    const ProtocolBackend &protocolBackend() const { return *backend_; }

  private:
    /** Backends are part of the protocol engine: they drive the private
     *  request/eviction machinery from outside this translation unit. */
    friend class ProtocolBackend;
    friend class MesiZeroDevBackend;
    friend class DlsBackend;
    friend class PhasePriorityBackend;

    struct Socket
    {
        Socket(const SystemConfig &cfg, SocketId id);

        SocketId id;
        std::vector<PrivateCache> cores;
        Llc llc;
        std::unique_ptr<DirOrgBase> dirOrg;
        Dram dram;
        MemoryStore memStore; //!< metadata of blocks homed here
        /** Socket-level directory cache of blocks homed here, over one
         *  of the two Section III-D5 backing schemes. */
        std::unique_ptr<SocketDirectory> socketDir;
        Mesh mesh;
        TrafficStats traffic;
    };

    // ----- construction helpers (cmp_system.cc) -----
    std::unique_ptr<DirOrgBase> buildDirOrg() const;

    // ----- address helpers -----
    SocketId socketOfCore(CoreId gcore) const
    {
        return gcore / cfg_.coresPerSocket;
    }
    CoreId localCore(CoreId gcore) const
    {
        return gcore % cfg_.coresPerSocket;
    }

    /** Model one protocol message on socket @p s's interconnect: the
     *  model only accounts its wire bytes. */
    static void send(Socket &s, MsgType t) { s.traffic.record(t); }

    /** Mesh latency from core tile to the block's home bank tile. */
    Cycle meshCoreToBank(Socket &s, CoreId c, BlockAddr block) const;
    /** Mesh latency from the home bank tile to a core tile. */
    Cycle meshBankToCore(Socket &s, BlockAddr block, CoreId c) const;
    /** Mesh latency core to core (forwarded responses). */
    Cycle meshCoreToCore(Socket &s, CoreId a, CoreId b) const;

    bool zeroDev() const { return cfg_.dirOrg == DirOrg::ZeroDev; }

    // ----- request handling (cmp_access.cc) -----
    //
    // The request flows extend the access's latency chain @p ch from its
    // running time; a separate @p now is the time stamp their state
    // updates (tracking writes, fills, DRAM writes) carry.

    void handleMiss(Socket &s, CoreId c, AccessType type, BlockAddr block,
                    obs::LatencyChain &ch);
    void handleUpgrade(Socket &s, CoreId c, BlockAddr block,
                       obs::LatencyChain &ch);

    /** Serve a request whose tracking entry was found in-socket. */
    void serveTracked(Socket &s, CoreId c, AccessType type, BlockAddr block,
                      Cycle now, Tracking &trk, LlcProbe &probe,
                      obs::LatencyChain &ch);

    /** Serve a socket miss (no tracking, no LLC block): memory and, in a
     *  multi-socket system, the Figure 15 flows. */
    void serveSocketMiss(Socket &s, CoreId c, AccessType type,
                         BlockAddr block, Cycle now, obs::LatencyChain &ch);

    // The protocol steps the flows share (Sections III-C/D).

    /** Core @p c's L1/L2 miss @p t crosses the mesh to the home bank,
     *  which looks up its LLC tags and directory slice. */
    void requestToBank(Socket &s, CoreId c, BlockAddr block, MsgType t,
                       obs::LatencyChain &ch);
    /** The home bank reads @p probe's data line (an LLC data hit). */
    void readLlcData(Socket &s, LlcProbe &probe, obs::LatencyChain &ch);
    /** Three-hop forward: bank -> core @p x's L2 -> requester @p c. */
    void forwardThrough(Socket &s, CoreId x, CoreId c, BlockAddr block,
                        obs::LatencyChain &ch) const;
    /** Invalidate the cores in @p sharers but @p c from @p base on;
     *  returns when the last acknowledgment reaches @p c. */
    Cycle invalidateSharers(Socket &s, const SharerSet &sharers, CoreId c,
                            BlockAddr block, Cycle base);
    /** Home @p h reads @p block's data from its DRAM. */
    void readHomeMemory(Socket &h, BlockAddr block, obs::LatencyChain &ch);
    /** Figure 15, step 3: the home returns its corrupted copy of @p block
     *  and socket @p s extracts its entry (one extra cycle). */
    DirEntry takeEntryFromCorruptedHome(Socket &s, BlockAddr block,
                                        obs::LatencyChain &ch);
    /** Serve a request from the caches the corrupted home block's entry
     *  for socket @p s lists. */
    void serveCorruptedHome(Socket &s, CoreId c, AccessType type,
                            BlockAddr block, Cycle now,
                            obs::LatencyChain &ch);
    /** Fill state of a request: stores M, ifetches S, loads S when other
     *  copies exist (@p shared), else E. */
    static MesiState fillState(AccessType type, bool shared);
    /** New entry of core @p c in @p st: a sharer for S, else the owner. */
    static DirEntry entryFor(CoreId c, MesiState st);
    /** A socket miss's data reached @p c: allocate the LLC copy per
     *  flavour, track @p c and fill it in @p st. */
    void fillSocketMiss(Socket &s, CoreId c, AccessType type,
                        BlockAddr block, MesiState st, bool llc_dirty,
                        bool global_shared, Cycle now);

    /** Fill the requesting core (and LLC per flavour) after data arrived;
     *  returns the private-eviction follow-up it triggered. */
    void fillCore(Socket &s, CoreId c, AccessType type, BlockAddr block,
                  MesiState state, Cycle now);

    /** Allocate a data block in the LLC (per flavour), handling the
     *  victim (writebacks, DE-eviction flows, inclusive back-invs). */
    void llcAllocData(Socket &s, BlockAddr block, bool dirty, Cycle now,
                      bool global_exclusive);

    /** Update the existing LLC copy of @p block or allocate one (used by
     *  sharing writebacks and dirty-DEV retrievals). */
    void llcWritebackData(Socket &s, BlockAddr block, bool dirty,
                          Cycle now);

    /** EPD: drop @p block from the LLC because it turned M/E-private. */
    void epdDeallocate(Socket &s, BlockAddr block);

    /** Invalidate every private copy listed in @p inv (a forced directory
     *  eviction: the DEV path) and clean up data movement. */
    void applyInvalidation(Socket &s, const Invalidation &inv, Cycle now);

    // ----- eviction handling (cmp_evict.cc) -----
    void handlePrivateEviction(Socket &s, CoreId c,
                               const PrivateEviction &ev, Cycle now);

    /** Eviction notice whose directory entry is not in the socket:
     *  Figure 16 (GET_DE) flow. */
    void evictionWithoutEntry(Socket &s, CoreId c, BlockAddr block,
                              MesiState st, Cycle now);

    /** The evicting core removed the socket's last copy: notify the home
     *  socket, restoring corrupted memory when it was the system-wide
     *  last copy (Section III-D4). */
    void lastCopyInSocketGone(Socket &s, BlockAddr block,
                              bool data_written_back, Cycle now);

    /** Section III-D4: the system-wide last copy of destroyed @p block
     *  overwrites the corrupted home memory block. */
    void restoreLastCopy(BlockAddr block, Cycle now);

    /** Handle an LLC victim produced by any allocation. */
    void handleLlcVictim(Socket &s, const LlcVictim &victim, Cycle now);

    /** Inclusive LLC: a data eviction back-invalidates the core caches. */
    void inclusionInvalidate(Socket &s, BlockAddr block, Cycle now);

    /** Inclusive LLC: invalidate the cores in @p sharers and write a
     *  dirty copy back home. */
    void backInvalidate(Socket &s, const SharerSet &sharers,
                        BlockAddr block, Cycle now);

    // ----- ZeroDEV tracking management (zerodev_policies.cc) -----

    /** Find the in-socket tracking of @p block (touches recency). When
     *  the search reaches the LLC tags and @p llcProbe is given, the
     *  probe it made is left there for a caller that needs the block's
     *  LLC lines next (recency updates do not move them). */
    Tracking findTracking(Socket &s, BlockAddr block,
                          std::optional<LlcProbe> *llcProbe = nullptr);

    /** peekTracking() as a protocol step: falling through to the LLC
     *  counts a tag lookup, like every other probe the flows make. */
    Tracking peekTrackingCounted(Socket &s, BlockAddr block);

    /**
     * Write back the (possibly updated) tracking state of @p block.
     * @p where must be the location findTracking reported. A dead entry
     * erases the tracking; transitions S <-> M/E maintain the FPSS
     * fuse/spill invariants; brand-new entries go through
     * installNewTracking().
     */
    void writeTracking(Socket &s, BlockAddr block, TrackWhere where,
                       const DirEntry &entry, Cycle now);

    /** Install a brand-new entry in the organisation; an entry it
     *  refuses (ZeroDEV's full replacement-disabled set) or a ZeroDEV
     *  socket without one goes to the LLC. */
    void installNewTracking(Socket &s, BlockAddr block,
                            const DirEntry &entry, Cycle now);

    /** Write @p entry through the organisation and apply the forced
     *  invalidations it reports, reusing invScratch_. Returns false when
     *  the organisation refused the entry. */
    bool applyOrgSet(Socket &s, BlockAddr block, const DirEntry &entry,
                     Cycle now);

    /** Accommodate @p entry in the LLC per the configured policy. */
    void cacheEntryInLlc(Socket &s, BlockAddr block, const DirEntry &entry,
                         Cycle now);

    /** WB_DE: a live entry was evicted from the LLC (Figure 14). */
    void writebackEntryToMemory(Socket &s, BlockAddr block,
                                const DirEntry &entry, Cycle now);

    /** Extract socket @p s's entry for @p block from home memory,
     *  clearing its segment. Returns nullopt if none is housed. */
    std::optional<DirEntry> extractEntryFromMemory(Socket &s,
                                                   BlockAddr block,
                                                   Cycle now);

    // ----- multi-socket (multi_socket.cc) -----

    Socket &home(BlockAddr block) { return *sockets_[homeSocket(block)]; }

    /** Socket-level directory entry at the home (untimed access for
     *  update paths; the timed miss-path lives in serveSocketMissMulti). */
    SocketDirEntry &socketEntry(BlockAddr block);

    /** Figure 15 socket-miss flows (sockets > 1). */
    void serveSocketMissMulti(Socket &s, CoreId c, AccessType type,
                              BlockAddr block, Cycle now,
                              obs::LatencyChain &ch);

    /** Invalidate every other socket's copies of @p block before a local
     *  store issued at @p base completes (no-op in one socket). */
    void invalidateRemoteSharers(Socket &s, BlockAddr block, Cycle base,
                                 Cycle now, obs::LatencyChain &ch);

    /** Drop socket @p g's copies of @p block: its cores', the tracking
     *  @p trk found (else its home segment), its LLC lines. */
    void dropSocketCopies(Socket &g, BlockAddr block, const Tracking &trk,
                          Cycle now);
    /** dropSocketCopies() for each socket @p se lists but @p keep,
     *  removed from @p se; returns the sockets dropped. */
    SocketSet dropOtherSockets(SocketDirEntry &se, SocketId keep,
                               BlockAddr block, Cycle now);
    /** Invalidate the LLC lines @p probe found in socket @p s. */
    static void dropLlcLines(Socket &s, LlcProbe &probe);

    /** Remove socket @p s from the socket-level entry of @p block,
     *  restoring destroyed memory data when the system-wide last copy is
     *  leaving (@p restore_data supplies it from the evicting cache). */
    void socketEvictionNotice(SocketId s, BlockAddr block,
                              bool restore_data, Cycle now);

    /**
     * Figure 15: fetch @p block for socket @p s from another socket F
     * that the (corrupted-state) home entry lists as a sharer/owner.
     */
    void forwardToSharerSocket(Socket &s, AccessType type, BlockAddr block,
                               SocketDirEntry &sentry,
                               obs::LatencyChain &ch);

    /** Within socket F: find the block via its tracking and supply it
     *  (invalidating/downgrading as the request demands). */
    void supplyFromSocket(Socket &f, BlockAddr block, bool invalidate_all,
                          obs::LatencyChain &ch);

    /** A forward reaches socket @p f's supplier of @p block (@p entry's
     *  owner, else a sharer) and returns it. */
    CoreId reachSupplier(Socket &f, BlockAddr block, const DirEntry &entry,
                         obs::LatencyChain &ch);

    /** Account the finished access in its service class and the
     *  attached profiler, emit the transaction-completion trace event,
     *  and return the completion time (cmp_system.cc). */
    Cycle finishAccess(const obs::LatencyChain &ch);

    /** Attribute one DEV / inclusion invalidation to the inducing core
     *  of the in-flight transaction (provenance). */
    void noteDevInvalidation();
    void noteInclusionInvalidation();

    SystemConfig cfg_;
    std::vector<std::unique_ptr<Socket>> sockets_;
    /** Constructed after the sockets (it may cache per-socket pointers). */
    std::unique_ptr<ProtocolBackend> backend_;
    ProtocolStats proto_;
    Histogram sharingDegree_{kMaxCores};
    Histogram devSize_{kMaxCores};
    obs::Tracer *trc_ = nullptr;
    obs::LatencyProfiler *lat_ = nullptr;
    /** Reusable forced-invalidation buffer for applyOrgSet(): hoists a
     *  per-access heap allocation out of the baseline-organisation hot
     *  path (borrowed via swap, so re-entrant DEV handling is safe). */
    std::vector<Invalidation> invScratch_;
    std::uint64_t txn_ = 0;   //!< id of the in-flight transaction
    CoreId txnCore_ = 0;      //!< global core that issued it
    BlockAddr txnBlock_ = 0;  //!< block it targets
};

} // namespace zerodev

#endif // ZERODEV_CORE_CMP_SYSTEM_HH
