/**
 * @file
 * Directed tests of the inter-socket flows (Figures 13-16): socket-level
 * directory states, cross-socket forwards, the corrupted-block special
 * responses, the DENF_NACK racing-entry flow and socket-level eviction
 * notices with last-copy restoration.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "common/serialize.hh"
#include "core/cmp_system.hh"
#include "core/invariants.hh"
#include "obs/latency.hh"
#include "obs/trace.hh"
#include "test_util.hh"
#include "verify/differ.hh"

namespace zerodev
{
namespace
{

SystemConfig
quadTiny(bool zerodev)
{
    SystemConfig cfg = testutil::tinyConfig();
    cfg.sockets = 4;
    cfg.name = "tiny4";
    if (zerodev) {
        applyZeroDev(cfg, 0.0);
        cfg.llcReplPolicy = LlcReplPolicy::Lru; // let entries reach memory
        cfg.dirCachePolicy = DirCachePolicy::SpillAll;
    }
    return cfg;
}

/** Global core id of core @p c in socket @p s (2 cores per socket). */
CoreId
gc(SocketId s, CoreId c)
{
    return s * 2 + c;
}

/** Core 1 of socket @p s loads 39 blocks that share x's LLC set, from
 *  time @p t on, until the socket's entry for x is written back to home
 *  memory (WB_DE); the accesses go through @p access(core, type, block,
 *  now). Returns the last completion time. */
template <class Access>
Cycle
floodLlcSet(SocketId s, Cycle t, Access &&access)
{
    for (std::uint32_t i = 1; i < 40; ++i)
        t = access(gc(s, 1), AccessType::Load,
                   testutil::llcConflictBlock(i), t + 200);
    return t;
}

/** Sockets 0 and 1 share x, socket 0's entry goes to home memory, then
 *  socket 3 stores. The home forwards to socket 0 (DENF_NACK) and must
 *  also drop socket 1, the sharer socket the forward did not reach. */
template <class Access>
void
corruptedStoreWithThirdSharer(BlockAddr x, Access &&access)
{
    access(gc(0, 0), AccessType::Load, x, 0);
    const Cycle t = access(gc(1, 0), AccessType::Load, x, 1000);
    const Cycle flooded = floodLlcSet(0, t, access);
    access(gc(3, 0), AccessType::Store, x, flooded + 100000);
}

TEST(MultiSocket, HomeInterleaveCoversAllSockets)
{
    CmpSystem sys(quadTiny(false));
    bool seen[4] = {false, false, false, false};
    for (BlockAddr b = 0; b < 1024; b += 64)
        seen[sys.homeSocket(b)] = true;
    EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]);
}

TEST(MultiSocket, ColdFillSetsSocketOwned)
{
    CmpSystem sys(quadTiny(false));
    const BlockAddr b = 100;
    sys.access(gc(1, 0), AccessType::Load, b, 0);
    EXPECT_EQ(sys.privateCache(1, 0).state(b), MesiState::Exclusive);
    const SocketDirEntry se = sys.peekSocketEntry(b);
    EXPECT_EQ(se.state, SocketDirState::Owned);
    EXPECT_TRUE(se.isSharer(1));
    assertInvariants(sys);
}

TEST(MultiSocket, CrossSocketReadForwardsAndShares)
{
    CmpSystem sys(quadTiny(false));
    const BlockAddr b = 100;
    sys.access(gc(1, 0), AccessType::Store, b, 0);
    sys.access(gc(2, 0), AccessType::Load, b, 100000);
    EXPECT_EQ(sys.privateCache(1, 0).state(b), MesiState::Shared);
    EXPECT_EQ(sys.privateCache(2, 0).state(b), MesiState::Shared);
    const SocketDirEntry se = sys.peekSocketEntry(b);
    EXPECT_EQ(se.state, SocketDirState::Shared);
    EXPECT_TRUE(se.isSharer(1));
    EXPECT_TRUE(se.isSharer(2));
    assertInvariants(sys);
}

TEST(MultiSocket, CrossSocketStoreInvalidatesOtherSockets)
{
    CmpSystem sys(quadTiny(false));
    const BlockAddr b = 100;
    sys.access(gc(1, 0), AccessType::Load, b, 0);
    sys.access(gc(2, 0), AccessType::Load, b, 100000);
    sys.access(gc(3, 0), AccessType::Store, b, 200000);
    EXPECT_EQ(sys.privateCache(1, 0).state(b), MesiState::Invalid);
    EXPECT_EQ(sys.privateCache(2, 0).state(b), MesiState::Invalid);
    EXPECT_EQ(sys.privateCache(3, 0).state(b), MesiState::Modified);
    const SocketDirEntry se = sys.peekSocketEntry(b);
    EXPECT_EQ(se.state, SocketDirState::Owned);
    EXPECT_TRUE(se.isSharer(3));
    EXPECT_EQ(se.count(), 1u);
    assertInvariants(sys);
}

TEST(MultiSocket, RemoteAccessIsSlowerThanLocal)
{
    CmpSystem sys(quadTiny(false));
    // Find a block homed at socket 0 and one homed at socket 1.
    BlockAddr local = 0, remote = 0;
    for (BlockAddr b = 0; b < 4096; b += 1) {
        if (sys.homeSocket(b) == 0 && local == 0)
            local = b;
        if (sys.homeSocket(b) == 1 && remote == 0)
            remote = b;
        if (local && remote)
            break;
    }
    const Cycle t_local =
        sys.access(gc(0, 0), AccessType::Load, local, 0);
    CmpSystem sys2(quadTiny(false));
    const Cycle t_remote =
        sys2.access(gc(0, 0), AccessType::Load, remote, 0);
    EXPECT_GT(t_remote, t_local);
    assertInvariants(sys);
}

TEST(MultiSocket, ZeroDevEntryEvictionCorruptsSocketEntry)
{
    CmpSystem sys(quadTiny(true));
    Cycle t = 0;
    const BlockAddr x = testutil::llcConflictBlock(0);
    sys.access(gc(0, 0), AccessType::Store, x, t);
    // Flood socket 0's LLC set from its other core.
    for (std::uint32_t i = 1; i < 40; ++i)
        t = sys.access(gc(0, 1), AccessType::Load,
                       testutil::llcConflictBlock(i), t + 200);
    ASSERT_GT(sys.protoStats().llcDeEvictWbs, 0u);
    const SocketDirEntry se = sys.peekSocketEntry(x);
    if (sys.memStore(sys.homeSocket(x)).hasSegment(x, 0)) {
        EXPECT_EQ(se.state, SocketDirState::Corrupted);
        EXPECT_TRUE(se.isSharer(0));
    }
    EXPECT_EQ(sys.protoStats().devInvalidations, 0u);
    assertInvariants(sys);
}

TEST(MultiSocket, CorruptedForwardServesRemoteReader)
{
    CmpSystem sys(quadTiny(true));
    Cycle t = 0;
    const BlockAddr x = testutil::llcConflictBlock(0);
    sys.access(gc(0, 0), AccessType::Store, x, t);
    for (std::uint32_t i = 1; i < 40; ++i)
        t = sys.access(gc(0, 1), AccessType::Load,
                       testutil::llcConflictBlock(i), t + 200);
    const SocketId h = sys.homeSocket(x);
    if (!sys.memStore(h).hasSegment(x, 0))
        GTEST_SKIP() << "entry did not reach memory in this layout";

    // A reader in another socket: the home sees a corrupted entry and
    // forwards to socket 0, whose in-socket entry is gone -> DENF_NACK.
    const auto denf_before = sys.protoStats().denfNacks;
    sys.access(gc(2, 0), AccessType::Load, x, t + 100000);
    EXPECT_EQ(sys.privateCache(2, 0).state(x), MesiState::Shared);
    EXPECT_EQ(sys.privateCache(0, 0).state(x), MesiState::Shared);
    EXPECT_GT(sys.protoStats().denfNacks, denf_before);
    EXPECT_EQ(sys.protoStats().devInvalidations, 0u);
    assertInvariants(sys);
}

TEST(MultiSocket, CorruptedStoreInvalidatesEverythingAndStaysCorrupted)
{
    CmpSystem sys(quadTiny(true));
    Cycle t = 0;
    const BlockAddr x = testutil::llcConflictBlock(0);
    sys.access(gc(0, 0), AccessType::Store, x, t);
    for (std::uint32_t i = 1; i < 40; ++i)
        t = sys.access(gc(0, 1), AccessType::Load,
                       testutil::llcConflictBlock(i), t + 200);
    const SocketId h = sys.homeSocket(x);
    if (!sys.memStore(h).hasSegment(x, 0))
        GTEST_SKIP() << "entry did not reach memory in this layout";

    sys.access(gc(3, 0), AccessType::Store, x, t + 100000);
    EXPECT_EQ(sys.privateCache(0, 0).state(x), MesiState::Invalid);
    EXPECT_EQ(sys.privateCache(3, 0).state(x), MesiState::Modified);
    EXPECT_EQ(sys.protoStats().devInvalidations, 0u);
    assertInvariants(sys);
}

TEST(MultiSocket, CorruptedStoreDropsEveryOtherSharerSocket)
{
    CmpSystem sys(quadTiny(true));
    const BlockAddr x = testutil::llcConflictBlock(0);
    corruptedStoreWithThirdSharer(
        x, [&](CoreId c, AccessType a, BlockAddr b, Cycle now) {
            return sys.access(c, a, b, now);
        });
    ASSERT_GT(sys.protoStats().denfNacks, 0u)
        << "socket 0's entry did not reach memory in this layout";

    EXPECT_EQ(sys.privateCache(3, 0).state(x), MesiState::Modified);
    for (SocketId g : {0u, 1u}) {
        for (CoreId c = 0; c < 2; ++c)
            EXPECT_EQ(sys.privateCache(g, c).state(x), MesiState::Invalid)
                << "socket " << g << " core " << c;
        EXPECT_FALSE(sys.peekTracking(g, x).found()) << "socket " << g;
        const LlcProbe p = sys.llc(g).peek(x);
        EXPECT_EQ(p.data, nullptr) << "socket " << g;
        EXPECT_EQ(p.spilled, nullptr) << "socket " << g;
        EXPECT_FALSE(sys.memStore(sys.homeSocket(x)).hasSegment(x, g));
    }
    const SocketDirEntry se = sys.peekSocketEntry(x);
    EXPECT_EQ(se.state, SocketDirState::Corrupted);
    EXPECT_TRUE(se.isSharer(3));
    EXPECT_EQ(se.count(), 1u);
    EXPECT_EQ(sys.protoStats().devInvalidations, 0u);
    assertInvariants(sys);
}

TEST(MultiSocket, LastCopyEvictionRestoresMemory)
{
    CmpSystem sys(quadTiny(true));
    Cycle t = 0;
    const BlockAddr x = testutil::llcConflictBlock(0);
    sys.access(gc(0, 0), AccessType::Load, x, t);
    for (std::uint32_t i = 1; i < 40; ++i)
        t = sys.access(gc(0, 1), AccessType::Load,
                       testutil::llcConflictBlock(i), t + 200);
    const SocketId h = sys.homeSocket(x);
    if (!sys.memStore(h).destroyed(x))
        GTEST_SKIP() << "entry did not reach memory in this layout";

    // Evict x from core (0,0): L2 set = x & 7 = 0, stride 8.
    for (BlockAddr b = 1 << 14; b < (1 << 14) + 9 * 8; b += 8)
        t = sys.access(gc(0, 0), AccessType::Load, b, t + 200);
    EXPECT_EQ(sys.privateCache(0, 0).state(x), MesiState::Invalid);
    EXPECT_FALSE(sys.memStore(h).destroyed(x));
    const SocketDirEntry se = sys.peekSocketEntry(x);
    EXPECT_EQ(se.state, SocketDirState::Invalid);
    assertInvariants(sys);
}

TEST(MultiSocket, BaselineQuadSocketStress)
{
    CmpSystem sys(quadTiny(false));
    Cycle t = 0;
    for (std::uint32_t i = 0; i < 4000; ++i) {
        const CoreId c = i % 8;
        const BlockAddr b = (i * 131) % 2048;
        const AccessType a = (i % 4 == 0) ? AccessType::Store
                           : (i % 9 == 0) ? AccessType::Ifetch
                                          : AccessType::Load;
        t = sys.access(c, a, b, t + 10);
    }
    assertInvariants(sys);
}

TEST(MultiSocket, ZeroDevQuadSocketStressStaysDevFree)
{
    for (DirCachePolicy pol : {DirCachePolicy::SpillAll,
                               DirCachePolicy::Fpss}) {
        SystemConfig cfg = quadTiny(true);
        cfg.dirCachePolicy = pol;
        CmpSystem sys(cfg);
        Cycle t = 0;
        for (std::uint32_t i = 0; i < 4000; ++i) {
            const CoreId c = i % 8;
            const BlockAddr b = (i * 131) % 2048;
            const AccessType a = (i % 4 == 0) ? AccessType::Store
                               : (i % 9 == 0) ? AccessType::Ifetch
                                              : AccessType::Load;
            t = sys.access(c, a, b, t + 10);
        }
        EXPECT_EQ(sys.protoStats().devInvalidations, 0u);
        assertInvariants(sys);
    }
}

/** Hash of everything a multi-socket run leaves observable: every
 *  access's completion cycle, every trace event, the latency profiler's
 *  per-class attribution and the final saveState() bytes (caches,
 *  directories, DRAM timing, per-socket message counts, counters). */
class FlowHash
{
  public:
    explicit FlowHash(CmpSystem &sys) : sys_(sys)
    {
        trc_.setEnabled(true);
        sys_.attachTracer(&trc_);
        sys_.attachLatencyProfiler(&prof_);
    }

    Cycle
    operator()(CoreId c, AccessType a, BlockAddr b, Cycle now)
    {
        const Cycle done = sys_.access(c, a, b, now);
        mix(done);
        EXPECT_EQ(trc_.dropped(), 0u);
        for (const obs::TraceEvent &e : trc_.events()) {
            mix(e.txn);
            mix(e.cycle);
            mix(e.dur);
            mix(e.block);
            mix(static_cast<std::uint64_t>(e.arg) << 32 |
                static_cast<std::uint64_t>(e.kind) << 24 |
                static_cast<std::uint64_t>(e.comp) << 16 | e.prov);
            mix(static_cast<std::uint64_t>(e.socket) << 8 | e.core);
        }
        trc_.clear();
        return done;
    }

    std::uint64_t
    finish()
    {
        const obs::LatencyBreakdown lb = prof_.snapshot();
        for (const auto &row : lb.classes) {
            mix(row.count);
            mix(row.cycles);
            for (std::uint64_t v : row.compCycles)
                mix(v);
        }
        for (std::uint64_t v : lb.background)
            mix(v);
        sys_.attachTracer(nullptr);
        sys_.attachLatencyProfiler(nullptr);
        SerialOut out;
        sys_.saveState(out);
        for (std::uint8_t byte : out.data())
            mix(byte);
        return h_;
    }

  private:
    void mix(std::uint64_t v) { h_ = (h_ ^ v) * 0x100000001b3ull; }

    CmpSystem &sys_;
    obs::Tracer trc_{1 << 12};
    obs::LatencyProfiler prof_;
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** The four-socket stress pattern of the stress tests above. */
std::uint64_t
quadStressHash(const SystemConfig &cfg)
{
    CmpSystem sys(cfg);
    FlowHash fh(sys);
    Cycle t = 0;
    for (std::uint32_t i = 0; i < 4000; ++i) {
        const CoreId c = i % 8;
        const BlockAddr b = (i * 131) % 2048;
        const AccessType a = (i % 4 == 0) ? AccessType::Store
                           : (i % 9 == 0) ? AccessType::Ifetch
                                          : AccessType::Load;
        t = fh(c, a, b, t + 10);
    }
    return fh.finish();
}

/** Two sockets of two cores on a tiny socket-directory cache, driven by
 *  a fuzz stream (conflict storms, churn and profile traffic). */
std::uint64_t
dualFuzzHash(SystemConfig cfg)
{
    cfg.sockets = 2;
    cfg.socketDirCacheSets = 8;
    cfg.socketDirCacheWays = 2;
    CmpSystem sys(cfg);
    FlowHash fh(sys);
    Cycle t = 0;
    for (const TraceRecord &r : verify::fuzzStream(1, 4, 8000))
        t = fh(r.core, r.access.type, r.access.block, t + 10);
    return fh.finish();
}

/** A directed scenario replayed under the hash; @p counter must have
 *  moved, proving the scenario reached its flow. */
template <class Scenario>
std::uint64_t
directedHash(Scenario &&scenario,
             std::uint64_t ProtocolStats::*counter)
{
    CmpSystem sys(quadTiny(true));
    FlowHash fh(sys);
    scenario(fh);
    EXPECT_GT(sys.protoStats().*counter, 0u);
    return fh.finish();
}

struct FlowPin
{
    const char *run;
    std::uint64_t hash;
};

// The multi-socket flows are fixed by the protocol: a host-side change
// to the engine must keep every one of these. A mismatch prints the
// line to paste here after an intentional protocol change.
constexpr FlowPin kFlowPins[] = {
    {"corrupted-forward-supply", 0xe5924f170234e4f1ull},
    {"corrupted-requester-sharer", 0xbe564f5e6bba7434ull},
    {"corrupted-store-third-sharer", 0x81d0edba8747f1d8ull},
    {"corrupted-upgrade", 0x32adbc29ad183473ull},
    {"denf-nack", 0x894a53fbaefe3358ull},
    {"dual-baseline", 0x2d8a0370b72e2c33ull},
    {"dual-fpss-socketdir", 0xfc94bbafbfb29e42ull},
    {"dual-fuseall-epd", 0x4532f6a7a206f679ull},
    {"dual-spillall-inclusive", 0xd6568e91a3843233ull},
    {"quad-baseline", 0x1bee9b73fc1c85fcull},
    {"quad-fpss", 0x0ba07066e74a8f0cull},
    {"quad-fpss-socketdir", 0xb3897d5fdd562a4dull},
    {"quad-spillall", 0xc00c8518001be97aull},
};

TEST(MultiSocket, FlowsPinned)
{
    std::map<std::string, std::uint64_t> runs;

    runs["quad-baseline"] = quadStressHash(quadTiny(false));
    SystemConfig quad = quadTiny(true);
    runs["quad-spillall"] = quadStressHash(quad);
    quad.dirCachePolicy = DirCachePolicy::Fpss;
    runs["quad-fpss"] = quadStressHash(quad);
    quad.socketDirZeroDev = true;
    runs["quad-fpss-socketdir"] = quadStressHash(quad);

    runs["dual-fpss-socketdir"] = dualFuzzHash([] {
        SystemConfig cfg = testutil::tinyZeroDev(
            1.0, DirCachePolicy::Fpss, LlcReplPolicy::Lru);
        cfg.socketDirZeroDev = true;
        return cfg;
    }());
    {
        SystemConfig cfg = testutil::tinyZeroDev(
            0.0, DirCachePolicy::FuseAll, LlcReplPolicy::Lru);
        cfg.llcFlavor = LlcFlavor::Epd;
        runs["dual-fuseall-epd"] = dualFuzzHash(cfg);
        cfg = testutil::tinyZeroDev(0.5, DirCachePolicy::SpillAll,
                                    LlcReplPolicy::Lru);
        cfg.llcFlavor = LlcFlavor::Inclusive;
        runs["dual-spillall-inclusive"] = dualFuzzHash(cfg);
        runs["dual-baseline"] = dualFuzzHash(testutil::tinyConfig());
    }

    // Directed corrupted-state flows around x = llcConflictBlock(0),
    // whose entry a flood of its LLC set pushes to home memory.
    const BlockAddr x = testutil::llcConflictBlock(0);
    runs["denf-nack"] = directedHash(
        [&](FlowHash &fh) {
            fh(gc(0, 0), AccessType::Store, x, 0);
            fh(gc(2, 0), AccessType::Load, x, floodLlcSet(0, 0, fh) + 100000);
        },
        &ProtocolStats::denfNacks);
    runs["corrupted-store-third-sharer"] = directedHash(
        [&](FlowHash &fh) { corruptedStoreWithThirdSharer(x, fh); },
        &ProtocolStats::denfNacks);
    runs["corrupted-requester-sharer"] = directedHash(
        [&](FlowHash &fh) {
            fh(gc(0, 0), AccessType::Store, x, 0);
            fh(gc(0, 1), AccessType::Load, x, floodLlcSet(0, 0, fh) + 100000);
        },
        &ProtocolStats::corruptedResponses);
    runs["corrupted-upgrade"] = directedHash(
        [&](FlowHash &fh) {
            fh(gc(0, 0), AccessType::Load, x, 0);
            const Cycle t = fh(gc(1, 0), AccessType::Load, x, 1000);
            fh(gc(0, 0), AccessType::Store, x, floodLlcSet(0, t, fh) + 100000);
        },
        &ProtocolStats::corruptedResponses);
    runs["corrupted-forward-supply"] = directedHash(
        [&](FlowHash &fh) {
            fh(gc(0, 0), AccessType::Load, x, 0);
            Cycle t = fh(gc(2, 0), AccessType::Load, x, 1000);
            t = floodLlcSet(2, t, fh);
            t = fh(gc(3, 0), AccessType::Load, x, t + 100000);
            fh(gc(1, 0), AccessType::Store, x, t + 100000);
        },
        &ProtocolStats::corruptedReadMisses);

    std::map<std::string, std::uint64_t> pins;
    for (const FlowPin &p : kFlowPins)
        pins[p.run] = p.hash;
    for (const auto &[run, hash] : runs) {
        char line[96];
        std::snprintf(line, sizeof line, "{\"%s\", 0x%016llxull},",
                      run.c_str(), static_cast<unsigned long long>(hash));
        const auto it = pins.find(run);
        if (it == pins.end()) {
            ADD_FAILURE() << "unpinned: " << line;
            continue;
        }
        EXPECT_EQ(it->second, hash) << line;
    }
    EXPECT_EQ(runs.size(), pins.size());
}

} // namespace
} // namespace zerodev
