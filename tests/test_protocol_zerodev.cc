/**
 * @file
 * Directed protocol tests for ZeroDEV: the replacement-disabled sparse
 * directory overflowing into the LLC, the three caching policies
 * (SpillAll / FPSS / FuseAll) and their fuse/spill state transitions, the
 * WB_DE entry-to-memory flow, the GET_DE eviction flow, last-copy memory
 * restoration, and — above all — the zero-DEV guarantee.
 */

#include <gtest/gtest.h>

#include "core/cmp_system.hh"
#include "core/invariants.hh"
#include "test_util.hh"

namespace zerodev
{
namespace
{

using testutil::dirConflictBlock;
using testutil::llcConflictBlock;
using testutil::tinyZeroDev;

Cycle
touch(CmpSystem &sys, CoreId core, AccessType t, BlockAddr b, Cycle now)
{
    return sys.access(core, t, b, now);
}

TEST(ZeroDev, NoDirAllEntriesLiveInLlc)
{
    CmpSystem sys(tinyZeroDev(0.0));
    EXPECT_EQ(sys.dirOrg(0), nullptr);
    touch(sys, 0, AccessType::Store, 100, 0);
    Tracking trk = sys.peekTracking(0, 100);
    ASSERT_TRUE(trk.found());
    // FPSS with a resident block and an Owned entry fuses.
    EXPECT_EQ(trk.where, TrackWhere::LlcFused);
    EXPECT_EQ(trk.entry.owner(), 0u);
    assertInvariants(sys);
}

TEST(ZeroDev, SharedEntrySpillsUnderFpss)
{
    CmpSystem sys(tinyZeroDev(0.0));
    touch(sys, 0, AccessType::Ifetch, 100, 0);
    Tracking trk = sys.peekTracking(0, 100);
    ASSERT_TRUE(trk.found());
    EXPECT_EQ(trk.where, TrackWhere::LlcSpilled);
    EXPECT_EQ(trk.entry.state, DirState::Shared);
    assertInvariants(sys);
}

TEST(ZeroDev, SpillAllAlwaysSpills)
{
    CmpSystem sys(tinyZeroDev(0.0, DirCachePolicy::SpillAll));
    touch(sys, 0, AccessType::Store, 100, 0);
    Tracking trk = sys.peekTracking(0, 100);
    ASSERT_TRUE(trk.found());
    EXPECT_EQ(trk.where, TrackWhere::LlcSpilled);
    assertInvariants(sys);
}

TEST(ZeroDev, FuseAllFusesSharedBlocks)
{
    CmpSystem sys(tinyZeroDev(0.0, DirCachePolicy::FuseAll));
    touch(sys, 0, AccessType::Ifetch, 100, 0);
    Tracking trk = sys.peekTracking(0, 100);
    ASSERT_TRUE(trk.found());
    EXPECT_EQ(trk.where, TrackWhere::LlcFused);
    EXPECT_EQ(trk.entry.state, DirState::Shared);
    assertInvariants(sys);
}

TEST(ZeroDev, FuseAllSharedReadIsThreeHop)
{
    CmpSystem sys(tinyZeroDev(0.0, DirCachePolicy::FuseAll));
    touch(sys, 0, AccessType::Ifetch, 100, 0);
    const auto three_before = sys.protoStats().threeHopReads;
    touch(sys, 1, AccessType::Ifetch, 100, 5000);
    // The fused block's data is corrupted: the read must be forwarded
    // to the elected sharer (Section III-C3).
    EXPECT_EQ(sys.protoStats().threeHopReads, three_before + 1);
    assertInvariants(sys);
}

TEST(ZeroDev, FpssSharedReadStaysTwoHop)
{
    CmpSystem sys(tinyZeroDev(0.0, DirCachePolicy::Fpss));
    touch(sys, 0, AccessType::Ifetch, 100, 0);
    const auto two_before = sys.protoStats().twoHopReads;
    touch(sys, 1, AccessType::Ifetch, 100, 5000);
    EXPECT_EQ(sys.protoStats().twoHopReads, two_before + 1);
    assertInvariants(sys);
}

TEST(ZeroDev, FpssUpgradeMovesSpilledToFused)
{
    CmpSystem sys(tinyZeroDev(0.0));
    touch(sys, 0, AccessType::Load, 100, 0);
    touch(sys, 1, AccessType::Load, 100, 1000); // downgrade: S + S
    Tracking trk = sys.peekTracking(0, 100);
    ASSERT_TRUE(trk.found());
    EXPECT_EQ(trk.where, TrackWhere::LlcSpilled);

    touch(sys, 1, AccessType::Store, 100, 2000); // upgrade
    trk = sys.peekTracking(0, 100);
    ASSERT_TRUE(trk.found());
    EXPECT_EQ(trk.where, TrackWhere::LlcFused);
    EXPECT_EQ(trk.entry.owner(), 1u);
    EXPECT_EQ(sys.privateCache(0, 0).state(100), MesiState::Invalid);
    assertInvariants(sys);
}

TEST(ZeroDev, FpssDowngradeMovesFusedToSpilled)
{
    CmpSystem sys(tinyZeroDev(0.0));
    touch(sys, 0, AccessType::Store, 100, 0); // fused, Owned
    touch(sys, 1, AccessType::Load, 100, 1000); // M -> S downgrade
    Tracking trk = sys.peekTracking(0, 100);
    ASSERT_TRUE(trk.found());
    EXPECT_EQ(trk.where, TrackWhere::LlcSpilled);
    EXPECT_EQ(trk.entry.state, DirState::Shared);
    EXPECT_EQ(trk.entry.count(), 2u);
    // The reconstructed block is a valid dirty data line again.
    LlcProbe p = const_cast<Llc &>(sys.llc(0)).probe(100);
    ASSERT_NE(p.data, nullptr);
    EXPECT_EQ(p.data->kind, LlcLineKind::Data);
    assertInvariants(sys);
}

TEST(ZeroDev, SparseDirectoryUsedWhenItHasRoom)
{
    CmpSystem sys(tinyZeroDev(1.0));
    touch(sys, 0, AccessType::Store, 100, 0);
    Tracking trk = sys.peekTracking(0, 100);
    ASSERT_TRUE(trk.found());
    EXPECT_EQ(trk.where, TrackWhere::Org);
    assertInvariants(sys);
}

TEST(ZeroDev, FullSparseSetOverflowsToLlcWithoutEviction)
{
    SystemConfig cfg = tinyZeroDev(0.125); // 1 set x 8 ways per slice
    CmpSystem sys(cfg);
    Cycle t = 0;
    for (std::uint32_t i = 0; i < 12; ++i)
        t = touch(sys, 0, AccessType::Store, dirConflictBlock(i, 0, 0, 1),
                  t + 100);
    // No DEVs, ever; the overflow entries live in the LLC.
    EXPECT_EQ(sys.protoStats().devInvalidations, 0u);
    ASSERT_NE(sys.dirOrg(0), nullptr);
    EXPECT_GT(sys.dirOrg(0)->orgStats().refusals, 0u);
    EXPECT_EQ(sys.dirOrg(0)->orgStats().forcedInvalidations, 0u);
    std::uint32_t in_llc = 0;
    for (std::uint32_t i = 0; i < 12; ++i) {
        Tracking trk = sys.peekTracking(0, dirConflictBlock(i, 0, 0, 1));
        ASSERT_TRUE(trk.found()) << i;
        if (trk.where == TrackWhere::LlcFused ||
            trk.where == TrackWhere::LlcSpilled) {
            ++in_llc;
        }
    }
    EXPECT_GE(in_llc, 4u);
    // Every block is still cached by core 0 (no invalidations).
    for (std::uint32_t i = 0; i < 12; ++i) {
        EXPECT_EQ(sys.privateCache(0, 0).state(dirConflictBlock(i, 0, 0, 1)),
                  MesiState::Modified);
    }
    assertInvariants(sys);
}

TEST(ZeroDev, LlcEntryEvictionGoesToMemoryWithoutInvalidation)
{
    // No sparse directory and plain LRU so spilled entries age out.
    CmpSystem sys(tinyZeroDev(0.0, DirCachePolicy::SpillAll,
                              LlcReplPolicy::Lru));
    Cycle t = 0;
    // Core 0 stores block X (spilled entry in LLC set 0), then floods
    // the same LLC set with other blocks until the entry is evicted.
    const BlockAddr x = llcConflictBlock(0);
    touch(sys, 0, AccessType::Store, x, t);
    for (std::uint32_t i = 1; i < 40; ++i)
        t = touch(sys, 1, AccessType::Load, llcConflictBlock(i), t + 100);

    EXPECT_EQ(sys.protoStats().devInvalidations, 0u);
    EXPECT_EQ(sys.privateCache(0, 0).state(x), MesiState::Modified);
    // The entry went through the WB_DE flow into home memory.
    EXPECT_GT(sys.protoStats().llcDeEvictWbs, 0u);
    Tracking trk = sys.peekTracking(0, x);
    if (!trk.found()) {
        auto seg = sys.memStore(0).loadSegment(x, 0);
        ASSERT_TRUE(seg.has_value());
        EXPECT_EQ(seg->owner(), 0u);
        EXPECT_TRUE(sys.memStore(0).destroyed(x));
    }
    assertInvariants(sys);
}

TEST(ZeroDev, AccessToEntryInMemoryRecoversIt)
{
    CmpSystem sys(tinyZeroDev(0.0, DirCachePolicy::SpillAll,
                              LlcReplPolicy::Lru));
    Cycle t = 0;
    const BlockAddr x = llcConflictBlock(0);
    touch(sys, 0, AccessType::Store, x, t);
    for (std::uint32_t i = 1; i < 40; ++i)
        t = touch(sys, 1, AccessType::Load, llcConflictBlock(i), t + 100);
    ASSERT_GT(sys.protoStats().llcDeEvictWbs, 0u);

    // Core 1 now reads X: the corrupted memory block is detected, the
    // entry extracted, and the data forwarded from core 0 (3-hop).
    touch(sys, 1, AccessType::Load, x, t + 10000);
    EXPECT_EQ(sys.privateCache(0, 0).state(x), MesiState::Shared);
    EXPECT_EQ(sys.privateCache(0, 1).state(x), MesiState::Shared);
    EXPECT_GT(sys.protoStats().corruptedResponses, 0u);
    EXPECT_EQ(sys.protoStats().devInvalidations, 0u);
    assertInvariants(sys);
}

TEST(ZeroDev, EvictionOfBlockWithEntryInMemoryUsesGetDe)
{
    CmpSystem sys(tinyZeroDev(0.0, DirCachePolicy::SpillAll,
                              LlcReplPolicy::Lru));
    Cycle t = 0;
    const BlockAddr x = llcConflictBlock(0); // L2 set of x: x & 7
    touch(sys, 0, AccessType::Load, x, t);
    for (std::uint32_t i = 1; i < 40; ++i)
        t = touch(sys, 1, AccessType::Load, llcConflictBlock(i), t + 100);
    ASSERT_TRUE(sys.memStore(0).destroyed(x));

    // Evict x from core 0's L2 set by filling it with conflicting
    // blocks (L2 set = block & 7; x = 64 so set 0, stride 8).
    for (BlockAddr b = 1024; b < 1024 + 9 * 8; b += 8)
        t = touch(sys, 0, AccessType::Load, b, t + 100);
    EXPECT_EQ(sys.privateCache(0, 0).state(x), MesiState::Invalid);
    EXPECT_GT(sys.protoStats().getDeFlows, 0u);
    // x was the last copy of a destroyed block: memory was restored.
    EXPECT_FALSE(sys.memStore(0).destroyed(x));
    EXPECT_GT(sys.protoStats().lastCopyRestores, 0u);
    assertInvariants(sys);
}

TEST(ZeroDev, DirtyEvictionRestoresDestroyedMemory)
{
    CmpSystem sys(tinyZeroDev(0.0, DirCachePolicy::SpillAll,
                              LlcReplPolicy::Lru));
    Cycle t = 0;
    const BlockAddr x = llcConflictBlock(0);
    touch(sys, 0, AccessType::Store, x, t); // M state
    for (std::uint32_t i = 1; i < 40; ++i)
        t = touch(sys, 1, AccessType::Load, llcConflictBlock(i), t + 100);
    ASSERT_TRUE(sys.memStore(0).destroyed(x));

    for (BlockAddr b = 1024; b < 1024 + 9 * 8; b += 8)
        t = touch(sys, 0, AccessType::Load, b, t + 100);
    EXPECT_EQ(sys.privateCache(0, 0).state(x), MesiState::Invalid);
    assertInvariants(sys);
}

TEST(ZeroDev, DataLruPreventsEntryEvictionBeforeBlock)
{
    CmpSystem sys(tinyZeroDev(0.0, DirCachePolicy::Fpss,
                              LlcReplPolicy::DataLru));
    Cycle t = 0;
    // Shared blocks: spilled entries co-resident with data lines.
    for (std::uint32_t i = 0; i < 12; ++i) {
        t = touch(sys, 0, AccessType::Ifetch, llcConflictBlock(i), t + 50);
        t = touch(sys, 1, AccessType::Ifetch, llcConflictBlock(i), t + 50);
    }
    // Flood with more shared blocks: data lines must be evicted before
    // any spilled entry, so "block in LLC but entry in memory" never
    // occurs (checked structurally here, and by the invariant pass).
    for (std::uint32_t i = 12; i < 30; ++i) {
        t = touch(sys, 0, AccessType::Ifetch, llcConflictBlock(i), t + 50);
        t = touch(sys, 1, AccessType::Ifetch, llcConflictBlock(i), t + 50);
    }
    const Llc &llc = sys.llc(0);
    llc.forEach([&](BlockAddr b, const LlcLine &l) {
        if (l.kind == LlcLineKind::Data) {
            // Its entry must be somewhere in the socket, not in memory.
            Tracking trk = sys.peekTracking(0, b);
            EXPECT_TRUE(trk.found())
                << "data line without in-socket entry";
        }
    });
    EXPECT_EQ(sys.protoStats().devInvalidations, 0u);
    assertInvariants(sys);
}

TEST(ZeroDev, InclusiveLlcNeverWritesEntriesToMemory)
{
    SystemConfig cfg = tinyZeroDev(0.0);
    cfg.llcFlavor = LlcFlavor::Inclusive;
    CmpSystem sys(cfg);
    Cycle t = 0;
    for (std::uint32_t i = 0; i < 40; ++i) {
        t = touch(sys, i % 2, AccessType::Load, llcConflictBlock(i),
                  t + 50);
    }
    EXPECT_EQ(sys.protoStats().llcDeEvictWbs, 0u);
    EXPECT_EQ(sys.protoStats().devInvalidations, 0u);
    assertInvariants(sys);
}

TEST(ZeroDev, EpdSpillsOwnedEntries)
{
    SystemConfig cfg = tinyZeroDev(0.0);
    cfg.llcFlavor = LlcFlavor::Epd;
    CmpSystem sys(cfg);
    touch(sys, 0, AccessType::Store, 100, 0);
    Tracking trk = sys.peekTracking(0, 100);
    ASSERT_TRUE(trk.found());
    // EPD: the M-state block is not in the LLC, so the entry must be
    // spilled even though it is Owned (Section III-E).
    EXPECT_EQ(trk.where, TrackWhere::LlcSpilled);
    EXPECT_EQ(trk.entry.state, DirState::Owned);
    assertInvariants(sys);
}

TEST(ZeroDev, StressManyBlocksStaysDevFree)
{
    for (DirCachePolicy pol : {DirCachePolicy::SpillAll,
                               DirCachePolicy::Fpss,
                               DirCachePolicy::FuseAll}) {
        CmpSystem sys(tinyZeroDev(0.125, pol));
        Cycle t = 0;
        for (std::uint32_t i = 0; i < 3000; ++i) {
            const CoreId c = i % 2;
            const BlockAddr b = (i * 37) % 4096;
            const AccessType a = (i % 5 == 0) ? AccessType::Store
                               : (i % 7 == 0) ? AccessType::Ifetch
                                              : AccessType::Load;
            t = touch(sys, c, a, b, t + 10);
        }
        EXPECT_EQ(sys.protoStats().devInvalidations, 0u)
            << toString(pol);
        assertInvariants(sys);
    }
}

} // namespace
} // namespace zerodev
