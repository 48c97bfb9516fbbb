/**
 * @file
 * Directed protocol tests for the DLS backend: the directoryless
 * shared-LLC protocol in which the home LLC bank is the serialization
 * point. Loads fill Shared (2-hop from the LLC, 3-hop core-to-core),
 * stores take system-wide exclusivity (every other holder invalidated,
 * the LLC data line removed), M victims write back into the LLC — and,
 * because nothing ever tracks sharers, there are no directory eviction
 * victims and memory data is never destroyed.
 */

#include <gtest/gtest.h>

#include "core/cmp_system.hh"
#include "core/invariants.hh"
#include "test_util.hh"

namespace zerodev
{
namespace
{

using testutil::llcConflictBlock;

SystemConfig
tinyDls()
{
    SystemConfig cfg = testutil::tinyConfig();
    cfg.name = "tiny-dls";
    cfg.protocol = ProtocolKind::Dls;
    return cfg;
}

Cycle
touch(CmpSystem &sys, CoreId core, AccessType t, BlockAddr b, Cycle now)
{
    return sys.access(core, t, b, now);
}

TEST(Dls, NoDirectoryStructureExists)
{
    CmpSystem sys(tinyDls());
    touch(sys, 0, AccessType::Store, 100, 0);
    touch(sys, 1, AccessType::Load, 200, 1000);
    // DLS builds no directory organisation; the LLC banks alone
    // serialize requests.
    EXPECT_EQ(sys.dirOrg(0), nullptr);
    EXPECT_EQ(sys.protoStats().devInvalidations, 0u);
    assertInvariants(sys);
}

TEST(Dls, LoadMissFillsSharedFromMemory)
{
    CmpSystem sys(tinyDls());
    touch(sys, 0, AccessType::Load, 100, 0);
    // MSI: even a sole reader fills Shared, never Exclusive.
    EXPECT_EQ(sys.privateCache(0, 0).state(100), MesiState::Shared);
    EXPECT_EQ(sys.protoStats().socketMisses, 1u);
    // The memory fill left a clean copy at the serializing bank.
    LlcProbe p = const_cast<Llc &>(sys.llc(0)).probe(100);
    ASSERT_NE(p.data, nullptr);
    EXPECT_EQ(p.data->kind, LlcLineKind::Data);
    assertInvariants(sys);
}

TEST(Dls, SecondLoadHitsTheLlcTwoHop)
{
    CmpSystem sys(tinyDls());
    touch(sys, 0, AccessType::Load, 100, 0);
    const auto two_before = sys.protoStats().twoHopReads;
    touch(sys, 1, AccessType::Load, 100, 5000);
    EXPECT_EQ(sys.protoStats().twoHopReads, two_before + 1);
    EXPECT_EQ(sys.privateCache(0, 0).state(100), MesiState::Shared);
    EXPECT_EQ(sys.privateCache(0, 1).state(100), MesiState::Shared);
    assertInvariants(sys);
}

TEST(Dls, ModifiedOwnerForwardsThreeHopAndDowngrades)
{
    CmpSystem sys(tinyDls());
    touch(sys, 0, AccessType::Store, 100, 0); // M, LLC line removed
    const auto three_before = sys.protoStats().threeHopReads;
    touch(sys, 1, AccessType::Load, 100, 5000);
    // The bank found no data line and forwarded to the M owner, which
    // downgraded and refilled the LLC with its dirty data.
    EXPECT_EQ(sys.protoStats().threeHopReads, three_before + 1);
    EXPECT_EQ(sys.privateCache(0, 0).state(100), MesiState::Shared);
    EXPECT_EQ(sys.privateCache(0, 1).state(100), MesiState::Shared);
    LlcProbe p = const_cast<Llc &>(sys.llc(0)).probe(100);
    ASSERT_NE(p.data, nullptr);
    EXPECT_EQ(p.data->kind, LlcLineKind::Data);
    EXPECT_GE(sys.report().get("backend.snoop_supplies"), 1.0);
    assertInvariants(sys);
}

TEST(Dls, StoreMissInvalidatesSharersAndRemovesTheLlcLine)
{
    CmpSystem sys(tinyDls());
    touch(sys, 0, AccessType::Load, 100, 0); // S + LLC copy
    touch(sys, 1, AccessType::Store, 100, 5000);
    // Writer exclusivity: the reader is gone and so is the LLC line.
    EXPECT_EQ(sys.privateCache(0, 0).state(100), MesiState::Invalid);
    EXPECT_EQ(sys.privateCache(0, 1).state(100), MesiState::Modified);
    LlcProbe p = const_cast<Llc &>(sys.llc(0)).probe(100);
    EXPECT_EQ(p.data, nullptr);
    // Not through any directory channel: no DEVs exist under DLS.
    EXPECT_EQ(sys.protoStats().devInvalidations, 0u);
    assertInvariants(sys);
}

TEST(Dls, CrossCoreUpgradeInvalidatesTheOtherSharer)
{
    CmpSystem sys(tinyDls());
    touch(sys, 0, AccessType::Load, 100, 0);
    touch(sys, 1, AccessType::Load, 100, 1000); // S + S
    touch(sys, 0, AccessType::Store, 100, 2000); // upgrade race winner
    EXPECT_EQ(sys.privateCache(0, 0).state(100), MesiState::Modified);
    EXPECT_EQ(sys.privateCache(0, 1).state(100), MesiState::Invalid);
    LlcProbe p = const_cast<Llc &>(sys.llc(0)).probe(100);
    EXPECT_EQ(p.data, nullptr);
    assertInvariants(sys);
}

TEST(Dls, DirtyVictimWritesBackDuringConflictingFills)
{
    CmpSystem sys(tinyDls());
    Cycle t = 0;
    const BlockAddr x = 1024; // L2 set 0 of the tiny config
    touch(sys, 0, AccessType::Store, x, t);
    // Fill core 0's L2 set 0 until x is evicted mid-fill-stream: the M
    // victim must ride the writeback path into the LLC.
    for (BlockAddr b = 1032; b < 1032 + 9 * 8; b += 8)
        t = touch(sys, 0, AccessType::Load, b, t + 100);
    EXPECT_EQ(sys.privateCache(0, 0).state(x), MesiState::Invalid);
    // The written-back data serves the next reader 2-hop, not from
    // memory (a memory fill would lose the store).
    const auto misses_before = sys.protoStats().socketMisses;
    const auto two_before = sys.protoStats().twoHopReads;
    touch(sys, 1, AccessType::Load, x, t + 5000);
    EXPECT_EQ(sys.protoStats().socketMisses, misses_before);
    EXPECT_EQ(sys.protoStats().twoHopReads, two_before + 1);
    assertInvariants(sys);
}

TEST(Dls, EvictionDuringFillKeepsOneLlcSetConsistent)
{
    CmpSystem sys(tinyDls());
    Cycle t = 0;
    // Hammer one LLC set far past its associativity with a write-heavy
    // mix from both cores: every fill evicts, and stores race the
    // evictions for the same lines.
    for (std::uint32_t i = 0; i < 200; ++i) {
        const CoreId c = i % 2;
        const AccessType a =
            (i % 3 == 0) ? AccessType::Store : AccessType::Load;
        t = touch(sys, c, a, llcConflictBlock(i % 40), t + 10);
        if (i % 32 == 0)
            assertInvariants(sys);
    }
    EXPECT_EQ(sys.protoStats().devInvalidations, 0u);
    assertInvariants(sys);
}

TEST(Dls, StressNeverDestroysMemoryOrDeliversInvalidations)
{
    CmpSystem sys(tinyDls());
    Cycle t = 0;
    for (std::uint32_t i = 0; i < 3000; ++i) {
        const CoreId c = i % 2;
        const BlockAddr b = (i * 37) % 4096;
        const AccessType a = (i % 5 == 0) ? AccessType::Store
                           : (i % 7 == 0) ? AccessType::Ifetch
                                          : AccessType::Load;
        t = touch(sys, c, a, b, t + 10);
    }
    // The rival's pitch: no directory, so no directory-induced
    // invalidations of any kind, and no entry-to-memory flows so memory
    // data is never destroyed.
    EXPECT_EQ(sys.protoStats().devInvalidations, 0u);
    EXPECT_EQ(sys.protoStats().inclusionInvalidations, 0u);
    std::uint64_t destroyed = 0;
    sys.memStore(0).forEachDestroyed([&](BlockAddr) { ++destroyed; });
    EXPECT_EQ(destroyed, 0u);
    assertInvariants(sys);
}

} // namespace
} // namespace zerodev
