/**
 * @file
 * Unit tests for the private cache hierarchy (MESI states, inclusion of
 * the L1s in the L2, eviction notices) and the LLC (two-tag probes,
 * fuse/unfuse, spLRU and dataLRU victim selection).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "coherence/llc_bank.hh"
#include "coherence/private_cache.hh"
#include "common/serialize.hh"
#include "test_util.hh"

namespace zerodev
{
namespace
{

using testutil::llcConflictBlock;
using testutil::tinyConfig;

// Lines at their real width: the LLC payload fits a word (its entry is
// in the pool) and an L2 payload is its MESI state.
static_assert(sizeof(LlcLine) <= 8);
static_assert(sizeof(PrivateCache::L2Line) == 1);

TEST(PrivateCache, MissThenFillThenHit)
{
    PrivateCache pc(tinyConfig());
    EXPECT_EQ(pc.access(AccessType::Load, 100), CoreLookup::Miss);
    pc.fill(AccessType::Load, 100, MesiState::Exclusive);
    EXPECT_EQ(pc.state(100), MesiState::Exclusive);
    EXPECT_EQ(pc.access(AccessType::Load, 100), CoreLookup::L1Hit);
}

TEST(PrivateCache, SilentExclusiveToModifiedUpgrade)
{
    PrivateCache pc(tinyConfig());
    pc.fill(AccessType::Load, 100, MesiState::Exclusive);
    EXPECT_EQ(pc.access(AccessType::Store, 100), CoreLookup::L1Hit);
    EXPECT_EQ(pc.state(100), MesiState::Modified);
}

TEST(PrivateCache, StoreToSharedNeedsUpgrade)
{
    PrivateCache pc(tinyConfig());
    pc.fill(AccessType::Load, 100, MesiState::Shared);
    EXPECT_EQ(pc.access(AccessType::Store, 100), CoreLookup::NeedUpgrade);
    EXPECT_EQ(pc.state(100), MesiState::Shared); // unchanged until grant
    pc.upgradeToModified(100);
    EXPECT_EQ(pc.state(100), MesiState::Modified);
}

TEST(PrivateCache, L2HitAfterL1Eviction)
{
    SystemConfig cfg = tinyConfig();
    PrivateCache pc(cfg);
    // L1D: 2 KB 8-way = 32 blocks, 4 sets. Fill 9 blocks mapping to L1
    // set 0 but distinct L2 sets... use stride 4 (L1 sets) which is
    // also < L2 sets (8), so pick stride lcm: L1 set = b & 3, L2 set =
    // b & 7. Blocks 0, 8, 16, ... share L1 set 0 and L2 set 0.
    // L2 has 8 ways so the first 8 stay resident.
    for (BlockAddr b = 0; b < 8 * 4; b += 4)
        pc.fill(AccessType::Load, b, MesiState::Exclusive);
    // Block 0 was evicted from L1 (8-way, 9+ fills to set 0 happen for
    // blocks ending in the same L1 set) but may still be in L2.
    const CoreLookup r = pc.access(AccessType::Load, 0);
    EXPECT_TRUE(r == CoreLookup::L1Hit || r == CoreLookup::L2Hit);
}

TEST(PrivateCache, L2EvictionEmitsVictimAndDropsL1)
{
    SystemConfig cfg = tinyConfig();
    PrivateCache pc(cfg);
    // L2: 8 sets, 8 ways. Fill nine blocks of L2 set 0 (stride 8).
    PrivateEviction ev;
    for (BlockAddr b = 0; b < 9 * 8; b += 8) {
        ev = pc.fill(AccessType::Load, b, MesiState::Exclusive);
    }
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.state, MesiState::Exclusive);
    // The victim is gone from L2 and L1.
    EXPECT_EQ(pc.state(ev.block), MesiState::Invalid);
    EXPECT_EQ(pc.access(AccessType::Load, ev.block), CoreLookup::Miss);
}

TEST(PrivateCache, InvalidateReportsPriorStateAndCountsDevs)
{
    PrivateCache pc(tinyConfig());
    pc.fill(AccessType::Store, 100, MesiState::Modified);
    EXPECT_EQ(pc.invalidate(100, true), MesiState::Modified);
    EXPECT_EQ(pc.state(100), MesiState::Invalid);
    EXPECT_EQ(pc.stats().devInvalidations, 1u);
    // Invalidating an absent block is a no-op.
    EXPECT_EQ(pc.invalidate(100, true), MesiState::Invalid);
    EXPECT_EQ(pc.stats().devInvalidations, 1u);
}

TEST(PrivateCache, DowngradePreservesData)
{
    PrivateCache pc(tinyConfig());
    pc.fill(AccessType::Store, 100, MesiState::Modified);
    EXPECT_EQ(pc.downgrade(100), MesiState::Modified);
    EXPECT_EQ(pc.state(100), MesiState::Shared);
}

TEST(PrivateCache, SeparateInstructionAndDataL1)
{
    PrivateCache pc(tinyConfig());
    pc.fill(AccessType::Ifetch, 100, MesiState::Shared);
    EXPECT_EQ(pc.access(AccessType::Ifetch, 100), CoreLookup::L1Hit);
    // A data access to the same block misses the L1D but hits the L2.
    EXPECT_EQ(pc.access(AccessType::Load, 100), CoreLookup::L2Hit);
}

// An L1 hit finds its L2 line through the way byte, and must still
// touch it: otherwise a block hot in the L1 would age out of the L2 and
// take its L1 copy with it.
TEST(PrivateCache, L1HitsKeepL2Recency)
{
    PrivateCache pc(tinyConfig());
    // Stride 8 stays in L1D set 0 (4 sets) and L2 set 0 (8 sets); both
    // are 8-way, so A and seven others fill both sets, A the oldest.
    const BlockAddr a = 0;
    for (BlockAddr b = a; b < 8 * 8; b += 8)
        pc.fill(AccessType::Load, b, MesiState::Exclusive);
    for (int i = 0; i < 3; ++i)
        ASSERT_EQ(pc.access(AccessType::Load, a), CoreLookup::L1Hit);
    const PrivateEviction ev =
        pc.fill(AccessType::Load, 8 * 8, MesiState::Exclusive);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.block, 8u); // the oldest of the others, not A
    EXPECT_EQ(pc.state(a), MesiState::Exclusive);
    EXPECT_EQ(pc.access(AccessType::Load, a), CoreLookup::L1Hit);
}

// A store to a Shared block that the L1 holds returns NeedUpgrade
// before either array is touched: the arrays (tags, ranks, states) save
// the same bytes as before the store, and only the store and upgrade
// counters move.
TEST(PrivateCache, StoreToSharedL1HitNeedsUpgrade)
{
    PrivateCache pc(tinyConfig());
    const BlockAddr a = 0;
    pc.fill(AccessType::Load, a, MesiState::Shared);
    // A younger block in the same L1D and L2 sets, so that a touch of A
    // would reorder both.
    pc.fill(AccessType::Load, a + 8, MesiState::Exclusive);
    ASSERT_EQ(pc.access(AccessType::Load, a), CoreLookup::L1Hit);
    pc.fill(AccessType::Load, a + 16, MesiState::Exclusive);

    SerialOut before;
    pc.save(before);
    const PrivateCacheStats ref = pc.stats();
    EXPECT_EQ(pc.access(AccessType::Store, a), CoreLookup::NeedUpgrade);
    SerialOut after;
    pc.save(after);

    // The ten stat counters close the image.
    const std::size_t arrays = before.data().size() - 10 * 8;
    ASSERT_EQ(after.data().size(), before.data().size());
    EXPECT_TRUE(std::equal(before.data().begin(),
                           before.data().begin() + arrays,
                           after.data().begin()));
    const PrivateCacheStats &st = pc.stats();
    EXPECT_EQ(st.stores, ref.stores + 1);
    EXPECT_EQ(st.upgrades, ref.upgrades + 1);
    EXPECT_EQ(st.loads, ref.loads);
    EXPECT_EQ(st.l1Hits, ref.l1Hits);
    EXPECT_EQ(st.l2Hits, ref.l2Hits);
    EXPECT_EQ(st.misses, ref.misses);
    EXPECT_EQ(pc.state(a), MesiState::Shared);
}

// A block that leaves the L2 and comes back in another way gets a new
// L1 line with the new way: a stale byte would make the store below
// read (and upgrade) the block now living in the old way.
TEST(PrivateCache, WayHintSurvivesL2Refill)
{
    PrivateCache pc(tinyConfig());
    // L2 set 0 ways 0..7: A, then B1..B7 (stride 8), A the oldest.
    const BlockAddr a = 0;
    for (BlockAddr b = a; b < 8 * 8; b += 8)
        pc.fill(AccessType::Load, b, MesiState::Exclusive);
    // B8 evicts A and takes its way (0) in Shared.
    const BlockAddr b8 = 8 * 8;
    PrivateEviction ev = pc.fill(AccessType::Load, b8, MesiState::Shared);
    ASSERT_TRUE(ev.valid);
    ASSERT_EQ(ev.block, a);
    // A comes back, evicting B1 and taking its way (1).
    ev = pc.fill(AccessType::Load, a, MesiState::Exclusive);
    ASSERT_TRUE(ev.valid);
    ASSERT_EQ(ev.block, 8u);

    EXPECT_EQ(pc.access(AccessType::Store, a), CoreLookup::L1Hit);
    EXPECT_EQ(pc.state(a), MesiState::Modified);
    EXPECT_EQ(pc.state(b8), MesiState::Shared);
    EXPECT_EQ(pc.access(AccessType::Load, b8), CoreLookup::L1Hit);
}

// ---------------------------------------------------------------------

Llc
makeLlc(LlcReplPolicy policy)
{
    SystemConfig cfg = tinyConfig();
    cfg.llcReplPolicy = policy;
    return Llc(cfg);
}

TEST(Llc, ProbeFindsDataAndSpilled)
{
    Llc llc = makeLlc(LlcReplPolicy::Lru);
    const BlockAddr b = llcConflictBlock(0);
    llc.allocate(b, LlcLineKind::Data, false, DirEntry{});
    DirEntry e;
    e.addSharer(1);
    llc.allocate(b, LlcLineKind::SpilledDe, false, e);

    LlcProbe p = llc.probe(b);
    ASSERT_NE(p.data, nullptr);
    ASSERT_NE(p.spilled, nullptr);
    EXPECT_EQ(p.data->kind, LlcLineKind::Data);
    EXPECT_EQ(p.spilled->kind, LlcLineKind::SpilledDe);
    EXPECT_TRUE(llc.entry(*p.spilled).isSharer(1));
}

// countLines() sees every line holding the block, a third match too,
// filters by kind and counts no lookup.
TEST(Llc, CountLinesSeesEveryMatchWithoutALookup)
{
    Llc llc = makeLlc(LlcReplPolicy::Lru);
    const BlockAddr b = llcConflictBlock(0);
    const auto all = [](LlcLineKind) { return true; };
    const auto data = [](LlcLineKind k) { return k == LlcLineKind::Data; };
    EXPECT_EQ(llc.countLines(b, all), 0u);
    llc.allocate(b, LlcLineKind::Data, false, DirEntry{});
    llc.allocate(b, LlcLineKind::Data, false, DirEntry{});
    DirEntry e;
    e.addSharer(1);
    llc.allocate(b, LlcLineKind::SpilledDe, false, e);
    llc.allocate(llcConflictBlock(1), LlcLineKind::Data, false, DirEntry{});

    const std::uint64_t lookups = llc.stats().lookups;
    EXPECT_EQ(llc.countLines(b, all), 3u);
    EXPECT_EQ(llc.countLines(b, data), 2u);
    EXPECT_EQ(llc.countLines(llcConflictBlock(1), data), 1u);
    EXPECT_EQ(llc.countLines(llcConflictBlock(2), all), 0u);
    EXPECT_EQ(llc.stats().lookups, lookups);
}

TEST(Llc, FuseAndUnfusePreserveDirtyBit)
{
    Llc llc = makeLlc(LlcReplPolicy::DataLru);
    const BlockAddr b = llcConflictBlock(0);
    llc.allocate(b, LlcLineKind::Data, true, DirEntry{});
    LlcProbe p = llc.probe(b);
    DirEntry e;
    e.makeOwned(0);
    llc.fuse(*p.data, e);
    EXPECT_EQ(p.data->kind, LlcLineKind::FusedDe);
    EXPECT_EQ(llc.deLines(), 1u);

    llc.unfuse(*p.data);
    EXPECT_EQ(p.data->kind, LlcLineKind::Data);
    EXPECT_TRUE(p.data->dirty); // preserved across fusion
    EXPECT_EQ(llc.deLines(), 0u);
}

TEST(Llc, DataLruEvictsDataBeforeEntries)
{
    Llc llc = makeLlc(LlcReplPolicy::DataLru);
    // Fill one set: 1 spilled entry (oldest) + 15 data lines.
    DirEntry e;
    e.addSharer(0);
    llc.allocate(llcConflictBlock(100), LlcLineKind::SpilledDe, false, e);
    for (std::uint32_t i = 0; i < 15; ++i)
        llc.allocate(llcConflictBlock(i), LlcLineKind::Data, false,
                     DirEntry{});
    // Next allocation evicts a data line, not the older spilled entry.
    LlcVictim v = llc.allocate(llcConflictBlock(20), LlcLineKind::Data,
                               false, DirEntry{});
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.kind, LlcLineKind::Data);
    EXPECT_NE(llc.probe(llcConflictBlock(100)).spilled, nullptr);
}

TEST(Llc, PlainLruEvictsOldestRegardlessOfKind)
{
    Llc llc = makeLlc(LlcReplPolicy::Lru);
    DirEntry e;
    e.addSharer(0);
    llc.allocate(llcConflictBlock(100), LlcLineKind::SpilledDe, false, e);
    for (std::uint32_t i = 0; i < 15; ++i)
        llc.allocate(llcConflictBlock(i), LlcLineKind::Data, false,
                     DirEntry{});
    LlcVictim v = llc.allocate(llcConflictBlock(20), LlcLineKind::Data,
                               false, DirEntry{});
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.kind, LlcLineKind::SpilledDe); // the oldest line
}

TEST(Llc, SpLruShadowTouchProtectsSpilledEntry)
{
    Llc llc = makeLlc(LlcReplPolicy::SpLru);
    const BlockAddr b = llcConflictBlock(100);
    DirEntry e;
    e.addSharer(0);
    llc.allocate(b, LlcLineKind::SpilledDe, false, e);
    llc.allocate(b, LlcLineKind::Data, false, DirEntry{});
    for (std::uint32_t i = 0; i < 14; ++i)
        llc.allocate(llcConflictBlock(i), LlcLineKind::Data, false,
                     DirEntry{});
    // Touch the data line: under spLRU the spilled entry is re-touched
    // right after it, so the entry is always younger than its block.
    LlcProbe p = llc.probe(b);
    llc.touchData(p);
    LlcVictim v = llc.allocate(llcConflictBlock(20), LlcLineKind::Data,
                               false, DirEntry{});
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.kind, LlcLineKind::Data);
    EXPECT_NE(v.block, b); // not our protected pair's entry
    EXPECT_NE(llc.probe(b).spilled, nullptr);
}

TEST(Llc, ExcludeWayProtectsConvertedLine)
{
    Llc llc = makeLlc(LlcReplPolicy::Lru);
    const BlockAddr b = llcConflictBlock(0);
    llc.allocate(b, LlcLineKind::Data, false, DirEntry{});
    for (std::uint32_t i = 1; i < 16; ++i)
        llc.allocate(llcConflictBlock(i), LlcLineKind::Data, false,
                     DirEntry{});
    LlcProbe p = llc.probe(b);
    ASSERT_NE(p.data, nullptr);
    // b's line is LRU; excluding its way must pick another victim.
    DirEntry e;
    e.addSharer(0);
    LlcVictim v = llc.allocate(b, LlcLineKind::SpilledDe, false, e,
                               static_cast<std::int32_t>(p.dataWay));
    ASSERT_TRUE(v.valid);
    EXPECT_NE(v.block, b);
    EXPECT_NE(llc.probe(b).data, nullptr);
    EXPECT_NE(llc.probe(b).spilled, nullptr);
}

TEST(Llc, VictimReportsEntryPayload)
{
    Llc llc = makeLlc(LlcReplPolicy::Lru);
    DirEntry e;
    e.makeOwned(1);
    llc.allocate(llcConflictBlock(0), LlcLineKind::SpilledDe, false, e);
    for (std::uint32_t i = 1; i <= 16; ++i)
        llc.allocate(llcConflictBlock(i), LlcLineKind::Data, false,
                     DirEntry{});
    // The spilled entry was evicted; its payload must have been reported.
    EXPECT_EQ(llc.stats().deEvictions, 1u);
}

TEST(Llc, OccupancyCounters)
{
    Llc llc = makeLlc(LlcReplPolicy::DataLru);
    DirEntry e;
    e.addSharer(0);
    llc.allocate(llcConflictBlock(0), LlcLineKind::Data, false, DirEntry{});
    llc.allocate(llcConflictBlock(1), LlcLineKind::SpilledDe, false, e);
    EXPECT_EQ(llc.dataLines(), 1u);
    EXPECT_EQ(llc.deLines(), 1u);
    EXPECT_EQ(llc.stats().peakDeLines, 1u);
    LlcProbe p = llc.probe(llcConflictBlock(1));
    ASSERT_NE(p.spilled, nullptr);
    llc.invalidateLine(p, *p.spilled);
    EXPECT_EQ(llc.deLines(), 0u);
}

using DeLine = std::tuple<BlockAddr, LlcLineKind, DirState, SharerSet>;

/** Every DE-bearing line of @p llc with its entry, sorted by block. */
std::vector<DeLine>
deLinesOf(const Llc &llc)
{
    std::vector<DeLine> out;
    llc.forEach([&](BlockAddr b, const LlcLine &l) {
        if (l.holdsDe())
            out.emplace_back(b, l.kind, llc.entry(l).state,
                             llc.entry(l).sharers);
    });
    std::sort(out.begin(), out.end(), [](const auto &x, const auto &y) {
        return std::get<0>(x) < std::get<0>(y) ||
               (std::get<0>(x) == std::get<0>(y) &&
                std::get<1>(x) < std::get<1>(y));
    });
    return out;
}

TEST(Llc, EntryPoolSurvivesChurnAndRestore)
{
    Llc llc = makeLlc(LlcReplPolicy::Lru);
    // Spill entries into two sets and fuse some data lines.
    for (std::uint32_t i = 0; i < 12; ++i) {
        DirEntry e;
        e.addSharer(i % 2);
        llc.allocate(llcConflictBlock(i, 1), LlcLineKind::SpilledDe, false,
                     e);
        llc.allocate(llcConflictBlock(i, 2), LlcLineKind::Data, i % 3 == 0,
                     DirEntry{});
        DirEntry owned;
        owned.makeOwned(i % 2);
        llc.fuse(*llc.probe(llcConflictBlock(i, 2)).data, owned);
    }
    // Unfuse a few, drop a spilled entry, and update one in place.
    for (std::uint32_t i = 0; i < 12; i += 4)
        llc.unfuse(*llc.probe(llcConflictBlock(i, 2)).data);
    LlcProbe p = llc.probe(llcConflictBlock(5, 1));
    llc.invalidateLine(p, *p.spilled);
    DirEntry wide;
    wide.addSharer(0);
    wide.addSharer(1);
    llc.setEntry(*llc.probe(llcConflictBlock(6, 1)).spilled, wide);
    // Overfill set 1 with data so plain LRU evicts the oldest entries;
    // their slots are reused by the next spills.
    for (std::uint32_t i = 20; i < 26; ++i)
        llc.allocate(llcConflictBlock(i, 1), LlcLineKind::Data, false,
                     DirEntry{});
    DirEntry late;
    late.addSharer(1);
    llc.allocate(llcConflictBlock(30, 1), LlcLineKind::SpilledDe, false,
                 late);
    EXPECT_GT(llc.stats().deEvictions, 0u);

    const auto before = deLinesOf(llc);
    EXPECT_EQ(before.size(), llc.deLines());
    EXPECT_EQ(llc.spilledLines() + llc.fusedLines(), llc.deLines());

    SerialOut out;
    llc.save(out);
    Llc copy = makeLlc(LlcReplPolicy::Lru);
    SerialIn in(out.data());
    copy.restore(in);
    ASSERT_TRUE(in.ok()) << in.error();
    EXPECT_EQ(deLinesOf(copy), before);
    EXPECT_EQ(copy.deLines(), before.size());
    EXPECT_EQ(copy.spilledLines(), llc.spilledLines());
    EXPECT_EQ(copy.fusedLines(), llc.fusedLines());
    SerialOut again;
    copy.save(again);
    EXPECT_EQ(again.data(), out.data());
}

} // namespace
} // namespace zerodev
