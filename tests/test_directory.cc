/**
 * @file
 * Unit tests for DirEntry, the sparse directory (NRU replacement, the
 * replacement-disabled ZeroDEV mode and unbounded mode) and the
 * bit-accurate spilled/fused entry formats of Figures 9 and 11.
 */

#include <gtest/gtest.h>

#include "directory/dir_entry.hh"
#include "directory/dir_formats.hh"
#include "directory/dir_org.hh"
#include "directory/sparse_directory.hh"

namespace zerodev
{
namespace
{

TEST(DirEntry, OwnershipAndSharers)
{
    DirEntry e;
    EXPECT_FALSE(e.live());
    e.makeOwned(5);
    EXPECT_TRUE(e.live());
    EXPECT_EQ(e.state, DirState::Owned);
    EXPECT_EQ(e.owner(), 5u);
    EXPECT_EQ(e.count(), 1u);

    e.addSharer(2);
    EXPECT_EQ(e.state, DirState::Shared);
    EXPECT_EQ(e.count(), 2u);
    EXPECT_TRUE(e.isSharer(5));
    EXPECT_TRUE(e.isSharer(2));
    EXPECT_EQ(e.anySharer(), 2u);

    e.removeSharer(2);
    e.removeSharer(5);
    EXPECT_FALSE(e.live());
}

TEST(SparseDirectory, AllocFindFree)
{
    SparseDirectory dir(2, 8, 8, false);
    EXPECT_EQ(dir.find(100), nullptr);
    DirAllocResult res = dir.alloc(100);
    ASSERT_NE(res.entry, nullptr);
    res.entry->makeOwned(1);
    EXPECT_FALSE(res.evictedVictim);
    EXPECT_EQ(dir.liveEntries(), 1u);

    DirEntry *found = dir.find(100);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->owner(), 1u);

    dir.free(100);
    EXPECT_EQ(dir.find(100), nullptr);
    EXPECT_EQ(dir.liveEntries(), 0u);
}

TEST(SparseDirectory, ConflictEvictsNruVictim)
{
    SparseDirectory dir(2, 8, 8, false);
    // Nine blocks mapping to slice 0, set 0: block = 2 * 8 * (i+1).
    for (std::uint32_t i = 0; i < 8; ++i) {
        DirAllocResult r = dir.alloc(16ull * (i + 1));
        ASSERT_NE(r.entry, nullptr);
        r.entry->makeOwned(0);
        EXPECT_FALSE(r.evictedVictim);
    }
    DirAllocResult r = dir.alloc(16ull * 9);
    ASSERT_NE(r.entry, nullptr);
    EXPECT_TRUE(r.evictedVictim);
    EXPECT_TRUE(r.victimEntry.live());
    EXPECT_EQ(dir.stats().evictions, 1u);
    EXPECT_EQ(dir.liveEntries(), 8u);
}

TEST(SparseDirectory, ReplacementDisabledRefuses)
{
    SparseDirectory dir(2, 8, 8, true);
    for (std::uint32_t i = 0; i < 8; ++i) {
        DirAllocResult r = dir.alloc(16ull * (i + 1));
        ASSERT_NE(r.entry, nullptr);
        r.entry->makeOwned(0);
    }
    DirAllocResult r = dir.alloc(16ull * 9);
    EXPECT_EQ(r.entry, nullptr);
    EXPECT_FALSE(r.evictedVictim);
    EXPECT_EQ(dir.stats().refusals, 1u);
    EXPECT_EQ(dir.liveEntries(), 8u);

    // A free() opens the set again.
    dir.free(16);
    DirAllocResult r2 = dir.alloc(16ull * 9);
    EXPECT_NE(r2.entry, nullptr);
}

TEST(SparseOrg, FullReplacementDisabledSetRefusesSet)
{
    SparseOrg org(SparseDirectory(2, 8, 8, true));
    std::vector<Invalidation> invs;
    DirEntry e;
    for (std::uint32_t i = 0; i < 8; ++i) {
        e.makeOwned(i);
        ASSERT_TRUE(org.set(16ull * (i + 1), e, invs));
    }

    e.makeOwned(7);
    EXPECT_FALSE(org.set(16ull * 9, e, invs));
    EXPECT_TRUE(invs.empty());
    EXPECT_EQ(org.orgStats().refusals, 1u);
    EXPECT_EQ(org.orgStats().forcedInvalidations, 0u);
    EXPECT_EQ(org.orgStats().entryEvictions, 0u);
    // The set is unchanged: all eight entries, none for the refused one.
    EXPECT_EQ(org.liveEntries(), 8u);
    EXPECT_FALSE(org.peek(16ull * 9));
    for (std::uint32_t i = 0; i < 8; ++i) {
        const auto held = org.peek(16ull * (i + 1));
        ASSERT_TRUE(held) << i;
        EXPECT_EQ(held->owner(), i);
    }
}

TEST(SparseDirectory, UnboundedNeverEvicts)
{
    SparseDirectory dir = SparseDirectory::makeUnbounded(2);
    for (std::uint64_t i = 0; i < 10000; ++i) {
        DirAllocResult r = dir.alloc(i);
        ASSERT_NE(r.entry, nullptr);
        r.entry->addSharer(0);
        EXPECT_FALSE(r.evictedVictim);
    }
    EXPECT_EQ(dir.liveEntries(), 10000u);
    EXPECT_EQ(dir.peakEntries(), 10000u);
    EXPECT_EQ(dir.stats().evictions, 0u);
}

TEST(SparseDirectory, ForEachVisitsLiveEntries)
{
    SparseDirectory dir(2, 8, 8, false);
    dir.alloc(3).entry->makeOwned(1);
    dir.alloc(7).entry->addSharer(2);
    int n = 0;
    dir.forEach([&](BlockAddr, const DirEntry &e) {
        EXPECT_TRUE(e.live());
        ++n;
    });
    EXPECT_EQ(n, 2);
}

TEST(DirFormats, SpilledRoundTrip)
{
    for (std::uint32_t cores : {2u, 8u, 128u}) {
        DirEntry e;
        e.addSharer(0);
        e.addSharer(cores - 1);
        const BlockImage img = encodeSpilled(e, cores);
        EXPECT_TRUE(imageBit(img, 0)); // b0 = spilled
        const SpilledFields f = decodeSpilled(img, cores);
        EXPECT_EQ(f.entry.state, DirState::Shared);
        EXPECT_EQ(f.entry.sharers, e.sharers);
    }
}

TEST(DirFormats, SpilledOwnedRoundTrip)
{
    DirEntry e;
    e.makeOwned(5);
    const SpilledFields f = decodeSpilled(encodeSpilled(e, 8), 8);
    EXPECT_EQ(f.entry.state, DirState::Owned);
    EXPECT_EQ(f.entry.owner(), 5u);
}

TEST(DirFormats, FusedFpssRoundTripPreservesData)
{
    BlockImage data{};
    data.fill(0xffffffffffffffffull);
    FusedFpssFields f;
    f.llcDirty = true;
    f.busy = false;
    f.owner = 6;
    const BlockImage img = encodeFusedFpss(f, 8, data);
    EXPECT_FALSE(imageBit(img, 0)); // b0 = fused
    const FusedFpssFields g = decodeFusedFpss(img, 8);
    EXPECT_EQ(g.llcDirty, true);
    EXPECT_EQ(g.busy, false);
    EXPECT_EQ(g.owner, 6u);
    // Only the low 3 + ceil(log2 8) + 1 = 7 bits may differ from data.
    const std::uint32_t corrupt = fusedFpssCorruptedBits(8);
    EXPECT_EQ(corrupt, 7u);
    for (std::uint32_t b = corrupt; b < 512; ++b)
        EXPECT_EQ(imageBit(img, b), imageBit(data, b)) << "bit " << b;
}

TEST(DirFormats, FusedFuseAllSharedVector)
{
    BlockImage data{};
    data.fill(0xaaaaaaaaaaaaaaaaull);
    FusedFuseAllFields f;
    f.state = DirState::Shared;
    f.sharers.set(1);
    f.sharers.set(7);
    f.llcDirty = false;
    const BlockImage img = encodeFusedFuseAll(f, 8, data);
    const FusedFuseAllFields g = decodeFusedFuseAll(img, 8);
    EXPECT_EQ(g.state, DirState::Shared);
    EXPECT_EQ(g.sharers, f.sharers);
    // 4 + N bits corrupted in S state.
    const std::uint32_t corrupt = fusedFuseAllCorruptedBits(8, DirState::Shared);
    EXPECT_EQ(corrupt, 12u);
    for (std::uint32_t b = corrupt; b < 512; ++b)
        EXPECT_EQ(imageBit(img, b), imageBit(data, b)) << "bit " << b;
}

TEST(DirFormats, FusedFuseAllOwnedRoundTrip)
{
    BlockImage data{};
    FusedFuseAllFields f;
    f.state = DirState::Owned;
    f.owner = 100;
    f.llcDirty = true;
    f.busy = true;
    const FusedFuseAllFields g =
        decodeFusedFuseAll(encodeFusedFuseAll(f, 128, data), 128);
    EXPECT_EQ(g.state, DirState::Owned);
    EXPECT_EQ(g.owner, 100u);
    EXPECT_TRUE(g.llcDirty);
    EXPECT_TRUE(g.busy);
    EXPECT_EQ(fusedFuseAllCorruptedBits(128, DirState::Owned), 4u + 7u);
}

TEST(DirFormats, PaperArithmetic)
{
    // Section III-C2: 3 + ceil(log2 N) reconstruction bits.
    EXPECT_EQ(fpssReconstructionBits(8), 6u);
    EXPECT_EQ(fpssReconstructionBits(128), 10u);
    // Section III-D: floor(512 / (N+1)) sockets per memory block.
    EXPECT_EQ(maxSocketsPerBlock(8), 56u);
    EXPECT_EQ(maxSocketsPerBlock(128), 3u);
    // Section III-D5: M <= 510 / (N+2) with the socket-level partition.
    EXPECT_EQ(maxSocketsPerBlockWithSocketEntry(8), 51u);
    EXPECT_EQ(maxSocketsPerBlockWithSocketEntry(128), 3u);
}

} // namespace
} // namespace zerodev
