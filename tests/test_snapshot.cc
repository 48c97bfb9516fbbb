/**
 * @file
 * Snapshot round-trip and rejection tests for the zerodev-snapshot-v3
 * container (sim/snapshot.hh) and the full-system serializer
 * (CmpSystem::saveState/restoreState).
 *
 * The round-trip contract is byte-exact: serializing a warmed-up system,
 * restoring it into a fresh one and serializing again must reproduce the
 * identical byte string — for every configuration of the differential
 * harness's standard cross product (unordered containers are serialized
 * in sorted order precisely so this holds). The rejection tests pin the
 * container's failure modes: truncation, CRC corruption, an unsupported
 * version, and a config-fingerprint mismatch; the CLI half of the
 * contract (`trace_tool replay --restore` exits 3 on any of these) is
 * exercised through the real binary.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "coherence/llc_bank.hh"
#include "coherence/private_cache.hh"
#include "common/serialize.hh"
#include "core/cmp_system.hh"
#include "directory/dir_org.hh"
#include "directory/sparse_directory.hh"
#include "sim/snapshot.hh"
#include "test_util.hh"
#include "verify/differ.hh"

namespace zerodev
{
namespace
{

/** Warm @p sys with a deterministic adversarial stream. */
void
warmUp(CmpSystem &sys, std::uint64_t seed, std::uint64_t accesses)
{
    Cycle now = 0;
    for (const TraceRecord &rec :
         verify::fuzzStream(seed, sys.totalCores(), accesses)) {
        now = sys.access(rec.core, rec.access.type, rec.access.block,
                         now + rec.access.gap);
    }
}

std::vector<std::uint8_t>
stateBytes(const CmpSystem &sys)
{
    SerialOut out;
    sys.saveState(out);
    return out.data();
}

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "zdev_snap_" + name;
}

bool
writeBytes(const std::string &path, const std::vector<std::uint8_t> &b)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const bool ok = std::fwrite(b.data(), 1, b.size(), f) == b.size();
    return std::fclose(f) == 0 && ok;
}

// The codec's wire format: fixed-width little-endian fields, bitsets as
// ceil(N/64) u64 words. The golden snapshot depends on these bytes.
TEST(SerialCodec, LittleEndianWordLayout)
{
    SerialOut out;
    out.u8(0xab);
    out.u16(0x0102);
    out.u32(0x03040506);
    out.u64(0x0708090a0b0c0d0eull);
    std::bitset<8> narrow;
    narrow.set(0).set(7);
    out.bits(narrow);
    std::bitset<128> wide;
    wide.set(0).set(63).set(64).set(127);
    out.bits(wide);
    const std::vector<std::uint8_t> want = {
        0xab, 0x02, 0x01, 0x06, 0x05, 0x04, 0x03, 0x0e, 0x0d, 0x0c, 0x0b,
        0x0a, 0x09, 0x08, 0x07, 0x81, 0,    0,    0,    0,    0,    0,
        0,    0x01, 0,    0,    0,    0,    0,    0,    0x80, 0x01, 0,
        0,    0,    0,    0,    0,    0x80};
    EXPECT_EQ(out.data(), want);

    SerialIn in(out.data());
    EXPECT_EQ(in.u8(), 0xab);
    EXPECT_EQ(in.u16(), 0x0102);
    EXPECT_EQ(in.u32(), 0x03040506u);
    EXPECT_EQ(in.u64(), 0x0708090a0b0c0d0eull);
    EXPECT_EQ(in.bits<8>(), narrow);
    EXPECT_EQ(in.bits<128>(), wide);
    EXPECT_TRUE(in.exhausted());
}

TEST(SerialCodec, TruncatedReadsFailStickily)
{
    const std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5, 6};
    SerialIn in(bytes);
    EXPECT_EQ(in.u32(), 0x04030201u);
    EXPECT_EQ(in.u64(), 0u); // two bytes left
    EXPECT_FALSE(in.ok());
    EXPECT_EQ(in.error(), "snapshot truncated");
    EXPECT_EQ(in.u8(), 0u); // sticky

    SerialIn span(bytes);
    const std::uint8_t *p = span.raw(4);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p[3], 4);
    EXPECT_EQ(span.remaining(), 2u);
    EXPECT_EQ(span.raw(3), nullptr);
    EXPECT_FALSE(span.ok());
}

TEST(SnapshotRoundTrip, ByteIdenticalAcrossTheStandardCrossProduct)
{
    const auto variants = verify::Differ::standardVariants(4);
    ASSERT_GE(variants.size(), 15u);
    for (const verify::Variant &v : variants) {
        SCOPED_TRACE(v.name);
        CmpSystem sys(v.cfg);
        warmUp(sys, 7, 3000);
        const std::vector<std::uint8_t> a = stateBytes(sys);
        ASSERT_FALSE(a.empty());

        CmpSystem copy(v.cfg);
        SerialIn in(a);
        copy.restoreState(in);
        ASSERT_TRUE(in.exhausted()) << in.error();
        EXPECT_EQ(stateBytes(copy), a);
    }
}

TEST(SnapshotRoundTrip, RestoredSystemContinuesBitIdentically)
{
    // Beyond byte-equality of the image: the restored system must
    // *behave* like the original from here on.
    const SystemConfig cfg = testutil::tinyZeroDev(0.125);
    CmpSystem a(cfg);
    warmUp(a, 11, 2000);

    CmpSystem b(cfg);
    const std::vector<std::uint8_t> image = stateBytes(a);
    SerialIn in(image); // SerialIn reads the caller-owned buffer
    b.restoreState(in);
    ASSERT_TRUE(in.exhausted()) << in.error();

    Cycle nowA = 123456, nowB = 123456;
    for (const TraceRecord &rec : verify::fuzzStream(13, 2, 500)) {
        nowA = a.access(rec.core, rec.access.type, rec.access.block,
                        nowA + rec.access.gap);
        nowB = b.access(rec.core, rec.access.type, rec.access.block,
                        nowB + rec.access.gap);
        ASSERT_EQ(nowA, nowB);
    }
    EXPECT_EQ(stateBytes(a), stateBytes(b));
}

TEST(SnapshotRoundTrip, FileRoundTripThroughTheContainer)
{
    const SystemConfig cfg = testutil::tinyZeroDev();
    CmpSystem sys(cfg);
    warmUp(sys, 3, 1500);
    const std::string path = tmpPath("roundtrip.snap");

    std::string err;
    ASSERT_TRUE(sys.saveSnapshot(path, &err)) << err;

    Snapshot snap;
    ASSERT_TRUE(snap.readFile(path, &err)) << err;
    EXPECT_TRUE(snap.has("system"));
    EXPECT_FALSE(snap.has("runner")); // a state image, not a checkpoint

    CmpSystem copy(cfg);
    ASSERT_TRUE(copy.restoreSnapshot(path, &err)) << err;
    EXPECT_EQ(stateBytes(copy), stateBytes(sys));
    std::remove(path.c_str());
}

class SnapshotRejection : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        CmpSystem sys(testutil::tinyZeroDev());
        warmUp(sys, 5, 1000);
        Snapshot snap;
        sys.saveState(snap.section("system"));
        bytes_ = snap.encode();
        ASSERT_GT(bytes_.size(), 64u);
    }

    /** Expect decode failure whose message contains @p what. */
    void
    expectRejected(const std::vector<std::uint8_t> &file,
                   const std::string &what)
    {
        Snapshot snap;
        std::string err;
        EXPECT_FALSE(snap.decode(file.data(), file.size(), &err));
        EXPECT_NE(err.find(what), std::string::npos) << err;

        // The same bytes through the file path and into a system.
        const std::string path = tmpPath("reject.snap");
        ASSERT_TRUE(writeBytes(path, file));
        CmpSystem sys(testutil::tinyZeroDev());
        err.clear();
        EXPECT_FALSE(sys.restoreSnapshot(path, &err));
        EXPECT_NE(err.find(what), std::string::npos) << err;
        std::remove(path.c_str());
    }

    /** Recompute and patch the trailing CRC (for crafted mutations). */
    void
    fixCrc(std::vector<std::uint8_t> &file)
    {
        const std::uint32_t crc =
            crc32(file.data() + 8, file.size() - 8 - 4);
        SerialOut tail;
        tail.u32(crc);
        std::copy(tail.data().begin(), tail.data().end(),
                  file.end() - 4);
    }

    std::vector<std::uint8_t> bytes_;
};

TEST_F(SnapshotRejection, Truncated)
{
    std::vector<std::uint8_t> shorter(bytes_.begin(),
                                      bytes_.begin() + 10);
    expectRejected(shorter, "truncated");
    // Mid-file truncation lands on the CRC first — still a rejection.
    std::vector<std::uint8_t> chopped(bytes_.begin(),
                                      bytes_.end() - bytes_.size() / 3);
    Snapshot snap;
    std::string err;
    EXPECT_FALSE(snap.decode(chopped.data(), chopped.size(), &err));
}

TEST_F(SnapshotRejection, BadMagic)
{
    std::vector<std::uint8_t> file = bytes_;
    file[0] ^= 0xff;
    expectRejected(file, "magic");
}

TEST_F(SnapshotRejection, CrcCorruption)
{
    std::vector<std::uint8_t> file = bytes_;
    file[file.size() / 2] ^= 0x01; // single bit, mid-payload
    expectRejected(file, "CRC");
}

TEST_F(SnapshotRejection, VersionBump)
{
    std::vector<std::uint8_t> file = bytes_;
    file[8] = static_cast<std::uint8_t>(kSnapshotVersion + 1);
    fixCrc(file); // valid container, future version
    expectRejected(file, "version");
}

TEST_F(SnapshotRejection, FingerprintMismatch)
{
    // A perfectly well-formed snapshot of one config must refuse to
    // restore into a differently-configured system.
    const std::string path = tmpPath("fingerprint.snap");
    ASSERT_TRUE(writeBytes(path, bytes_));
    CmpSystem other(testutil::tinyConfig()); // baseline, not ZeroDEV
    std::string err;
    EXPECT_FALSE(other.restoreSnapshot(path, &err));
    EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;
    std::remove(path.c_str());
}

/** Set @p at to the offset of the one little-endian copy of the words
 *  @p words in @p bytes; fails unless there is exactly one. */
void
wordsAt(const std::vector<std::uint8_t> &bytes,
        std::initializer_list<std::uint64_t> words, std::size_t &at)
{
    SerialOut out;
    for (const std::uint64_t w : words)
        out.u64(w);
    const auto &pat = out.data();
    const auto it =
        std::search(bytes.begin(), bytes.end(), pat.begin(), pat.end());
    ASSERT_NE(it, bytes.end());
    ASSERT_EQ(std::search(it + 1, bytes.end(), pat.begin(), pat.end()),
              bytes.end())
        << "the words must occur exactly once";
    at = static_cast<std::size_t>(it - bytes.begin());
}

/** Restore @p bytes into @p dst and expect rejection with @p what. */
template <typename T>
void
expectRestoreRejected(T &dst, const std::vector<std::uint8_t> &bytes,
                      const std::string &what)
{
    SerialIn in(bytes);
    dst.restore(in);
    EXPECT_FALSE(in.ok());
    EXPECT_EQ(in.error(), what);
}

/** Save @p src, tamper with @p block's word, restore into @p dst and
 *  expect the slot check to reject it with @p what. */
template <typename T>
void
expectBlockWordRejected(const T &src, T &dst, BlockAddr block,
                        const std::string &what)
{
    SerialOut out;
    src.save(out);
    std::vector<std::uint8_t> bytes = out.data();
    {
        SerialIn in(bytes);
        dst.restore(in);
        ASSERT_TRUE(in.ok()) << in.error(); // untampered bytes restore
    }
    std::size_t at = 0;
    ASSERT_NO_FATAL_FAILURE(wordsAt(bytes, {block}, at));
    bytes[at] ^= 0x01; // the block word of its line record
    expectRestoreRejected(dst, bytes, what);
}

// Lines do not store their block: save() writes the one their position
// gives, and restore() checks the stored word against that position.
TEST(SnapshotBlockWords, TamperedL2BlockRejected)
{
    const BlockAddr block = 0x5a5a5a5a5a1ull;
    PrivateCache pc(testutil::tinyConfig());
    pc.fill(AccessType::Load, block, MesiState::Exclusive);
    PrivateCache dst(testutil::tinyConfig());
    expectBlockWordRejected(pc, dst, block,
                            "L2 block does not match its set and tag");
}

// The L2 is inclusive of the L1s, and an L1 hit trusts it: restore()
// rejects an L1 line whose block the L2 does not hold, and a block held
// twice in one L1. An L1D line record ends in its tag (block / 4 sets
// in the tiny config) and rank.
TEST(SnapshotBlockWords, L1LineOutsideL2Rejected)
{
    const BlockAddr block = 0x5a5a5a5a5a1ull;
    PrivateCache pc(testutil::tinyConfig());
    pc.fill(AccessType::Load, block, MesiState::Exclusive);
    SerialOut out;
    pc.save(out);
    std::vector<std::uint8_t> bytes = out.data();
    std::size_t at = 0;
    ASSERT_NO_FATAL_FAILURE(wordsAt(bytes, {block >> 2}, at));
    bytes[at] ^= 0x01; // now a block of the same L1 set the L2 lacks
    PrivateCache dst(testutil::tinyConfig());
    expectRestoreRejected(dst, bytes, "L1 line outside the L2");
}

TEST(SnapshotBlockWords, L1BlockHeldTwiceRejected)
{
    const BlockAddr block = 0x5a5a5a5a5a1ull;
    const BlockAddr other = block + 4; // same L1 set, next L1 tag
    PrivateCache pc(testutil::tinyConfig());
    pc.fill(AccessType::Load, block, MesiState::Exclusive);
    pc.fill(AccessType::Load, other, MesiState::Exclusive);
    SerialOut out;
    pc.save(out);
    std::vector<std::uint8_t> bytes = out.data();
    std::size_t at = 0;
    ASSERT_NO_FATAL_FAILURE(wordsAt(bytes, {other >> 2}, at));
    bytes[at] ^= 0x01; // other's line now holds block a second time
    PrivateCache dst(testutil::tinyConfig());
    expectRestoreRejected(dst, bytes, "block held twice in one L1");
}

TEST(SnapshotBlockWords, TamperedSparseDirectoryBlockRejected)
{
    const BlockAddr block = 0x5a5a5a5a5a1ull;
    SparseDirectory dir(2, 8, 8, false);
    dir.alloc(block).entry->addSharer(1);
    SparseDirectory dst(2, 8, 8, false);
    expectBlockWordRejected(dir, dst, block,
                            "sparse directory block does not match its "
                            "slice, set and tag");
}

TEST(SnapshotBlockWords, TamperedLlcBlockRejected)
{
    const BlockAddr block = 0x5a5a5a5a5a1ull;
    Llc llc(testutil::tinyConfig());
    DirEntry e;
    e.addSharer(1);
    llc.allocate(block, LlcLineKind::SpilledDe, false, e);
    Llc dst(testutil::tinyConfig());
    expectBlockWordRejected(llc, dst, block,
                            "LLC block does not match its bank, set and "
                            "tag");
}

// The spilled and fused line counts are checked against the rebuilt
// pool too: a split that disagrees with the line records is rejected
// even when its total is right.
TEST(SnapshotBlockWords, TamperedLlcOccupancyWordsRejected)
{
    Llc llc(testutil::tinyConfig());
    DirEntry e;
    e.addSharer(1);
    llc.allocate(0x5a1, LlcLineKind::SpilledDe, false, e);
    llc.fuse(*llc.allocate(0x5a2, LlcLineKind::Data, false, DirEntry{})
                  .filled,
             e);
    ASSERT_EQ(llc.spilledLines(), 1u);
    ASSERT_EQ(llc.fusedLines(), 1u);

    SerialOut out;
    llc.save(out);
    std::vector<std::uint8_t> bytes = out.data();
    {
        Llc dst(testutil::tinyConfig());
        SerialIn in(bytes);
        dst.restore(in);
        ASSERT_TRUE(in.ok()) << in.error();
        EXPECT_EQ(dst.spilledLines(), 1u);
        EXPECT_EQ(dst.fusedLines(), 1u);
    }

    // The DE-line, spilled and fused words: (2, 1, 1) becomes (2, 2, 0).
    std::size_t at = 0;
    ASSERT_NO_FATAL_FAILURE(wordsAt(bytes, {2, 1, 1}, at));
    bytes[at + 8] = 2;
    bytes[at + 16] = 0;

    Llc dst(testutil::tinyConfig());
    expectRestoreRejected(
        dst, bytes,
        "LLC spilled and fused line counts do not match its lines");
}

// A line record carries its recency rank among the occupied ways of its
// set, just before the payload (here the block word). Ranks that are
// not a permutation of 0..k-1 are rejected, whether duplicated or out
// of range.
TEST(SnapshotBlockWords, TamperedRankRejected)
{
    const BlockAddr older = 0x5a5a5a5a5a1ull;
    const BlockAddr newer = older + 2 * 8; // same slice and set
    SparseDirectory dir(2, 8, 8, false);
    dir.alloc(older).entry->addSharer(1);
    dir.alloc(newer).entry->addSharer(2);
    SerialOut out;
    dir.save(out);
    const std::vector<std::uint8_t> bytes = out.data();
    std::size_t olderBlock = 0, newerBlock = 0;
    ASSERT_NO_FATAL_FAILURE(wordsAt(bytes, {older}, olderBlock));
    ASSERT_NO_FATAL_FAILURE(wordsAt(bytes, {newer}, newerBlock));
    const std::size_t olderRank = olderBlock - 1;
    const std::size_t newerRank = newerBlock - 1;
    ASSERT_EQ(bytes[olderRank], 1);
    ASSERT_EQ(bytes[newerRank], 0);

    const std::string what = "cache array ranks are not a permutation of "
                             "the set's occupied ways";
    for (const std::uint8_t bad : {0, 2, 0x7f}) {
        SCOPED_TRACE(bad);
        std::vector<std::uint8_t> tampered = bytes;
        tampered[olderRank] = bad;
        SparseDirectory dst(2, 8, 8, false);
        expectRestoreRejected(dst, tampered, what);
    }
    // Swapped ranks are a valid permutation: they restore, and the
    // image round-trips with the order they give.
    std::vector<std::uint8_t> swapped = bytes;
    std::swap(swapped[olderRank], swapped[newerRank]);
    SparseDirectory dst(2, 8, 8, false);
    SerialIn in(swapped);
    dst.restore(in);
    ASSERT_TRUE(in.exhausted()) << in.error();
    SerialOut again;
    dst.save(again);
    EXPECT_EQ(again.data(), swapped);
}

// The sparse directory's live word must equal its occupied lines (or,
// unbounded, its map entries) and its peak word must be at least that.
// The two words sit just before the six stats words that end the image.
TEST(SnapshotBlockWords, TamperedSparseDirectoryLiveWordsRejected)
{
    for (const std::uint64_t sets : {std::uint64_t{8}, std::uint64_t{0}}) {
        SCOPED_TRACE(sets == 0 ? "unbounded" : "bounded");
        SparseDirectory dir(2, sets, 8, false);
        dir.alloc(0x5a1).entry->addSharer(1);
        dir.alloc(0x5a2).entry->addSharer(2);
        SerialOut out;
        dir.save(out);
        const std::vector<std::uint8_t> bytes = out.data();
        const std::size_t live = bytes.size() - 8 * 8;
        {
            SparseDirectory dst(2, sets, 8, false);
            SerialIn in(bytes);
            dst.restore(in);
            ASSERT_TRUE(in.exhausted()) << in.error();
            ASSERT_EQ(dst.liveEntries(), 2u);
            ASSERT_EQ(dst.peakEntries(), 2u);
        }
        const std::string what = "sparse directory live and peak counts "
                                 "do not match its lines";
        for (const std::size_t word : {live, live + 8}) {
            for (const std::uint8_t v : {1, 3}) {
                if (word == live + 8 && v == 3)
                    continue; // a higher peak is legitimate
                std::vector<std::uint8_t> tampered = bytes;
                tampered[word] = v;
                SparseDirectory dst(2, sets, 8, false);
                expectRestoreRejected(dst, tampered, what);
            }
        }
    }
}

// The phase-priority directory reports a geometry mismatch and a live
// word that disagrees with its lines through the stream, not panic():
// a malformed file must end in the load-error exit, not an abort.
TEST(SnapshotBlockWords, TamperedPhasePriorityWordsRejected)
{
    PhasePriorityOrg org(2, 4, 4);
    std::vector<Invalidation> invs;
    DirEntry e;
    e.addSharer(1);
    for (const BlockAddr b : {0x5a5a5a5a5a1ull, 0x5a5a5a5a5a2ull,
                              0x5a5a5a5a5a3ull})
        org.set(b, e, invs, 1);
    ASSERT_EQ(org.liveEntries(), 3u);
    SerialOut out;
    org.save(out);
    const std::vector<std::uint8_t> bytes = out.data();
    {
        PhasePriorityOrg dst(2, 4, 4);
        SerialIn in(bytes);
        dst.restore(in);
        ASSERT_TRUE(in.exhausted()) << in.error();
    }

    PhasePriorityOrg other(2, 8, 4);
    expectRestoreRejected(other, bytes,
                          "phase-priority directory geometry mismatch");

    // live_ and tick_ are both 3 after three installs.
    std::size_t live = 0;
    ASSERT_NO_FATAL_FAILURE(wordsAt(bytes, {3, 3}, live));
    std::vector<std::uint8_t> tampered = bytes;
    tampered[live] = 2;
    PhasePriorityOrg dst(2, 4, 4);
    expectRestoreRejected(dst, tampered,
                          "phase-priority directory live count does not "
                          "match its lines");
}

/** Exit status of `trace_tool <args>` (shared 0/1/2/3/4 contract). */
int
toolExit(const std::string &args)
{
    const std::string cmd =
        std::string(TRACE_TOOL_PATH) + " " + args + " >/dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    EXPECT_NE(rc, -1);
    EXPECT_TRUE(WIFEXITED(rc));
    return WEXITSTATUS(rc);
}

TEST(SnapshotExitContract, ReplayRestoreFailuresExitThree)
{
    const std::string trc = tmpPath("contract.trc");
    ASSERT_EQ(toolExit("gen fft 2 50 " + trc), 0);

    // Missing file.
    EXPECT_EQ(toolExit("replay " + trc + " --restore /nonexistent.snap"),
              3);

    // Well-formed container without issue-engine state.
    const std::string stateOnly = tmpPath("contract-state.snap");
    {
        SystemConfig cfg = makeEightCoreConfig();
        CmpSystem sys(cfg);
        std::string err;
        ASSERT_TRUE(sys.saveSnapshot(stateOnly, &err)) << err;
    }
    EXPECT_EQ(toolExit("replay " + trc + " --restore " + stateOnly), 3);

    // Corrupted container.
    const std::string corrupt = tmpPath("contract-corrupt.snap");
    ASSERT_TRUE(writeBytes(corrupt, {'Z', 'D', 'E', 'V', 'S', 'N'}));
    EXPECT_EQ(toolExit("replay " + trc + " --restore " + corrupt), 3);

    // Usage errors stay usage errors.
    EXPECT_EQ(toolExit("replay " + trc + " --restore"), 2);
    EXPECT_EQ(toolExit("replay " + trc + " --every nope"), 2);

    std::remove(trc.c_str());
    std::remove(stateOnly.c_str());
    std::remove(corrupt.c_str());
}

} // namespace
} // namespace zerodev
