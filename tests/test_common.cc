/**
 * @file
 * Unit tests for the common utilities: bit operations, the deterministic
 * RNG, the statistics helpers and the configuration presets (Table I
 * geometry checks).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/bitops.hh"
#include "common/config.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "workload/app_profiles.hh"

namespace zerodev
{
namespace
{

TEST(Bitops, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(1ull << 40));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(12));
}

TEST(Bitops, FloorCeilLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(8), 3u);
    EXPECT_EQ(ceilLog2(9), 4u);
    // The paper's owner-encoding widths: 3 bits for 8 cores, 7 for 128.
    EXPECT_EQ(ceilLog2(8), 3u);
    EXPECT_EQ(ceilLog2(128), 7u);
}

TEST(Bitops, BitFieldRoundTrip)
{
    const std::uint64_t v = 0xdeadbeefcafebabeull;
    EXPECT_EQ(bits(v, 0, 8), 0xbeull);
    EXPECT_EQ(bits(v, 32, 16), 0xbeefull);
    std::uint64_t w = insertBits(0, 4, 8, 0xff);
    EXPECT_EQ(w, 0xff0ull);
    w = insertBits(v, 0, 4, 0x5);
    EXPECT_EQ(bits(w, 0, 4), 0x5ull);
    EXPECT_EQ(bits(w, 4, 60), bits(v, 4, 60));
}

TEST(Bitops, SetBitWalkMatchesPerBitTest)
{
    // Sharer vectors span two 64-bit words at 128 cores.
    Rng rng(7);
    const std::uint64_t sparse = Rng::threshold(0.02);
    const std::uint64_t dense = Rng::threshold(0.3);
    for (int trial = 0; trial < 200; ++trial) {
        SharerSet s;
        for (CoreId c = 0; c < kMaxCores; ++c) {
            if (rng.chance(trial % 2 ? sparse : dense))
                s.set(c);
        }
        std::vector<CoreId> want, got;
        for (CoreId c = 0; c < kMaxCores; ++c) {
            if (s.test(c))
                want.push_back(c);
        }
        forEachSetBit(s, [&](CoreId c) { got.push_back(c); });
        EXPECT_EQ(got, want);
        EXPECT_EQ(firstSetBit(s), want.empty() ? kMaxCores : want.front());
    }
    EXPECT_EQ(firstSetBit(SharerSet{}), kMaxCores);
    EXPECT_EQ(firstSetBit(SharerSet{}.set(127)), 127u);
    EXPECT_EQ(firstSetBit(SharerSet{}.set(64).set(100)), 64u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        const auto x = a.next();
        EXPECT_EQ(x, b.next());
    }
    // Different seeds give different streams.
    Rng a2(42);
    bool differs = false;
    for (int i = 0; i < 10; ++i)
        differs = differs || (a2.next() != c.next());
    EXPECT_TRUE(differs);
}

TEST(Rng, UniformRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.draw53(), Rng::kDrawSpan);
        EXPECT_LT(r.below(17), 17u);
    }
}

TEST(Rng, ZipfishSkewsTowardSmallIndices)
{
    Rng r(11);
    const std::uint64_t skew = Rng::threshold(0.6);
    std::uint64_t low = 0, total = 20000;
    for (std::uint64_t i = 0; i < total; ++i) {
        if (r.zipfish(1024, skew) < 128)
            ++low;
    }
    // With skew, the first 1/8 of the range receives far more than 1/8
    // of the draws.
    EXPECT_GT(low, total / 4);
}

/** The double compare a threshold stands for: the uniform double of
 *  53-bit draw @p m, below @p p. */
bool
uniformBelow(std::uint64_t m, double p)
{
    return static_cast<double>(m) * (1.0 / 9007199254740992.0) < p;
}

/** Every probability the generator turns into a threshold, and the
 *  running sums its region choice compares against. */
std::vector<double>
profileProbabilities()
{
    std::vector<double> ps;
    for (const std::string &suite : suiteNames()) {
        for (const AppProfile &p : suiteProfiles(suite)) {
            ps.insert(ps.end(),
                      {p.pIfetch, p.pSharedRo, p.pSharedRw, p.pStream,
                       p.storeFrac, p.rwStoreFrac, p.hotFrac, p.zipfSkew,
                       p.roZipfSkew, p.migratory});
            double acc = p.pIfetch;
            ps.push_back(acc += p.pSharedRo);
            ps.push_back(acc += p.pSharedRw);
            ps.push_back(acc += p.pStream);
        }
    }
    return ps;
}

TEST(Rng, ThresholdMatchesDoubleCompare)
{
    std::vector<double> ps = {0.0,
                              -0.1,
                              std::nan(""),
                              std::numeric_limits<double>::denorm_min(),
                              std::ldexp(1.0, -60),
                              0.3,
                              0.37,
                              0.998,
                              1.0 - std::ldexp(1.0, -53),
                              1.0,
                              1.5};
    const std::vector<double> profile = profileProbabilities();
    ps.insert(ps.end(), profile.begin(), profile.end());

    Rng rng(2024);
    for (const double p : ps) {
        SCOPED_TRACE(p);
        const std::uint64_t t = Rng::threshold(p);
        ASSERT_LE(t, Rng::kDrawSpan);
        EXPECT_EQ(t > 0, p > 0.0);
        // The boundary is where an off-by-one shows; a stream pin would
        // meet it with probability 2^-53 per draw.
        std::vector<std::uint64_t> ms = {0, Rng::kDrawSpan - 1, t, t + 1};
        if (t > 0)
            ms.push_back(t - 1);
        for (int i = 0; i < 64; ++i)
            ms.push_back(rng.draw53());
        for (const std::uint64_t m : ms) {
            if (m < Rng::kDrawSpan) {
                EXPECT_EQ(m < t, uniformBelow(m, p)) << "m = " << m;
            }
        }
    }
}

/** zipfish() as the halving loop it replaced: a moving [lo, hi) range
 *  and a double compare per halving. (hi - lo + 1) / 2 is written
 *  without its overflow at hi - lo = 2^64 - 1. */
std::uint64_t
zipfishByHalving(Rng &rng, std::uint64_t n, double skew)
{
    if (n <= 1)
        return 0;
    std::uint64_t lo = 0, hi = n;
    while (hi - lo > 1 && uniformBelow(rng.next() >> 11, skew))
        hi = lo + (hi - lo) / 2 + (hi - lo) % 2;
    return lo + rng.below(hi - lo);
}

TEST(Rng, ZipfishMatchesHalvingLoop)
{
    std::vector<std::uint64_t> ns;
    for (std::uint64_t n = 0; n <= 4096; ++n)
        ns.push_back(n);
    for (int k = 13; k < 64; ++k) {
        const std::uint64_t p2 = 1ull << k;
        ns.insert(ns.end(), {p2 - 1, p2, p2 + 1});
    }
    // Past 2^63 the last halving would shift by 64.
    const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    ns.insert(ns.end(), {(1ull << 63) + 12345, max - 1, max});

    for (const double skew :
         {0.0, 0.3, 0.5, 0.9, 0.998, 1.0 - std::ldexp(1.0, -53), 1.0}) {
        const std::uint64_t t = Rng::threshold(skew);
        Rng a(static_cast<std::uint64_t>(skew * 1000) + 1);
        Rng b = a;
        for (const std::uint64_t n : ns) {
            for (int rep = 0; rep < 3; ++rep) {
                ASSERT_EQ(a.zipfish(n, t), zipfishByHalving(b, n, skew))
                    << "n = " << n << ", skew = " << skew;
                ASSERT_EQ(a.state(), b.state())
                    << "n = " << n << ", skew = " << skew;
            }
        }
    }
}

TEST(Stats, DumpMergeAndLookup)
{
    StatDump a;
    a.add("x", 1.0);
    a.add("y", 2.0);
    a.add("x", 3.0); // overwrite
    EXPECT_DOUBLE_EQ(a.get("x"), 3.0);
    EXPECT_TRUE(a.has("y"));
    EXPECT_FALSE(a.has("z"));
    EXPECT_DOUBLE_EQ(a.get("z"), 0.0);

    StatDump b;
    b.add("m", 5.0);
    a.merge("sub.", b);
    EXPECT_DOUBLE_EQ(a.get("sub.m"), 5.0);
    EXPECT_EQ(a.entries().size(), 3u);
}

TEST(Stats, Aggregates)
{
    const std::vector<double> xs{1.0, 2.0, 4.0};
    EXPECT_NEAR(mean(xs), 7.0 / 3.0, 1e-12);
    EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(minOf(xs), 1.0);
    EXPECT_DOUBLE_EQ(maxOf(xs), 4.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Histogram, RecordsAndOverflows)
{
    Histogram h(4);
    h.record(0);
    h.record(1);
    h.record(1);
    h.record(100); // overflow bucket
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(4), 1u); // overflow lives at index `buckets`
    EXPECT_DOUBLE_EQ(h.meanValue(), (0 + 1 + 1 + 100) / 4.0);
}

TEST(Histogram, Percentiles)
{
    Histogram h(16);
    for (int i = 0; i < 90; ++i)
        h.record(1);
    for (int i = 0; i < 10; ++i)
        h.record(8);
    EXPECT_EQ(h.percentile(0.50), 1u);
    EXPECT_EQ(h.percentile(0.99), 8u);
    EXPECT_EQ(h.percentile(0.05), 1u);
}

TEST(Histogram, DumpAndClear)
{
    Histogram h(4);
    h.record(2);
    StatDump d;
    h.addTo(d, "deg");
    EXPECT_DOUBLE_EQ(d.get("deg.samples"), 1.0);
    EXPECT_DOUBLE_EQ(d.get("deg.bucket2"), 1.0);
    EXPECT_TRUE(d.has("deg.p99"));
    h.clear();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.bucket(2), 0u);
}

TEST(Histogram, EmptyIsSafe)
{
    Histogram h(4);
    EXPECT_DOUBLE_EQ(h.meanValue(), 0.0);
    EXPECT_EQ(h.percentile(0.5), 0u);
}

TEST(Config, TableIGeometry)
{
    const SystemConfig cfg = makeEightCoreConfig();
    cfg.validate();
    // 8 cores x 256 KB L2 = 32768 private blocks; a 1x directory has
    // 32768 entries = 512 sets x 8 ways per slice x 8 slices (the
    // geometry Section V quotes for SecDir's baseline).
    EXPECT_EQ(cfg.privateL2Blocks(), 32768u);
    EXPECT_EQ(cfg.dirEntries(), 32768u);
    EXPECT_EQ(cfg.dirSetsPerSlice(), 512u);
    // 8 MB LLC = 131072 blocks; 1x directory = 25% of LLC blocks (the
    // 4:1 capacity ratio of Section III-B).
    EXPECT_EQ(cfg.llcBlocks(), 131072u);
    EXPECT_EQ(cfg.llcSetsPerBank(), 1024u);
    EXPECT_DOUBLE_EQ(
        static_cast<double>(cfg.dirEntries()) / cfg.llcBlocks(), 0.25);
}

TEST(Config, ServerGeometry)
{
    const SystemConfig cfg = makeServerConfig();
    cfg.validate();
    EXPECT_EQ(cfg.coresPerSocket, 128u);
    // 128 cores x 128 KB L2 = 262144 private blocks; per-slice sets =
    // 262144 / (8 ways x 128 slices) = 256 (Section V's SecDir text).
    EXPECT_EQ(cfg.dirEntries(), 262144u);
    EXPECT_EQ(cfg.dirSetsPerSlice(), 256u);
}

TEST(Config, ZeroDevPreset)
{
    SystemConfig cfg = makeEightCoreConfig();
    applyZeroDev(cfg, 0.0);
    cfg.validate();
    EXPECT_EQ(cfg.dirOrg, DirOrg::ZeroDev);
    EXPECT_EQ(cfg.dirCachePolicy, DirCachePolicy::Fpss);
    EXPECT_EQ(cfg.llcReplPolicy, LlcReplPolicy::DataLru);
    EXPECT_TRUE(cfg.directory.replacementDisabled);
    EXPECT_EQ(cfg.dirEntries(), 0u);
}

TEST(Config, FractionalDirectorySizes)
{
    SystemConfig cfg = makeEightCoreConfig();
    cfg.directory.sizeRatio = 0.125;
    EXPECT_EQ(cfg.dirEntries(), 4096u);
    EXPECT_EQ(cfg.dirSetsPerSlice(), 64u);
    cfg.directory.sizeRatio = 1.0 / 32.0;
    EXPECT_EQ(cfg.dirEntries(), 1024u);
    EXPECT_EQ(cfg.dirSetsPerSlice(), 16u);
}

TEST(Config, ToStringCoverage)
{
    EXPECT_STREQ(toString(AccessType::Load), "Load");
    EXPECT_STREQ(toString(AccessType::Store), "Store");
    EXPECT_STREQ(toString(AccessType::Ifetch), "Ifetch");
    EXPECT_STREQ(toString(DirState::Owned), "M/E");
    EXPECT_STREQ(toString(MesiState::Modified), "M");
    EXPECT_STREQ(toString(LlcFlavor::Epd), "EPD");
    EXPECT_STREQ(toString(DirCachePolicy::Fpss), "FPSS");
    EXPECT_STREQ(toString(LlcReplPolicy::DataLru), "dataLRU");
    EXPECT_STREQ(toString(DirOrg::ZeroDev), "ZeroDEV");
}

} // namespace
} // namespace zerodev
