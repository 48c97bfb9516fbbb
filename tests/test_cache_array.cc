/**
 * @file
 * Unit tests for the generic cache array (SoA tag/LRU/occupancy layout),
 * LRU victim classes and the 1-bit NRU state used by the sparse
 * directory.
 */

#include <gtest/gtest.h>

#include "cache/cache_array.hh"
#include "cache/replacement.hh"
#include "common/bitops.hh"

namespace zerodev
{
namespace
{

struct TestLine
{
    int cls = 0;

    void reset() { cls = 0; }
};

TEST(CacheArray, FindAndTouch)
{
    CacheArray<TestLine> arr(4, 2);
    arr.occupy(1, 0, 42);
    arr.occupy(1, 1, 43);

    WayRef r = arr.find(1, 42);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.way, 0u);
    EXPECT_FALSE(arr.find(1, 99).found);
    EXPECT_FALSE(arr.find(0, 42).found);

    // Predicate selects among same-tag lines.
    arr.occupy(2, 0, 7);
    arr.line(2, 0).cls = 1;
    arr.occupy(2, 1, 7);
    arr.line(2, 1).cls = 2;
    WayRef p = arr.find(2, 7, [](const TestLine &l) { return l.cls == 2; });
    ASSERT_TRUE(p.found);
    EXPECT_EQ(p.way, 1u);
}

TEST(CacheArray, OccupyReleaseAndRefOf)
{
    CacheArray<TestLine> arr(2, 4);
    EXPECT_FALSE(arr.occupiedAt(0, 2));
    arr.occupy(0, 2, 5);
    EXPECT_TRUE(arr.occupiedAt(0, 2));
    EXPECT_EQ(arr.tagAt(0, 2), 5u);
    EXPECT_EQ(arr.occupiedCount(), 1u);

    // refOf() recovers (set, way) from a payload pointer.
    arr.line(0, 2).cls = 9;
    const WayRef r = arr.refOf(&arr.line(0, 2));
    EXPECT_EQ(r.set, 0u);
    EXPECT_EQ(r.way, 2u);

    // release() frees the way and resets the payload.
    arr.releaseAt(&arr.line(0, 2));
    EXPECT_FALSE(arr.occupiedAt(0, 2));
    EXPECT_EQ(arr.line(0, 2).cls, 0);
    EXPECT_EQ(arr.occupiedCount(), 0u);
    EXPECT_FALSE(arr.find(0, 5).found);
}

TEST(CacheArray, FindFreeIsLowestWay)
{
    CacheArray<TestLine> arr(1, 4);
    arr.occupy(0, 0, 1);
    arr.occupy(0, 2, 3);
    const WayRef free_way = arr.findFree(0);
    ASSERT_TRUE(free_way.found);
    EXPECT_EQ(free_way.way, 1u);
    arr.occupy(0, 1, 2);
    arr.occupy(0, 3, 4);
    EXPECT_FALSE(arr.findFree(0).found);
}

TEST(CacheArray, VictimPrefersFreeWay)
{
    CacheArray<TestLine> arr(1, 4);
    arr.occupy(0, 0, 1);
    arr.touch(0, 0);
    EXPECT_NE(arr.victimLru(0), 0u); // a free way exists
}

TEST(CacheArray, VictimIsLru)
{
    CacheArray<TestLine> arr(1, 4);
    for (std::uint32_t w = 0; w < 4; ++w) {
        arr.occupy(0, w, w);
        arr.touch(0, w);
    }
    arr.touch(0, 0); // way 0 becomes MRU; way 1 is now LRU
    EXPECT_EQ(arr.victimLru(0), 1u);
}

TEST(CacheArray, VictimClassesDominateRecency)
{
    CacheArray<TestLine> arr(1, 4);
    for (std::uint32_t w = 0; w < 4; ++w) {
        arr.occupy(0, w, w);
        arr.line(0, w).cls = w == 3 ? 0 : 1;
        arr.touch(0, w);
    }
    // Way 3 is MRU but the only class-0 line: dataLRU-style selection
    // must pick it over the older class-1 lines.
    EXPECT_EQ(arr.victim(0, [](const TestLine &l) { return l.cls; }), 3u);
}

TEST(CacheArray, VictimHonoursExcludedWay)
{
    CacheArray<TestLine> arr(1, 2);
    arr.occupy(0, 0, 1);
    arr.touch(0, 0);
    // Way 1 is free but excluded: the occupied way 0 must be chosen.
    EXPECT_EQ(arr.victimLru(0), 1u);
    EXPECT_EQ(arr.victim(
                  0, [](const TestLine &) { return 0; }, 1),
              0u);
}

TEST(CacheArray, CountAndForEach)
{
    CacheArray<TestLine> arr(2, 2);
    arr.occupy(0, 0, 1);
    arr.occupy(1, 1, 2);
    arr.line(1, 1).cls = 1;
    EXPECT_EQ(arr.count([](const TestLine &) { return true; }), 2u);
    EXPECT_EQ(arr.count([](const TestLine &l) { return l.cls == 1; }), 1u);
    int seen = 0;
    arr.forEach([&](std::size_t, std::uint32_t, const TestLine &) {
        ++seen;
    });
    EXPECT_EQ(seen, 2);
}

TEST(CacheArray, NonPowerOfTwoTagMatchesDivision)
{
    // 6 sets exercises the multiply-shift reciprocal fallback; the tag
    // must equal the exact division for representative addresses.
    CacheArray<TestLine> arr(6, 2);
    for (const std::uint64_t a :
         {0ull, 1ull, 5ull, 6ull, 35ull, 36ull, 0x123456789abcull,
          ~0ull, ~0ull - 5}) {
        EXPECT_EQ(arr.tagOfAddr(a), a / 6) << "addr " << a;
    }
}

TEST(CacheArray, AddrAtInvertsSetAndTag)
{
    // Power-of-two sets take the shift path, 6 and 12 sets the
    // multiply-shift path: on both, (setOfAddr, tagOfAddr) must name a
    // unique line whose addrAt() gives the address back.
    for (const std::size_t sets : {std::size_t{1}, std::size_t{16},
                                   std::size_t{6}, std::size_t{12}}) {
        CacheArray<TestLine> arr(sets, 2);
        for (const std::uint64_t a :
             {0ull, 1ull, 2ull, 5ull, 6ull, 7ull, 35ull, 36ull, 1000ull,
              0x123456789abcull, (1ull << 58) - 1}) {
            const std::size_t set = arr.setOfAddr(a);
            ASSERT_LT(set, sets) << "addr " << a;
            arr.occupy(set, 1, arr.tagOfAddr(a));
            EXPECT_EQ(arr.addrAt(set, 1), a)
                << "addr " << a << ", " << sets << " sets";
        }
    }
}

TEST(MulShiftDiv, ExactForAwkwardDivisors)
{
    const std::uint64_t divisors[] = {1,    2,    3,
                                      5,    6,    7,
                                      12,   48,   1000,
                                      (1ull << 33) - 1, 0x123456789ull};
    for (const std::uint64_t d : divisors) {
        const MulShiftDiv div(d);
        const std::uint64_t samples[] = {0,     1,        d - 1,
                                         d,     d + 1,    2 * d,
                                         ~0ull, ~0ull - 1, ~0ull / 3,
                                         1000000007ull};
        for (const std::uint64_t n : samples)
            EXPECT_EQ(div(n), n / d) << n << " / " << d;
    }
}

TEST(CacheArray, IndexHelpers)
{
    EXPECT_EQ(setIndex(0x123, 16), 0x3u);
    EXPECT_EQ(tagOf(0x123, 16), 0x12u);
    EXPECT_EQ(bankOf(0x123, 8), 0x3u);
    // Banked: strip bank bits, then index.
    EXPECT_EQ(bankSetIndex(0x123, 8, 16), (0x123u >> 3) & 15u);
    EXPECT_EQ(bankTag(0x123, 8, 16), (0x123u >> 3) / 16u);
}

TEST(Nru, VictimIsFirstClearBit)
{
    NruState nru(1, 4);
    EXPECT_EQ(nru.victim(0), 0u);
    nru.touch(0, 0);
    EXPECT_EQ(nru.victim(0), 1u);
    nru.touch(0, 1);
    nru.touch(0, 2);
    EXPECT_EQ(nru.victim(0), 3u);
}

TEST(Nru, SaturationClearsOthers)
{
    NruState nru(1, 4);
    for (std::uint32_t w = 0; w < 4; ++w)
        nru.touch(0, w);
    // All bits were set by the final touch; everything except way 3 was
    // cleared, so way 0 is the victim again.
    EXPECT_EQ(nru.victim(0), 0u);
}

TEST(Nru, ResetMakesWayVictim)
{
    NruState nru(1, 4);
    nru.touch(0, 0);
    nru.touch(0, 1);
    nru.reset(0, 0);
    EXPECT_EQ(nru.victim(0), 0u);
}

TEST(Nru, IndependentSets)
{
    NruState nru(2, 2);
    nru.touch(0, 0);
    EXPECT_EQ(nru.victim(0), 1u);
    EXPECT_EQ(nru.victim(1), 0u);
}

} // namespace
} // namespace zerodev
