/**
 * @file
 * Unit tests for the generic cache array (SoA tag/occupancy layout with
 * per-set LRU rank bytes), LRU victim classes and the 1-bit NRU state
 * used by the sparse directory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/replacement.hh"
#include "common/bitops.hh"
#include "common/serialize.hh"

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

TEST(CacheArray, NewArrayRanksWayZeroOldest)
{
    CacheArray<TestLine> arr(2, 9);
    for (std::uint32_t w = 0; w < 9; ++w)
        EXPECT_EQ(arr.rankAt(1, w), 8 - w);
    arr.touch(1, 4);
    EXPECT_EQ(arr.rankAt(1, 4), 0u);
    EXPECT_EQ(arr.rankAt(1, 8), 1u); // was 0, now one older
    EXPECT_EQ(arr.rankAt(1, 0), 8u); // older than way 4: unchanged
    EXPECT_EQ(arr.rankAt(0, 4), 4u); // other sets untouched
}

/**
 * Reference LRU with a 64-bit stamp per way from one clock, as the array
 * kept before rank bytes: a touch takes the next clock value, untouched
 * ways hold 0, and equal stamps rank the lower way older.
 */
class StampLru
{
  public:
    StampLru(std::size_t sets, std::uint32_t ways)
        : ways_(ways), stamp_(sets * ways, 0), occ_(sets * ways, false),
          cls_(sets * ways, 0)
    {
    }

    void touch(std::size_t s, std::uint32_t w) { at(stamp_, s, w) = ++clock_; }

    void
    occupy(std::size_t s, std::uint32_t w, int cls)
    {
        at(occ_, s, w) = true;
        at(cls_, s, w) = cls;
    }

    void release(std::size_t s, std::uint32_t w) { at(occ_, s, w) = false; }
    bool occupied(std::size_t s, std::uint32_t w) { return at(occ_, s, w); }

    /** Is way @p a of set @p s older than way @p b? */
    bool
    older(std::size_t s, std::uint32_t a, std::uint32_t b)
    {
        const std::uint64_t sa = at(stamp_, s, a), sb = at(stamp_, s, b);
        return sa < sb || (sa == sb && a < b);
    }

    /** Ways of @p s younger than @p w, counting only occupied ones when
     *  @p occupiedOnly. */
    std::uint32_t
    rank(std::size_t s, std::uint32_t w, bool occupiedOnly)
    {
        std::uint32_t r = 0;
        for (std::uint32_t v = 0; v < ways_; ++v)
            r += v != w && older(s, w, v) &&
                 (!occupiedOnly || occupied(s, v));
        return r;
    }

    /** Victim of @p s: the lowest free way, else the oldest way of the
     *  lowest class, or the oldest way of all when not @p byClass. */
    std::uint32_t
    victim(std::size_t s, std::int32_t exclude, bool byClass = true)
    {
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (static_cast<std::int32_t>(w) != exclude && !occupied(s, w))
                return w;
        }
        std::int32_t best = -1;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (static_cast<std::int32_t>(w) == exclude)
                continue;
            if (best < 0) {
                best = static_cast<std::int32_t>(w);
                continue;
            }
            const auto b = static_cast<std::uint32_t>(best);
            const int cw = byClass ? at(cls_, s, w) : 0;
            const int cb = byClass ? at(cls_, s, b) : 0;
            if (cw < cb || (cw == cb && older(s, w, b)))
                best = static_cast<std::int32_t>(w);
        }
        return static_cast<std::uint32_t>(best);
    }

  private:
    template <typename V>
    typename V::reference
    at(V &v, std::size_t s, std::uint32_t w)
    {
        return v[s * ways_ + w];
    }

    std::uint32_t ways_;
    std::uint64_t clock_ = 0;
    std::vector<std::uint64_t> stamp_;
    std::vector<bool> occ_;
    std::vector<int> cls_;
};

/** Rank of (@p s, @p w) among the occupied ways of its set. */
std::uint32_t
occupiedRank(const CacheArray<TestLine> &arr, std::size_t s,
             std::uint32_t w)
{
    std::uint32_t r = 0;
    for (std::uint32_t v = 0; v < arr.numWays(); ++v)
        r += arr.occupiedAt(s, v) && arr.rankAt(s, v) < arr.rankAt(s, w);
    return r;
}

// Ranks against 64-bit stamps under random occupy+touch, touch, release
// and victim calls with classes and an excluded way. The associativities
// cover one rank word (1, 2, 7, 8), a padded second word (9, 16) and
// eight words (64). `live` is never restored, so its ranks must equal
// the reference's for every way; `resumed` goes through save/restore
// every few hundred calls, which reranks its free ways, so only its
// occupied ways' order and its victims must agree. Every victim step
// also checks victimLru(), which reads the LRU way from the rank lanes,
// against the reference's class-free victim, and fills take either kind
// of victim.
TEST(CacheArray, RanksMatchStampLruReference)
{
    const auto saveLine = [](SerialOut &o, std::size_t, std::uint32_t,
                             const TestLine &l) {
        o.u8(static_cast<std::uint8_t>(l.cls));
    };
    const auto loadLine = [](SerialIn &i, std::size_t, std::uint32_t,
                             TestLine &l) { l.cls = i.u8(); };
    const auto byClass = [](const TestLine &l) { return l.cls; };
    const std::size_t sets = 3;

    for (const std::uint32_t ways : {1u, 2u, 7u, 8u, 9u, 16u, 64u}) {
        SCOPED_TRACE(ways);
        std::mt19937_64 rng(ways);
        const auto pick = [&](std::uint64_t n) { return rng() % n; };
        StampLru ref(sets, ways);
        CacheArray<TestLine> live(sets, ways), resumed(sets, ways);

        for (int step = 0; step < 6000; ++step) {
            const std::size_t s = pick(sets);
            const auto w = static_cast<std::uint32_t>(pick(ways));
            switch (pick(4)) {
              case 0: { // fill: occupy the way a caller would, then touch
                const std::uint64_t how = pick(3);
                const auto v = static_cast<std::uint32_t>(
                    how == 0   ? live.victim(s, byClass)
                    : how == 1 ? live.victimLru(s)
                               : w);
                const int cls = static_cast<int>(pick(3));
                ref.occupy(s, v, cls);
                ref.touch(s, v);
                for (CacheArray<TestLine> *a : {&live, &resumed}) {
                    a->occupy(s, v, step);
                    a->line(s, v).cls = cls;
                    a->touch(s, v);
                }
                break;
              }
              case 1:
                ref.touch(s, w);
                live.touch(s, w);
                resumed.touch(s, w);
                break;
              case 2:
                ref.release(s, w);
                live.release(s, w);
                resumed.release(s, w);
                break;
              default: {
                const std::int32_t exclude =
                    ways > 1 && pick(2) ? static_cast<std::int32_t>(w)
                                        : -1;
                const std::uint32_t want = ref.victim(s, exclude);
                EXPECT_EQ(live.victim(s, byClass, exclude), want);
                EXPECT_EQ(resumed.victim(s, byClass, exclude), want);
                const std::uint32_t lru = ref.victim(s, -1, false);
                ASSERT_EQ(live.victimLru(s), lru) << "step " << step;
                ASSERT_EQ(resumed.victimLru(s), lru) << "step " << step;
                break;
              }
            }

            std::uint64_t seen = 0;
            for (std::uint32_t v = 0; v < ways; ++v) {
                ASSERT_EQ(live.rankAt(s, v), ref.rank(s, v, false))
                    << "step " << step << " way " << v;
                seen |= 1ull << resumed.rankAt(s, v);
                if (resumed.occupiedAt(s, v)) {
                    ASSERT_EQ(occupiedRank(resumed, s, v),
                              ref.rank(s, v, true))
                        << "step " << step << " way " << v;
                }
            }
            ASSERT_EQ(seen, ways == 64 ? ~0ull : (1ull << ways) - 1)
                << "resumed ranks must stay a permutation";

            if (step % 500 == 499) {
                SerialOut out;
                resumed.save(out, saveLine);
                CacheArray<TestLine> copy(sets, ways);
                SerialIn in(out.data());
                copy.restore(in, loadLine);
                ASSERT_TRUE(in.exhausted()) << in.error();
                SerialOut again;
                copy.save(again, saveLine);
                ASSERT_EQ(again.data(), out.data());
                resumed = copy;
            }
        }
    }
}

// A full set's LRU victim is the one way whose rank lane holds ways-1.
// Fill every way in a shuffled order, touch a few again, and the oldest
// way must come back from victimLru() both on the live array and on a
// copy restored from its snapshot, whose ranks were rebuilt from the
// saved occupied order; touching that way then makes the next-oldest
// the victim.
TEST(CacheArray, FullSetAfterRestoreYieldsOldestWay)
{
    const auto saveLine = [](SerialOut &, std::size_t, std::uint32_t,
                             const TestLine &) {};
    const auto loadLine = [](SerialIn &, std::size_t, std::uint32_t,
                             TestLine &) {};
    for (const std::uint32_t ways : {1u, 2u, 7u, 8u, 9u, 16u, 64u}) {
        SCOPED_TRACE(ways);
        std::mt19937_64 rng(ways + 100);
        std::vector<std::uint32_t> order(ways);
        for (std::uint32_t w = 0; w < ways; ++w)
            order[w] = w;
        std::shuffle(order.begin(), order.end(), rng);

        CacheArray<TestLine> arr(2, ways);
        for (const std::uint32_t w : order) {
            arr.occupy(1, w, 1000 + w);
            arr.touch(1, w);
        }
        // Touch the first-filled half again: from oldest to newest the
        // ways are now the second half of order[], then the first.
        std::vector<std::uint32_t> oldest(order.begin() + ways / 2,
                                          order.end());
        for (std::uint32_t i = 0; i < ways / 2; ++i) {
            arr.touch(1, order[i]);
            oldest.push_back(order[i]);
        }
        ASSERT_EQ(arr.victimLru(1), oldest[0]);

        SerialOut out;
        arr.save(out, saveLine);
        CacheArray<TestLine> copy(2, ways);
        SerialIn in(out.data());
        copy.restore(in, loadLine);
        ASSERT_TRUE(in.exhausted()) << in.error();
        EXPECT_EQ(copy.victimLru(1), oldest[0]);
        EXPECT_EQ(copy.victimLru(0), 0u) << "an empty set's lowest way";
        copy.touch(1, oldest[0]);
        EXPECT_EQ(copy.victimLru(1), oldest[ways > 1 ? 1 : 0]);
    }
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

/**
 * The per-way NRU the sparse directory used before its whole-mask
 * operations: one std::vector<bool> entry per way, loops over the set.
 */
class PerWayNru
{
  public:
    PerWayNru(std::size_t sets, std::uint32_t ways)
        : ways_(ways), ref_(sets * ways, false)
    {
    }

    void
    touch(std::size_t s, std::uint32_t way)
    {
        ref_[s * ways_ + way] = true;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!ref_[s * ways_ + w])
                return;
        }
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (w != way)
                ref_[s * ways_ + w] = false;
        }
    }

    void reset(std::size_t s, std::uint32_t w) { ref_[s * ways_ + w] = false; }

    /** True when every bit of @p s is set: the one state victim()
     *  panics in. */
    bool
    saturated(std::size_t s) const
    {
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!ref_[s * ways_ + w])
                return false;
        }
        return true;
    }

    std::uint32_t
    victimIn(std::size_t s, std::uint32_t first, std::uint32_t count) const
    {
        for (std::uint32_t w = first; w < first + count; ++w) {
            if (!ref_[s * ways_ + w])
                return w;
        }
        return first;
    }

    /** The packed snapshot encoding: the bit count, then 64 bits per
     *  word, the trailing word zero-padded. */
    std::vector<std::uint8_t>
    packed() const
    {
        SerialOut out;
        out.u64(ref_.size());
        std::uint64_t word = 0;
        for (std::size_t i = 0; i < ref_.size(); ++i) {
            if (ref_[i])
                word |= 1ull << (i % 64);
            if (i % 64 == 63) {
                out.u64(word);
                word = 0;
            }
        }
        if (ref_.size() % 64 != 0)
            out.u64(word);
        return out.data();
    }

  private:
    std::uint32_t ways_;
    std::vector<bool> ref_;
};

// Random touch/reset/victim/victimIn calls against the per-way model.
// The power-of-two associativities keep every set inside one word; 12
// and 48 ways make sets straddle word boundaries. victimIn() takes the
// ranges tagPartitions gives a domain: ways / parts ways starting at
// (domain % parts) * (ways / parts). After every call the saved bytes
// must equal the model's packed encoding, and every thousand calls the
// state goes through save/restore and must carry on alike.
TEST(Nru, MatchesPerWayReference)
{
    const std::size_t sets = 7;
    for (const std::uint32_t ways : {1u, 2u, 4u, 8u, 16u, 64u, 12u, 48u}) {
        SCOPED_TRACE(ways);
        std::mt19937_64 rng(ways);
        const auto pick = [&](std::uint64_t n) { return rng() % n; };
        std::vector<std::uint32_t> parts;
        for (std::uint32_t p = 1; p <= std::min(ways, 16u); ++p) {
            if (ways % p == 0)
                parts.push_back(p);
        }
        PerWayNru model(sets, ways);
        NruState nru(sets, ways);

        for (int step = 0; step < 8000; ++step) {
            const std::size_t s = pick(sets);
            const auto w = static_cast<std::uint32_t>(pick(ways));
            switch (pick(5)) {
              case 0:
              case 1:
                model.touch(s, w);
                nru.touch(s, w);
                break;
              case 2:
                model.reset(s, w);
                nru.reset(s, w);
                break;
              case 3:
                if (!model.saturated(s)) {
                    ASSERT_EQ(nru.victim(s), model.victimIn(s, 0, ways))
                        << "step " << step;
                }
                break;
              default: {
                const std::uint32_t p = parts[pick(parts.size())];
                const std::uint32_t count = ways / p;
                const auto first =
                    static_cast<std::uint32_t>(pick(16) % p) * count;
                ASSERT_EQ(nru.victimIn(s, first, count),
                          model.victimIn(s, first, count))
                    << "step " << step << " range " << first << "+"
                    << count;
                break;
              }
            }

            SerialOut out;
            nru.save(out);
            ASSERT_EQ(out.data(), model.packed()) << "step " << step;
            if (step % 1000 == 999) {
                NruState copy(sets, ways);
                SerialIn in(out.data());
                copy.restore(in);
                ASSERT_TRUE(in.exhausted()) << in.error();
                nru = copy;
            }
        }
    }
}

// Bits past the last set in the trailing word are not state: restore()
// ignores them and the next save() writes the word zero-padded again.
TEST(Nru, RestoreDropsPaddingBits)
{
    NruState nru(3, 4); // 12 bits in one word
    nru.touch(1, 2);
    SerialOut out;
    nru.save(out);
    std::vector<std::uint8_t> bytes = out.data();
    ASSERT_EQ(bytes.size(), 16u);
    bytes[15] = 0xff; // high byte of the bit word (little-endian image)
    NruState copy(3, 4);
    SerialIn in(bytes);
    copy.restore(in);
    ASSERT_TRUE(in.exhausted()) << in.error();
    SerialOut again;
    copy.save(again);
    EXPECT_EQ(again.data(), out.data());
    EXPECT_EQ(copy.victim(1), 0u);
    EXPECT_EQ(copy.victimIn(1, 2, 2), 3u);
}

} // namespace
} // namespace zerodev
