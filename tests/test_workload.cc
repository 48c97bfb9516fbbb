/**
 * @file
 * Tests for the workload layer: generator determinism, region
 * separation, profile calibration sanity, workload builders (rate /
 * multithreaded / heterogeneous mixes) and trace record/replay.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>

#include "workload/app_profiles.hh"
#include "workload/trace.hh"
#include "workload/workload.hh"

namespace zerodev
{
namespace
{

TEST(Generator, Deterministic)
{
    const AppProfile p = profileByName("canneal");
    const RegionLayout lay(0, 0, 1);
    ThreadGenerator a(p, lay, 0, 4, 42);
    ThreadGenerator b(p, lay, 0, 4, 42);
    for (int i = 0; i < 1000; ++i) {
        const MemAccess x = a.next();
        const MemAccess y = b.next();
        EXPECT_EQ(x.block, y.block);
        EXPECT_EQ(x.type, y.type);
        EXPECT_EQ(x.gap, y.gap);
    }
}

TEST(Generator, ThreadsSeparatePrivateData)
{
    const AppProfile p = profileByName("swaptions");
    const RegionLayout l0(0, 0, 1), l1(0, 1, 1);
    EXPECT_NE(l0.privateBase, l1.privateBase);
    EXPECT_EQ(l0.sharedBase, l1.sharedBase); // same process
    EXPECT_EQ(l0.codeBase, l1.codeBase);
}

TEST(Generator, InstancesSeparateSharedData)
{
    const RegionLayout a(0, 0, 5), b(1, 0, 5);
    EXPECT_NE(a.sharedBase, b.sharedBase);
    EXPECT_EQ(a.codeBase, b.codeBase); // same binary
}

TEST(Generator, MixtureRoughlyMatchesProbabilities)
{
    AppProfile p = profileByName("freqmine"); // pSharedRw = 0.14
    const RegionLayout lay(0, 0, 1);
    ThreadGenerator g(p, lay, 0, 8, 7);
    const int n = 50000;
    int ifetch = 0, shared_rw = 0;
    for (int i = 0; i < n; ++i) {
        const MemAccess a = g.next();
        if (a.type == AccessType::Ifetch)
            ++ifetch;
        else if (a.block >= lay.sharedBase + (1ull << 23))
            ++shared_rw;
    }
    EXPECT_NEAR(static_cast<double>(ifetch) / n, p.pIfetch, 0.01);
    EXPECT_NEAR(static_cast<double>(shared_rw) / n, p.pSharedRw, 0.02);
}

TEST(Generator, StreamRegionIsSequential)
{
    AppProfile p;
    p.name = "stream-test";
    p.pStream = 1.0;
    p.pIfetch = 0.0;
    p.streamBlocks = 1000;
    p.streamRepeat = 4;
    const RegionLayout lay(0, 0, 1);
    ThreadGenerator g(p, lay, 0, 1, 3);
    BlockAddr prev = g.next().block;
    for (int i = 1; i < 100; ++i) {
        const BlockAddr cur = g.next().block;
        // Each block is touched streamRepeat times, then the stream
        // advances to the next block.
        if (i % 4 == 0)
            EXPECT_EQ(cur, prev + 1);
        else
            EXPECT_EQ(cur, prev);
        prev = cur;
    }
}

/** Word-wise FNV-1a over the first @p n accesses of every thread of
 *  @p w, thread by thread: one changed block, type or gap anywhere
 *  changes the result. */
std::uint64_t
streamHash(const Workload &w, std::uint64_t n)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
    for (std::uint32_t t = 0; t < w.threadCount(); ++t) {
        ThreadGenerator g = w.makeGenerator(t);
        for (std::uint64_t i = 0; i < n; ++i) {
            const MemAccess a = g.next();
            mix(a.block);
            mix(static_cast<std::uint64_t>(a.type) << 32 | a.gap);
        }
    }
    return h;
}

struct StreamPin
{
    const char *profile; //!< "suite/name"
    std::uint64_t rate;  //!< Workload::rate(profile, 2)
    std::uint64_t mt;    //!< Workload::multiThreaded(profile, 4)
};

// The generator's streams are fixed by profile, layout, seed and the
// xoshiro256** sequence; a host-side change to the generator must keep
// every one of them. A mismatch prints the line to paste here after an
// intentional stream change.
const StreamPin kStreamPins[] = {
    {"parsec/blackscholes", 0x70d6060737b6ae6eull, 0x2ab80b46b21aa1c7ull},
    {"parsec/canneal", 0x7f51b32d4fd2cd84ull, 0xce909de4b06264afull},
    {"parsec/dedup", 0x7ac09e0c4354090full, 0x0d4309238b78d475ull},
    {"parsec/facesim", 0xe289c25106e4f522ull, 0x11a7c8ca4f856e90ull},
    {"parsec/ferret", 0x00b9623b5f54a36dull, 0xfb09d4d4572d32ecull},
    {"parsec/fluidanimate", 0x77bba5513724c196ull, 0x962fcfa5eaf9ad5eull},
    {"parsec/freqmine", 0x67faf26ebcb5c9e6ull, 0xca1667a8a2832fc1ull},
    {"parsec/streamcluster", 0xdbdae122906569d1ull, 0x1704f65d0bcb6ae5ull},
    {"parsec/swaptions", 0x7f10958008dbeb38ull, 0x00c76767d7eb32faull},
    {"parsec/vips", 0xa61b500146976f42ull, 0xcd125e4003a98557ull},
    {"splash2x/fft", 0x5dc9ad5462353618ull, 0x162321c31662ffb3ull},
    {"splash2x/lu_cb", 0x9adfc8616163a3a0ull, 0x8ce6081c5fa699acull},
    {"splash2x/lu_ncb", 0x7724e1202a2f15caull, 0x49d10c24a436a363ull},
    {"splash2x/ocean_cp", 0x3bc513462b8f0abdull, 0x1a6edc2992e3af5dull},
    {"splash2x/radiosity", 0xf75a600a1841d07bull, 0x7b34d532a3a01c18ull},
    {"splash2x/radix", 0x45c255ad30ff6847ull, 0x912368aac4cdea33ull},
    {"splash2x/raytrace", 0x897966eaa5145287ull, 0x8db404ae00047ab6ull},
    {"splash2x/water_nsquared", 0x8b61a8ab280141a7ull, 0x5323b4ef2ca9ffd0ull},
    {"splash2x/water_spatial", 0xba0c632b6c26b516ull, 0xf7fea904ce99fa6full},
    {"specomp/312.swim", 0xfbfb91d8191041b8ull, 0x158edb0d45b73865ull},
    {"specomp/314.mgrid", 0x454126d569b5bb82ull, 0x480901d3d642406dull},
    {"specomp/316.applu", 0x25282aa73eff3425ull, 0x4df04a4c1f0b77fcull},
    {"specomp/320.equake", 0x4a76efad6477175bull, 0x8200798489c5c56bull},
    {"specomp/324.apsi", 0x2081b8cf0374804eull, 0xcc807fb44fe3c64eull},
    {"specomp/330.art", 0xf4da5d1dfb5f6c4bull, 0x7ae76dafd33b90ccull},
    {"fftw/FFTW", 0xf8fc49bdb0ef7b63ull, 0x82da037d63b7fd7full},
    {"cpu2017/blender", 0x40adf19ec710c5beull, 0x5f2517bfc8eb1412ull},
    {"cpu2017/bwaves.1", 0x955b63417343aa42ull, 0x2191edeb33823f68ull},
    {"cpu2017/bwaves.2", 0x358c7665a9398ca5ull, 0xbec01ef6e385862bull},
    {"cpu2017/bwaves.3", 0x495cda8ebd391d6bull, 0xb5f61b492cf2be22ull},
    {"cpu2017/bwaves.4", 0x81937f6f46dda14eull, 0x5c4a6955e42205a2ull},
    {"cpu2017/cactuBSSN", 0x30bfb15704e65b91ull, 0x47c7a220184add42ull},
    {"cpu2017/cam4", 0xf3a68d9e430311d9ull, 0xe1d9fd06a31823a6ull},
    {"cpu2017/deepsjeng", 0x7259e4ba0c9979acull, 0x89be592fb07d9e6full},
    {"cpu2017/exchange2", 0x31094d4682831006ull, 0xf0998fb3c0521f51ull},
    {"cpu2017/fotonik3d", 0x6d2eba6aafa2341bull, 0x9abd5faef7b5b0bcull},
    {"cpu2017/gcc.pp", 0xe6333fa40e1dc3abull, 0x45fe581185c46f21ull},
    {"cpu2017/gcc.ppO2", 0x5a24f03ff2c8a96bull, 0xc24657cd534896ceull},
    {"cpu2017/gcc.ref32", 0x693a2b990b55b175ull, 0xd0400a26850ed422ull},
    {"cpu2017/gcc.ref32O5", 0x8c92cf741062f8adull, 0x2da8a8fe345867b1ull},
    {"cpu2017/gcc.smaller", 0x0dff7a859d93b1fbull, 0xf0b992a9a9377059ull},
    {"cpu2017/imagick", 0x2efbe74501a3b703ull, 0x8b96cc82a0ec5ac0ull},
    {"cpu2017/lbm", 0xdd09dec24b15c41aull, 0x4b31f6fb6b584273ull},
    {"cpu2017/leela", 0x6fe1c33491318e1bull, 0xda578ae1e9eaabb5ull},
    {"cpu2017/mcf", 0x0a0dd04d290b16eeull, 0xef2f9e01e1717cc7ull},
    {"cpu2017/nab", 0xfab3042b579c68cdull, 0xcff6779dd39e475eull},
    {"cpu2017/namd", 0x4cc26e601652178bull, 0xc930ab7823f7d2efull},
    {"cpu2017/omnetpp", 0xae91f0a7fdf7c075ull, 0xc53650e15899f4c9ull},
    {"cpu2017/parest", 0x506b26b805627e83ull, 0x96ee78ea3ed3ddbeull},
    {"cpu2017/perl.check", 0x7668ac81a0fab44bull, 0x654928c451c7c337ull},
    {"cpu2017/perl.diff", 0xa70ea9a44c6bbd18ull, 0x7b7e793c1afe8d2cull},
    {"cpu2017/perl.split", 0x6d9e0e9a2cd146d3ull, 0x03ce21325255bc0full},
    {"cpu2017/povray", 0xc8d5b71b8155b3a3ull, 0xd97f3bdd7022a6a4ull},
    {"cpu2017/roms", 0xaef3bdd5827ab2dcull, 0x1bb55c5725bfba1full},
    {"cpu2017/wrf", 0xe683770ff9ee0484ull, 0x9aaf7f6df07b5ccdull},
    {"cpu2017/x264.pass1", 0xeab1db1ffc170991ull, 0xa2e77bfd298be995ull},
    {"cpu2017/x264.pass2", 0xfc974c0ccf136061ull, 0xc6dab3580f38fc7dull},
    {"cpu2017/x264.seek500", 0xd60acd47cbeeaff2ull, 0xa04e5f9da6639b34ull},
    {"cpu2017/xalancbmk", 0x6b847cfa562092a1ull, 0x5654bc1e31a60985ull},
    {"cpu2017/xz.cld", 0x3c76d0b7dcca6c6bull, 0xdef05c99b9dd16f3ull},
    {"cpu2017/xz.docs", 0xd52766dc05a077d7ull, 0xb19d9c50f5425857ull},
    {"cpu2017/xz.combined", 0xb24ff88ab27c1b96ull, 0x2c8cc6c6a669ee02ull},
    {"server/SPECjbb", 0xb325bf98b9f1951dull, 0xedc5938f89ca7632ull},
    {"server/SPECWeb-B", 0xb7c2c0ebf8f20224ull, 0x19620c755315f86dull},
    {"server/SPECWeb-E", 0x969aa7bddb1bb9feull, 0xea5d4e1c7c180c18ull},
    {"server/SPECWeb-S", 0xbffc00a032b5604eull, 0xd02ed353443d2da9ull},
    {"server/TPC-C", 0x03c89628783a17b9ull, 0x73d636a0e89adfd4ull},
    {"server/TPC-E", 0x9c1025adbbafb66eull, 0x4a17aadf712bd8b5ull},
    {"server/TPC-H", 0x9ae36fe83f4e9cc5ull, 0xba9a3840d2d074e6ull},
};

/** Workload::hetMixes(1, 8)[0]. */
constexpr std::uint64_t kHetMixPin = 0x24bb2bab98e2b4cbull;

TEST(Generator, StreamsPinned)
{
    constexpr std::uint64_t kAccesses = 50000;
    std::map<std::string, const StreamPin *> pins;
    for (const StreamPin &pin : kStreamPins)
        pins[pin.profile] = &pin;
    std::size_t checked = 0;
    for (const std::string &suite : suiteNames()) {
        for (const AppProfile &p : suiteProfiles(suite)) {
            const std::string key = suite + "/" + p.name;
            const std::uint64_t rate =
                streamHash(Workload::rate(p, 2), kAccesses);
            const std::uint64_t mt =
                streamHash(Workload::multiThreaded(p, 4), kAccesses);
            char line[128];
            std::snprintf(line, sizeof line,
                          "{\"%s\", 0x%016llxull, 0x%016llxull},",
                          key.c_str(),
                          static_cast<unsigned long long>(rate),
                          static_cast<unsigned long long>(mt));
            const auto it = pins.find(key);
            if (it == pins.end()) {
                ADD_FAILURE() << "unpinned: " << line;
                continue;
            }
            EXPECT_EQ(it->second->rate, rate) << line;
            EXPECT_EQ(it->second->mt, mt) << line;
            ++checked;
        }
    }
    EXPECT_EQ(checked, pins.size());
    EXPECT_EQ(streamHash(Workload::hetMixes(1, 8)[0], kAccesses),
              kHetMixPin);
}

TEST(Profiles, AllSuitesPresentWithPaperCounts)
{
    EXPECT_EQ(parsecProfiles().size(), 10u);
    EXPECT_EQ(splash2xProfiles().size(), 9u);
    EXPECT_EQ(specOmpProfiles().size(), 6u);
    EXPECT_EQ(fftwProfiles().size(), 1u);
    EXPECT_EQ(cpu2017Profiles().size(), 36u); // the Figure 21 x-axis
    EXPECT_EQ(serverProfiles().size(), 7u);   // the Figure 24 x-axis
}

TEST(Profiles, SuiteSharingOrdering)
{
    // SPLASH2X shares more than PARSEC; SPEC OMP and FFTW share almost
    // nothing (Section III-C2's shared-entry fractions).
    auto shared_weight = [](const std::vector<AppProfile> &v) {
        double s = 0;
        for (const auto &p : v)
            s += p.pSharedRo + p.pSharedRw;
        return s / static_cast<double>(v.size());
    };
    const double parsec = shared_weight(parsecProfiles());
    const double splash = shared_weight(splash2xProfiles());
    const double specomp = shared_weight(specOmpProfiles());
    const double fftw = shared_weight(fftwProfiles());
    EXPECT_GT(splash, parsec);
    EXPECT_LT(specomp, parsec / 4);
    EXPECT_LT(fftw, 0.01);
}

TEST(Profiles, LookupByName)
{
    EXPECT_EQ(profileByName("xalancbmk").suite, "cpu2017");
    EXPECT_EQ(profileByName("TPC-H").suite, "server");
    EXPECT_GT(profileByName("xalancbmk").privateBlocks,
              profileByName("povray").privateBlocks);
}

TEST(Workload, RateSharesCodeOnly)
{
    const Workload w = Workload::rate(profileByName("xalancbmk"), 8);
    EXPECT_EQ(w.threadCount(), 8u);
    EXPECT_TRUE(w.multiProgrammed());
    ThreadGenerator g0 = w.makeGenerator(0);
    ThreadGenerator g5 = w.makeGenerator(5);
    std::set<BlockAddr> blocks0, blocks5;
    bool overlap_code = false;
    for (int i = 0; i < 20000; ++i) {
        const MemAccess a = g0.next(), b = g5.next();
        if (a.type != AccessType::Ifetch)
            blocks0.insert(a.block);
        if (b.type != AccessType::Ifetch)
            blocks5.insert(b.block);
        if (a.type == AccessType::Ifetch)
            overlap_code = true;
    }
    // Data regions never overlap across rate copies.
    for (BlockAddr b : blocks5)
        EXPECT_EQ(blocks0.count(b), 0u);
    EXPECT_TRUE(overlap_code);
}

TEST(Workload, MultiThreadedSharesData)
{
    const Workload w =
        Workload::multiThreaded(profileByName("freqmine"), 4);
    EXPECT_FALSE(w.multiProgrammed());
    ThreadGenerator g0 = w.makeGenerator(0);
    ThreadGenerator g3 = w.makeGenerator(3);
    std::set<BlockAddr> b0;
    for (int i = 0; i < 20000; ++i)
        b0.insert(g0.next().block);
    bool shared = false;
    for (int i = 0; i < 20000 && !shared; ++i)
        shared = b0.count(g3.next().block) != 0;
    EXPECT_TRUE(shared);
}

TEST(Workload, HetMixesEqualRepresentation)
{
    const auto mixes = Workload::hetMixes(36, 8);
    ASSERT_EQ(mixes.size(), 36u);
    std::map<std::string, int> counts;
    for (const auto &m : mixes) {
        EXPECT_EQ(m.threadCount(), 8u);
        for (std::uint32_t i = 0; i < 8; ++i)
            counts[m.profileOf(i).name] += 1;
    }
    EXPECT_EQ(counts.size(), 36u);
    for (const auto &[name, n] : counts)
        EXPECT_EQ(n, 8) << name;
}

TEST(Trace, RoundTrip)
{
    const std::string path = "/tmp/zerodev_test_trace.bin";
    {
        TraceWriter w(path, 2);
        w.append({0, {AccessType::Load, 100, 3}});
        w.append({1, {AccessType::Store, 200, 0}});
        w.append({0, {AccessType::Ifetch, 300, 7}});
    }
    TraceReader r(path);
    EXPECT_EQ(r.cores(), 2u);
    ASSERT_EQ(r.records().size(), 3u);
    EXPECT_EQ(r.records()[0].access.block, 100u);
    EXPECT_EQ(r.records()[1].core, 1u);
    EXPECT_EQ(r.records()[1].access.type, AccessType::Store);
    EXPECT_EQ(r.records()[2].access.gap, 7u);
    std::remove(path.c_str());
}

} // namespace
} // namespace zerodev
