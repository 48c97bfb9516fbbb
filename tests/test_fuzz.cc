/**
 * @file
 * Randomised protocol fuzzing: long random access interleavings (not
 * drawn from the structured workload generators) across the whole
 * configuration space, with whole-system invariant checks interleaved
 * and at the end. This is the adversarial complement to the structured
 * property sweeps in test_properties.cc — the address stream has no
 * region discipline, maximising protocol corner-case coverage (same-set
 * storms, rapid ownership migration, eviction/recall races).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/cmp_system.hh"
#include "core/invariants.hh"
#include "test_util.hh"

namespace zerodev
{
namespace
{

struct FuzzParam
{
    DirOrg org;
    double ratio;
    DirCachePolicy policy;
    LlcFlavor flavor;
    LlcReplPolicy repl;
    std::uint32_t sockets;
    std::uint64_t seed;
};

std::string
fuzzName(const testing::TestParamInfo<FuzzParam> &info)
{
    const FuzzParam &p = info.param;
    std::string s = std::string(toString(p.org)) + "_" +
                    toString(p.policy) + "_" + toString(p.flavor) + "_" +
                    toString(p.repl) + "_s" + std::to_string(p.sockets) +
                    "_seed" + std::to_string(p.seed) + "_r" +
                    std::to_string(static_cast<int>(p.ratio * 1000));
    for (char &c : s) {
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return s;
}

class ProtocolFuzz : public testing::TestWithParam<FuzzParam>
{
};

TEST_P(ProtocolFuzz, RandomStormKeepsInvariants)
{
    const FuzzParam &p = GetParam();
    SystemConfig cfg = testutil::tinyConfig();
    cfg.sockets = p.sockets;
    cfg.dirOrg = p.org;
    cfg.directory.sizeRatio = p.ratio;
    cfg.dirCachePolicy = p.policy;
    cfg.llcFlavor = p.flavor;
    cfg.llcReplPolicy = p.repl;
    cfg.directory.replacementDisabled = p.org == DirOrg::ZeroDev;
    // A tiny socket-directory cache stresses the backing flows too.
    cfg.socketDirCacheSets = 8;
    cfg.socketDirCacheWays = 2;
    cfg.socketDirZeroDev = (p.seed % 2) == 0;

    CmpSystem sys(cfg);
    Rng rng(p.seed);
    const std::uint32_t cores = 2 * p.sockets;
    const std::uint64_t hotT = Rng::threshold(0.7);
    const std::uint64_t storeBound = Rng::threshold(0.25);
    const std::uint64_t ifetchBound = Rng::threshold(0.32);
    Cycle t = 0;

    // A small address pool concentrates conflicts; a medium pool mixes
    // in capacity churn. Alternate between them.
    for (std::uint32_t i = 0; i < 12000; ++i) {
        const CoreId c = static_cast<CoreId>(rng.below(cores));
        const bool hot = rng.chance(hotT);
        const BlockAddr b = hot ? rng.below(96)            // conflict storm
                                : 4096 + rng.below(4096);  // churn
        const std::uint64_t m = rng.draw53();
        const AccessType a = m < storeBound    ? AccessType::Store
                             : m < ifetchBound ? AccessType::Ifetch
                                               : AccessType::Load;
        t = sys.access(c, a, b, t + rng.below(20));
        if (i % 3000 == 2999)
            assertInvariants(sys);
    }

    const auto violations = checkInvariants(sys);
    for (const auto &v : violations)
        ADD_FAILURE() << v.rule << ": " << v.detail;
    if (p.org == DirOrg::ZeroDev) {
        EXPECT_EQ(sys.protoStats().devInvalidations, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ZeroDevFuzz, ProtocolFuzz,
    testing::Values(
        FuzzParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::Fpss,
                  LlcFlavor::NonInclusive, LlcReplPolicy::DataLru, 1, 1},
        FuzzParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::Fpss,
                  LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 1, 2},
        FuzzParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::SpillAll,
                  LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 1, 3},
        FuzzParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::SpillAll,
                  LlcFlavor::NonInclusive, LlcReplPolicy::SpLru, 1, 4},
        FuzzParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::FuseAll,
                  LlcFlavor::NonInclusive, LlcReplPolicy::DataLru, 1, 5},
        FuzzParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::FuseAll,
                  LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 1, 6},
        FuzzParam{DirOrg::ZeroDev, 0.125, DirCachePolicy::Fpss,
                  LlcFlavor::NonInclusive, LlcReplPolicy::DataLru, 1, 7},
        FuzzParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::Fpss,
                  LlcFlavor::Inclusive, LlcReplPolicy::DataLru, 1, 8},
        FuzzParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::SpillAll,
                  LlcFlavor::Inclusive, LlcReplPolicy::Lru, 1, 9},
        FuzzParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::Fpss,
                  LlcFlavor::Epd, LlcReplPolicy::DataLru, 1, 10},
        FuzzParam{DirOrg::ZeroDev, 0.25, DirCachePolicy::FuseAll,
                  LlcFlavor::Epd, LlcReplPolicy::DataLru, 1, 11},
        FuzzParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::Fpss,
                  LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 4, 12},
        FuzzParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::SpillAll,
                  LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 4, 13},
        FuzzParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::FuseAll,
                  LlcFlavor::NonInclusive, LlcReplPolicy::DataLru, 4,
                  14},
        FuzzParam{DirOrg::ZeroDev, 0.125, DirCachePolicy::Fpss,
                  LlcFlavor::NonInclusive, LlcReplPolicy::DataLru, 4,
                  15}),
    fuzzName);

INSTANTIATE_TEST_SUITE_P(
    BaselineFuzz, ProtocolFuzz,
    testing::Values(
        FuzzParam{DirOrg::SparseNru, 1.0, DirCachePolicy::None,
                  LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 1, 20},
        FuzzParam{DirOrg::SparseNru, 0.0625, DirCachePolicy::None,
                  LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 1, 21},
        FuzzParam{DirOrg::SparseNru, 0.125, DirCachePolicy::None,
                  LlcFlavor::Inclusive, LlcReplPolicy::Lru, 1, 22},
        FuzzParam{DirOrg::SparseNru, 0.125, DirCachePolicy::None,
                  LlcFlavor::Epd, LlcReplPolicy::Lru, 1, 23},
        FuzzParam{DirOrg::Unbounded, 1.0, DirCachePolicy::None,
                  LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 1, 24},
        FuzzParam{DirOrg::SecDir, 1.0, DirCachePolicy::None,
                  LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 1, 25},
        FuzzParam{DirOrg::SecDir, 0.125, DirCachePolicy::None,
                  LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 1, 26},
        FuzzParam{DirOrg::MultiGrain, 0.125, DirCachePolicy::None,
                  LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 1, 27},
        FuzzParam{DirOrg::MultiGrain, 0.0625, DirCachePolicy::None,
                  LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 1, 28},
        FuzzParam{DirOrg::SparseNru, 0.25, DirCachePolicy::None,
                  LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 4, 29},
        FuzzParam{DirOrg::SparseNru, 1.0, DirCachePolicy::None,
                  LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 4, 30}),
    fuzzName);

} // namespace
} // namespace zerodev
