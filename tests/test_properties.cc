/**
 * @file
 * Property-based sweeps: every directory organisation x LLC flavour x
 * replacement policy x workload combination is executed with periodic
 * whole-system invariant checking (DESIGN.md section 7), and the
 * configuration-independent properties are asserted at the end:
 *  - ZeroDEV delivers zero DEV invalidations, always;
 *  - tracking stays precise under every organisation;
 *  - destroyed memory blocks always remain recoverable;
 *  - runs are deterministic.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/serialize.hh"
#include "core/invariants.hh"
#include "sim/runner.hh"
#include "test_util.hh"

namespace zerodev
{
namespace
{

struct SweepParam
{
    DirOrg org;
    double dirRatio;
    DirCachePolicy policy;
    LlcFlavor flavor;
    LlcReplPolicy repl;
    std::uint32_t sockets;
    const char *app;
};

std::string
paramName(const testing::TestParamInfo<SweepParam> &info)
{
    const SweepParam &p = info.param;
    std::string s = std::string(toString(p.org)) + "_" +
                    toString(p.policy) + "_" + toString(p.flavor) + "_" +
                    toString(p.repl) + "_s" + std::to_string(p.sockets) +
                    "_" + p.app;
    for (char &c : s) {
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return s + "_r" + std::to_string(static_cast<int>(p.dirRatio * 100));
}

class ProtocolSweep : public testing::TestWithParam<SweepParam>
{
};

TEST_P(ProtocolSweep, InvariantsHoldThroughout)
{
    const SweepParam &p = GetParam();
    SystemConfig cfg = testutil::tinyConfig();
    cfg.sockets = p.sockets;
    cfg.dirOrg = p.org;
    cfg.directory.sizeRatio = p.dirRatio;
    cfg.dirCachePolicy = p.policy;
    cfg.llcFlavor = p.flavor;
    cfg.llcReplPolicy = p.repl;
    cfg.directory.replacementDisabled = p.org == DirOrg::ZeroDev;

    CmpSystem sys(cfg);
    const std::uint32_t cores = 2 * p.sockets;
    const Workload w =
        Workload::multiThreaded(profileByName(p.app), cores);

    RunConfig rc;
    rc.accessesPerCore = 4000;
    rc.invariantCheckInterval = 1500;
    const RunResult r = run(sys, w, rc);

    const auto violations = checkInvariants(sys);
    for (const auto &v : violations)
        ADD_FAILURE() << v.rule << ": " << v.detail;

    if (p.org == DirOrg::ZeroDev) {
        EXPECT_EQ(r.devInvalidations, 0u);
    }

    // Determinism: a second identical run produces identical numbers.
    CmpSystem sys2(cfg);
    const RunResult r2 = run(sys2, w, rc);
    EXPECT_EQ(r.cycles, r2.cycles);
    EXPECT_EQ(r.trafficBytes, r2.trafficBytes);
}

// The ZeroDEV design space: 3 policies x 3 flavours x 3 replacement
// policies, with and without a sparse directory, single and quad socket.
INSTANTIATE_TEST_SUITE_P(
    ZeroDevDesignSpace, ProtocolSweep,
    testing::Values(
        SweepParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::SpillAll,
                   LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 1,
                   "canneal"},
        SweepParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::SpillAll,
                   LlcFlavor::NonInclusive, LlcReplPolicy::SpLru, 1,
                   "freqmine"},
        SweepParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::SpillAll,
                   LlcFlavor::NonInclusive, LlcReplPolicy::DataLru, 1,
                   "vips"},
        SweepParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::Fpss,
                   LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 1,
                   "freqmine"},
        SweepParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::Fpss,
                   LlcFlavor::NonInclusive, LlcReplPolicy::SpLru, 1,
                   "lu_ncb"},
        SweepParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::Fpss,
                   LlcFlavor::NonInclusive, LlcReplPolicy::DataLru, 1,
                   "canneal"},
        SweepParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::FuseAll,
                   LlcFlavor::NonInclusive, LlcReplPolicy::DataLru, 1,
                   "freqmine"},
        SweepParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::FuseAll,
                   LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 1,
                   "raytrace"},
        SweepParam{DirOrg::ZeroDev, 0.125, DirCachePolicy::Fpss,
                   LlcFlavor::NonInclusive, LlcReplPolicy::DataLru, 1,
                   "ocean_cp"},
        SweepParam{DirOrg::ZeroDev, 1.0, DirCachePolicy::Fpss,
                   LlcFlavor::NonInclusive, LlcReplPolicy::DataLru, 1,
                   "fft"},
        SweepParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::Fpss,
                   LlcFlavor::Inclusive, LlcReplPolicy::DataLru, 1,
                   "canneal"},
        SweepParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::FuseAll,
                   LlcFlavor::Inclusive, LlcReplPolicy::DataLru, 1,
                   "freqmine"},
        SweepParam{DirOrg::ZeroDev, 0.5, DirCachePolicy::Fpss,
                   LlcFlavor::Epd, LlcReplPolicy::DataLru, 1,
                   "canneal"},
        SweepParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::Fpss,
                   LlcFlavor::Epd, LlcReplPolicy::DataLru, 1, "FFTW"},
        SweepParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::SpillAll,
                   LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 4,
                   "canneal"},
        SweepParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::Fpss,
                   LlcFlavor::NonInclusive, LlcReplPolicy::DataLru, 4,
                   "freqmine"}),
    paramName);

// Baselines: sparse (several sizes), unbounded, SecDir, MgD; flavours.
INSTANTIATE_TEST_SUITE_P(
    Baselines, ProtocolSweep,
    testing::Values(
        SweepParam{DirOrg::SparseNru, 1.0, DirCachePolicy::None,
                   LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 1,
                   "canneal"},
        SweepParam{DirOrg::SparseNru, 0.125, DirCachePolicy::None,
                   LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 1,
                   "freqmine"},
        SweepParam{DirOrg::SparseNru, 0.03125, DirCachePolicy::None,
                   LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 1,
                   "ocean_cp"},
        SweepParam{DirOrg::SparseNru, 1.0, DirCachePolicy::None,
                   LlcFlavor::Inclusive, LlcReplPolicy::Lru, 1, "vips"},
        SweepParam{DirOrg::SparseNru, 1.0, DirCachePolicy::None,
                   LlcFlavor::Epd, LlcReplPolicy::Lru, 1, "canneal"},
        SweepParam{DirOrg::Unbounded, 1.0, DirCachePolicy::None,
                   LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 1,
                   "freqmine"},
        SweepParam{DirOrg::SecDir, 1.0, DirCachePolicy::None,
                   LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 1,
                   "canneal"},
        SweepParam{DirOrg::SecDir, 0.125, DirCachePolicy::None,
                   LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 1,
                   "freqmine"},
        SweepParam{DirOrg::MultiGrain, 0.125, DirCachePolicy::None,
                   LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 1,
                   "canneal"},
        SweepParam{DirOrg::MultiGrain, 0.03125, DirCachePolicy::None,
                   LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 1,
                   "FFTW"},
        SweepParam{DirOrg::SparseNru, 1.0, DirCachePolicy::None,
                   LlcFlavor::NonInclusive, LlcReplPolicy::Lru, 4,
                   "canneal"}),
    paramName);

// Workload diversity on the canonical ZeroDEV configuration.
INSTANTIATE_TEST_SUITE_P(
    WorkloadDiversity, ProtocolSweep,
    testing::Values(
        SweepParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::Fpss,
                   LlcFlavor::NonInclusive, LlcReplPolicy::DataLru, 1,
                   "streamcluster"},
        SweepParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::Fpss,
                   LlcFlavor::NonInclusive, LlcReplPolicy::DataLru, 1,
                   "radix"},
        SweepParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::Fpss,
                   LlcFlavor::NonInclusive, LlcReplPolicy::DataLru, 1,
                   "330.art"},
        SweepParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::Fpss,
                   LlcFlavor::NonInclusive, LlcReplPolicy::DataLru, 1,
                   "xalancbmk"},
        SweepParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::Fpss,
                   LlcFlavor::NonInclusive, LlcReplPolicy::DataLru, 1,
                   "TPC-C"},
        SweepParam{DirOrg::ZeroDev, 0.0, DirCachePolicy::Fpss,
                   LlcFlavor::NonInclusive, LlcReplPolicy::DataLru, 1,
                   "water_nsquared"}),
    paramName);

// An invariant sweep only observes: it must not count LLC lookups (the
// energy model's tag-lookup activity) or otherwise change saved state.
TEST(Invariants, SweepLeavesStatisticsAndStateUnchanged)
{
    for (const std::uint32_t sockets : {1u, 2u}) {
        SCOPED_TRACE("sockets=" + std::to_string(sockets));
        // No sparse directory: every tracking peek falls through to the
        // LLC, where the spilled and fused entries live.
        SystemConfig cfg = testutil::tinyZeroDev(0.0);
        cfg.sockets = sockets;
        CmpSystem sys(cfg);
        RunConfig rc;
        rc.accessesPerCore = 3000;
        run(sys,
            Workload::multiThreaded(profileByName("canneal"),
                                    cfg.coresPerSocket * sockets),
            rc);

        SerialOut before;
        sys.saveState(before);
        std::vector<std::uint64_t> lookups;
        for (SocketId s = 0; s < sockets; ++s) {
            ASSERT_GT(sys.llc(s).deLines(), 0u);
            lookups.push_back(sys.llc(s).stats().lookups);
        }

        EXPECT_TRUE(checkInvariants(sys).empty());

        for (SocketId s = 0; s < sockets; ++s)
            EXPECT_EQ(sys.llc(s).stats().lookups, lookups[s]);
        SerialOut after;
        sys.saveState(after);
        EXPECT_EQ(after.data(), before.data());
    }
}

} // namespace
} // namespace zerodev
