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

// Negative coverage: each rule fires, with its exact message, on a
// system corrupted behind the protocol's back. The components are only
// exposed const (observers must not mutate); a test owning the system
// may cast that away to plant one fault.
template <typename T>
T &
mut(const T &x)
{
    return const_cast<T &>(x);
}

/** The detail of the first violation of @p rule ("" if none). */
std::string
firstDetail(const CmpSystem &sys, const std::string &rule)
{
    for (const Violation &v : checkInvariants(sys)) {
        if (v.rule == rule)
            return v.detail;
    }
    return "";
}

TEST(InvariantRules, CleanSystemHasNoViolations)
{
    CmpSystem sys(testutil::tinyConfig());
    sys.access(0, AccessType::Load, 5, 0);
    sys.access(1, AccessType::Store, 9, 0);
    EXPECT_TRUE(checkInvariants(sys).empty());
}

TEST(InvariantRules, TrackingPrecision)
{
    CmpSystem sys(testutil::tinyConfig());
    sys.access(0, AccessType::Load, 5, 0);
    sys.access(0, AccessType::Load, 6, 0);
    // Core 1 gains a copy the directory never saw.
    mut(sys.privateCache(0, 1)).fill(AccessType::Load, 5, MesiState::Shared);
    EXPECT_EQ(firstDetail(sys, "tracking-precision"),
              "socket 0 block 0x5 sharer vector mismatch");
}

TEST(InvariantRules, NoDangling)
{
    // The audited entries are ZeroDEV's: its sparse directory and the
    // fused/spilled LLC lines.
    CmpSystem sys(testutil::tinyZeroDev());
    sys.access(0, AccessType::Load, 5, 0);
    sys.access(1, AccessType::Load, 0x2a, 0);
    // Core 1 silently drops a block its directory entry still tracks.
    mut(sys.privateCache(0, 1)).invalidate(0x2a, false);
    EXPECT_EQ(firstDetail(sys, "no-dangling"),
              "sparse-dir entry for 0x2a tracks cores that do not cache "
              "it");
    EXPECT_EQ(firstDetail(sys, "tracking-precision"), "");
}

TEST(InvariantRules, TagDuplication)
{
    CmpSystem sys(testutil::tinyConfig());
    // Three data lines under one tag in the block's LLC set.
    for (int i = 0; i < 3; ++i)
        mut(sys.llc(0)).allocate(0x44, LlcLineKind::Data, false, DirEntry{});
    EXPECT_EQ(firstDetail(sys, "tag-duplication"),
              "block 0x44 matches 3 LLC lines");
}

TEST(InvariantRules, SingleOwner)
{
    CmpSystem sys(testutil::tinyConfig());
    sys.access(0, AccessType::Store, 5, 0);
    // A second M copy next to core 0's.
    mut(sys.privateCache(0, 1))
        .fill(AccessType::Store, 5, MesiState::Modified);
    EXPECT_EQ(firstDetail(sys, "single-owner"),
              "block 0x5 has multiple M/E owners");
}

TEST(InvariantRules, Inclusion)
{
    SystemConfig cfg = testutil::tinyConfig();
    cfg.llcFlavor = LlcFlavor::Inclusive;
    CmpSystem sys(cfg);
    sys.access(0, AccessType::Load, 5, 0);
    sys.access(1, AccessType::Load, 7, 0);
    // The inclusive LLC loses the data line of a privately cached block.
    Llc &llc = mut(sys.llc(0));
    const LlcProbe p = llc.probe(7);
    ASSERT_NE(p.data, nullptr);
    llc.invalidateLine(p, *p.data);
    EXPECT_EQ(firstDetail(sys, "inclusion"),
              "block 0x7 cached privately but absent from an inclusive "
              "LLC");
}

TEST(InvariantRules, CorruptionSafety)
{
    CmpSystem sys(testutil::tinyConfig());
    sys.access(0, AccessType::Load, 5, 0);
    // An entry written over the memory data of a block nobody caches.
    DirEntry e;
    e.state = DirState::Shared;
    e.sharers.set(0);
    mut(sys.memStore(0)).storeSegment(0x99, 0, e);
    EXPECT_EQ(firstDetail(sys, "corruption-safety"),
              "destroyed memory block 0x99 has no cached copy anywhere in "
              "the system");
}

/** Every violation of a sweep as "rule: detail", in emission order. */
std::vector<std::string>
allViolations(const CmpSystem &sys)
{
    std::vector<std::string> out;
    for (const Violation &v : checkInvariants(sys))
        out.push_back(v.rule + ": " + v.detail);
    return out;
}

/** tinyConfig() under the directoryless backend. */
SystemConfig
tinyDls()
{
    SystemConfig cfg = testutil::tinyConfig();
    cfg.protocol = ProtocolKind::Dls;
    return cfg;
}

TEST(InvariantRules, TrackingCompleteness)
{
    CmpSystem sys(testutil::tinyConfig());
    sys.access(0, AccessType::Load, 6, 0);
    // Core 0 gains a block no directory entry or segment tracks.
    mut(sys.privateCache(0, 0)).fill(AccessType::Load, 5, MesiState::Shared);
    EXPECT_EQ(firstDetail(sys, "tracking-completeness"),
              "socket 0 block 0x5 cached but untracked");
}

TEST(InvariantRules, OwnerStateOwnedButTrackedShared)
{
    CmpSystem sys(testutil::tinyConfig());
    sys.access(0, AccessType::Load, 5, 0);
    sys.access(1, AccessType::Load, 5, 0);
    // Core 0 silently writes a block the directory tracks as Shared.
    mut(sys.privateCache(0, 0)).upgradeToModified(5);
    EXPECT_EQ(firstDetail(sys, "owner-state"),
              "block 0x5 owned privately but tracked as Shared");
    EXPECT_EQ(firstDetail(sys, "tracking-precision"), "");
}

TEST(InvariantRules, OwnerStateTrackedOwnedButNotHeld)
{
    CmpSystem sys(testutil::tinyConfig());
    sys.access(0, AccessType::Store, 5, 0);
    // Core 0 drops to S behind the directory's Owned entry.
    mut(sys.privateCache(0, 0)).downgrade(5);
    EXPECT_EQ(firstDetail(sys, "owner-state"),
              "block 0x5 tracked as Owned but no core holds M/E");
    EXPECT_EQ(firstDetail(sys, "tracking-precision"), "");
}

TEST(InvariantRules, FpssSpilledShared)
{
    CmpSystem sys(testutil::tinyZeroDev());
    // A data line and an Owned spilled entry for one block: FPSS only
    // spills the entry of a block in S.
    Llc &llc = mut(sys.llc(0));
    llc.allocate(0x44, LlcLineKind::Data, false, DirEntry{});
    DirEntry e;
    e.state = DirState::Owned;
    e.sharers.set(0);
    llc.allocate(0x44, LlcLineKind::SpilledDe, false, e);
    EXPECT_EQ(firstDetail(sys, "fpss-spilled-shared"),
              "FPSS spilled entry for 0x44 co-resident with its block is "
              "not S");
}

TEST(InvariantRules, EpdExclusivePrivate)
{
    SystemConfig cfg = testutil::tinyConfig();
    cfg.llcFlavor = LlcFlavor::Epd;
    CmpSystem sys(cfg);
    sys.access(0, AccessType::Store, 5, 0);
    // An EPD LLC gains a data copy of a block core 0 holds in M.
    mut(sys.llc(0)).allocate(5, LlcLineKind::Data, false, DirEntry{});
    EXPECT_EQ(firstDetail(sys, "epd-exclusive-private"),
              "M/E block 0x5 resident in an EPD LLC");
}

TEST(InvariantRules, DlsSwmr)
{
    CmpSystem sys(tinyDls());
    sys.access(0, AccessType::Store, 5, 0);
    // A reader's copy next to core 0's M copy.
    mut(sys.privateCache(0, 1)).fill(AccessType::Load, 5, MesiState::Shared);
    EXPECT_EQ(firstDetail(sys, "dls-swmr"),
              "block 0x5 is owned M/E alongside other copies");
    EXPECT_EQ(firstDetail(sys, "single-owner"), "");
}

TEST(InvariantRules, DlsLlcExclusion)
{
    CmpSystem sys(tinyDls());
    sys.access(0, AccessType::Store, 5, 0);
    // The store removed the LLC line; plant it back.
    mut(sys.llc(0)).allocate(5, LlcLineKind::Data, false, DirEntry{});
    EXPECT_EQ(firstDetail(sys, "dls-llc-exclusion"),
              "M/E block 0x5 still has an LLC data line");
}

// The duplicated tags come out in ascending block order, not in the LLC
// walk's order: 0x44 (bank 0) is walked before 0x3 (bank 1).
TEST(InvariantRules, TagDuplicationsInBlockOrder)
{
    CmpSystem sys(testutil::tinyConfig());
    Llc &llc = mut(sys.llc(0));
    for (int i = 0; i < 3; ++i) {
        llc.allocate(0x44, LlcLineKind::Data, false, DirEntry{});
        llc.allocate(0x3, LlcLineKind::Data, false, DirEntry{});
    }
    llc.allocate(0x3, LlcLineKind::Data, false, DirEntry{});
    EXPECT_EQ(allViolations(sys),
              (std::vector<std::string>{
                  "tag-duplication: block 0x3 matches 4 LLC lines",
                  "tag-duplication: block 0x44 matches 3 LLC lines"}));
}

// Mismatched blocks come out in ascending block order, not in the
// private caches' walk order: 0x9 (L2 set 1) is walked before 0x2 (set 2).
TEST(InvariantRules, TrackingPrecisionInBlockOrder)
{
    CmpSystem sys(testutil::tinyConfig());
    sys.access(0, AccessType::Load, 0x2, 0);
    sys.access(0, AccessType::Load, 0x9, 0);
    // Core 1 gains copies the directory never saw.
    PrivateCache &pc = mut(sys.privateCache(0, 1));
    pc.fill(AccessType::Load, 0x9, MesiState::Shared);
    pc.fill(AccessType::Load, 0x2, MesiState::Shared);
    EXPECT_EQ(allViolations(sys),
              (std::vector<std::string>{
                  "tracking-precision: socket 0 block 0x2 sharer vector "
                  "mismatch",
                  "tracking-precision: socket 0 block 0x9 sharer vector "
                  "mismatch"}));
}

} // namespace
} // namespace zerodev
