/**
 * @file
 * Error-path tests: misconfigurations must fail fast with fatal() (clean
 * exit) and internal contract violations with panic() (abort), per the
 * gem5-style error discipline in common/log.hh.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "common/stats.hh"
#include "directory/dir_entry.hh"
#include "directory/sparse_directory.hh"
#include "workload/app_profiles.hh"

namespace zerodev
{
namespace
{

using testing::ExitedWithCode;
using testing::KilledBySignal;

TEST(Errors, NonPowerOfTwoBlockSizeIsFatal)
{
    SystemConfig cfg = makeEightCoreConfig();
    cfg.blockBytes = 48;
    EXPECT_EXIT(cfg.validate(), ExitedWithCode(1), "power of two");
}

TEST(Errors, ZeroDevWithoutPolicyIsFatal)
{
    SystemConfig cfg = makeEightCoreConfig();
    cfg.dirOrg = DirOrg::ZeroDev;
    cfg.dirCachePolicy = DirCachePolicy::None;
    EXPECT_EXIT(cfg.validate(), ExitedWithCode(1), "caching policy");
}

TEST(Errors, ZeroSizedBaselineDirectoryIsFatal)
{
    SystemConfig cfg = makeEightCoreConfig();
    cfg.directory.sizeRatio = 0.0;
    EXPECT_EXIT(cfg.validate(), ExitedWithCode(1), "cannot be sized");
}

TEST(Errors, TooManyCoresIsFatal)
{
    SystemConfig cfg = makeEightCoreConfig();
    cfg.coresPerSocket = 256;
    EXPECT_EXIT(cfg.validate(), ExitedWithCode(1), "sharer vector");
}

TEST(Errors, ZeroDevBeyondTheEntryBitBudgetIsFatal)
{
    // A 512-bit block holds the socket entry and three 128-core
    // segments (Section III-D), so the fourth socket does not fit.
    SystemConfig cfg = makeEightCoreConfig();
    applyZeroDev(cfg, 0.0);
    cfg.coresPerSocket = 128;
    cfg.sockets = 3;
    EXPECT_EQ(cfg.check(), "");
    cfg.sockets = 4;
    EXPECT_EXIT(cfg.validate(), ExitedWithCode(1),
                "at most 3 sockets of 128 cores, not 4");
}

TEST(Errors, UnknownSuiteIsFatal)
{
    EXPECT_EXIT(suiteProfiles("spec2042"), ExitedWithCode(1),
                "unknown suite");
}

TEST(Errors, UnknownProfileIsFatal)
{
    EXPECT_EXIT(profileByName("not-an-app"), ExitedWithCode(1),
                "unknown application profile");
}

TEST(Errors, OwnerOfSharedEntryPanics)
{
    DirEntry e;
    e.addSharer(1);
    e.addSharer(2);
    EXPECT_DEATH(e.owner(), "owner\\(\\) on a S entry");
}

TEST(Errors, OwnerOfDeadEntryPanics)
{
    DirEntry e;
    EXPECT_DEATH(e.owner(), "owner\\(\\)");
}

TEST(Errors, GeomeanOfNonPositivePanics)
{
    EXPECT_DEATH(geomean({1.0, 0.0}), "geomean");
}

TEST(Errors, FreeingAbsentDirectoryEntryPanics)
{
    SparseDirectory dir(2, 8, 8, false);
    EXPECT_DEATH(dir.free(123), "freeing absent");
}

TEST(Errors, DoubleAllocationInUnboundedModePanics)
{
    SparseDirectory dir = SparseDirectory::makeUnbounded(2);
    dir.alloc(5).entry->makeOwned(0);
    EXPECT_DEATH(dir.alloc(5), "already exists");
}

} // namespace
} // namespace zerodev
