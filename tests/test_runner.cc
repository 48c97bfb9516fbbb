/**
 * @file
 * Tests for the simulation runner and experiment helpers: fixed-work
 * execution, determinism, speedup/weighted-speedup arithmetic, trace
 * record-replay equivalence and the energy model's monotonicity.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/energy_model.hh"
#include "sim/experiment.hh"
#include "sim/issue_scheduler.hh"
#include "sim/runner.hh"
#include "test_util.hh"

namespace zerodev
{
namespace
{

RunConfig
quick(std::uint64_t n = 3000)
{
    RunConfig rc;
    rc.accessesPerCore = n;
    rc.invariantCheckInterval = 2000;
    return rc;
}

TEST(Runner, ExecutesFixedWorkPerCore)
{
    CmpSystem sys(testutil::tinyConfig());
    const Workload w =
        Workload::multiThreaded(profileByName("swaptions"), 2);
    const RunResult r = run(sys, w, quick());
    EXPECT_EQ(r.coreCycles.size(), 2u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.instructions, 0u);
    // Both cores executed 3000 accesses; instructions >= accesses.
    EXPECT_GE(r.coreInstructions[0], 3000u);
    EXPECT_GE(r.coreInstructions[1], 3000u);
}

TEST(Runner, DeterministicAcrossRuns)
{
    const Workload w =
        Workload::multiThreaded(profileByName("canneal"), 2);
    CmpSystem a(testutil::tinyConfig());
    CmpSystem b(testutil::tinyConfig());
    const RunResult ra = run(a, w, quick());
    const RunResult rb = run(b, w, quick());
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.trafficBytes, rb.trafficBytes);
    EXPECT_EQ(ra.coreCacheMisses, rb.coreCacheMisses);
}

TEST(Runner, ZeroDevRunIsDevFree)
{
    CmpSystem sys(testutil::tinyZeroDev(0.125));
    const Workload w =
        Workload::multiThreaded(profileByName("freqmine"), 2);
    const RunResult r = run(sys, w, quick(5000));
    EXPECT_EQ(r.devInvalidations, 0u);
}

TEST(Runner, BaselineTinyDirectoryGeneratesDevs)
{
    SystemConfig cfg = testutil::tinyConfig();
    cfg.directory.sizeRatio = 0.0625;
    CmpSystem sys(cfg);
    const Workload w =
        Workload::multiThreaded(profileByName("canneal"), 2);
    const RunResult r = run(sys, w, quick(5000));
    EXPECT_GT(r.devInvalidations, 0u);
}

TEST(Runner, TraceReplayMatchesLiveRun)
{
    const std::string path = "/tmp/zerodev_replay_test.bin";
    const Workload w =
        Workload::multiThreaded(profileByName("swaptions"), 2);
    RunConfig rc = quick(2000);
    rc.tracePath = path;
    CmpSystem live(testutil::tinyConfig());
    const RunResult r_live = run(live, w, rc);

    TraceReader reader(path);
    CmpSystem replayed(testutil::tinyConfig());
    const RunResult r_replay = replay(replayed, reader, RunConfig{});
    EXPECT_EQ(r_live.cycles, r_replay.cycles);
    EXPECT_EQ(r_live.trafficBytes, r_replay.trafficBytes);
    std::remove(path.c_str());
}

/** The per-access scan IssueScheduler replaces: the lowest ready time
 *  among active cores, ties to the lowest core; cores when none. */
std::uint32_t
linearScan(const std::vector<Cycle> &ready, const std::vector<bool> &active)
{
    const auto cores = static_cast<std::uint32_t>(ready.size());
    std::uint32_t best = cores;
    Cycle best_t = ~0ull;
    for (std::uint32_t c = 0; c < cores; ++c) {
        if (active[c] && ready[c] < best_t) {
            best_t = ready[c];
            best = c;
        }
    }
    return best;
}

TEST(IssueScheduler, MatchesLinearScan)
{
    // Partial groups (1, 3, 9, 17), exactly one group (8) and the server
    // config (128). Ready times advance by 0-2 cycles, so many cores tie,
    // and each core has its own quota, so cores finish at different
    // points.
    for (const std::uint32_t cores : {1u, 3u, 8u, 9u, 17u, 128u}) {
        SCOPED_TRACE("cores=" + std::to_string(cores));
        Rng rng(cores);
        const std::uint64_t moveT = Rng::threshold(0.2);
        std::vector<Cycle> ready(cores);
        std::vector<bool> active(cores, true);
        std::vector<std::uint64_t> quota(cores);
        std::uint64_t total = 0;
        IssueScheduler sched(cores);
        for (std::uint32_t c = 0; c < cores; ++c) {
            ready[c] = rng.below(4);
            quota[c] = 1 + rng.below(300);
            total += quota[c];
            sched.set(c, ready[c]);
        }

        std::uint64_t issued = 0;
        while (true) {
            const std::uint32_t want = linearScan(ready, active);
            ASSERT_EQ(sched.next(), want) << "after " << issued;
            if (want == cores)
                break;
            ++issued;
            ready[want] += rng.below(3);
            if (--quota[want] == 0)
                active[want] = false;
            sched.set(want, active[want] ? ready[want]
                                         : IssueScheduler::kFinished);

            // A core other than the winner may move too.
            const auto other = static_cast<std::uint32_t>(rng.below(cores));
            if (active[other] && rng.chance(moveT)) {
                ready[other] += rng.below(3);
                sched.set(other, ready[other]);
            }
        }
        EXPECT_EQ(issued, total);
    }
}

TEST(Experiment, SpeedupArithmetic)
{
    RunResult base, test;
    base.cycles = 2000;
    test.cycles = 1000;
    EXPECT_DOUBLE_EQ(speedup(base, test), 2.0);

    base.coreCycles = {1000, 1000};
    base.coreInstructions = {1000, 2000};
    test.coreCycles = {500, 2000};
    test.coreInstructions = {1000, 2000};
    // Core 0 doubled its IPC, core 1 halved it: WS = (2 + 0.5)/2.
    EXPECT_DOUBLE_EQ(weightedSpeedup(base, test), 1.25);
    EXPECT_DOUBLE_EQ(weightedSpeedup(base, base), 1.0);

    base.coreInstructions = {1000, 500}; // IPC 1.0, 0.5
    test.coreCycles = {500, 1000};
    test.coreInstructions = {1000, 500}; // IPC 2.0, 0.5
    EXPECT_DOUBLE_EQ(weightedSpeedup(base, test), 1.5);
}

TEST(Experiment, TableRendersAlignedColumns)
{
    Table t({"app", "speedup"});
    t.addRow("freqmine", {0.97});
    t.addRow({"a-very-long-name", "1.002"});
    const std::string s = t.render();
    EXPECT_NE(s.find("app"), std::string::npos);
    EXPECT_NE(s.find("freqmine"), std::string::npos);
    EXPECT_NE(s.find("0.970"), std::string::npos);
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Energy, BiggerStructuresCostMore)
{
    const StructureEnergy small = estimateSram(128 * 1024, 8);
    const StructureEnergy big = estimateSram(8 * 1024 * 1024, 8);
    EXPECT_GT(big.readNj, small.readNj);
    EXPECT_GT(big.leakageMw, small.leakageMw);
    EXPECT_GT(big.areaMm2, small.areaMm2);
}

TEST(Energy, RemovingDirectorySavesEnergy)
{
    SystemConfig with_dir = makeEightCoreConfig();
    SystemConfig no_dir = makeEightCoreConfig();
    applyZeroDev(no_dir, 0.0);

    EnergyActivity act;
    act.dirLookups = 1000000;
    act.llcTagLookups = 1000000;
    act.llcDataReads = 600000;
    act.llcDataWrites = 200000;
    act.cycles = 100000000;

    EnergyActivity act_nodir = act;
    act_nodir.dirLookups = 0;
    act_nodir.llcDeAccesses = 300000; // extra DE reads/writes

    const double e_base = energyOfRun(with_dir, act).totalMj();
    const double e_zdev = energyOfRun(no_dir, act_nodir).totalMj();
    EXPECT_LT(e_zdev, e_base);
    // The saving is in the single-digit-percent range, not 2x.
    EXPECT_GT(e_zdev, 0.75 * e_base);
}

TEST(Energy, DirEntryBytes)
{
    EXPECT_EQ(dirEntryBytes(8), 5u);   // 37 bits
    EXPECT_EQ(dirEntryBytes(128), 20u); // 157 bits
}

} // namespace
} // namespace zerodev
