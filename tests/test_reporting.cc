/**
 * @file
 * Tests for the reporting surface: the CmpSystem statistics dump (every
 * figure-feeding counter is present and consistent), the sharing-degree
 * and DEV-size histograms, and cross-counter consistency relations
 * (e.g. two-hop + three-hop reads never exceed misses; DRAM DE traffic
 * only exists under ZeroDEV).
 */

#include <gtest/gtest.h>

#include "core/cmp_system.hh"
#include "sim/runner.hh"
#include "test_util.hh"

namespace zerodev
{
namespace
{

RunResult
runApp(CmpSystem &sys, const char *app, std::uint64_t n = 6000)
{
    const AppProfile p = profileByName(app);
    const Workload w = Workload::multiThreaded(p, sys.totalCores());
    RunConfig rc;
    rc.accessesPerCore = n;
    return run(sys, w, rc);
}

TEST(Reporting, DumpContainsCoreCounters)
{
    CmpSystem sys(testutil::tinyConfig());
    const RunResult r = runApp(sys, "canneal");
    const StatDump &d = r.system;
    for (const char *key :
         {"accesses", "l2_misses", "dev_invalidations", "two_hop_reads",
          "three_hop_reads", "traffic_bytes", "dram.reads",
          "dram.writes", "s0.llc.data_evictions",
          "s0.mem.corrupted_blocks"}) {
        EXPECT_TRUE(d.has(key)) << key;
    }
    EXPECT_DOUBLE_EQ(d.get("accesses"),
                     static_cast<double>(sys.protoStats().accesses));
}

TEST(Reporting, HopCountersBoundedByMisses)
{
    CmpSystem sys(testutil::tinyConfig());
    runApp(sys, "freqmine");
    const ProtocolStats &p = sys.protoStats();
    EXPECT_LE(p.twoHopReads + p.threeHopReads, p.l2Misses);
    EXPECT_GT(p.accesses, p.l2Misses);
}

TEST(Reporting, SharingDegreeHistogramPopulated)
{
    CmpSystem sys(testutil::tinyConfig());
    runApp(sys, "freqmine"); // heavy sharing
    const Histogram &h = sys.sharingDegreeHist();
    EXPECT_GT(h.samples(), 0u);
    // Sharing degrees start at 2 (a second core joining).
    EXPECT_EQ(h.bucket(0), 0u);
    EXPECT_EQ(h.bucket(1), 0u);
    EXPECT_GT(h.bucket(2), 0u);
    EXPECT_GE(h.meanValue(), 2.0);
    // The dump carries the histogram.
    const StatDump d = sys.report();
    EXPECT_TRUE(d.has("sharing_degree.samples"));
    EXPECT_TRUE(d.has("sharing_degree.p50"));
}

TEST(Reporting, DevSizeHistogramOnlyUnderConflicts)
{
    // Unbounded directory: no DEVs, empty histogram.
    SystemConfig cfg = testutil::tinyConfig();
    cfg.dirOrg = DirOrg::Unbounded;
    CmpSystem unb(cfg);
    runApp(unb, "canneal");
    EXPECT_EQ(unb.devSizeHist().samples(), 0u);

    // Tiny directory: DEVs happen and each order invalidates >= 1 copy.
    SystemConfig small = testutil::tinyConfig();
    small.directory.sizeRatio = 0.0625;
    CmpSystem tiny(small);
    runApp(tiny, "canneal");
    if (tiny.protoStats().devInvalidations > 0) {
        EXPECT_GT(tiny.devSizeHist().samples(), 0u);
        EXPECT_GE(tiny.devSizeHist().meanValue(), 1.0);
    }
}

TEST(Reporting, DramDeTrafficOnlyUnderZeroDev)
{
    CmpSystem base(testutil::tinyConfig());
    runApp(base, "canneal");
    EXPECT_EQ(base.totalDramStats().deWrites, 0u);
    EXPECT_EQ(base.totalDramStats().deReads, 0u);
}

TEST(Reporting, ZeroDevDumpExposesDirAndLlcOccupancy)
{
    CmpSystem sys(testutil::tinyZeroDev(0.5));
    runApp(sys, "canneal");
    const StatDump d = sys.report();
    EXPECT_TRUE(d.has("s0.dir.live"));
    EXPECT_TRUE(d.has("s0.dir.refusals"));
    EXPECT_FALSE(d.has("s0.dir.forced_invs"));
    EXPECT_TRUE(d.has("s0.llc.peak_de_lines"));
    EXPECT_GT(d.get("s0.llc.peak_de_lines"), 0.0);
}

TEST(Reporting, TrafficSplitsAcrossSockets)
{
    SystemConfig cfg = testutil::tinyConfig();
    cfg.sockets = 2;
    CmpSystem sys(cfg);
    const Workload w =
        Workload::multiThreaded(profileByName("canneal"), 4);
    RunConfig rc;
    rc.accessesPerCore = 4000;
    run(sys, w, rc);
    const std::uint64_t total = sys.totalTrafficBytes();
    EXPECT_EQ(total, sys.traffic(0).totalBytes() +
                         sys.traffic(1).totalBytes());
    EXPECT_GT(sys.traffic(0).totalBytes(), 0u);
    EXPECT_GT(sys.traffic(1).totalBytes(), 0u);
}

TEST(Reporting, MissesMatchPrivateCacheSums)
{
    CmpSystem sys(testutil::tinyConfig());
    runApp(sys, "swaptions");
    std::uint64_t sum = 0;
    for (CoreId c = 0; c < 2; ++c)
        sum += sys.privateCache(0, c).stats().misses;
    EXPECT_EQ(sum, sys.protoStats().l2Misses);
}

TEST(Reporting, LatencyClassesPartitionAccesses)
{
    CmpSystem sys(testutil::tinyConfig());
    runApp(sys, "canneal");
    const ProtocolStats &p = sys.protoStats();
    std::uint64_t classified = 0;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(AccessClass::NumClasses); ++i) {
        classified += p.classCount[i];
    }
    EXPECT_EQ(classified, p.accesses);
    // The ordering every hierarchy obeys.
    EXPECT_LT(p.meanLatency(AccessClass::L1Hit),
              p.meanLatency(AccessClass::L2Hit));
    EXPECT_LT(p.meanLatency(AccessClass::L2Hit),
              p.meanLatency(AccessClass::Memory));
    // L1 hits cost exactly the L1 lookup.
    EXPECT_DOUBLE_EQ(p.meanLatency(AccessClass::L1Hit), 3.0);
    const StatDump d = sys.report();
    EXPECT_TRUE(d.has("latency.l1_hit.mean"));
    EXPECT_TRUE(d.has("latency.memory.count"));
}

TEST(Reporting, ThreeHopSlowerThanTwoHop)
{
    CmpSystem sys(testutil::tinyConfig());
    runApp(sys, "freqmine"); // migratory: plenty of 3-hop forwards
    const ProtocolStats &p = sys.protoStats();
    if (p.classCount[static_cast<std::size_t>(AccessClass::ThreeHop)] &&
        p.classCount[static_cast<std::size_t>(AccessClass::TwoHop)]) {
        EXPECT_GT(p.meanLatency(AccessClass::ThreeHop),
                  p.meanLatency(AccessClass::TwoHop) - 2.0);
    }
}

TEST(Reporting, ReportIsIdempotent)
{
    CmpSystem sys(testutil::tinyConfig());
    runApp(sys, "swaptions");
    const StatDump a = sys.report();
    const StatDump b = sys.report();
    ASSERT_EQ(a.entries().size(), b.entries().size());
    for (std::size_t i = 0; i < a.entries().size(); ++i) {
        EXPECT_EQ(a.entries()[i].first, b.entries()[i].first);
        EXPECT_DOUBLE_EQ(a.entries()[i].second, b.entries()[i].second);
    }
}

} // namespace
} // namespace zerodev
