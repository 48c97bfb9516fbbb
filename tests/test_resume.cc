/**
 * @file
 * Bit-identical-resume tests: a run that is checkpointed at access k,
 * restored into a fresh process-equivalent (fresh CmpSystem, fresh
 * generators) and continued must finish indistinguishable from the
 * uninterrupted run — same RunResult metrics, byte-identical v2 run
 * report, byte-identical final system image (which contains the flushed
 * memory store). This is the standing invariant the snapshot subsystem
 * promises (docs/SNAPSHOTS.md); it holds for any k because checkpoints
 * are taken between transactions, and the issue engine's entire state
 * (per-core progress and the workload RNG streams) rides in the
 * checkpoint's "runner" section.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "core/cmp_system.hh"
#include "obs/probes.hh"
#include "obs/report.hh"
#include "obs/sampler.hh"
#include "sim/runner.hh"
#include "sim/snapshot.hh"
#include "test_util.hh"
#include "verify/differ.hh"
#include "workload/trace.hh"
#include "workload/workload.hh"

namespace zerodev
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "zdev_resume_" + name;
}

Workload
cannealOn(const SystemConfig &cfg)
{
    return Workload::multiThreaded(profileByName("canneal"),
                                   cfg.coresPerSocket * cfg.sockets);
}

std::vector<std::uint8_t>
stateBytes(const CmpSystem &sys)
{
    SerialOut out;
    sys.saveState(out);
    return out.data();
}

/** Run report with the only host-dependent field zeroed. */
std::string
reportFor(const SystemConfig &cfg, RunResult res)
{
    res.wallSeconds = 0.0;
    return obs::runReportJson(cfg, res);
}

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.coreCycles, b.coreCycles);
    EXPECT_EQ(a.coreInstructions, b.coreInstructions);
    EXPECT_EQ(a.coreCacheMisses, b.coreCacheMisses);
    EXPECT_EQ(a.trafficBytes, b.trafficBytes);
    EXPECT_EQ(a.devInvalidations, b.devInvalidations);
    EXPECT_EQ(a.accesses, b.accesses);
}

TEST(Resume, GeneratorRunIsBitIdenticalForManyCheckpoints)
{
    const SystemConfig cfg = testutil::tinyZeroDev(0.125);
    const Workload w = cannealOn(cfg);
    const std::uint64_t perCore = 1500; // 3000 accesses total

    // The uninterrupted reference.
    RunConfig straight;
    straight.accessesPerCore = perCore;
    CmpSystem refSys(cfg);
    const RunResult ref = run(refSys, w, straight);
    const std::vector<std::uint8_t> refState = stateBytes(refSys);
    const std::string refReport = reportFor(cfg, ref);

    // k = 1 (immediately after the first access), a mid-stream prime —
    // by construction inside multi-hop traffic: canneal's sharing
    // pattern keeps 3-hop reads and DEV invalidations flowing, and a
    // checkpoint between any two of those transactions must still
    // capture every in-flight structure (LLC DE lines, directory
    // entries, DRAM bank timing) exactly — plus the last access.
    for (const std::uint64_t k : {std::uint64_t{1}, std::uint64_t{983},
                                  std::uint64_t{1777},
                                  std::uint64_t{2999}}) {
        SCOPED_TRACE("k=" + std::to_string(k));
        const std::string ckpt =
            tmpPath("gen_k" + std::to_string(k) + ".snap");

        // Leg 1: run with a single checkpoint exactly at k. (Cadence k
        // also fires at 2k, 3k, ... — each write overwrites the file,
        // so keep only the first by pointing later ones elsewhere via
        // the {n} placeholder, then renaming the one we want.)
        RunConfig leg1;
        leg1.accessesPerCore = perCore;
        leg1.snapshotEvery = k;
        leg1.snapshotPath = tmpPath("gen_{n}.snap");
        CmpSystem sys1(cfg);
        const RunResult r1 = run(sys1, w, leg1);
        expectSameResult(r1, ref); // checkpointing must not perturb
        EXPECT_EQ(stateBytes(sys1), refState);
        const std::string atK =
            tmpPath("gen_" + std::to_string(k) + ".snap");
        ASSERT_EQ(std::rename(atK.c_str(), ckpt.c_str()), 0);

        // Drop the other cadence files.
        for (std::uint64_t n = 2 * k; n <= 2 * perCore; n += k)
            std::remove(
                tmpPath("gen_" + std::to_string(n) + ".snap").c_str());

        // Leg 2: fresh system + generators, restore at k, continue.
        RunConfig leg2;
        leg2.accessesPerCore = perCore;
        leg2.restorePath = ckpt;
        CmpSystem sys2(cfg);
        const RunResult r2 = run(sys2, w, leg2);

        expectSameResult(r2, ref);
        EXPECT_EQ(reportFor(cfg, r2), refReport);
        EXPECT_EQ(stateBytes(sys2), refState); // final memory image too
        std::remove(ckpt.c_str());
    }
}

TEST(Resume, PartialSchedulerGroupResumesBitIdentically)
{
    // 12 cores fill one issue-scheduler group of 8 and half of a second:
    // the scheduler rebuilt from the restored core states must pick the
    // same cores in the same order as the straight run.
    SystemConfig cfg = testutil::tinyZeroDev(0.125);
    cfg.coresPerSocket = 12;
    const Workload w = cannealOn(cfg);
    const std::uint64_t perCore = 400; // 4800 accesses total
    const std::uint64_t k = 2333;

    RunConfig straight;
    straight.accessesPerCore = perCore;
    CmpSystem refSys(cfg);
    const RunResult ref = run(refSys, w, straight);

    // Cadence k writes checkpoints at k and 2k; resume from the first.
    RunConfig leg1;
    leg1.accessesPerCore = perCore;
    leg1.snapshotEvery = k;
    leg1.snapshotPath = tmpPath("twelve_{n}.snap");
    CmpSystem sys1(cfg);
    expectSameResult(run(sys1, w, leg1), ref);
    std::remove(tmpPath("twelve_" + std::to_string(2 * k) + ".snap").c_str());

    RunConfig leg2;
    leg2.accessesPerCore = perCore;
    leg2.restorePath = tmpPath("twelve_" + std::to_string(k) + ".snap");
    CmpSystem sys2(cfg);
    const RunResult r2 = run(sys2, w, leg2);
    expectSameResult(r2, ref);
    EXPECT_EQ(reportFor(cfg, r2), reportFor(cfg, ref));
    EXPECT_EQ(stateBytes(sys2), stateBytes(refSys));
    std::remove(leg2.restorePath.c_str());
}

TEST(Resume, ReplayIsBitIdenticalAfterRestore)
{
    const SystemConfig cfg = testutil::tinyZeroDev();
    const Workload w = cannealOn(cfg);

    // Record a trace, then use replay as the second issue engine.
    const std::string trc = tmpPath("replay.trc");
    {
        RunConfig rc;
        rc.accessesPerCore = 800;
        rc.tracePath = trc;
        CmpSystem sys(cfg);
        run(sys, w, rc);
    }
    const TraceReader trace = TraceReader::mustLoad(trc);

    CmpSystem refSys(cfg);
    const RunResult ref = replay(refSys, trace, RunConfig{});
    const std::vector<std::uint8_t> refState = stateBytes(refSys);

    const std::string ckpt = tmpPath("replay.snap");
    RunConfig leg1;
    leg1.snapshotEvery = 700;
    leg1.snapshotPath = ckpt; // no {n}: the last write wins
    CmpSystem sys1(cfg);
    const RunResult r1 = replay(sys1, trace, leg1);
    expectSameResult(r1, ref);

    RunConfig leg2;
    leg2.restorePath = ckpt;
    CmpSystem sys2(cfg);
    const RunResult r2 = replay(sys2, trace, leg2);
    expectSameResult(r2, ref);
    EXPECT_EQ(reportFor(cfg, r2), reportFor(cfg, ref));
    EXPECT_EQ(stateBytes(sys2), refState);

    std::remove(trc.c_str());
    std::remove(ckpt.c_str());
}

TEST(Resume, CadenceFallsBackToEnvironmentVariable)
{
    const SystemConfig cfg = testutil::tinyZeroDev();
    const Workload w = cannealOn(cfg);
    const std::string ckpt = tmpPath("env.snap");

    RunConfig rc;
    rc.accessesPerCore = 300;
    rc.snapshotPath = ckpt; // snapshotEvery stays 0
    ::setenv("ZERODEV_SNAPSHOT_EVERY", "250", 1);
    CmpSystem sys(cfg);
    run(sys, w, rc);
    ::unsetenv("ZERODEV_SNAPSHOT_EVERY");

    std::FILE *f = std::fopen(ckpt.c_str(), "rb");
    EXPECT_NE(f, nullptr) << "env-cadence checkpoint was not written";
    if (f)
        std::fclose(f);
    std::remove(ckpt.c_str());

    // Without a snapshot path the cadence (env or field) is inert.
    RunConfig off;
    off.accessesPerCore = 100;
    off.snapshotEvery = 10;
    CmpSystem sys2(cfg);
    run(sys2, w, off); // must not crash trying to write nowhere
}

TEST(Resume, SamplerSeriesIsPhaseAlignedAcrossRestore)
{
    // An interval sampler attached across a checkpoint/restore must
    // produce exactly the straight run's series: same aligned sample
    // boundaries (phase), same Level values, same Rate deltas — the
    // "sampler" checkpoint section carries the next boundary and every
    // Rate baseline, and the resumed run re-collects only the suffix.
    const SystemConfig cfg = testutil::tinyZeroDev();
    const Workload w = cannealOn(cfg);
    const std::uint64_t perCore = 1500; // 3000 accesses total
    const Cycle interval = 2000;

    // The uninterrupted reference series.
    CmpSystem refSys(cfg);
    obs::IntervalSampler ref(interval);
    obs::registerSystemProbes(ref, refSys);
    RunConfig straight;
    straight.accessesPerCore = perCore;
    straight.sampler = &ref;
    run(refSys, w, straight);
    ASSERT_GE(ref.samples().size(), 4u)
        << "reference run too short to cross sample boundaries";

    // Leg 1: sampled run with one mid-run checkpoint (cadence 1600
    // fires once: 3200 > 3000). Checkpointing must not perturb the
    // series.
    const std::string ckpt = tmpPath("sampler.snap");
    CmpSystem sys1(cfg);
    obs::IntervalSampler s1(interval);
    obs::registerSystemProbes(s1, sys1);
    RunConfig leg1;
    leg1.accessesPerCore = perCore;
    leg1.snapshotEvery = 1600;
    leg1.snapshotPath = ckpt;
    leg1.sampler = &s1;
    const RunResult r1 = run(sys1, w, leg1);
    EXPECT_EQ(s1.toCsv(), ref.toCsv());

    // Leg 2: fresh system, fresh sampler, restore, continue. The
    // restored sampler collects only the post-checkpoint suffix.
    CmpSystem sys2(cfg);
    obs::IntervalSampler s2(interval);
    obs::registerSystemProbes(s2, sys2);
    RunConfig leg2;
    leg2.accessesPerCore = perCore;
    leg2.restorePath = ckpt;
    leg2.sampler = &s2;
    const RunResult r2 = run(sys2, w, leg2);
    expectSameResult(r2, r1);

    ASSERT_LE(s2.samples().size(), ref.samples().size());
    ASSERT_GT(s2.samples().size(), 0u);
    EXPECT_EQ(s2.names(), ref.names());
    const std::size_t off = ref.samples().size() - s2.samples().size();
    for (std::size_t i = 0; i < s2.samples().size(); ++i) {
        SCOPED_TRACE("suffix sample " + std::to_string(i));
        const auto &got = s2.samples()[i];
        const auto &want = ref.samples()[off + i];
        EXPECT_EQ(got.cycle, want.cycle); // phase alignment
        ASSERT_EQ(got.values.size(), want.values.size());
        for (std::size_t c = 0; c < got.values.size(); ++c)
            EXPECT_EQ(got.values[c], want.values[c])
                << "column " << ref.names()[c];
    }
    std::remove(ckpt.c_str());
}

TEST(Resume, FullVariantCrossProductResumesBitIdentically)
{
    // The differ's full cross product — every directory organisation,
    // ZeroDEV policy, replacement policy and LLC flavor, single- and
    // two-socket, plus the rival protocol backends (DLS and
    // phase-priority) — must satisfy the same resume contract: a run
    // interrupted mid-stream and continued from its checkpoint produces
    // the same RunResult and the same final system image as the
    // uninterrupted run. This is the standing guard that the
    // data-oriented hot-path layout (SoA arrays, pooled messages,
    // open-addressed tables, derived stats) never leaks host-side state
    // into simulated results.
    const auto variants = verify::Differ::standardVariants(4);
    ASSERT_GE(variants.size(), 15u);
    const std::uint64_t perCore = 400;
    const std::uint64_t k = 731; // mid-stream, not on a core boundary

    for (const verify::Variant &v : variants) {
        SCOPED_TRACE(v.name);
        const Workload w = cannealOn(v.cfg);

        RunConfig straight;
        straight.accessesPerCore = perCore;
        CmpSystem refSys(v.cfg);
        const RunResult ref = run(refSys, w, straight);
        const std::vector<std::uint8_t> refState = stateBytes(refSys);

        const std::string ckpt = tmpPath("var_" + v.name + "_{n}.snap");
        RunConfig leg1;
        leg1.accessesPerCore = perCore;
        leg1.snapshotEvery = k;
        leg1.snapshotPath = ckpt;
        CmpSystem sys1(v.cfg);
        const RunResult r1 = run(sys1, w, leg1);
        expectSameResult(r1, ref);
        EXPECT_EQ(stateBytes(sys1), refState);

        const std::string atK =
            tmpPath("var_" + v.name + "_" + std::to_string(k) + ".snap");
        RunConfig leg2;
        leg2.accessesPerCore = perCore;
        leg2.restorePath = atK;
        CmpSystem sys2(v.cfg);
        const RunResult r2 = run(sys2, w, leg2);
        expectSameResult(r2, ref);
        EXPECT_EQ(reportFor(v.cfg, r2), reportFor(v.cfg, ref));
        EXPECT_EQ(stateBytes(sys2), refState);

        for (std::uint64_t n = k; n <= perCore * 4; n += k)
            std::remove(tmpPath("var_" + v.name + "_" +
                                std::to_string(n) + ".snap")
                            .c_str());
    }
}

TEST(Resume, CheckpointFilesCarryRunnerStateAndValidate)
{
    const SystemConfig cfg = testutil::tinyZeroDev();
    const Workload w = cannealOn(cfg);
    const std::string ckpt = tmpPath("sections.snap");

    RunConfig rc;
    rc.accessesPerCore = 200;
    rc.snapshotEvery = 150;
    rc.snapshotPath = ckpt;
    CmpSystem sys(cfg);
    run(sys, w, rc);

    Snapshot snap;
    std::string err;
    ASSERT_TRUE(snap.readFile(ckpt, &err)) << err;
    EXPECT_TRUE(snap.has("system"));
    EXPECT_TRUE(snap.has("runner"));

    // The system section alone restores through the generic entry point.
    CmpSystem copy(cfg);
    EXPECT_TRUE(restoreSystemSection(snap, copy, &err)) << err;
    std::remove(ckpt.c_str());
}

} // namespace
} // namespace zerodev
