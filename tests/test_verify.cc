/**
 * @file
 * Unit tests of the differential config-equivalence harness and the
 * ddmin trace shrinker: the standard config cross product must agree on
 * adversarial fuzz streams; a synthetic divergence planted through the
 * differ's test-only fault hook must be detected and must shrink to its
 * provably minimal repro (the hook's N stores plus one load).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/serialize.hh"
#include "core/cmp_system.hh"
#include "sim/snapshot.hh"
#include "verify/differ.hh"
#include "verify/shrink.hh"

namespace zerodev::verify
{
namespace
{

/** A deterministic stream with a known fault-trigger pattern: storms
 *  over a small pool, with stores to and loads of @p target mixed in. */
std::vector<TraceRecord>
patternStream(BlockAddr target, std::size_t len = 240)
{
    std::vector<TraceRecord> out;
    for (std::size_t i = 0; i < len; ++i) {
        TraceRecord rec;
        rec.core = static_cast<CoreId>(i % 4);
        rec.access.gap = static_cast<std::uint32_t>(i % 7);
        if (i % 40 == 20) {
            rec.access.type = AccessType::Store;
            rec.access.block = target;
        } else if (i % 40 == 39) {
            rec.access.type = AccessType::Load;
            rec.access.block = target;
        } else {
            rec.access.type = i % 5 == 0 ? AccessType::Store
                                         : AccessType::Load;
            rec.access.block = 1 + (i * 3) % 13;
        }
        out.push_back(rec);
    }
    return out;
}

TEST(Differ, StandardVariantsAgreeOnFuzzStreams)
{
    const auto variants = Differ::standardVariants(4);
    ASSERT_GE(variants.size(), 15u); // incl. the dls/phasepri backends
    Differ differ(variants);
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        const auto stream = fuzzStream(seed, 4, 6000);
        const DifferResult res = differ.run(stream);
        EXPECT_TRUE(res.ok())
            << "seed " << seed << ": " << res.divergence.rule << " @ "
            << res.divergence.accessIndex << " ["
            << res.divergence.instance
            << "]: " << res.divergence.detail;
        EXPECT_EQ(res.accesses, stream.size());
        EXPECT_GT(res.sweeps, 0u);
    }
}

TEST(Differ, RivalBackendsHoldTheValueOracle)
{
    // A focused cross-backend equivalence class: the MESI reference and
    // the canonical ZeroDEV flavour against both rival protocol
    // backends. Their private-cache states legitimately differ from
    // MESI's (DLS has no E state, phase-priority evicts on a different
    // schedule), so equivalence here is exactly what the value oracle
    // checks: every load observes the last value stored.
    const auto all = Differ::standardVariants(4);
    std::vector<Variant> rivals;
    for (const Variant &v : all) {
        if (v.name == "unbounded" || v.name == "zdev-fpss" ||
            v.name == "dls" || v.name == "phasepri") {
            rivals.push_back(v);
        }
    }
    ASSERT_EQ(rivals.size(), 4u);
    Differ differ(rivals);
    for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
        const auto stream = fuzzStream(seed, 4, 6000);
        const DifferResult res = differ.run(stream);
        EXPECT_TRUE(res.ok())
            << "seed " << seed << ": " << res.divergence.rule << " @ "
            << res.divergence.accessIndex << " ["
            << res.divergence.instance
            << "]: " << res.divergence.detail;
        EXPECT_GT(res.sweeps, 0u);
    }
}

TEST(Differ, FuzzStreamIsDeterministicPerSeed)
{
    const auto a = fuzzStream(7, 4, 2000);
    const auto b = fuzzStream(7, 4, 2000);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].core, b[i].core);
        EXPECT_EQ(a[i].access.block, b[i].access.block);
        EXPECT_EQ(a[i].access.type, b[i].access.type);
    }
    const auto c = fuzzStream(8, 4, 2000);
    bool differs = false;
    for (std::size_t i = 0; i < std::min(a.size(), c.size()); ++i) {
        if (a[i].access.block != c[i].access.block)
            differs = true;
    }
    EXPECT_TRUE(differs);
}

TEST(Differ, PlantedFaultIsDetected)
{
    Differ differ(Differ::quickVariants(4));
    FaultHook hook;
    hook.enabled = true;
    hook.instance = 1;
    hook.block = 7;
    hook.afterStores = 2;
    differ.setFaultHook(hook);

    const auto stream = patternStream(7);
    const DifferResult res = differ.run(stream);
    ASSERT_TRUE(res.divergence.found);
    EXPECT_EQ(res.divergence.rule, "load-value");
    EXPECT_EQ(res.divergence.instance, differ.variants()[1].name);
    EXPECT_LT(res.divergence.accessIndex, stream.size());
    // Without the hook the very same stream is clean.
    Differ clean(Differ::quickVariants(4));
    EXPECT_TRUE(clean.run(stream).ok());
}

TEST(Shrink, PlantedFaultShrinksToMinimalRepro)
{
    Differ differ(Differ::quickVariants(4));
    FaultHook hook;
    hook.enabled = true;
    hook.instance = 1;
    hook.block = 7;
    hook.afterStores = 2;
    differ.setFaultHook(hook);

    const auto stream = patternStream(7);
    ASSERT_TRUE(differ.run(stream).divergence.found);

    const ShrinkResult res = shrinkTrace(differ, stream);
    ASSERT_TRUE(res.shrunk());
    EXPECT_EQ(res.originalSize, stream.size());
    EXPECT_FALSE(res.hitCandidateCap);
    // The fault fires on a load of block 7 after two stores to it, so
    // the 1-minimal repro is exactly those three records in order.
    ASSERT_EQ(res.trace.size(), 3u);
    EXPECT_EQ(res.trace[0].access.type, AccessType::Store);
    EXPECT_EQ(res.trace[0].access.block, 7u);
    EXPECT_EQ(res.trace[1].access.type, AccessType::Store);
    EXPECT_EQ(res.trace[1].access.block, 7u);
    EXPECT_EQ(res.trace[2].access.type, AccessType::Load);
    EXPECT_EQ(res.trace[2].access.block, 7u);
    EXPECT_EQ(res.divergence.rule, "load-value");
    // Well under the 50-access repro bound the corpus workflow expects.
    EXPECT_LE(res.trace.size(), 50u);
    // Re-validating the shrunk trace still diverges; dropping its last
    // record does not (1-minimality spot check).
    EXPECT_TRUE(differ.run(res.trace).divergence.found);
    auto less = res.trace;
    less.pop_back();
    EXPECT_FALSE(differ.run(less).divergence.found);
}

TEST(Shrink, CleanTraceComesBackUntouched)
{
    Differ differ(Differ::quickVariants(4));
    const auto stream = patternStream(9, 60);
    const ShrinkResult res = shrinkTrace(differ, stream);
    EXPECT_FALSE(res.shrunk());
    EXPECT_EQ(res.trace.size(), stream.size());
    EXPECT_EQ(res.candidatesTried, 1u);
}

TEST(Shrink, CandidateCapStopsEarly)
{
    Differ differ(Differ::quickVariants(4));
    FaultHook hook;
    hook.enabled = true;
    hook.instance = 1;
    hook.block = 7;
    hook.afterStores = 2;
    differ.setFaultHook(hook);

    ShrinkOptions opt;
    opt.maxCandidates = 3;
    const ShrinkResult res = shrinkTrace(differ, patternStream(7), opt);
    EXPECT_TRUE(res.shrunk());
    EXPECT_TRUE(res.hitCandidateCap);
    EXPECT_LE(res.candidatesTried, 4u);
}

TEST(Differ, RejectsMismatchedCoreCounts)
{
    auto variants = Differ::quickVariants(4);
    auto bad = Differ::quickVariants(8);
    variants.push_back(bad.front());
    variants.back().name = "odd-one-out";
    EXPECT_DEATH({ Differ d(std::move(variants)); }, "core count");
}

TEST(Differ, MultiSocketVariantsCoverBothPartitionings)
{
    const auto variants = Differ::standardVariants(4);
    bool single = false, dual = false;
    for (const Variant &v : variants) {
        if (v.cfg.sockets == 1)
            single = true;
        if (v.cfg.sockets == 2)
            dual = true;
    }
    EXPECT_TRUE(single);
    EXPECT_TRUE(dual);
}


// ---------------------------------------------------------------------
// Pinned verdicts. A planted fault at a chosen record, in a chosen
// instance, must produce exactly the same DifferResult however the
// lockstep loop is scheduled internally: the records straddle the
// 1024-record core-state cadence and the 500-record snapshot cadence.
// ---------------------------------------------------------------------

/** A block no fuzz phase touches: planted loads of it are the only
 *  records that reach it. */
constexpr BlockAddr kPlantBlock = 0x5eed000;
constexpr std::size_t kPinnedLen = 2100;

/** fuzzStream seed 21, with record @p at turned into a load of
 *  kPlantBlock. */
std::vector<TraceRecord>
plantedStream(std::size_t at)
{
    auto s = fuzzStream(21, 4, kPinnedLen);
    for (const TraceRecord &r : s)
        EXPECT_NE(r.access.block, kPlantBlock);
    s[at].access.type = AccessType::Load;
    s[at].access.block = kPlantBlock;
    return s;
}

Differ
plantedDiffer(std::size_t instance)
{
    DifferOptions opt;
    opt.snapshotCadence = 500;
    Differ d(Differ::standardVariants(4), opt);
    FaultHook hook;
    hook.enabled = true;
    hook.instance = instance;
    hook.block = kPlantBlock;
    hook.afterStores = 0;
    d.setFaultHook(hook);
    return d;
}

struct PinnedVerdict
{
    std::size_t at;
    std::size_t instance;
    const char *name;
    CoreId core;
    std::uint64_t sweeps;
    std::uint64_t checkpointAt;
};

TEST(DifferPinned, PlantedFaultVerdictsAreExact)
{
    const std::size_t last = Differ::standardVariants(4).size() - 1;
    ASSERT_EQ(last, 14u);
    const PinnedVerdict pins[] = {
        {0, 1, "sparse-1x", 0, 0, 0},
        {0, 14, "phasepri", 0, 0, 0},
        {1023, 1, "sparse-1x", 3, 0, 1000},
        {1023, 14, "phasepri", 3, 0, 1000},
        {1024, 1, "sparse-1x", 0, 1, 1000},
        {1024, 14, "phasepri", 0, 1, 1000},
        {1025, 1, "sparse-1x", 1, 1, 1000},
        {1025, 14, "phasepri", 1, 1, 1000},
        {kPinnedLen - 1, 1, "sparse-1x", 0, 2, 2000},
        {kPinnedLen - 1, 14, "phasepri", 0, 2, 2000},
    };
    for (const PinnedVerdict &p : pins) {
        SCOPED_TRACE("record " + std::to_string(p.at) + " instance " +
                     std::to_string(p.instance));
        const auto stream = plantedStream(p.at);
        const DifferResult res = plantedDiffer(p.instance).run(stream);
        ASSERT_TRUE(res.divergence.found);
        EXPECT_EQ(res.divergence.rule, "load-value");
        EXPECT_EQ(res.divergence.instance, p.name);
        EXPECT_EQ(res.divergence.accessIndex, p.at);
        EXPECT_EQ(res.divergence.detail,
                  "Load of 0x5eed000 by core " + std::to_string(p.core) +
                      " observed value 1, unbounded observed 0");
        EXPECT_EQ(res.accesses, p.at + 1);
        EXPECT_EQ(res.sweeps, p.sweeps);
        EXPECT_EQ(res.checkpoint.valid, p.checkpointAt != 0);
        EXPECT_EQ(res.checkpoint.accessIndex, p.checkpointAt);
    }
}

TEST(DifferPinned, CheckpointMatchesStandaloneReplays)
{
    const auto stream = fuzzStream(21, 4, kPinnedLen);
    DifferOptions opt;
    opt.snapshotCadence = 500;
    std::vector<std::uint64_t> progress;
    opt.progress = [&](std::uint64_t done) { progress.push_back(done); };
    const Differ differ(Differ::standardVariants(4), opt);
    const DifferResult res = differ.run(stream);
    ASSERT_TRUE(res.ok()) << res.divergence.rule << ": "
                          << res.divergence.detail;
    EXPECT_EQ(res.accesses, kPinnedLen);
    EXPECT_EQ(res.sweeps, 3u); // at 1024, 2048 and the end of stream
    EXPECT_EQ(progress, (std::vector<std::uint64_t>{2048, kPinnedLen}));

    const DifferCheckpoint &cp = res.checkpoint;
    ASSERT_TRUE(cp.valid);
    ASSERT_EQ(cp.accessIndex, 2000u);
    ASSERT_EQ(cp.instances.size(), differ.variants().size());
    for (std::size_t i = 0; i < cp.instances.size(); ++i) {
        SCOPED_TRACE(differ.variants()[i].name);
        CmpSystem sys(differ.variants()[i].cfg);
        Cycle now = 0;
        for (std::uint64_t r = 0; r < cp.accessIndex; ++r) {
            const TraceRecord &rec = stream[r];
            now = sys.access(rec.core, rec.access.type, rec.access.block,
                             now + rec.access.gap);
        }
        SerialOut out;
        sys.saveState(out);
        EXPECT_TRUE(out.data() == cp.instances[i].system);
        EXPECT_EQ(cp.instances[i].now, now);
        EXPECT_TRUE(cp.instances[i].poisoned.empty());
    }
    std::map<BlockAddr, std::uint64_t> versions;
    for (std::uint64_t r = 0; r < cp.accessIndex; ++r) {
        const TraceRecord &rec = stream[r];
        std::uint64_t &v = versions[rec.access.block];
        if (rec.access.type == AccessType::Store)
            ++v;
    }
    EXPECT_EQ(cp.versions,
              (std::vector<std::pair<BlockAddr, std::uint64_t>>(
                  versions.begin(), versions.end())));
}

TEST(DifferPinned, ResumeFromSavedCheckpointKeepsTheVerdict)
{
    const std::size_t at = 1700;
    const auto stream = plantedStream(at);
    const Differ differ = plantedDiffer(14);
    const DifferResult full = differ.run(stream);
    ASSERT_TRUE(full.divergence.found);
    EXPECT_EQ(full.sweeps, 1u);
    ASSERT_TRUE(full.checkpoint.valid);
    ASSERT_EQ(full.checkpoint.accessIndex, 1500u);

    const std::string path = testing::TempDir() + "differ-pinned.ckpt";
    std::string err;
    ASSERT_TRUE(full.checkpoint.save(path, &err)) << err;
    DifferCheckpoint loaded;
    ASSERT_TRUE(loaded.load(path, &err)) << err;
    std::remove(path.c_str());
    ASSERT_EQ(loaded.instances.size(), full.checkpoint.instances.size());
    for (std::size_t i = 0; i < loaded.instances.size(); ++i) {
        EXPECT_TRUE(loaded.instances[i].system ==
                    full.checkpoint.instances[i].system);
        EXPECT_EQ(loaded.instances[i].now, full.checkpoint.instances[i].now);
    }
    EXPECT_EQ(loaded.versions, full.checkpoint.versions);

    const DifferCheckpoint *const from[] = {&full.checkpoint, &loaded};
    for (const DifferCheckpoint *cp : from) {
        const DifferResult tail = differ.resume(*cp, stream);
        ASSERT_TRUE(tail.divergence.found);
        EXPECT_EQ(tail.divergence.rule, full.divergence.rule);
        EXPECT_EQ(tail.divergence.instance, full.divergence.instance);
        EXPECT_EQ(tail.divergence.accessIndex, at);
        EXPECT_EQ(tail.divergence.detail, full.divergence.detail);
        EXPECT_EQ(tail.accesses, full.accesses);
        EXPECT_EQ(tail.sweeps, 0u); // no cadence point in [1500, 1700]
    }
}

TEST(DifferPinned, TruncatedCheckpointFailsToLoad)
{
    const auto stream = fuzzStream(21, 4, 600);
    DifferOptions opt;
    opt.snapshotCadence = 500;
    const DifferResult res =
        Differ(Differ::quickVariants(4), opt).run(stream);
    ASSERT_TRUE(res.checkpoint.valid);
    const std::string path = testing::TempDir() + "differ-trunc.ckpt";
    std::string err;
    ASSERT_TRUE(res.checkpoint.save(path, &err)) << err;
    DifferCheckpoint loaded;
    ASSERT_TRUE(loaded.load(path, &err)) << err;

    // Claim one more image byte than the section holds: the size
    // field of the first instance follows the u64 index and u32 count.
    Snapshot snap;
    ASSERT_TRUE(snap.readFile(path, &err)) << err;
    std::vector<std::uint8_t> bytes = *snap.find("differ");
    Snapshot bad;
    SerialOut &out = bad.section("differ");
    out.raw(bytes.data(), 12);
    out.u64(bytes.size());
    out.raw(bytes.data() + 20, bytes.size() - 20);
    ASSERT_TRUE(bad.writeFile(path, &err)) << err;
    EXPECT_FALSE(loaded.load(path, &err));
    EXPECT_EQ(err, "snapshot truncated");
    EXPECT_FALSE(loaded.valid);
    std::remove(path.c_str());
}

} // namespace
} // namespace zerodev::verify
