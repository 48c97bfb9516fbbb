/**
 * @file
 * Corpus replay test. Every trace checked into tests/corpus/ is replayed
 * through the full differential harness (the standard config cross
 * product) and must come back divergence-free. Shrunk repros of fixed
 * bugs land here so the bug class stays dead; adversarial seed streams
 * land here so the differ's clean baseline is pinned. Corpus files are
 * written by `fuzz_tool gen` / `fuzz_tool shrink` (see
 * docs/VERIFICATION.md for the workflow).
 *
 * The corpus also carries a golden zerodev-snapshot-v3 file
 * (golden-tiny-zdev.snap): a checked-in byte image that pins the
 * snapshot format itself — a format or serialization-order change that
 * silently invalidates old snapshots fails here first. Regenerate with
 * ZERODEV_REGEN_GOLDEN=1 after an *intentional* version bump (see
 * docs/SNAPSHOTS.md).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "core/cmp_system.hh"
#include "sim/snapshot.hh"
#include "test_util.hh"
#include "verify/differ.hh"
#include "workload/trace.hh"

#ifndef CORPUS_DIR
#error "CORPUS_DIR must point at tests/corpus"
#endif

namespace zerodev::verify
{
namespace
{

std::vector<std::string>
corpusFiles()
{
    std::vector<std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(CORPUS_DIR)) {
        if (entry.path().extension() == ".trc")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

TEST(Corpus, HasCheckedInTraces)
{
    ASSERT_TRUE(std::filesystem::is_directory(CORPUS_DIR))
        << CORPUS_DIR;
    EXPECT_GE(corpusFiles().size(), 2u);
}

TEST(Corpus, EveryTraceReplaysCleanUnderTheFullCrossProduct)
{
    for (const std::string &file : corpusFiles()) {
        SCOPED_TRACE(file);
        TraceReader trace(file);
        ASSERT_TRUE(trace.ok()) << trace.error();
        Differ differ(Differ::standardVariants(trace.cores()));
        const DifferResult res = differ.run(trace.records());
        EXPECT_TRUE(res.ok())
            << res.divergence.rule << " @ " << res.divergence.accessIndex
            << " [" << res.divergence.instance
            << "]: " << res.divergence.detail;
        EXPECT_EQ(res.accesses, trace.records().size());
    }
}

// The seedN-Ccore.trc files were written by `fuzz_tool gen N C 2000`;
// regenerating them must give the same bytes, which pins fuzzStream's
// draw sequence (and, through its application phases, the generator's).
TEST(Corpus, TracesAreTheirFuzzStreams)
{
    std::size_t checked = 0;
    for (const std::string &file : corpusFiles()) {
        unsigned seed = 0, cores = 0;
        const std::string name =
            std::filesystem::path(file).filename().string();
        if (std::sscanf(name.c_str(), "seed%u-%ucore.trc", &seed,
                        &cores) != 2)
            continue;
        SCOPED_TRACE(name);
        TraceReader trace(file);
        ASSERT_TRUE(trace.ok()) << trace.error();
        EXPECT_EQ(trace.cores(), cores);
        const std::vector<TraceRecord> want = fuzzStream(seed, cores, 2000);
        const std::vector<TraceRecord> &got = trace.records();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got[i].core, want[i].core) << "record " << i;
            ASSERT_EQ(got[i].access.type, want[i].access.type)
                << "record " << i;
            ASSERT_EQ(got[i].access.block, want[i].access.block)
                << "record " << i;
            ASSERT_EQ(got[i].access.gap, want[i].access.gap)
                << "record " << i;
        }
        ++checked;
    }
    EXPECT_EQ(checked, 3u);
}

std::string
goldenPath()
{
    return std::string(CORPUS_DIR) + "/golden-tiny-zdev.snap";
}

/** Drive @p sys into the exact state the golden snapshot was taken
 *  from: a tiny ZeroDEV system warmed with fuzzStream(42, 2, 2000). */
void
warmToGoldenState(CmpSystem &sys)
{
    Cycle now = 0;
    for (const TraceRecord &rec : fuzzStream(42, 2, 2000))
        now = sys.access(rec.core, rec.access.type, rec.access.block,
                         now + rec.access.gap);
}

std::vector<std::uint8_t>
stateBytes(const CmpSystem &sys)
{
    SerialOut out;
    sys.saveState(out);
    return out.data();
}

TEST(Corpus, GoldenSnapshotStillRestoresByteIdentically)
{
    if (std::getenv("ZERODEV_REGEN_GOLDEN")) {
        CmpSystem sys(testutil::tinyZeroDev());
        warmToGoldenState(sys);
        std::string err;
        ASSERT_TRUE(sys.saveSnapshot(goldenPath(), &err)) << err;
        GTEST_SKIP() << "regenerated " << goldenPath();
    }

    Snapshot snap;
    std::string err;
    ASSERT_TRUE(snap.readFile(goldenPath(), &err))
        << goldenPath() << ": " << err
        << " (a snapshot format change must bump kSnapshotVersion and "
           "regenerate the golden with ZERODEV_REGEN_GOLDEN=1)";
    const std::vector<std::uint8_t> *section = snap.find("system");
    ASSERT_NE(section, nullptr);

    // The checked-in image restores, and re-serializing the restored
    // system reproduces it byte for byte: old snapshots stay readable.
    CmpSystem restored(testutil::tinyZeroDev());
    ASSERT_TRUE(restored.restoreSnapshot(goldenPath(), &err)) << err;
    EXPECT_EQ(stateBytes(restored), *section);

    // Rebuilding the same state live also reproduces it: the simulator
    // still *reaches* the golden state, pinning cross-version
    // determinism of the protocol engine, not just of the codec.
    CmpSystem live(testutil::tinyZeroDev());
    warmToGoldenState(live);
    EXPECT_EQ(stateBytes(live), *section)
        << "simulation no longer reproduces the golden state — if the "
           "behaviour change is intentional, regenerate the golden";
}

// golden-tiny-zdev-v2.snap is the golden image as version 2 wrote it,
// with 64-bit LRU stamps and a clock word per cache array. Version 3
// reads a different line layout, so the file must be turned away by the
// container's version check before any system state is touched.
TEST(Corpus, VersionTwoImageIsRejectedNotMisread)
{
    const std::string path = std::string(CORPUS_DIR) +
                             "/golden-tiny-zdev-v2.snap";
    Snapshot snap;
    std::string err;
    ASSERT_FALSE(snap.readFile(path, &err));
    EXPECT_EQ(err, "unsupported snapshot version");

    CmpSystem sys(testutil::tinyZeroDev());
    warmToGoldenState(sys);
    const std::vector<std::uint8_t> before = stateBytes(sys);
    err.clear();
    EXPECT_FALSE(sys.restoreSnapshot(path, &err));
    EXPECT_NE(err.find("unsupported snapshot version"), std::string::npos)
        << err;
    EXPECT_EQ(stateBytes(sys), before);
}

} // namespace
} // namespace zerodev::verify
