/**
 * @file
 * Unit tests for the report-comparison library (src/obs/compare.hh):
 * threshold resolution, pairing by fingerprint + workload, regression /
 * improvement classification, markdown and JSON verdict rendering,
 * loading report files and directories, and the weighted-speedup
 * helpers the figure summaries use.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "common/config.hh"
#include "obs/compare.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "sim/runner.hh"

namespace zerodev
{
namespace
{

using obs::CompareOptions;
using obs::CompareResult;
using obs::LoadedReport;
using obs::parseJson;

LoadedReport
makeReport(const std::string &fp, const std::string &workload,
           double cycles)
{
    LoadedReport r;
    r.configName = "unit";
    r.fingerprint = fp;
    r.workload = workload;
    r.coreIpc = {1.0, 1.0};
    r.metrics["cycles"] = cycles;
    r.metrics["devInvalidations"] = 100.0;
    r.metrics["latency.dram"] = 5000.0;
    return r;
}

TEST(CompareOptions, LongestPrefixThresholdWins)
{
    const CompareOptions opt;
    EXPECT_DOUBLE_EQ(opt.thresholdFor("cycles"), 0.01);
    EXPECT_DOUBLE_EQ(opt.thresholdFor("trafficBytes"), 0.01);
    EXPECT_DOUBLE_EQ(opt.thresholdFor("latency.dram"), 0.05);
    EXPECT_DOUBLE_EQ(opt.thresholdFor("devInvalidations"), 0.05);
}

TEST(Compare, IdenticalReportsPass)
{
    const std::vector<LoadedReport> base = {makeReport("aa", "w", 1000)};
    const CompareResult res = obs::compareReports(base, base);
    ASSERT_EQ(res.pairs.size(), 1u);
    EXPECT_FALSE(res.regression());
    EXPECT_DOUBLE_EQ(res.pairs[0].weightedSpeedup, 1.0);
    EXPECT_NE(res.markdown().find("no regression"), std::string::npos);
}

TEST(Compare, OverThresholdGrowthRegresses)
{
    const std::vector<LoadedReport> base = {makeReport("aa", "w", 1000)};
    std::vector<LoadedReport> cand = {makeReport("aa", "w", 1020)};
    const CompareResult res = obs::compareReports(base, cand);
    ASSERT_EQ(res.pairs.size(), 1u);
    EXPECT_TRUE(res.regression());

    // The verdict must name the regressed metric.
    const auto v = parseJson(res.verdictJson());
    ASSERT_TRUE(v.has_value());
    EXPECT_TRUE(v->find("regression")->boolean);
    const obs::JsonValue &pair = v->find("pairs")->array.at(0);
    ASSERT_EQ(pair.find("regressions")->array.size(), 1u);
    EXPECT_EQ(pair.find("regressions")->array[0].string, "cycles");
    EXPECT_NE(res.markdown().find("**REGRESSION**"), std::string::npos);
}

TEST(Compare, NoisyMetricsGetTheWiderThreshold)
{
    const std::vector<LoadedReport> base = {makeReport("aa", "w", 1000)};
    // +4% DEV invalidations and +4% latency.dram: inside their 5%
    // threshold, while the same growth on cycles would regress.
    std::vector<LoadedReport> cand = {makeReport("aa", "w", 1000)};
    cand[0].metrics["devInvalidations"] = 104.0;
    cand[0].metrics["latency.dram"] = 5200.0;
    EXPECT_FALSE(obs::compareReports(base, cand).regression());

    cand[0].metrics["cycles"] = 1040.0;
    EXPECT_TRUE(obs::compareReports(base, cand).regression());
}

TEST(Compare, ImprovementIsReportedNotFailed)
{
    const std::vector<LoadedReport> base = {makeReport("aa", "w", 1000)};
    const std::vector<LoadedReport> cand = {makeReport("aa", "w", 900)};
    const CompareResult res = obs::compareReports(base, cand);
    EXPECT_FALSE(res.regression());
    EXPECT_NE(res.markdown().find("improvement"), std::string::npos);
}

TEST(Compare, MetricAppearingFromZeroRegresses)
{
    std::vector<LoadedReport> base = {makeReport("aa", "w", 1000)};
    std::vector<LoadedReport> cand = {makeReport("aa", "w", 1000)};
    base[0].metrics["devInvalidations"] = 0.0;
    cand[0].metrics["devInvalidations"] = 50.0;
    EXPECT_TRUE(obs::compareReports(base, cand).regression());
}

TEST(Compare, UnpairedRunsAreListedButDoNotGate)
{
    const std::vector<LoadedReport> base = {makeReport("aa", "w", 1000),
                                            makeReport("bb", "w", 1000)};
    const std::vector<LoadedReport> cand = {makeReport("aa", "w", 1000),
                                            makeReport("cc", "w", 1000)};
    const CompareResult res = obs::compareReports(base, cand);
    EXPECT_FALSE(res.regression());
    ASSERT_EQ(res.baselineOnly.size(), 1u);
    EXPECT_EQ(res.baselineOnly[0], "bb/w");
    ASSERT_EQ(res.candidateOnly.size(), 1u);
    EXPECT_EQ(res.candidateOnly[0], "cc/w");
}

// --- loading from disk -----------------------------------------------

class CompareIo : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "zdev_compare_" +
               std::to_string(::getpid());
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    void
    write(const std::string &name, const std::string &content)
    {
        std::ofstream(dir_ + "/" + name) << content;
    }

    std::string dir_;
};

TEST_F(CompareIo, LoadsRealReportsAndSkipsTrajectoryFiles)
{
    RunResult res;
    res.workload = "unit";
    res.cycles = 100;
    res.instructions = 100;
    res.coreCycles = {100};
    res.coreInstructions = {100};
    write("a.json", obs::runReportJson(makeEightCoreConfig(), res));
    write("BENCH_x.json",
          "{\"schema\":\"zerodev-bench-trajectory-v1\",\"runs\":[]}\n");
    write("notes.txt", "not json, not loaded");

    std::vector<LoadedReport> out;
    std::string err;
    ASSERT_TRUE(obs::loadReports(dir_, out, &err)) << err;
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].workload, "unit");
    EXPECT_EQ(out[0].metrics.at("cycles"), 100.0);
    EXPECT_TRUE(out[0].metrics.count("latency.dram"));
    ASSERT_EQ(out[0].coreIpc.size(), 1u);
    EXPECT_DOUBLE_EQ(out[0].coreIpc[0], 1.0);

    // A single file loads too.
    std::vector<LoadedReport> one;
    EXPECT_TRUE(obs::loadReports(dir_ + "/a.json", one, &err)) << err;
    EXPECT_EQ(one.size(), 1u);
}

TEST_F(CompareIo, RejectsMissingAndMalformedInputs)
{
    std::vector<LoadedReport> out;
    std::string err;
    EXPECT_FALSE(obs::loadReports(dir_ + "/nope", out, &err));
    EXPECT_FALSE(err.empty());

    write("bad.json", "{ not json");
    err.clear();
    EXPECT_FALSE(obs::loadReports(dir_, out, &err));
    EXPECT_FALSE(err.empty());
}

// --- weighted speedup (the paper's multi-programmed metric) ----------

TEST(WeightedSpeedup, VectorHelper)
{
    EXPECT_DOUBLE_EQ(weightedSpeedup({1.0, 2.0}, {2.0, 2.0}), 1.5);
    EXPECT_DOUBLE_EQ(weightedSpeedup({1.0}, {1.0}), 1.0);
    // Zero-base cores contribute 0 to the sum but still divide.
    EXPECT_DOUBLE_EQ(weightedSpeedup({0.0, 1.0}, {5.0, 1.0}), 0.5);
    EXPECT_DOUBLE_EQ(weightedSpeedup({}, {}), 0.0);
    // Common prefix only.
    EXPECT_DOUBLE_EQ(weightedSpeedup({1.0, 1.0, 1.0}, {2.0}), 2.0);
}

} // namespace
} // namespace zerodev
