/**
 * @file
 * End-to-end tests of the side-channel lab (docs/SIDECHANNEL.md): the
 * attack scenarios must reproduce the paper's leakage story on the
 * Differ's standard variants — sparse baselines leak through the DEV
 * channel, ZeroDEV and partitioned tags isolate — with eviction
 * provenance conserved on every trial, and the sidechannel_tool binary
 * (SIDECHANNEL_TOOL_PATH) must emit bit-identical reports whatever
 * --jobs is.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <sys/wait.h>

#include "attack/scenario.hh"
#include "core/cmp_system.hh"
#include "obs/leakage.hh"
#include "obs/metrics.hh"
#include "verify/differ.hh"

using namespace zerodev;

namespace
{

SystemConfig
variantConfig(const std::string &name)
{
    for (const verify::Variant &v :
         verify::Differ::standardVariants(4)) {
        if (v.name == name)
            return v.cfg;
    }
    ADD_FAILURE() << "no standard variant named " << name;
    return {};
}

attack::ScenarioResult
runKind(const SystemConfig &cfg, attack::ScenarioKind kind,
        std::uint64_t trials = 32)
{
    attack::ScenarioOptions opt;
    opt.kind = kind;
    opt.trials = trials;
    opt.seed = 3;
    return attack::runScenario(cfg, opt);
}

std::uint64_t
sum(const std::vector<std::uint64_t> &v)
{
    return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

TEST(Sidechannel, SparseBaselineLeaksThroughDevChannel)
{
    const SystemConfig cfg = variantConfig("sparse-8th");
    for (const auto kind : {attack::ScenarioKind::DirPrimeProbe,
                            attack::ScenarioKind::DirOccupancy}) {
        const attack::ScenarioResult r = runKind(cfg, kind);
        const obs::LeakageEstimate est =
            obs::estimateLeakage(r.secrets, r.observables);
        EXPECT_GE(est.capacityBits, 0.5)
            << "sparse must leak under " << attack::toString(kind);
        EXPECT_GT(r.devInvalidations, 0u);
        EXPECT_EQ(r.invariantViolations, 0u);
    }
}

TEST(Sidechannel, ZeroDevIsolatesByConstruction)
{
    const SystemConfig cfg = variantConfig("zdev-fpss");
    for (const auto kind : {attack::ScenarioKind::DirPrimeProbe,
                            attack::ScenarioKind::DirOccupancy}) {
        const attack::ScenarioResult r = runKind(cfg, kind);
        const obs::LeakageEstimate est =
            obs::estimateLeakage(r.secrets, r.observables);
        EXPECT_LE(est.capacityBits, 0.05)
            << "ZeroDEV must isolate under " << attack::toString(kind);
        // The whole point: replacement is disabled, so there are no
        // directory-eviction victims to observe.
        EXPECT_EQ(r.devInvalidations, 0u);
        EXPECT_EQ(r.invariantViolations, 0u);
    }
}

TEST(Sidechannel, DlsIsolatesBecauseNoDirectoryExists)
{
    const SystemConfig cfg = variantConfig("dls");
    for (const auto kind : {attack::ScenarioKind::DirPrimeProbe,
                            attack::ScenarioKind::DirOccupancy}) {
        const attack::ScenarioResult r = runKind(cfg, kind);
        const obs::LeakageEstimate est =
            obs::estimateLeakage(r.secrets, r.observables);
        // The rival's route to zero DEVs: nothing tracks sharers, so
        // there is nothing for the attacker's prime to be evicted from.
        EXPECT_LE(est.capacityBits, 0.05)
            << "DLS must isolate under " << attack::toString(kind);
        EXPECT_EQ(r.devInvalidations, 0u);
        EXPECT_EQ(r.inclusionInvalidations, 0u);
        EXPECT_EQ(r.invariantViolations, 0u);
    }
}

TEST(Sidechannel, PhasePriorityLeaksThroughPriorityVictims)
{
    const SystemConfig cfg = variantConfig("phasepri");
    for (const auto kind : {attack::ScenarioKind::DirPrimeProbe,
                            attack::ScenarioKind::DirOccupancy}) {
        const attack::ScenarioResult r = runKind(cfg, kind);
        const obs::LeakageEstimate est =
            obs::estimateLeakage(r.secrets, r.observables);
        // The bounded phase-priority directory still evicts on
        // conflicts, so the classic DEV channel stays wide open.
        EXPECT_GE(est.capacityBits, 0.5)
            << "phase-priority must leak under "
            << attack::toString(kind);
        EXPECT_GT(r.devInvalidations, 0u);
        EXPECT_EQ(r.invariantViolations, 0u);
    }
}

TEST(Sidechannel, PartitionedTagsIsolateDespiteSelfConflicts)
{
    SystemConfig cfg = variantConfig("sparse-8th");
    cfg.directory.tagPartitions = 4;
    const attack::ScenarioResult r =
        runKind(cfg, attack::ScenarioKind::DirPrimeProbe);
    const obs::LeakageEstimate est =
        obs::estimateLeakage(r.secrets, r.observables);
    // The partitioned directory still evicts — but only within each
    // core's own way range, so the victim's conflicts cannot reach the
    // attacker's primed entries.
    EXPECT_GT(r.devInvalidations, 0u);
    EXPECT_LE(est.capacityBits, 0.05);
    EXPECT_EQ(r.invariantViolations, 0u);
}

TEST(Sidechannel, ProvenanceIsConservedAcrossTrials)
{
    const attack::ScenarioResult r = runKind(
        variantConfig("sparse-8th"), attack::ScenarioKind::DirOccupancy);
    EXPECT_EQ(sum(r.devByInducer), r.devInvalidations);
    EXPECT_EQ(sum(r.inclusionByInducer), r.inclusionInvalidations);
    EXPECT_GT(r.devInvalidations, 0u);
}

TEST(Sidechannel, ProvenanceStaysOutOfTheMetricsRegistry)
{
    // Per-inducer counts live in each system's ProtocolStats. Systems
    // that share a process (the fuzz farm's variants) register no
    // process-wide series, so none can sum into another's counts.
    const obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    const std::size_t before = reg.size();
    SystemConfig eightCores;
    ASSERT_EQ(eightCores.coresPerSocket * eightCores.sockets, 8u);
    CmpSystem big(eightCores);
    CmpSystem twoSocket(variantConfig("zdev-fpss-2s"));
    EXPECT_EQ(twoSocket.config().sockets, 2u);
    const attack::ScenarioResult r = runKind(
        variantConfig("sparse-8th"), attack::ScenarioKind::DirOccupancy);
    EXPECT_GT(r.devInvalidations, 0u);
    EXPECT_EQ(reg.size(), before);
    EXPECT_EQ(reg.prometheusText().find("inducing_core"),
              std::string::npos);
}

TEST(Sidechannel, ScenarioIsDeterministic)
{
    const SystemConfig cfg = variantConfig("sparse-8th");
    const attack::ScenarioResult a =
        runKind(cfg, attack::ScenarioKind::DirPrimeProbe, 16);
    const attack::ScenarioResult b =
        runKind(cfg, attack::ScenarioKind::DirPrimeProbe, 16);
    EXPECT_EQ(a.secrets, b.secrets);
    EXPECT_EQ(a.observables, b.observables);
    EXPECT_EQ(a.devByInducer, b.devByInducer);
}

TEST(Sidechannel, ToolReportIsJobCountInvariant)
{
    const std::string out1 = ::testing::TempDir() + "zdev_leak_j1.json";
    const std::string out4 = ::testing::TempDir() + "zdev_leak_j4.json";
    const std::string base = std::string(SIDECHANNEL_TOOL_PATH) +
                             " --trials 8 --seed 11";
    const int rc1 = std::system(
        (base + " --jobs 1 --out " + out1 + " >/dev/null 2>&1").c_str());
    const int rc4 = std::system(
        (base + " --jobs 4 --out " + out4 + " >/dev/null 2>&1").c_str());
    ASSERT_TRUE(WIFEXITED(rc1) && WIFEXITED(rc4));
    // 8 trials keep the smoke fast; both runs must still meet every
    // expectation (exit 0) and agree byte for byte.
    EXPECT_EQ(WEXITSTATUS(rc1), 0);
    EXPECT_EQ(WEXITSTATUS(rc4), 0);
    const std::string a = slurp(out1), b = slurp(out4);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"schema\":\"zerodev-leakage-v1\""),
              std::string::npos);
    std::remove(out1.c_str());
    std::remove(out4.c_str());
}

TEST(Sidechannel, ToolUsageErrorExitsTwo)
{
    const int rc = std::system((std::string(SIDECHANNEL_TOOL_PATH) +
                                " --bogus >/dev/null 2>&1")
                                   .c_str());
    ASSERT_TRUE(WIFEXITED(rc));
    EXPECT_EQ(WEXITSTATUS(rc), 2);
}
