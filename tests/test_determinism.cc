/**
 * @file
 * Determinism regression test: the simulator is a pure function of
 * (config, workload, access count) — two runs of the same experiment on
 * fresh systems must produce byte-identical v2 run reports once the
 * wall-clock profile fields are zeroed. This guards the config
 * fingerprint contract (obs/report.hh) and the report diffing workflow:
 * `trace_tool compare` thresholds assume simulated metrics carry no
 * run-to-run noise.
 */

#include <gtest/gtest.h>

#include "core/cmp_system.hh"
#include "obs/json.hh"
#include "obs/latency.hh"
#include "obs/report.hh"
#include "sim/runner.hh"
#include "test_util.hh"
#include "workload/workload.hh"

namespace zerodev
{
namespace
{

/** One full run with latency attribution, wall-clock zeroed. */
std::string
reportFor(const SystemConfig &cfg, const std::string &app)
{
    const AppProfile p = profileByName(app);
    const Workload w = p.suite == "cpu2017"
                           ? Workload::rate(p, cfg.coresPerSocket)
                           : Workload::multiThreaded(p,
                                                     cfg.coresPerSocket);
    CmpSystem sys(cfg);
    obs::LatencyProfiler latency;
    RunConfig rc;
    rc.accessesPerCore = 2000;
    rc.latency = &latency;
    RunResult res = run(sys, w, rc);
    // The only host-dependent field; everything else is simulated.
    res.wallSeconds = 0.0;
    return obs::runReportJson(cfg, res);
}

TEST(Determinism, RepeatedRunsProduceByteIdenticalReports)
{
    for (const char *app : {"canneal", "mcf"}) {
        const SystemConfig cfg = testutil::tinyZeroDev();
        const std::string a = reportFor(cfg, app);
        const std::string b = reportFor(cfg, app);
        EXPECT_EQ(a, b) << app;
    }
}

TEST(Determinism, ReportsValidateAndCarryExactAttribution)
{
    const std::string doc = reportFor(testutil::tinyZeroDev(), "canneal");
    const auto v = obs::parseJson(doc);
    ASSERT_TRUE(v.has_value());
    std::string err;
    EXPECT_TRUE(obs::validateRunReport(*v, &err)) << err;

    const obs::JsonValue *lat = v->find("latency_breakdown");
    ASSERT_NE(lat, nullptr);
    EXPECT_GT(lat->num("transactions"), 0.0);
    double sum = 0.0;
    for (const auto &[name, comp] : lat->find("components")->object) {
        (void)name;
        sum += comp.num("cycles");
    }
    EXPECT_DOUBLE_EQ(sum, lat->num("totalCycles"));
}

TEST(Determinism, DifferentConfigsProduceDifferentFingerprints)
{
    const SystemConfig a = testutil::tinyZeroDev();
    SystemConfig b = testutil::tinyZeroDev();
    b.meshHopCycles += 1;
    EXPECT_NE(obs::configFingerprint(a), obs::configFingerprint(b));
    EXPECT_EQ(obs::configFingerprint(a),
              obs::configFingerprint(testutil::tinyZeroDev()));
}

} // namespace
} // namespace zerodev
