/**
 * @file
 * End-to-end observability test: run a small ZeroDEV workload with the
 * coherence tracer and interval sampler attached, write every artefact
 * (Chrome trace, JSONL trace, interval CSV/JSON, run report) to a
 * temporary directory, then read the files back and validate them with
 * the in-tree JSON parser — the machine-readable outputs must agree
 * with the in-memory RunResult/StatDump.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "core/cmp_system.hh"
#include "obs/json.hh"
#include "obs/latency.hh"
#include "obs/probes.hh"
#include "obs/report.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "sim/runner.hh"
#include "verify/differ.hh"
#include "workload/workload.hh"

namespace zerodev
{
namespace
{

using obs::JsonValue;
using obs::parseJson;

struct Artefacts
{
    SystemConfig cfg;
    RunResult res;
    std::string dir;
    std::uint64_t traceRecorded = 0;
    std::size_t samplerSamples = 0;
};

/** Run once per binary: a 4-thread sharing-heavy app on the 8-core
 *  ZeroDEV config with every observer attached. */
const Artefacts &
artefacts()
{
    static const Artefacts a = [] {
        Artefacts out;
        out.dir = testing::TempDir();
        out.cfg = makeEightCoreConfig();
        applyZeroDev(out.cfg, /*dir_ratio=*/0.0);

        CmpSystem sys(out.cfg);
        obs::Tracer tracer(1 << 14);
        tracer.setEnabled(true);
        obs::IntervalSampler sampler(5000);
        obs::registerSystemProbes(sampler, sys);

        const Workload w =
            Workload::multiThreaded(profileByName("canneal"), 4);
        RunConfig rc;
        rc.accessesPerCore = 4000;
        rc.tracer = &tracer;
        rc.sampler = &sampler;
        out.res = run(sys, w, rc);

        EXPECT_TRUE(tracer.writeChromeJson(out.dir + "/trace.json"));
        EXPECT_TRUE(tracer.writeJsonl(out.dir + "/trace.jsonl"));
        EXPECT_TRUE(sampler.writeCsv(out.dir + "/intervals.csv"));
        EXPECT_TRUE(sampler.writeJson(out.dir + "/intervals.json"));
        EXPECT_TRUE(obs::writeRunReport(out.dir + "/report.json", out.cfg,
                                        out.res));
        out.traceRecorded = tracer.recorded();
        out.samplerSamples = sampler.samples().size();
        return out;
    }();
    return a;
}

TEST(ObsIntegration, TracerCapturedTheRun)
{
    const Artefacts &a = artefacts();
    EXPECT_GT(a.res.cycles, 0u);
    // Every access issues a Request and a Complete at minimum.
    EXPECT_GE(a.traceRecorded, 2 * 4 * 4000u);
}

TEST(ObsIntegration, ChromeTraceParsesWithEvents)
{
    const Artefacts &a = artefacts();
    const auto text = obs::readTextFile(a.dir + "/trace.json");
    ASSERT_TRUE(text.has_value());
    std::string err;
    const auto v = parseJson(*text, &err);
    ASSERT_TRUE(v.has_value()) << err;

    const JsonValue *evs = v->find("traceEvents");
    ASSERT_NE(evs, nullptr);
    ASSERT_TRUE(evs->isArray());
    EXPECT_FALSE(evs->array.empty());
    for (const char *key : {"name", "cat", "ph", "ts", "dur", "pid",
                            "tid"}) {
        EXPECT_TRUE(evs->array[0].has(key)) << key;
    }
    EXPECT_EQ(evs->array[0].str("ph"), "X");
    EXPECT_EQ(v->find("metadata")->num("recorded"),
              static_cast<double>(a.traceRecorded));
}

TEST(ObsIntegration, JsonlLinesParse)
{
    const Artefacts &a = artefacts();
    const auto text = obs::readTextFile(a.dir + "/trace.jsonl");
    ASSERT_TRUE(text.has_value());

    std::size_t lines = 0, requests = 0;
    std::size_t pos = 0;
    while (pos < text->size()) {
        std::size_t eol = text->find('\n', pos);
        if (eol == std::string::npos)
            eol = text->size();
        const std::string_view line(text->data() + pos, eol - pos);
        pos = eol + 1;
        if (line.empty())
            continue;
        const auto v = parseJson(line);
        ASSERT_TRUE(v.has_value()) << "line " << lines;
        ++lines;
        for (const char *key : {"seq", "txn", "cycle", "kind", "comp",
                                "block"}) {
            ASSERT_TRUE(v->has(key)) << key;
        }
        if (v->str("kind") == "request")
            ++requests;
    }
    EXPECT_GT(lines, 0u);
    EXPECT_GT(requests, 0u);
}

TEST(ObsIntegration, IntervalCsvHasRequiredSeries)
{
    const Artefacts &a = artefacts();
    const auto text = obs::readTextFile(a.dir + "/intervals.csv");
    ASSERT_TRUE(text.has_value());

    const std::string header = text->substr(0, text->find('\n'));
    EXPECT_EQ(header.rfind("cycle,", 0), 0u);
    // The acceptance series: directory occupancy and the DEV rate.
    EXPECT_NE(header.find("dir_occupancy"), std::string::npos);
    EXPECT_NE(header.find("dev_invalidations"), std::string::npos);
    EXPECT_NE(header.find("llc_de_lines"), std::string::npos);

    std::size_t rows = 0;
    for (char c : *text)
        rows += c == '\n';
    ASSERT_GT(rows, 1u); // header + at least one sample
    EXPECT_EQ(rows - 1, a.samplerSamples);
}

TEST(ObsIntegration, IntervalJsonMatchesRun)
{
    const Artefacts &a = artefacts();
    const auto text = obs::readTextFile(a.dir + "/intervals.json");
    ASSERT_TRUE(text.has_value());
    const auto v = parseJson(*text);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->str("schema"), "zerodev-interval-stats-v1");
    EXPECT_EQ(v->num("samples"),
              static_cast<double>(a.samplerSamples));

    // The accesses series (Rate deltas) must sum to the total number of
    // simulated accesses: 4 cores x 4000 each.
    const JsonValue *accesses = v->find("series")->find("accesses");
    ASSERT_NE(accesses, nullptr);
    double total = 0;
    for (const JsonValue &x : accesses->array)
        total += x.number;
    EXPECT_EQ(total, 4.0 * 4000.0);
}

TEST(ObsIntegration, RunReportMatchesStatDump)
{
    const Artefacts &a = artefacts();
    const auto text = obs::readTextFile(a.dir + "/report.json");
    ASSERT_TRUE(text.has_value());
    std::string err;
    const auto v = parseJson(*text, &err);
    ASSERT_TRUE(v.has_value()) << err;
    EXPECT_TRUE(obs::validateRunReport(*v, &err)) << err;

    // The report must agree with the console StatDump numbers.
    const JsonValue *result = v->find("result");
    EXPECT_EQ(result->num("cycles"), static_cast<double>(a.res.cycles));
    EXPECT_EQ(result->num("devInvalidations"),
              static_cast<double>(a.res.devInvalidations));
    EXPECT_EQ(result->num("trafficBytes"),
              static_cast<double>(a.res.trafficBytes));

    const JsonValue *stats = v->find("stats");
    EXPECT_EQ(stats->num("accesses"), a.res.system.get("accesses"));
    EXPECT_EQ(stats->num("dev_invalidations"),
              a.res.system.get("dev_invalidations"));
    EXPECT_EQ(stats->object.size(), a.res.system.entries().size());

    // ZeroDEV's design guarantee, visible in the machine-readable path.
    EXPECT_EQ(result->num("devInvalidations"), 0.0);

    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(
                      obs::configFingerprint(a.cfg)));
    EXPECT_EQ(v->find("config")->str("fingerprint"), fp);
}

TEST(ObsIntegration, EveryVariantAttributesEveryCycle)
{
    // Every backend composes its latency through the same chain, so on
    // every standard variant the profiler sees exactly the cycles
    // access() returns, split into rows whose components add up.
    const std::vector<TraceRecord> stream = verify::fuzzStream(3, 4, 6000);
    const auto queue_wait = static_cast<std::size_t>(obs::LatComp::QueueWait);
    for (const verify::Variant &v : verify::Differ::standardVariants(4)) {
        SCOPED_TRACE(v.name);
        CmpSystem sys(v.cfg);
        obs::LatencyProfiler prof;
        sys.attachLatencyProfiler(&prof);
        // Requests issue in time order without waiting for earlier ones
        // to complete, so phase-priority's bank queues fill up.
        Cycle now = 0;
        std::uint64_t returned = 0;
        for (const TraceRecord &rec : stream) {
            now += rec.access.gap;
            returned += sys.access(rec.core, rec.access.type,
                                   rec.access.block, now) -
                        now;
        }
        sys.attachLatencyProfiler(nullptr);

        const obs::LatencyBreakdown b = prof.snapshot();
        EXPECT_EQ(b.transactions, stream.size());
        EXPECT_EQ(b.totalCycles, returned);
        std::uint64_t rows = 0;
        for (const obs::LatencyBreakdown::ClassRow &row : b.classes) {
            std::uint64_t sum = 0;
            for (std::uint64_t c : row.compCycles)
                sum += c;
            EXPECT_EQ(sum, row.cycles);
            rows += row.cycles;
        }
        EXPECT_EQ(rows, b.totalCycles);

        const auto cycles = [&b](obs::LatComp c) {
            return b.components[static_cast<std::size_t>(c)].cycles;
        };
        if (v.name == "dls") {
            EXPECT_GT(cycles(obs::LatComp::Dram), 0u);
            EXPECT_GT(cycles(obs::LatComp::Mesh), 0u);
        }
        if (v.name == "phasepri")
            EXPECT_GT(b.components[queue_wait].cycles, 0u);
        else
            EXPECT_EQ(b.components[queue_wait].cycles, 0u);
    }
}

} // namespace
} // namespace zerodev
