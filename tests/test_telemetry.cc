/**
 * @file
 * Tests for the live-telemetry subsystem: the metrics registry and its
 * Prometheus exposition (plus the exposition checker itself),
 * the TelemetrySink lifecycle (events, status.json, per-job gauges),
 * heartbeat monotonicity during a real run, the stall watchdog with its
 * snapshot-on-stall, the single-source-of-truth contract between live
 * status and the v2 run report, and the provenance stamp every JSON
 * artifact carries.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/cmp_system.hh"
#include "obs/compare.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "obs/sampler.hh"
#include "obs/telemetry.hh"
#include "sim/runner.hh"
#include "test_util.hh"
#include "workload/workload.hh"

namespace zerodev
{
namespace
{

std::string
tmpDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "zdev_telem_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

Workload
cannealOn(const SystemConfig &cfg)
{
    return Workload::multiThreaded(profileByName("canneal"),
                                   cfg.coresPerSocket * cfg.sockets);
}

// --- registry -----------------------------------------------------------

TEST(Metrics, RegistrationIsIdempotent)
{
    obs::MetricsRegistry reg;
    obs::Counter *a = reg.counter("zdev_test_total", "help");
    obs::Counter *b = reg.counter("zdev_test_total", "other help");
    EXPECT_EQ(a, b);
    EXPECT_EQ(reg.size(), 1u);

    // Distinct labels are distinct series under one name.
    obs::Gauge *g1 = reg.gauge("zdev_g", "h", "job=\"a\"");
    obs::Gauge *g2 = reg.gauge("zdev_g", "h", "job=\"b\"");
    EXPECT_NE(g1, g2);
    EXPECT_EQ(reg.gauge("zdev_g", "h", "job=\"a\""), g1);
    EXPECT_EQ(reg.size(), 3u);
}

TEST(Metrics, CounterAggregatesAcrossThreads)
{
    obs::MetricsRegistry reg;
    obs::Counter *c = reg.counter("zdev_mt_total", "h");
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 50000;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([c] {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                c->inc();
        });
    }
    for (std::thread &t : ts)
        t.join();
    EXPECT_EQ(c->value(), kThreads * kPerThread);
}

TEST(Metrics, DisabledRegistryDropsMutations)
{
    obs::MetricsRegistry reg;
    obs::Counter *c = reg.counter("zdev_off_total", "h");
    obs::Gauge *g = reg.gauge("zdev_off_g", "h");
    reg.setEnabled(false);
    c->add(7);
    g->set(3.5);
    EXPECT_EQ(c->value(), 0u);
    EXPECT_EQ(g->value(), 0.0);
    reg.setEnabled(true);
    c->add(7);
    EXPECT_EQ(c->value(), 7u);
}

TEST(Metrics, HistogramBucketsAndSum)
{
    obs::MetricsRegistry reg;
    obs::HistogramMetric *h =
        reg.histogram("zdev_h_seconds", "h", {0.1, 1.0, 10.0});
    h->observe(0.05);
    h->observe(0.5);
    h->observe(5.0);
    h->observe(50.0);
    const obs::HistogramMetric::Snapshot s = h->snapshot();
    ASSERT_EQ(s.counts.size(), 4u); // 3 bounds + overflow
    EXPECT_EQ(s.counts[0], 1u);
    EXPECT_EQ(s.counts[1], 1u);
    EXPECT_EQ(s.counts[2], 1u);
    EXPECT_EQ(s.counts[3], 1u);
    EXPECT_EQ(s.count, 4u);
    EXPECT_DOUBLE_EQ(s.sum, 55.55);
}

TEST(Metrics, PrometheusTextPassesChecker)
{
    obs::MetricsRegistry reg;
    reg.counter("zdev_a_total", "counts things")->add(3);
    reg.gauge("zdev_b", "a gauge", "job=\"x\"")->set(0.25);
    reg.gauge("zdev_b", "a gauge", "job=\"y\"")->set(1e-9);
    reg.histogram("zdev_c_seconds", "latency", {0.1, 1.0})->observe(0.2);
    const std::string text = reg.prometheusText();
    std::string err;
    EXPECT_TRUE(obs::checkPrometheusText(text, &err)) << err << text;
    // Bucket bounds keep their shortest spelling.
    EXPECT_NE(text.find("le=\"0.1\""), std::string::npos) << text;
    EXPECT_NE(text.find("zdev_b{job=\"x\"}"), std::string::npos);
}

TEST(Metrics, CheckerRejectsBadExpositions)
{
    const char *bad[] = {
        // Sample value that is not a number.
        "zdev_x notanumber\n",
        // Illegal metric name.
        "2bad 1\n",
        // Duplicate series.
        "zdev_x 1\nzdev_x 2\n",
        // Duplicate TYPE line for one metric.
        "# TYPE zdev_x counter\n# TYPE zdev_x counter\nzdev_x 1\n",
        // TYPE after a sample of the same metric.
        "zdev_x 1\n# TYPE zdev_x counter\n",
        // Unterminated label value.
        "zdev_x{job=\"a} 1\n",
        // Bad TYPE keyword.
        "# TYPE zdev_x banana\nzdev_x 1\n",
    };
    for (const char *text : bad) {
        std::string err;
        EXPECT_FALSE(obs::checkPrometheusText(text, &err)) << text;
        EXPECT_FALSE(err.empty());
    }
    // The checker accepts a minimal valid document.
    EXPECT_TRUE(obs::checkPrometheusText(
        "# HELP zdev_x counts\n# TYPE zdev_x counter\nzdev_x 1\n"));
}

TEST(Metrics, ScrapeWhileIncrementingIsConsistent)
{
    // The TSan CI job runs the sweep analogue of this with --jobs 8
    // under instrumentation; here it is a plain smoke that scraping
    // mid-increment never yields a torn exposition.
    obs::MetricsRegistry reg;
    obs::Counter *c = reg.counter("zdev_race_total", "h");
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        while (!stop.load(std::memory_order_relaxed))
            c->add(1);
    });
    for (int i = 0; i < 50; ++i) {
        std::string err;
        ASSERT_TRUE(obs::checkPrometheusText(reg.prometheusText(), &err))
            << err;
    }
    stop.store(true, std::memory_order_relaxed);
    writer.join();
}

// --- sink lifecycle -----------------------------------------------------

obs::TelemetryOptions
fastOptions(const std::string &dir)
{
    obs::TelemetryOptions opt;
    opt.dir = dir;
    opt.flushPeriodSeconds = 0.02;
    opt.stallSeconds = 0.0; // watchdog off unless the test wants it
    opt.heartbeatEvery = 64;
    return opt;
}

TEST(Telemetry, SinkLifecycleAndEventLog)
{
    const std::string dir = tmpDir("lifecycle");
    obs::MetricsRegistry reg;
    {
        obs::TelemetrySink sink(fastOptions(dir), &reg);
        obs::TelemetryJob *job =
            sink.beginJob("demo", "fig0", "cafe", 100);
        job->progress(50, 1234);
        obs::JobCompletion c;
        c.workload = "demo";
        c.accesses = 100;
        c.cycles = 2000;
        c.wallSeconds = 0.5;
        c.maccessesPerSecond = 0.2;
        job->complete(c);
        sink.finalize();

        // The status document reaches the terminal state.
        const auto doc = obs::parseJson(sink.statusJson());
        ASSERT_TRUE(doc);
        EXPECT_EQ(doc->str("state"), "completed");
    }

    // Every event line parses and carries the envelope.
    const auto events = obs::readTextFile(dir + "/events.jsonl");
    ASSERT_TRUE(events);
    std::vector<std::string> kinds;
    std::size_t start = 0;
    while (start < events->size()) {
        const std::size_t nl = events->find('\n', start);
        const std::size_t end =
            nl == std::string::npos ? events->size() : nl;
        if (end > start) {
            const auto ev =
                obs::parseJson(events->substr(start, end - start));
            ASSERT_TRUE(ev);
            EXPECT_EQ(ev->str("schema"), "zerodev-events-v1");
            EXPECT_TRUE(ev->has("commit"));
            EXPECT_TRUE(ev->has("ts_ms"));
            kinds.push_back(ev->str("kind"));
        }
        start = end + 1;
    }
    const std::vector<std::string> want = {"sink_start", "job_start",
                                           "job_complete",
                                           "sink_finalize"};
    EXPECT_EQ(kinds, want);

    // The published files exist and validate.
    const auto status = obs::readTextFile(dir + "/status.json");
    ASSERT_TRUE(status);
    const auto doc = obs::parseJson(*status);
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->str("schema"), "zerodev-status-v1");
    EXPECT_EQ(doc->str("state"), "completed");
    const auto prom = obs::readTextFile(dir + "/metrics.prom");
    ASSERT_TRUE(prom);
    std::string err;
    EXPECT_TRUE(obs::checkPrometheusText(*prom, &err)) << err;
}

TEST(Telemetry, FailedJobAbortsTheSink)
{
    const std::string dir = tmpDir("failed");
    obs::MetricsRegistry reg;
    obs::TelemetrySink sink(fastOptions(dir), &reg);
    obs::TelemetryJob *job = sink.beginJob("bad job/name", "f", "", 10);
    EXPECT_EQ(job->name(), "bad_job_name"); // slugified
    obs::JobCompletion c;
    c.accesses = 5;
    c.failed = true;
    c.error = "exploded";
    job->complete(c);
    sink.finalize();
    const auto doc = obs::parseJson(sink.statusJson());
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->str("state"), "aborted");
    const obs::JsonValue *jobs = doc->find("jobs");
    ASSERT_TRUE(jobs && jobs->isArray() && jobs->array.size() == 1);
    EXPECT_EQ(jobs->array[0].str("state"), "failed");
    EXPECT_EQ(jobs->array[0].str("error"), "exploded");
}

// --- live runs ----------------------------------------------------------

TEST(Telemetry, HeartbeatsAreMonotonicDuringARun)
{
    const std::string dir = tmpDir("heartbeat");
    obs::MetricsRegistry reg;
    obs::TelemetrySink sink(fastOptions(dir), &reg);

    const SystemConfig cfg = testutil::tinyConfig();
    const Workload w = cannealOn(cfg);
    RunConfig rc;
    rc.accessesPerCore = 30000;
    const std::uint64_t total = rc.accessesPerCore * w.threadCount();
    obs::TelemetryJob *job = sink.beginJob("hb", "fig0", "", total);
    rc.telemetry = job;

    // Sample the live progress counter while the run executes.
    std::atomic<bool> stop{false};
    std::vector<std::uint64_t> samples;
    std::thread poller([&] {
        std::uint64_t last = 0;
        while (!stop.load(std::memory_order_acquire)) {
            const std::uint64_t done = job->accessesDone();
            EXPECT_GE(done, last);
            EXPECT_LE(done, total);
            samples.push_back(done);
            last = done;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });
    CmpSystem sys(cfg);
    const RunResult res = run(sys, w, rc);
    stop.store(true, std::memory_order_release);
    poller.join();

    job->complete(obs::completionOf(res));
    sink.finalize();
    EXPECT_EQ(job->accessesDone(), total);
    EXPECT_EQ(res.accesses, total);
    EXPECT_GE(samples.size(), 2u);
    EXPECT_EQ(sink.stallsDetected(), 0u);
}

TEST(Telemetry, StatusMatchesRunReportExactly)
{
    // The single-source-of-truth contract: a finished job's status
    // entry republishes the RunResult numbers verbatim, so it agrees
    // with the v2 run report field for field.
    const std::string dir = tmpDir("truth");
    obs::MetricsRegistry reg;
    obs::TelemetrySink sink(fastOptions(dir), &reg);

    const SystemConfig cfg = testutil::tinyConfig();
    const Workload w = cannealOn(cfg);
    RunConfig rc;
    rc.accessesPerCore = 5000;
    obs::LatencyProfiler prof;
    rc.latency = &prof;
    obs::TelemetryJob *job = sink.beginJob(
        "truth", "fig0", "", rc.accessesPerCore * w.threadCount());
    rc.telemetry = job;
    CmpSystem sys(cfg);
    const RunResult res = run(sys, w, rc);
    job->complete(obs::completionOf(res));
    sink.finalize();

    const auto status = obs::parseJson(sink.statusJson());
    ASSERT_TRUE(status);
    const obs::JsonValue *jobs = status->find("jobs");
    ASSERT_TRUE(jobs && jobs->isArray() && jobs->array.size() == 1);
    const obs::JsonValue &j = jobs->array[0];

    const auto report = obs::parseJson(obs::runReportJson(cfg, res));
    ASSERT_TRUE(report);
    const obs::JsonValue *result = report->find("result");
    const obs::JsonValue *profile = report->find("profile");
    ASSERT_TRUE(result);
    ASSERT_TRUE(profile);

    EXPECT_EQ(j.str("workload"), result->str("workload"));
    EXPECT_DOUBLE_EQ(j.num("accesses"), profile->num("simAccesses"));
    EXPECT_DOUBLE_EQ(j.num("cycles"), result->num("cycles"));
    EXPECT_DOUBLE_EQ(j.num("wall_seconds"),
                     profile->num("wallSeconds"));
    EXPECT_DOUBLE_EQ(j.num("maccesses_per_second"),
                     profile->num("maccessesPerSecond"));
    EXPECT_DOUBLE_EQ(j.num("accesses"),
                     static_cast<double>(res.accesses));
    EXPECT_DOUBLE_EQ(j.num("cycles"), static_cast<double>(res.cycles));
    EXPECT_DOUBLE_EQ(j.num("wall_seconds"), res.wallSeconds);

    // Eviction provenance: the tiny config's 1x sparse directory
    // evicts under canneal, so the arrays carry real DEVs.
    ASSERT_GT(res.devInvalidations, 0u);
    const obs::JsonValue *leakage = report->find("leakage");
    ASSERT_TRUE(leakage);
    for (const auto &[statusKey, reportKey] :
         {std::pair{"dev_by_inducing_core", "devByInducingCore"},
          std::pair{"inclusion_by_inducing_core",
                    "inclusionByInducingCore"}}) {
        const obs::JsonValue *live = j.find(statusKey);
        const obs::JsonValue *want = leakage->find(reportKey);
        ASSERT_TRUE(live && live->isArray()) << statusKey;
        ASSERT_TRUE(want && want->isArray()) << reportKey;
        ASSERT_EQ(live->array.size(), want->array.size()) << statusKey;
        for (std::size_t c = 0; c < want->array.size(); ++c)
            EXPECT_EQ(live->array[c].number, want->array[c].number)
                << statusKey << "[" << c << "]";
    }
}

TEST(Telemetry, WatchdogDetectsPlantedStallAndSnapshots)
{
    const std::string dir = tmpDir("stall");
    obs::MetricsRegistry reg;
    obs::TelemetryOptions opt = fastOptions(dir);
    opt.stallSeconds = 0.15;
    opt.stallSnapshots = true;
    obs::TelemetrySink sink(opt, &reg);

    const SystemConfig cfg = testutil::tinyConfig();
    const Workload w = cannealOn(cfg);
    RunConfig rc;
    rc.accessesPerCore = 20000;
    const std::uint64_t total = rc.accessesPerCore * w.threadCount();
    obs::TelemetryJob *job = sink.beginJob("stally", "fig0", "", total);
    rc.telemetry = job;
    rc.plantStallAt = total / 2;
    rc.plantStallSeconds = 0.6; // 4x the watchdog window

    CmpSystem sys(cfg);
    const RunResult res = run(sys, w, rc);
    job->complete(obs::completionOf(res));
    sink.finalize();

    // The watchdog fired exactly once (sticky until progress resumed),
    // the event log carries the stall, and the snapshot-on-stall
    // checkpoint was serviced at the next heartbeat boundary.
    EXPECT_EQ(sink.stallsDetected(), 1u);
    const auto events = obs::readTextFile(dir + "/events.jsonl");
    ASSERT_TRUE(events);
    EXPECT_NE(events->find("\"kind\":\"stall\""), std::string::npos);
    EXPECT_NE(events->find("\"no_progress_seconds\""),
              std::string::npos);
    const std::string snap = dir + "/stall-stally.ckpt";
    ASSERT_TRUE(std::filesystem::exists(snap)) << snap;
    EXPECT_GT(std::filesystem::file_size(snap), 0u);

    // The run itself still finished and the terminal state is clean.
    EXPECT_EQ(res.accesses, total);
    const auto doc = obs::parseJson(sink.statusJson());
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->str("state"), "completed");
    EXPECT_DOUBLE_EQ(doc->num("stalls"), 1.0);
}

// --- provenance stamps --------------------------------------------------

/** Parse @p json and require the schema/commit provenance stamp. */
void
expectStamped(const std::string &json, const std::string &schema)
{
    const auto doc = obs::parseJson(json);
    ASSERT_TRUE(doc) << json.substr(0, 200);
    EXPECT_EQ(doc->str("schema"), schema);
    EXPECT_TRUE(doc->has("commit"));
}

TEST(Telemetry, EveryJsonArtifactCarriesTheProvenanceStamp)
{
    const SystemConfig cfg = testutil::tinyConfig();
    const Workload w = cannealOn(cfg);
    RunConfig rc;
    rc.accessesPerCore = 2000;
    obs::IntervalSampler sampler(1000);
    rc.sampler = &sampler;
    CmpSystem sys(cfg);
    const RunResult res = run(sys, w, rc);

    // Run report (v2).
    expectStamped(obs::runReportJson(cfg, res), "zerodev-run-report-v2");

    // Interval-sampler series.
    expectStamped(sampler.toJson(), "zerodev-interval-stats-v1");

    // Compare verdict.
    std::vector<obs::LoadedReport> reports;
    std::string err;
    const std::string dir = tmpDir("stamp");
    ASSERT_TRUE(obs::writeRunReport(dir + "/r.json", cfg, res));
    ASSERT_TRUE(obs::loadReports(dir + "/r.json", reports, &err)) << err;
    const obs::CompareResult cmp =
        obs::compareReports(reports, reports, obs::CompareOptions{});
    expectStamped(cmp.verdictJson(), "zerodev-compare-v1");

    // Status document.
    obs::MetricsRegistry reg;
    obs::TelemetrySink sink(fastOptions(tmpDir("stamp2")), &reg);
    sink.finalize();
    expectStamped(sink.statusJson(), "zerodev-status-v1");
}

} // namespace
} // namespace zerodev
