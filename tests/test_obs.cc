/**
 * @file
 * Unit tests for the observability layer: the JSON writer/parser, the
 * ring-buffer coherence tracer (wraparound, ordering, component
 * filters, schema round-trip), the interval sampler (boundary
 * alignment, Rate deltas, overflow), the StatDump/Histogram JSON
 * serialisation, the run-report emitter and its validator, and the
 * RunResult::ipc bounds check.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <csignal>

#include "common/config.hh"
#include "common/stats.hh"
#include "obs/json.hh"
#include "obs/latency.hh"
#include "obs/report.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "sim/runner.hh"

namespace zerodev
{
namespace
{

using obs::IntervalSampler;
using obs::JsonValue;
using obs::JsonWriter;
using obs::parseJson;
using obs::TraceComp;
using obs::TraceEventKind;
using obs::Tracer;
using testing::KilledBySignal;

// --- JSON writer / parser --------------------------------------------

TEST(Json, NumberFormatting)
{
    EXPECT_EQ(obs::jsonNumber(0.0), "0");
    EXPECT_EQ(obs::jsonNumber(42.0), "42");
    EXPECT_EQ(obs::jsonNumber(-7.0), "-7");
    EXPECT_EQ(obs::jsonNumber(1.5), "1.5");
    EXPECT_EQ(obs::jsonNumber(std::nan("")), "null");
    EXPECT_EQ(obs::jsonNumber(INFINITY), "null");
}

TEST(Json, EscapeRoundTrip)
{
    const std::string nasty = "a\"b\\c\nd\te\x01f";
    JsonWriter w;
    w.beginObject().field("k", nasty).endObject();
    const auto v = parseJson(w.str());
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->str("k"), nasty);
}

TEST(Json, ParserHandlesNesting)
{
    const auto v = parseJson(
        R"({"a":[1,2,{"b":true,"c":null}],"d":-3.25,"e":"Ax"})");
    ASSERT_TRUE(v.has_value());
    const JsonValue *a = v->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->array.size(), 3u);
    EXPECT_EQ(a->array[1].number, 2.0);
    EXPECT_TRUE(a->array[2].find("b")->boolean);
    EXPECT_TRUE(a->array[2].find("c")->isNull());
    EXPECT_DOUBLE_EQ(v->num("d"), -3.25);
    EXPECT_EQ(v->str("e"), "Ax");
}

TEST(Json, ParserRejectsGarbage)
{
    std::string err;
    EXPECT_FALSE(parseJson("{", &err).has_value());
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(parseJson("{\"a\":1} trailing", &err).has_value());
    EXPECT_FALSE(parseJson("[1,]", &err).has_value());
    EXPECT_FALSE(parseJson("", &err).has_value());
}

// --- Tracer ----------------------------------------------------------

TEST(Tracer, RecordsWhenEnabled)
{
    Tracer t(16);
    EXPECT_FALSE(t.enabled());
    t.record(TraceEventKind::Request, TraceComp::Core, 0, 1, 0x40, 100);
    EXPECT_EQ(t.recorded(), 0u); // disabled tracers record nothing

    t.setEnabled(true);
    t.record(TraceEventKind::Request, TraceComp::Core, 0, 1, 0x40, 100,
             /*dur=*/0, /*arg=*/2, /*txn=*/7);
    ASSERT_EQ(t.recorded(), 1u);
    const auto evs = t.events();
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].kind, TraceEventKind::Request);
    EXPECT_EQ(evs[0].comp, TraceComp::Core);
    EXPECT_EQ(evs[0].core, 1u);
    EXPECT_EQ(evs[0].block, 0x40u);
    EXPECT_EQ(evs[0].cycle, 100u);
    EXPECT_EQ(evs[0].arg, 2u);
    EXPECT_EQ(evs[0].txn, 7u);
}

TEST(Tracer, RingWraparoundKeepsNewest)
{
    Tracer t(8);
    t.setEnabled(true);
    for (std::uint64_t i = 0; i < 20; ++i)
        t.record(TraceEventKind::Spill, TraceComp::Llc, 0, 0, i * 64, i);
    EXPECT_EQ(t.recorded(), 20u);
    EXPECT_EQ(t.dropped(), 12u);
    EXPECT_EQ(t.size(), 8u);

    const auto evs = t.events();
    ASSERT_EQ(evs.size(), 8u);
    // Oldest-first, strictly ordered, and exactly the 8 newest records.
    for (std::size_t i = 0; i < evs.size(); ++i) {
        EXPECT_EQ(evs[i].seq, 12u + i);
        EXPECT_EQ(evs[i].cycle, 12u + i);
    }
}

TEST(Tracer, ComponentFilter)
{
    Tracer t(16);
    t.setEnabled(true);
    t.setComponentEnabled(TraceComp::Llc, false);
    t.record(TraceEventKind::Spill, TraceComp::Llc, 0, 0, 0x40, 1);
    t.record(TraceEventKind::Request, TraceComp::Core, 0, 0, 0x40, 2);
    ASSERT_EQ(t.recorded(), 1u);
    EXPECT_EQ(t.events()[0].comp, TraceComp::Core);

    t.setComponentEnabled(TraceComp::Llc, true);
    t.record(TraceEventKind::Spill, TraceComp::Llc, 0, 0, 0x40, 3);
    EXPECT_EQ(t.recorded(), 2u);
}

TEST(Tracer, JsonlRoundTrip)
{
    Tracer t(16);
    t.setEnabled(true);
    t.record(TraceEventKind::Dev, TraceComp::Directory, 1, 3, 0xabc0, 500,
             /*dur=*/0, /*arg=*/4, /*txn=*/9);
    const std::string jsonl = t.toJsonl();
    const auto v = parseJson(jsonl.substr(0, jsonl.find('\n')));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->str("kind"), "dev");
    EXPECT_EQ(v->str("comp"), "directory");
    EXPECT_EQ(v->num("cycle"), 500.0);
    EXPECT_EQ(v->num("socket"), 1.0);
    EXPECT_EQ(v->num("core"), 3.0);
    EXPECT_EQ(v->num("arg"), 4.0);
    EXPECT_EQ(v->num("txn"), 9.0);
    EXPECT_EQ(v->str("block"), "0xabc0");
    // No provenance passed: the optional "prov" member must be absent
    // (v1 consumers never see it on non-eviction events).
    EXPECT_FALSE(v->has("prov"));
}

TEST(Tracer, JsonlCarriesEvictionProvenance)
{
    Tracer t(16);
    t.setEnabled(true);
    t.record(TraceEventKind::Dev, TraceComp::Directory, 0, 1, 0x40, 7,
             /*dur=*/0, /*arg=*/0, /*txn=*/2, /*prov=*/3);
    const std::string jsonl = t.toJsonl();
    const auto v = parseJson(jsonl.substr(0, jsonl.find('\n')));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->str("kind"), "dev");
    EXPECT_EQ(v->num("prov"), 3.0);
}

TEST(Tracer, ChromeJsonSchema)
{
    Tracer t(16);
    t.setEnabled(true);
    t.record(TraceEventKind::Request, TraceComp::Core, 0, 2, 0x80, 10);
    t.record(TraceEventKind::Complete, TraceComp::Protocol, 0, 2, 0x80, 10,
             /*dur=*/33);
    const auto v = parseJson(t.toChromeJson());
    ASSERT_TRUE(v.has_value());
    const JsonValue *evs = v->find("traceEvents");
    ASSERT_NE(evs, nullptr);
    ASSERT_TRUE(evs->isArray());
    ASSERT_EQ(evs->array.size(), 2u);
    const JsonValue &e = evs->array[1];
    EXPECT_EQ(e.str("ph"), "X");
    EXPECT_EQ(e.num("ts"), 10.0);
    EXPECT_EQ(e.num("dur"), 33.0);
    EXPECT_EQ(e.num("tid"), 2.0);
    EXPECT_EQ(v->find("metadata")->num("recorded"), 2.0);
}

// --- Interval sampler ------------------------------------------------

TEST(Sampler, AlignedBoundaries)
{
    IntervalSampler s(1000);
    double level = 5.0;
    s.addProbe("level", IntervalSampler::ProbeKind::Level,
               [&] { return level; });

    s.tick(999); // no boundary crossed yet
    EXPECT_TRUE(s.samples().empty());
    s.tick(1000); // exactly on the boundary
    ASSERT_EQ(s.samples().size(), 1u);
    EXPECT_EQ(s.samples()[0].cycle, 1000u);

    level = 7.0;
    s.tick(3500); // crosses 2000 and 3000 in one call
    ASSERT_EQ(s.samples().size(), 3u);
    EXPECT_EQ(s.samples()[1].cycle, 2000u);
    EXPECT_EQ(s.samples()[2].cycle, 3000u);
    EXPECT_EQ(s.samples()[2].values[0], 7.0);

    s.tick(200); // time moving backwards must not sample
    EXPECT_EQ(s.samples().size(), 3u);
}

TEST(Sampler, RateProbesReportDeltas)
{
    IntervalSampler s(100);
    std::uint64_t counter = 40; // non-zero start seeds the baseline
    s.addProbe("rate", IntervalSampler::ProbeKind::Rate,
               [&] { return static_cast<double>(counter); });

    counter = 50;
    s.tick(100);
    counter = 75;
    s.tick(200);
    ASSERT_EQ(s.samples().size(), 2u);
    EXPECT_EQ(s.samples()[0].values[0], 10.0); // 50 - 40
    EXPECT_EQ(s.samples()[1].values[0], 25.0); // 75 - 50
}

TEST(Sampler, FinishAddsFinalUnalignedSample)
{
    IntervalSampler s(1000);
    s.addProbe("x", IntervalSampler::ProbeKind::Level, [] { return 1.0; });
    s.tick(2100);
    ASSERT_EQ(s.samples().size(), 2u);
    s.finish(2100); // past the last boundary -> one extra sample
    ASSERT_EQ(s.samples().size(), 3u);
    EXPECT_EQ(s.samples().back().cycle, 2100u);
    s.finish(2100); // idempotent
    EXPECT_EQ(s.samples().size(), 3u);
}

TEST(Sampler, CsvAndJsonOutput)
{
    IntervalSampler s(10);
    s.addProbe("a", IntervalSampler::ProbeKind::Level, [] { return 1.0; });
    s.addProbe("b", IntervalSampler::ProbeKind::Level, [] { return 2.5; });
    s.tick(20);

    const std::string csv = s.toCsv();
    EXPECT_EQ(csv.substr(0, csv.find('\n')), "cycle,a,b");
    EXPECT_NE(csv.find("10,1,2.5"), std::string::npos);

    const auto v = parseJson(s.toJson());
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->str("schema"), "zerodev-interval-stats-v1");
    EXPECT_EQ(v->num("interval"), 10.0);
    const JsonValue *series = v->find("series");
    ASSERT_NE(series, nullptr);
    const JsonValue *b = series->find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(b->array.size(), 2u);
    EXPECT_EQ(b->array[1].number, 2.5);
}

TEST(Sampler, OverflowBoundsMemory)
{
    IntervalSampler s(10, /*max_samples=*/3);
    s.addProbe("x", IntervalSampler::ProbeKind::Level, [] { return 0.0; });
    s.tick(100); // 10 boundaries, only 3 retained
    EXPECT_EQ(s.samples().size(), 3u);
    EXPECT_EQ(s.overflowed(), 7u);
}

TEST(SamplerDeathTest, LateProbeRegistrationPanics)
{
    IntervalSampler s(10);
    s.addProbe("x", IntervalSampler::ProbeKind::Level, [] { return 0.0; });
    s.tick(10);
    EXPECT_EXIT(s.addProbe("late", IntervalSampler::ProbeKind::Level,
                           [] { return 0.0; }),
                KilledBySignal(SIGABRT), "after sampling");
}

// --- StatDump / Histogram JSON (satellite) ---------------------------

TEST(StatsJson, StatDumpRoundTrip)
{
    StatDump d;
    d.add("accesses", 1000);
    d.add("ipc", 0.75);
    const auto v = parseJson(d.toJson());
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->num("accesses"), 1000.0);
    EXPECT_DOUBLE_EQ(v->num("ipc"), 0.75);
    // Integral values must serialise without a fraction.
    EXPECT_NE(d.toJson().find("\"accesses\":1000"), std::string::npos);
}

TEST(StatsJson, HistogramRoundTripAndEmptyGuards)
{
    Histogram h(4);
    // Empty histograms must stay well-defined (no division by zero).
    EXPECT_EQ(h.meanValue(), 0.0);
    EXPECT_EQ(h.percentile(0.5), 0u);
    const auto empty = parseJson(h.toJson());
    ASSERT_TRUE(empty.has_value());
    EXPECT_EQ(empty->num("samples"), 0.0);

    h.record(1);
    h.record(1);
    h.record(3);
    h.record(9); // overflow bucket
    const auto v = parseJson(h.toJson());
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->num("samples"), 4.0);
    const JsonValue *counts = v->find("counts");
    ASSERT_NE(counts, nullptr);
    EXPECT_EQ(counts->num("1"), 2.0);
    EXPECT_EQ(counts->num("3"), 1.0);
    EXPECT_EQ(counts->num("4"), 1.0); // overflow bucket is index 4
}

TEST(StatsJson, HistogramSingleObservationPercentiles)
{
    Histogram h(8);
    h.record(5);
    const auto v = parseJson(h.toJson());
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->num("samples"), 1.0);
    EXPECT_EQ(v->num("mean"), 5.0);
    EXPECT_EQ(v->num("p50"), 5.0);
    EXPECT_EQ(v->num("p95"), 5.0);
    EXPECT_EQ(v->num("p99"), 5.0);

    StatDump d;
    h.addTo(d, "h");
    EXPECT_EQ(d.get("h.p95"), 5.0);
}

TEST(StatsJson, HistogramSaturatedOverflowBucket)
{
    // Every observation beyond the exact range lands in the overflow
    // bucket, which percentiles report as the bucket count.
    Histogram h(4);
    for (int i = 0; i < 10; ++i)
        h.record(100);
    EXPECT_EQ(h.bucket(4), 10u);
    EXPECT_EQ(h.percentile(0.5), 4u);
    EXPECT_EQ(h.percentile(0.99), 4u);
    EXPECT_DOUBLE_EQ(h.meanValue(), 100.0);
    const auto v = parseJson(h.toJson());
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->num("p95"), 4.0);
    EXPECT_EQ(v->find("counts")->num("4"), 10.0);
}

// --- RunResult::ipc bounds check (satellite) -------------------------

TEST(RunResultDeathTest, IpcOutOfRangePanics)
{
    RunResult r;
    r.coreCycles = {100, 200};
    r.coreInstructions = {50, 60};
    EXPECT_DOUBLE_EQ(r.ipc(0), 0.5);
    EXPECT_EXIT(r.ipc(2), KilledBySignal(SIGABRT), "only 2 cores");
}

// --- Run reports -----------------------------------------------------

RunResult
fakeResult()
{
    RunResult r;
    r.workload = "unit";
    r.cycles = 12345;
    r.instructions = 4000;
    r.coreCycles = {12345, 12000};
    r.coreInstructions = {2000, 2000};
    r.coreCacheMisses = 77;
    r.trafficBytes = 4096;
    r.devInvalidations = 3;
    r.wallSeconds = 0.5;
    r.system.add("accesses", 4000);
    r.system.add("dev_invalidations", 3);
    return r;
}

TEST(Report, FingerprintIsStableAndDiscriminates)
{
    const SystemConfig a = makeEightCoreConfig();
    SystemConfig b = makeEightCoreConfig();
    EXPECT_EQ(obs::configFingerprint(a), obs::configFingerprint(b));
    b.llcWays = 32;
    EXPECT_NE(obs::configFingerprint(a), obs::configFingerprint(b));
}

TEST(Report, EmitsValidV2Document)
{
    const SystemConfig cfg = makeEightCoreConfig();
    const RunResult res = fakeResult();
    const std::string doc = obs::runReportJson(cfg, res);
    const auto v = parseJson(doc);
    ASSERT_TRUE(v.has_value());

    std::string err;
    EXPECT_TRUE(obs::validateRunReport(*v, &err)) << err;
    EXPECT_EQ(v->str("schema"), "zerodev-run-report-v2");

    // v2: the latency section is always present (zeros when no profiler
    // ran) with one entry per component.
    const JsonValue *lat = v->find("latency_breakdown");
    ASSERT_NE(lat, nullptr);
    const JsonValue *comps = lat->find("components");
    ASSERT_NE(comps, nullptr);
    EXPECT_EQ(comps->object.size(), obs::LatencyBreakdown::kNumComps);
    EXPECT_TRUE(comps->has("dram"));
    EXPECT_TRUE(comps->has("inv_stall"));
    for (const std::string &k : obs::requiredReportKeys())
        EXPECT_TRUE(v->has(k)) << k;

    const JsonValue *result = v->find("result");
    EXPECT_EQ(result->num("cycles"), 12345.0);
    EXPECT_EQ(result->num("devInvalidations"), 3.0);
    ASSERT_EQ(result->find("cores")->array.size(), 2u);
    EXPECT_NEAR(result->find("cores")->array[0].num("ipc"),
                2000.0 / 12345.0, 1e-12);
    EXPECT_EQ(v->find("stats")->num("dev_invalidations"), 3.0);
    EXPECT_EQ(v->find("profile")->num("accessesPerSecond"), 8000.0);
}

TEST(Report, ValidatorRejectsBrokenDocuments)
{
    std::string err;
    const auto not_obj = parseJson("[1,2]");
    EXPECT_FALSE(obs::validateRunReport(*not_obj, &err));

    const auto wrong_schema = parseJson(
        R"({"schema":"v0","config":{},"result":{},"profile":{},"stats":{}})");
    EXPECT_FALSE(obs::validateRunReport(*wrong_schema, &err));
    EXPECT_NE(err.find("schema"), std::string::npos);

    // A real report with one required key removed must fail validation.
    const std::string doc =
        obs::runReportJson(makeEightCoreConfig(), fakeResult());
    auto v = parseJson(doc);
    ASSERT_TRUE(v.has_value());
    for (auto it = v->object.begin(); it != v->object.end(); ++it) {
        if (it->first == "profile") {
            v->object.erase(it);
            break;
        }
    }
    EXPECT_FALSE(obs::validateRunReport(*v, &err));
    EXPECT_NE(err.find("profile"), std::string::npos);
}

TEST(Report, ValidatorAcceptsLegacyV1)
{
    // A v1 document is a v2 document minus the latency section and with
    // the old schema string; the validator must keep parsing it.
    std::string doc = obs::runReportJson(makeEightCoreConfig(),
                                         fakeResult());
    const std::string v2 = "zerodev-run-report-v2";
    doc.replace(doc.find(v2), v2.size(), "zerodev-run-report-v1");
    const auto v = parseJson(doc);
    ASSERT_TRUE(v.has_value());
    std::string err;
    EXPECT_TRUE(obs::validateRunReport(*v, &err)) << err;
}

TEST(Report, ValidatorRejectsMismatchedLatencySums)
{
    RunResult res = fakeResult();
    res.latency.transactions = 10;
    res.latency.totalCycles = 1000;
    res.latency.components[0].cycles = 10; // sums to 1% of the total
    const auto v =
        parseJson(obs::runReportJson(makeEightCoreConfig(), res));
    ASSERT_TRUE(v.has_value());
    std::string err;
    EXPECT_FALSE(obs::validateRunReport(*v, &err));
    EXPECT_NE(err.find("sum"), std::string::npos);
}

// --- Latency attribution profiler ------------------------------------

TEST(LatencyChain, AddAndJoinComposeAndAttributeTogether)
{
    const auto inv_stall = static_cast<std::size_t>(obs::LatComp::InvStall);
    obs::LatencyChain ch(100);
    ch.add(obs::LatComp::Mesh, 4);
    ch.add(obs::LatComp::Dram, 10);
    EXPECT_EQ(ch.now(), 114u);

    // A parallel path that finished earlier costs nothing ...
    ch.join(obs::LatComp::InvStall, 110);
    EXPECT_EQ(ch.now(), 114u);
    EXPECT_EQ(ch.components()[inv_stall], 0u);
    // ... one that finishes later is charged only its overshoot.
    ch.join(obs::LatComp::InvStall, 120);
    EXPECT_EQ(ch.now(), 120u);
    EXPECT_EQ(ch.components()[inv_stall], 6u);

    EXPECT_EQ(ch.start(), 100u);
    EXPECT_EQ(ch.latency(), 20u);
    Cycle sum = 0;
    for (Cycle c : ch.components())
        sum += c;
    EXPECT_EQ(sum, ch.latency());
}

TEST(LatencyProfiler, OffPathWorkStaysOutOfTransactionTotals)
{
    obs::LatencyProfiler lp;
    lp.addOffPath(obs::LatComp::DeMemory, 7);
    obs::LatencyChain ch(40);
    ch.add(obs::LatComp::Mesh, 5);
    lp.addOffPath(obs::LatComp::DeMemory, 3);
    lp.record(0, ch);

    const obs::LatencyBreakdown s = lp.snapshot();
    EXPECT_EQ(
        s.background[static_cast<std::size_t>(obs::LatComp::DeMemory)],
        10u);
    EXPECT_EQ(s.totalCycles, 5u); // the txn itself
    EXPECT_EQ(s.components[static_cast<std::size_t>(obs::LatComp::Mesh)]
                  .cycles,
              5u);
    EXPECT_EQ(
        s.components[static_cast<std::size_t>(obs::LatComp::DeMemory)]
            .cycles,
        0u);
}

TEST(LatencyProfiler, PerClassRowsAndPercentiles)
{
    obs::LatencyProfiler lp;
    for (int i = 0; i < 3; ++i) {
        obs::LatencyChain ch(0);
        ch.add(obs::LatComp::CoreLookup, 2);
        ch.add(obs::LatComp::Dram, 8);
        lp.record(2, ch);
    }
    obs::LatencyChain other(0);
    other.add(obs::LatComp::Mesh, 10);
    lp.record(99, other); // class out of range: txn counted, row dropped

    const obs::LatencyBreakdown s = lp.snapshot();
    EXPECT_EQ(s.transactions, 4u);
    EXPECT_EQ(s.totalCycles, 40u);
    EXPECT_EQ(s.classes[2].count, 3u);
    EXPECT_EQ(s.classes[2].cycles, 30u);
    EXPECT_EQ(
        s.classes[2]
            .compCycles[static_cast<std::size_t>(obs::LatComp::Dram)],
        24u);
    const auto &dram =
        s.components[static_cast<std::size_t>(obs::LatComp::Dram)];
    EXPECT_EQ(dram.samples, 3u);
    EXPECT_EQ(dram.p50, 8u);
    EXPECT_EQ(dram.p99, 8u);
    EXPECT_DOUBLE_EQ(dram.mean, 8.0);
}

} // namespace
} // namespace zerodev
