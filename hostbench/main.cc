/**
 * @file
 * Host sim-rate benchmark: runs one named workload from a seed on one
 * thread, as a closed loop with fixed work per repetition, and prints
 * every metric by name and unit, ending with one JSON result line.
 *
 *   hostbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--out-dir DIR]
 *   hostbench --list
 *
 * --trace 0 repeats the workload until S seconds have passed and
 * reports the end-to-end metrics: medians over repetitions, with host
 * times read at reference host speed (see HostReference). --trace 1
 * is a separate pass that times the benchmark's own calls into each
 * module's public functions and reports the per-layer split; it also
 * writes its spans and call histograms to DIR/trace-<workload>.json.
 * Every repetition (every fuzz seed) is one operation; it fails on an
 * invariant violation, a Differ divergence, or a simulated counter that
 * differs between repetitions of the same seed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "core/cmp_system.hh"
#include "core/invariants.hh"
#include "host_ref.hh"
#include "obs/json.hh"
#include "obs/latency.hh"
#include "probes.hh"
#include "sim/runner.hh"
#include "span_trace.hh"
#include "verify/differ.hh"
#include "workloads.hh"

using namespace zerodev;
using namespace hostbench;

namespace
{

struct Options
{
    std::string workload;
    std::optional<std::uint64_t> seed;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".bench_build/hostbench/out";
};

struct MetricDef
{
    std::string name;
    std::string unit;
};

const std::vector<MetricDef> &
endToEndDefs()
{
    static const std::vector<MetricDef> defs = {
        {"sim_rate_maccess_s", "Maccess/s"},
        {"setup_s", "s"},
        {"peak_rss_mib", "MiB"},
        {"sim_ipc", "instr/cycle"},
        {"sim_l2_mpki", "per_kinstr"},
    };
    return defs;
}

const char *const kVerifyGroups[] = {"mesi", "dls", "phasepri",
                                     "two_socket"};

const std::vector<MetricDef> &
perLayerDefs()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"workload.next_ns", "ns"},
            {"workload.share", "share"},
            {"sim.issue_ns", "ns"},
            {"sim.issue_share", "share"},
            {"core.access_ns", "ns"},
            {"core.access_ns_p50", "ns"},
            {"core.access_ns_p99", "ns"},
        };
        for (std::size_t k = 0; k < kNumClasses; ++k) {
            d.push_back({std::string("core.") +
                             toString(static_cast<AccessClass>(k)) + ".ns",
                         "ns"});
        }
        d.push_back({"core.dev.ns", "ns"});
        d.push_back({"core.uncore_share", "share"});
        d.push_back({"obs.latency_profiler_ns", "ns"});
        d.push_back({"verify.self_share", "share"});
        for (const char *g : kVerifyGroups)
            d.push_back({std::string("verify.engine.") + g + ".ns", "ns"});
        d.push_back({"verify.invariants_ms", "ms"});
        d.push_back({"snapshot.save_ms", "ms"});
        for (const char *c : kCountNames)
            d.push_back({c, "per_kacc"});
        d.push_back({"verify.sweeps", "per_kacc"});
        for (std::size_t k = 0; k < kNumClasses; ++k) {
            d.push_back({std::string("class.") +
                             toString(static_cast<AccessClass>(k)),
                         "per_kacc"});
        }
        d.push_back({"ratio.private_hit", "share"});
        d.push_back({"ratio.dram_reads_per_miss", "ratio"});
        d.push_back({"sim_dev_pki", "per_kinstr"});
        d.push_back({"layer.coverage", "share"});
        d.push_back({"trace.overhead_share", "share"});
        return d;
    }();
    return defs;
}

/** What one invocation reports. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> metrics;
    std::uint64_t digest = 0; //!< of the first repetition's counters
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** The reference host speed: a fixed time for one
 *  HostReference::runNs(), in CPU ns, about what it takes on a shared
 *  4-vCPU 2.0 GHz Xeon host (27–50 ms as that host's load varies). */
constexpr double kRefNominalNs = 34e6;

/**
 * @p ns of host time read at reference host speed: scaled by how much
 * slower than nominal the reference load ran next to it (@p ref_ns).
 */
double
atRefSpeed(double ns, double ref_ns)
{
    return ns * kRefNominalNs / ref_ns;
}

/** The samples behind a metric, on stderr (for judging spread). */
void
printSamples(const char *what, const std::vector<double> &v)
{
    std::fprintf(stderr, "hostbench: %s:", what);
    for (double x : v)
        std::fprintf(stderr, " %.4g", x);
    std::fprintf(stderr, "\n");
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
secondsSince(Clock::time_point t0)
{
    return nsBetween(t0, Clock::now()) / 1e9;
}

/** Repetitions the untraced loop always makes, so a determinism check
 *  and several samples exist even when one outlasts --seconds. */
constexpr std::uint64_t kMinReps = 3;

/** Report the first invariant violation on stderr; true if none. */
bool
invariantsHold(const CmpSystem &sys, const char *what)
{
    const std::vector<Violation> v = checkInvariants(sys);
    if (v.empty())
        return true;
    std::fprintf(stderr, "hostbench: %s: invariant %s: %s\n", what,
                 v.front().rule.c_str(), v.front().detail.c_str());
    return false;
}

bool
sameCounters(const std::string &a, const std::string &b, const char *what)
{
    if (a == b)
        return true;
    std::fprintf(stderr,
                 "hostbench: %s: simulated counters differ from the "
                 "first repetition of the same seed\n",
                 what);
    return false;
}

const char *
verifyGroup(const SystemConfig &cfg)
{
    if (cfg.protocol == ProtocolKind::Dls)
        return "dls";
    if (cfg.protocol == ProtocolKind::PhasePriority)
        return "phasepri";
    return cfg.sockets > 1 ? "two_socket" : "mesi";
}

/** Every timed call completed exactly one AccessClass. */
bool
classified(const CallProfile &cp, const char *what)
{
    if (cp.classCalls[kNumClasses] == 0)
        return true;
    std::fprintf(stderr, "hostbench: %s: %llu calls completed no class\n",
                 what,
                 static_cast<unsigned long long>(cp.classCalls[kNumClasses]));
    return false;
}

/** The per-class counts sum to the report's totals. */
bool
countsConserved(const ClassCounts &cc, const StatDump &report,
                const char *what)
{
    if (sumClasses(cc) == countsFromReport(report) &&
        cc[kNumClasses] == Counts{})
        return true;
    std::fprintf(stderr,
                 "hostbench: %s: per-class counts do not sum to the "
                 "report's\n",
                 what);
    return false;
}

verify::DifferOptions
fuzzOptions()
{
    verify::DifferOptions opt;
    opt.snapshotCadence = kFuzzSnapshotEvery;
    return opt;
}

// ---------------------------------------------------------------------
// Untraced passes: the end-to-end metrics.
// ---------------------------------------------------------------------

Result
untracedGenerator(const WorkloadSpec &spec, std::uint64_t seed,
                  const Options &opt, HostReference &ref)
{
    Result res;
    RunConfig rc;
    rc.accessesPerCore = spec.accessesPerCore;

    std::vector<double> setup, runNs, rate, rawRate, refMs;
    std::string firstSig;
    RunResult first;
    double refBefore = ref.runNs();
    const Clock::time_point t0 = Clock::now();
    while (res.attempted < kMinReps || secondsSince(t0) < opt.seconds) {
        const double s0 = threadCpuNs();
        auto sys = std::make_unique<CmpSystem>(spec.cfg);
        std::optional<obs::LatencyProfiler> prof;
        if (spec.latencyProfiler)
            prof.emplace();
        const Workload w = spec.make(deriveSeed(seed, 0));
        const double s1 = threadCpuNs();
        rc.latency = prof ? &*prof : nullptr;
        const RunResult r = run(*sys, w, rc);
        const double s2 = threadCpuNs();
        const double refAfter = ref.runNs();
        const double refNs = (refBefore + refAfter) / 2.0;
        refBefore = refAfter;

        ++res.attempted;
        setup.push_back(atRefSpeed(s1 - s0, refNs) / 1e9);
        runNs.push_back(atRefSpeed(s2 - s1, refNs));
        rate.push_back(static_cast<double>(r.accesses) /
                       (runNs.back() / 1e3));
        rawRate.push_back(static_cast<double>(r.accesses) /
                          ((s2 - s1) / 1e3));
        refMs.push_back(refNs / 1e6);
        bool ok = invariantsHold(*sys, "end of run");
        const std::string sig = signature(r.system, r.cycles, r.instructions);
        if (res.attempted == 1) {
            firstSig = sig;
            first = r;
        } else {
            ok = sameCounters(sig, firstSig, "repetition") && ok;
        }
        res.failed += ok ? 0 : 1;
    }

    printSamples("Maccess/s at reference speed per repetition", rate);
    printSamples("raw Maccess/s per repetition", rawRate);
    printSamples("reference load ms per repetition", refMs);
    printSamples("setup s at reference speed per repetition", setup);
    res.digest = digest(firstSig);
    const double instr = static_cast<double>(first.instructions);
    res.metrics["sim_rate_maccess_s"] =
        static_cast<double>(first.accesses) / (median(runNs) / 1e3);
    res.metrics["setup_s"] = median(setup);
    res.metrics["sim_ipc"] =
        ratio(instr, static_cast<double>(first.cycles));
    res.metrics["sim_l2_mpki"] =
        ratio(first.system.get("l2_misses") * 1000.0, instr);
    std::printf("sim_dev_pki = %.6g per_kinstr (repetitions: %llu)\n",
                ratio(first.system.get("dev_invalidations") * 1000.0, instr),
                static_cast<unsigned long long>(res.attempted));
    return res;
}

/** Everything a Differ run of one seed must repeat exactly: its own
 *  counters and the state it checkpointed (every instance's saveState
 *  bytes, clock and poisoned blocks, and the shadow oracle). */
std::uint64_t
differDigest(const verify::DifferResult &d)
{
    std::string sig = "accesses=" + std::to_string(d.accesses) +
                      "\nsweeps=" + std::to_string(d.sweeps) +
                      "\ndiverged=" + std::to_string(d.divergence.found) +
                      "\ncheckpoint=" +
                      std::to_string(d.checkpoint.accessIndex) + "\n";
    for (const auto &inst : d.checkpoint.instances) {
        sig.append(inst.system.begin(), inst.system.end());
        sig += "\nnow=" + std::to_string(inst.now) + "\n";
        for (BlockAddr b : inst.poisoned)
            sig += std::to_string(b) + ",";
    }
    for (const auto &[block, stores] : d.checkpoint.versions)
        sig += std::to_string(block) + ":" + std::to_string(stores) + ",";
    return digest(sig);
}

/** Simulated counters of every variant replayed alone over fuzz
 *  streams, summed. */
struct LoneReplays
{
    double cycles = 0.0;
    double instructions = 0.0;
    double l2Misses = 0.0;
    double devs = 0.0;

    /** Replay @p stream on every variant; returns the signature of
     *  their reports. */
    std::string
    add(const verify::Differ &differ, const std::vector<TraceRecord> &stream)
    {
        std::string sig;
        for (const verify::Variant &v : differ.variants()) {
            CmpSystem sys(v.cfg);
            const ReplayResult r =
                plainReplay(sys, stream, Clocking::Global);
            sig += v.name + "\n" +
                   signature(r.report, r.cycles, r.instructions);
            cycles += static_cast<double>(r.cycles);
            instructions += static_cast<double>(r.instructions);
            l2Misses += r.report.get("l2_misses");
            devs += r.report.get("dev_invalidations");
        }
        return sig;
    }
};

Result
untracedFuzz(std::uint64_t seed, const Options &opt, HostReference &ref)
{
    Result res;
    const verify::Differ differ(
        verify::Differ::standardVariants(kFuzzCores), fuzzOptions());
    const double variants = static_cast<double>(differ.variants().size());

    // One repetition replays the same batch of kFuzzBatch seeds. Its
    // setup is what happens outside Differ::run: generating the streams.
    // Differ::run builds its own CmpSystems, so their construction is
    // part of the sim rate. Each seed is a unit of work of its own.
    std::vector<double> setup, rate, rawRate;
    std::vector<std::vector<double>> seedNs(kFuzzBatch);
    std::vector<std::uint64_t> firstDigests;
    double work = 0.0; //!< instance-accesses of one batch
    std::uint64_t reps = 0;
    double refBefore = ref.runNs();
    const Clock::time_point t0 = Clock::now();
    while (reps < kMinReps || secondsSince(t0) < opt.seconds) {
        const double s0 = threadCpuNs();
        std::vector<std::vector<TraceRecord>> streams;
        for (std::uint64_t i = 0; i < kFuzzBatch; ++i) {
            streams.push_back(verify::fuzzStream(deriveSeed(seed, i),
                                                 kFuzzCores, kFuzzAccesses));
        }
        const double s1 = threadCpuNs();
        setup.push_back(atRefSpeed(s1 - s0, refBefore) / 1e9);
        std::uint64_t accesses = 0;
        double batchNs = 0.0, batchRawNs = 0.0;
        for (std::uint64_t i = 0; i < kFuzzBatch; ++i) {
            const double d0 = threadCpuNs();
            const verify::DifferResult d = differ.run(streams[i]);
            const double d1 = threadCpuNs();
            const double refAfter = ref.runNs();
            seedNs[i].push_back(
                atRefSpeed(d1 - d0, (refBefore + refAfter) / 2.0));
            refBefore = refAfter;
            batchNs += seedNs[i].back();
            batchRawNs += d1 - d0;
            ++res.attempted;
            accesses += d.accesses;
            bool ok = d.ok() && d.accesses == streams[i].size();
            if (!d.ok()) {
                std::fprintf(stderr,
                             "hostbench: fuzz seed %llu diverged: %s on %s "
                             "at %llu: %s\n",
                             static_cast<unsigned long long>(i),
                             d.divergence.rule.c_str(),
                             d.divergence.instance.c_str(),
                             static_cast<unsigned long long>(
                                 d.divergence.accessIndex),
                             d.divergence.detail.c_str());
            }
            const std::uint64_t dg = differDigest(d);
            if (reps == 0) {
                firstDigests.push_back(dg);
            } else if (dg != firstDigests[i]) {
                std::fprintf(stderr,
                             "hostbench: fuzz seed %llu: Differ counters "
                             "differ from the first repetition\n",
                             static_cast<unsigned long long>(i));
                ok = false;
            }
            res.failed += ok ? 0 : 1;
        }
        ++reps;
        work = variants * static_cast<double>(accesses);
        rate.push_back(work / (batchNs / 1e3));
        rawRate.push_back(work / (batchRawNs / 1e3));
    }
    double batchNs = 0.0;
    for (const std::vector<double> &ns : seedNs)
        batchNs += median(ns);

    // Simulated metrics: every variant replayed alone over the batch
    // (one seed's metrics swing with the profile its stream draws).
    LoneReplays lone;
    std::string firstSig;
    for (std::uint64_t i = 0; i < kFuzzBatch; ++i) {
        const std::string sig = lone.add(
            differ, verify::fuzzStream(deriveSeed(seed, i), kFuzzCores,
                                       kFuzzAccesses));
        if (i == 0)
            firstSig = sig;
    }

    printSamples("Maccess/s at reference speed per batch", rate);
    printSamples("raw Maccess/s per batch", rawRate);
    printSamples("setup s at reference speed per batch", setup);
    res.digest = digest(firstSig);
    res.metrics["sim_rate_maccess_s"] = work / (batchNs / 1e3);
    res.metrics["setup_s"] = median(setup);
    res.metrics["sim_ipc"] = ratio(lone.instructions, lone.cycles);
    res.metrics["sim_l2_mpki"] =
        ratio(lone.l2Misses * 1000.0, lone.instructions);
    std::printf("sim_dev_pki = %.6g per_kinstr (fuzz seeds: %llu)\n",
                ratio(lone.devs * 1000.0, lone.instructions),
                static_cast<unsigned long long>(res.attempted));
    return res;
}

// ---------------------------------------------------------------------
// Traced passes: the per-layer split.
// ---------------------------------------------------------------------

/** Raw sums over every traced pass; metrics are derived at the end. */
struct TracedTotals
{
    // Generator workloads (one entry per pass, summed).
    double runNs = 0.0;         //!< untraced sim::run wall
    double replayNs = 0.0;      //!< sim::replay wall, no profiler
    double replayProfNs = 0.0;  //!< sim::replay wall, profiler attached
    double genNs = 0.0;         //!< ThreadGenerator::next, standalone
    std::uint64_t accesses = 0; //!< accesses of the timed runs

    // Fuzz workload.
    double differNs = 0.0;
    std::uint64_t streamAccesses = 0; //!< records the Differ executed
    std::uint64_t sweeps = 0;
    std::uint64_t differInvariantCalls = 0;
    std::uint64_t differSaveCalls = 0;
    double engineNs = 0.0; //!< lone plain replays, every variant
    std::map<std::string, std::pair<double, std::uint64_t>> engine;

    // Both.
    double accessLoopNs = 0.0; //!< instrumented replay, hooks excluded
    double plainLoopNs = 0.0;  //!< the same work uninstrumented
    std::uint64_t timedRecords = 0; //!< stream records the timed replays fed
    CallProfile calls;
    ClassCounts classCounts{};
    Counts counts{};
    std::uint64_t countAccesses = 0;
    double l2Misses = 0.0;
    double instructions = 0.0;
};

/** Running checksum of an access sequence. */
std::uint64_t
mixAccess(std::uint64_t h, const MemAccess &a)
{
    h ^= a.block + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h ^= (static_cast<std::uint64_t>(a.gap) << 8) |
         static_cast<std::uint64_t>(a.type);
    return h * 0x100000001b3ull;
}

bool
tracedGeneratorPass(const WorkloadSpec &spec, const Workload &w,
                    std::uint64_t per_core, const std::string &trace_path,
                    double timer_ns, SpanRecorder &rec, TracedTotals &t,
                    std::string &sig)
{
    ScopedSpan pass(rec, "pass");
    RunConfig rc;
    rc.accessesPerCore = per_core;
    bool ok = true;

    // The run exactly as the untraced pass times it.
    RunResult r;
    {
        std::unique_ptr<CmpSystem> sys;
        std::optional<obs::LatencyProfiler> prof;
        {
            ScopedSpan s(rec, "setup");
            sys = std::make_unique<CmpSystem>(spec.cfg);
            if (spec.latencyProfiler)
                prof.emplace();
        }
        RunConfig prc = rc;
        prc.latency = prof ? &*prof : nullptr;
        ScopedSpan s(rec, "run");
        r = run(*sys, w, prc);
        t.runNs += s.seconds() * 1e9;
        ScopedSpan inv(rec, "invariants");
        ok = invariantsHold(*sys, "end of run") && ok;
    }
    sig = signature(r.system, r.cycles, r.instructions);
    t.accesses += r.accesses;
    addCounts(t.counts, countsFromReport(r.system));
    t.countAccesses += r.accesses;
    t.l2Misses += r.system.get("l2_misses");
    t.instructions += static_cast<double>(r.instructions);

    // Record the interleaved stream the run issued.
    {
        CmpSystem sys(spec.cfg);
        RunConfig trc = rc;
        trc.tracePath = trace_path;
        ScopedSpan s(rec, "run.record");
        const RunResult rr = run(sys, w, trc);
        ok = sameCounters(signature(rr.system, rr.cycles, rr.instructions),
                          sig, "recording run") &&
             ok;
    }
    const TraceReader trace(trace_path);
    std::remove(trace_path.c_str());
    if (!trace.ok()) {
        std::fprintf(stderr, "hostbench: %s\n", trace.error().c_str());
        return false;
    }
    const std::vector<TraceRecord> &records = trace.records();

    // The generators alone, over the same per-core streams.
    {
        const std::uint32_t cores = trace.cores();
        std::vector<std::uint64_t> n(cores, 0), want(cores, 0);
        for (const TraceRecord &rr : records) {
            ++n[rr.core];
            want[rr.core] = mixAccess(want[rr.core], rr.access);
        }
        ScopedSpan s(rec, "generate");
        for (std::uint32_t c = 0; c < cores; ++c) {
            ThreadGenerator g = w.makeGenerator(c);
            std::uint64_t got = 0;
            const Clock::time_point g0 = Clock::now();
            for (std::uint64_t i = 0; i < n[c]; ++i)
                got = mixAccess(got, g.next());
            t.genNs += nsBetween(g0, Clock::now());
            if (got != want[c]) {
                std::fprintf(stderr,
                             "hostbench: core %u generator stream differs "
                             "from the recorded one\n",
                             c);
                ok = false;
            }
        }
    }

    // sim::replay without and with the latency profiler.
    {
        CmpSystem sys(spec.cfg);
        ScopedSpan s(rec, "replay");
        const RunResult rr = replay(sys, trace, rc);
        t.replayNs += s.seconds() * 1e9;
        ok = sameCounters(signature(rr.system, rr.cycles, rr.instructions),
                          sig, "sim::replay") &&
             ok;
    }
    {
        CmpSystem sys(spec.cfg);
        obs::LatencyProfiler prof;
        RunConfig prc = rc;
        prc.latency = &prof;
        ScopedSpan s(rec, "replay.profiler");
        replay(sys, trace, prc);
        t.replayProfNs += s.seconds() * 1e9;
    }

    // Every CmpSystem::access call, timed and attributed.
    {
        CmpSystem sys(spec.cfg);
        CallProfile cp;
        ScopedSpan s(rec, "access");
        const ReplayResult rr = timedReplay(sys, records, Clocking::PerCore,
                                            timer_ns, cp);
        ok = sameCounters(signature(rr.report, rr.cycles, rr.instructions),
                          sig, "timed replay") &&
             ok;
        ok = classified(cp, "timed replay") && ok;
        t.accessLoopNs += rr.wallSeconds * 1e9;
        t.timedRecords += records.size();
        t.calls.merge(cp);
    }
    {
        CmpSystem sys(spec.cfg);
        t.plainLoopNs +=
            plainReplay(sys, records, Clocking::PerCore).wallSeconds * 1e9;
    }
    {
        CmpSystem sys(spec.cfg);
        ClassCounts cc{};
        const ReplayResult rr =
            countedReplay(sys, records, Clocking::PerCore, cc);
        ok = countsConserved(cc, rr.report, "counted replay") && ok;
        for (std::size_t k = 0; k <= kNumClasses; ++k)
            addCounts(t.classCounts[k], cc[k]);
    }
    return ok;
}

bool
tracedFuzzSeed(const verify::Differ &differ,
               const std::vector<TraceRecord> &stream, double timer_ns,
               SpanRecorder &rec, TracedTotals &t, std::string &sig)
{
    ScopedSpan seedSpan(rec, "seed");
    bool ok = true;
    {
        ScopedSpan s(rec, "differ");
        const verify::DifferResult d = differ.run(stream);
        const double ns = s.seconds() * 1e9;
        rec.hist("Differ::run").add(ns);
        t.differNs += ns;
        t.streamAccesses += d.accesses;
        t.sweeps += d.sweeps;
        ok = d.ok() && d.accesses == stream.size();
    }
    const std::uint64_t n = stream.size();
    const std::uint64_t variants = differ.variants().size();
    const std::uint64_t invEvery = differ.options().invariantCadence;
    t.differInvariantCalls += (n / invEvery + 1) * variants;
    t.differSaveCalls += (n / kFuzzSnapshotEvery) * variants;

    DurationHist &invHist = rec.hist("checkInvariants");
    DurationHist &saveHist = rec.hist("saveState");
    for (const verify::Variant &v : differ.variants()) {
        ReplayResult plain;
        {
            CmpSystem sys(v.cfg);
            ScopedSpan s(rec, "replay");
            plain = plainReplay(sys, stream, Clocking::Global);
        }
        const std::string vsig =
            signature(plain.report, plain.cycles, plain.instructions);
        sig += v.name + "\n" + vsig;
        const double ns = plain.wallSeconds * 1e9;
        auto &g = t.engine[verifyGroup(v.cfg)];
        g.first += ns;
        g.second += n;
        t.engineNs += ns;
        t.plainLoopNs += ns;
        addCounts(t.counts, countsFromReport(plain.report));
        t.countAccesses += n;
        t.l2Misses += plain.report.get("l2_misses");
        t.instructions += static_cast<double>(plain.instructions);

        // Instrumented, with the Differ's invariant and snapshot
        // cadences between calls.
        CmpSystem sys(v.cfg);
        CallProfile cp;
        double hookNs = 0.0;
        auto timeInvariants = [&] {
            const Clock::time_point h0 = Clock::now();
            ok = invariantsHold(sys, v.name.c_str()) && ok;
            const double d = nsBetween(h0, Clock::now());
            invHist.add(d);
            hookNs += d;
        };
        const auto between = [&](std::uint64_t i) {
            const std::uint64_t done = i + 1;
            if (done % invEvery == 0)
                timeInvariants();
            if (done % kFuzzSnapshotEvery == 0) {
                SerialOut out;
                const Clock::time_point h0 = Clock::now();
                sys.saveState(out);
                const double d = nsBetween(h0, Clock::now());
                saveHist.add(d);
                hookNs += d;
            }
        };
        ScopedSpan s(rec, "access");
        const ReplayResult rr = timedReplay(sys, stream, Clocking::Global,
                                            timer_ns, cp, between);
        t.accessLoopNs += rr.wallSeconds * 1e9 - hookNs;
        timeInvariants(); // the Differ's end-of-stream sweep
        ok = sameCounters(signature(rr.report, rr.cycles, rr.instructions),
                          vsig, v.name.c_str()) &&
             ok;
        ok = classified(cp, v.name.c_str()) && ok;
        t.timedRecords += n;
        t.calls.merge(cp);

        CmpSystem counted(v.cfg);
        ClassCounts cc{};
        const ReplayResult cr =
            countedReplay(counted, stream, Clocking::Global, cc);
        ok = countsConserved(cc, cr.report, v.name.c_str()) && ok;
        for (std::size_t k = 0; k <= kNumClasses; ++k)
            addCounts(t.classCounts[k], cc[k]);
    }
    return ok;
}

std::map<std::string, double>
perLayerMetrics(const WorkloadSpec &spec, const TracedTotals &t,
                const SpanRecorder &rec)
{
    std::map<std::string, double> m;
    for (const MetricDef &d : perLayerDefs())
        m[d.name] = 0.0;
    const bool fuzz = spec.kind == Kind::Fuzz;
    const CallProfile &c = t.calls;
    const double calls = static_cast<double>(c.calls);
    // Shares are of the top-level wall: sim::run, or Differ::run.
    const double top = fuzz ? t.differNs : t.runNs;

    if (!fuzz) {
        const double acc = static_cast<double>(t.accesses);
        const double match =
            spec.latencyProfiler ? t.replayProfNs : t.replayNs;
        const double issue = t.runNs - match - t.genNs;
        m["workload.next_ns"] = ratio(t.genNs, acc);
        m["workload.share"] = ratio(t.genNs, t.runNs);
        m["sim.issue_ns"] = ratio(issue, acc);
        m["sim.issue_share"] = ratio(issue, t.runNs);
        m["obs.latency_profiler_ns"] =
            ratio(t.replayProfNs - t.replayNs, acc);
        // workload + sim + core (+ obs, whose replay the run matches).
        m["layer.coverage"] =
            ratio(t.runNs - t.replayNs + c.totalNs, t.runNs);
    } else {
        const auto meanOf = [&](const char *name) {
            const auto it = rec.hists().find(name);
            return it == rec.hists().end() ? 0.0 : it->second.mean();
        };
        const double invNs = meanOf("checkInvariants");
        const double saveNs = meanOf("saveState");
        m["verify.self_share"] = 1.0 - ratio(t.engineNs, t.differNs);
        for (const auto &[group, g] : t.engine) {
            m["verify.engine." + group + ".ns"] =
                ratio(g.first, static_cast<double>(g.second));
        }
        m["verify.invariants_ms"] = invNs / 1e6;
        m["snapshot.save_ms"] = saveNs / 1e6;
        m["verify.sweeps"] =
            ratio(static_cast<double>(t.sweeps) * 1000.0,
                  static_cast<double>(t.streamAccesses));
        m["layer.coverage"] = ratio(
            t.engineNs +
                static_cast<double>(t.differInvariantCalls) * invNs +
                static_cast<double>(t.differSaveCalls) * saveNs,
            t.differNs);
    }

    m["core.access_ns"] = ratio(c.totalNs, calls);
    m["core.access_ns_p50"] = c.hist.percentile(0.50);
    m["core.access_ns_p99"] = c.hist.percentile(0.99);
    double uncoreNs = 0.0;
    for (std::size_t k = 0; k < kNumClasses; ++k) {
        const std::string cls = toString(static_cast<AccessClass>(k));
        m["core." + cls + ".ns"] =
            ratio(c.classNs[k], static_cast<double>(c.classCalls[k]));
        m["class." + cls] =
            ratio(static_cast<double>(c.classCalls[k]) * 1000.0, calls);
        if (k >= static_cast<std::size_t>(AccessClass::Upgrade))
            uncoreNs += c.classNs[k];
    }
    m["core.dev.ns"] = ratio(c.devNs, static_cast<double>(c.devCalls));
    m["core.uncore_share"] = ratio(uncoreNs, top);

    const double kacc = static_cast<double>(t.countAccesses) / 1000.0;
    for (std::size_t i = 0; i < NumCounts; ++i)
        m[kCountNames[i]] = ratio(static_cast<double>(t.counts[i]), kacc);
    const auto l1 = static_cast<std::size_t>(AccessClass::L1Hit);
    const auto l2 = static_cast<std::size_t>(AccessClass::L2Hit);
    m["ratio.private_hit"] = ratio(
        static_cast<double>(c.classCalls[l1] + c.classCalls[l2]), calls);
    m["ratio.dram_reads_per_miss"] =
        ratio(static_cast<double>(t.counts[DramReads]), t.l2Misses);
    m["sim_dev_pki"] =
        ratio(static_cast<double>(t.counts[DevInvalidations]) * 1000.0,
              t.instructions);
    // Share of the sim rate lost when every call is timed: the plain
    // replay's rate versus the timed replay's, over the same work.
    m["trace.overhead_share"] = 1.0 - ratio(t.plainLoopNs, t.accessLoopNs);
    return m;
}

/** Spans, call histograms, the per-class count matrix and the metrics,
 *  written once at exit. */
void
writeTraceFile(const std::string &path, const WorkloadSpec &spec,
               std::uint64_t seed, double timer_ns, const SpanRecorder &rec,
               const TracedTotals &t, const Result &res)
{
    obs::JsonWriter w;
    w.beginObject();
    w.field("schema", "hostbench-trace-v1");
    w.field("workload", spec.name);
    w.field("seed", seed);
    w.field("timer_overhead_ns", timer_ns);
    w.field("timed_records", t.timedRecords);
    w.key("spans").beginArray();
    for (const Span &s : rec.spans()) {
        w.beginObject();
        w.field("name", s.name);
        w.field("start_ns", s.startNs);
        w.field("end_ns", s.endNs);
        w.field("parent", static_cast<std::int64_t>(s.parent));
        w.endObject();
    }
    w.endArray();
    w.key("histograms").beginObject();
    const auto hist = [&](const std::string &name, const DurationHist &h) {
        w.key(name).beginObject();
        w.field("count", h.count());
        w.field("sum_ns", h.sum());
        w.field("mean_ns", h.mean());
        w.field("p50_ns", h.percentile(0.50));
        w.field("p99_ns", h.percentile(0.99));
        w.endObject();
    };
    hist("CmpSystem::access", t.calls.hist);
    for (const auto &[name, h] : rec.hists())
        hist(name, h);
    w.endObject();
    w.key("class_counts").beginObject();
    for (std::size_t k = 0; k <= kNumClasses; ++k) {
        if (t.calls.classCalls[k] == 0)
            continue;
        w.key(k < kNumClasses ? toString(static_cast<AccessClass>(k))
                              : "unclassified")
            .beginObject();
        w.field("calls", t.calls.classCalls[k]);
        w.field("ns", t.calls.classNs[k]);
        for (std::size_t i = 0; i < NumCounts; ++i)
            w.field(kCountNames[i], t.classCounts[k][i]);
        w.endObject();
    }
    w.endObject();
    w.key("metrics").beginObject();
    for (const auto &[name, v] : res.metrics)
        w.field(name, v);
    w.endObject();
    w.endObject();
    if (!obs::writeTextFile(path, w.str() + "\n"))
        std::fprintf(stderr, "hostbench: cannot write %s\n", path.c_str());
}

Result
traced(const WorkloadSpec &spec, std::uint64_t seed, const Options &opt)
{
    Result res;
    SpanRecorder rec;
    TracedTotals t;
    const double timerNs = timerOverheadNs();
    std::string firstSig;
    const Clock::time_point t0 = Clock::now();

    if (spec.kind == Kind::Generator) {
        std::optional<Workload> w;
        {
            ScopedSpan s(rec, "setup");
            w.emplace(spec.make(deriveSeed(seed, 0)));
        }
        const std::string tracePath = opt.outDir + "/stream.trc";
        // Start a pass only if it is expected to end within --seconds.
        double lastPass = 0.0;
        while (res.attempted < 1 ||
               secondsSince(t0) + lastPass <= opt.seconds) {
            const Clock::time_point p0 = Clock::now();
            std::string sig;
            bool ok = tracedGeneratorPass(spec, *w, spec.accessesPerCore,
                                          tracePath, timerNs, rec, t, sig);
            lastPass = secondsSince(p0);
            if (res.attempted == 0)
                firstSig = sig;
            else
                ok = sameCounters(sig, firstSig, "traced pass") && ok;
            ++res.attempted;
            res.failed += ok ? 0 : 1;
        }
    } else {
        const verify::Differ differ(
            verify::Differ::standardVariants(kFuzzCores), fuzzOptions());
        for (std::uint64_t i = 0; i < kFuzzTracedSeeds; ++i) {
            std::vector<TraceRecord> stream;
            {
                ScopedSpan s(rec, "setup");
                stream = verify::fuzzStream(deriveSeed(seed, i), kFuzzCores,
                                            kFuzzAccesses);
            }
            std::string sig;
            const bool ok =
                tracedFuzzSeed(differ, stream, timerNs, rec, t, sig);
            if (i == 0)
                firstSig = sig;
            ++res.attempted;
            res.failed += ok ? 0 : 1;
        }
    }

    res.digest = digest(firstSig);
    res.metrics = perLayerMetrics(spec, t, rec);
    const double cov = res.metrics["layer.coverage"];
    std::printf("layer coverage: %.1f%% of the %s wall (remainder %.1f%%)%s"
                "\n",
                cov * 100.0,
                spec.kind == Kind::Fuzz ? "Differ::run" : "sim::run",
                (1.0 - cov) * 100.0,
                spec.kind == Kind::Generator && cov < 0.9 ? " BELOW 90%"
                                                          : "");
    std::error_code ec;
    std::filesystem::create_directories(opt.outDir, ec);
    writeTraceFile(opt.outDir + "/trace-" + spec.name + ".json", spec, seed,
                   timerNs, rec, t, res);
    return res;
}

void
printResult(const Result &res, const std::vector<MetricDef> &defs)
{
    std::printf("counters digest: %016llx\n",
                static_cast<unsigned long long>(res.digest));
    std::printf("operations: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    for (const MetricDef &d : defs) {
        std::printf("%-28s %.6g %s\n", d.name.c_str(),
                    res.metrics.at(d.name), d.unit.c_str());
    }
    // Rendered by hand: values carry every digit (%.17g), names and
    // units are plain identifiers.
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                res.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    for (std::size_t i = 0; i < defs.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", defs[i].name.c_str(),
                    res.metrics.at(defs[i].name), defs[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--out-dir DIR]\n"
                 "       %s --list\n",
                 argv0, argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--list") {
            for (const WorkloadSpec &w : workloads())
                std::printf("%s\n", w.name.c_str());
            std::printf("default seed %llu, held-back seed %llu\n",
                        static_cast<unsigned long long>(kDefaultSeed),
                        static_cast<unsigned long long>(kHeldBackSeed));
            return 0;
        } else if (a == "--workload" && hasValue) {
            opt.workload = argv[++i];
        } else if (a == "--seed" && hasValue) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && hasValue) {
            opt.seconds = std::atof(argv[++i]);
        } else if (a == "--trace" && hasValue) {
            opt.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (a == "--out-dir" && hasValue) {
            opt.outDir = argv[++i];
        } else {
            return usage(argv[0]);
        }
    }
    const WorkloadSpec *spec = findWorkload(opt.workload);
    if (!spec) {
        if (!opt.workload.empty())
            std::fprintf(stderr, "hostbench: unknown workload '%s'\n",
                         opt.workload.c_str());
        return usage(argv[0]);
    }
    const std::uint64_t seed = opt.seed.value_or(kDefaultSeed);
    std::error_code ec;
    std::filesystem::create_directories(opt.outDir, ec);
    if (ec) {
        std::fprintf(stderr, "hostbench: cannot create %s: %s\n",
                     opt.outDir.c_str(), ec.message().c_str());
        return 1;
    }

    std::printf("hostbench: %s, seed %llu, %s\n", spec->name.c_str(),
                static_cast<unsigned long long>(seed),
                opt.trace ? "traced" : "untraced");
    if (opt.trace) {
        printResult(traced(*spec, seed, opt), perLayerDefs());
        return 0;
    }
    HostReference ref;
    Result res = spec->kind == Kind::Generator
                     ? untracedGenerator(*spec, seed, opt, ref)
                     : untracedFuzz(seed, opt, ref);
    // The reference tables are resident, but are not the simulator's.
    res.metrics["peak_rss_mib"] =
        peakRssMib() - static_cast<double>(ref.bytes()) / (1024.0 * 1024.0);
    printResult(res, endToEndDefs());
    return 0;
}
