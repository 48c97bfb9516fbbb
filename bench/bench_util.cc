#include "bench_util.hh"

#include <cstdio>
#include <cstdlib>

#include <algorithm>

#include "common/parallel.hh"
#include "core/cmp_system.hh"
#include "obs/json.hh"
#include "obs/latency.hh"
#include "obs/report.hh"
#include "obs/telemetry.hh"

namespace zerodev::bench
{

namespace
{

/** Cooperative stop flag threaded into every run (setSweepStop). */
const std::atomic<bool> *g_sweepStop = nullptr;

std::uint64_t
envOverride(const char *name, std::uint64_t dflt)
{
    const char *v = std::getenv(name);
    if (!v)
        return dflt;
    const unsigned long long parsed = std::strtoull(v, nullptr, 10);
    return parsed == 0 ? dflt : parsed;
}

std::string
reportDir()
{
    // Hardened: creates the directory recursively, exits 2 with a clear
    // message when it cannot be created or written.
    return obs::outputDirFromEnv("ZERODEV_REPORT_DIR");
}

/**
 * Checkpoint path of run @p key (ZERODEV_SNAPSHOT_DIR; empty = resume
 * disabled). Keyed by the figure slug and the deterministic submission
 * index, so a re-invocation after a crash computes the same path, finds
 * the interrupted run's file, and resumes it; @p kind separates the
 * runWorkload() and runSweep() numbering spaces.
 */
std::string
snapshotPathFor(const char *kind, std::size_t key)
{
    const std::string dir =
        obs::outputDirFromEnv("ZERODEV_SNAPSHOT_DIR");
    if (dir.empty())
        return {};
    char name[48];
    std::snprintf(name, sizeof(name), "_%s%04zu.ckpt", kind, key);
    return dir + "/" + BenchReporter::instance().figure() + name;
}

/**
 * Register one telemetry job for a run about to execute (nullptr when
 * ZERODEV_TELEMETRY_DIR is unset). @p key matches the run's report slot
 * when reporting is on, so "<figure>_runNNNN" names the same run in
 * status.json and in the v2 report file — one source of truth.
 */
obs::TelemetryJob *
beginTelemetryJob(const SystemConfig &cfg, const Workload &w,
                  std::uint64_t accesses, std::size_t key)
{
    obs::TelemetrySink *sink = obs::TelemetrySink::fromEnv();
    if (!sink)
        return nullptr;
    const std::string figure = BenchReporter::instance().figure();
    char name[32];
    std::snprintf(name, sizeof(name), "_run%04zu", key);
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(
                      obs::configFingerprint(cfg)));
    const std::uint64_t cores =
        std::min<std::uint64_t>(cfg.coresPerSocket * cfg.sockets,
                                w.threadCount());
    return sink->beginJob(figure + name, figure, fp, accesses * cores);
}

/**
 * One run on a fresh system. Every access composes its latency chain
 * anyway; recording the chains costs a histogram update per touched
 * component per transaction, so the profiler is only attached when the
 * reports that would carry it are actually written — and never when
 * checkpointing is on:
 * profiler state is not part of a snapshot, so a resumed run with a
 * profiler attached would report tail-only attribution and break the
 * bit-identical-resume contract for the written reports.
 */
RunResult
runOne(const SystemConfig &cfg, const Workload &w, std::uint64_t accesses,
       bool with_latency, const std::string &ckpt = {},
       obs::TelemetryJob *tj = nullptr)
{
    CmpSystem sys(cfg);
    RunConfig rc;
    rc.accessesPerCore = accesses;
    rc.telemetry = tj;
    rc.stopRequest = g_sweepStop;
    obs::LatencyProfiler latency;
    if (with_latency && ckpt.empty())
        rc.latency = &latency;
    if (!ckpt.empty()) {
        rc.snapshotPath = ckpt;
        if (std::FILE *f = std::fopen(ckpt.c_str(), "rb")) {
            std::fclose(f);
            rc.restorePath = ckpt;
        }
    }
    RunResult res = run(sys, w, rc);
    if (res.interrupted) {
        // Preempted: the checkpoint (when one is configured) stays on
        // disk for the resuming invocation; partial metrics are not a
        // completed run, so nothing is reported.
        if (tj) {
            obs::JobCompletion c;
            c.workload = res.workload;
            c.failed = true;
            c.error = "interrupted";
            tj->complete(c);
        }
        return res;
    }
    if (!ckpt.empty())
        std::remove(ckpt.c_str());
    if (tj)
        tj->complete(obs::completionOf(res));
    return res;
}

} // namespace

BenchReporter &
BenchReporter::instance()
{
    static BenchReporter reporter;
    return reporter;
}

bool
BenchReporter::enabled() const
{
    return !reportDir().empty();
}

void
BenchReporter::setFigure(const std::string &slug)
{
    std::lock_guard<std::mutex> lock(mu_);
    slug_ = slug;
}

std::string
BenchReporter::figure() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return slug_;
}

std::size_t
BenchReporter::reserveSlot()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!atexitRegistered_) {
        atexitRegistered_ = true;
        std::atexit([] { BenchReporter::instance().flush(); });
    }
    const std::size_t slot = runs_.size();
    runs_.emplace_back();
    runs_.back().label = std::move(pendingLabel_);
    pendingLabel_.clear();
    return slot;
}

void
BenchReporter::setNextRunLabel(const std::string &label)
{
    std::lock_guard<std::mutex> lock(mu_);
    pendingLabel_ = label;
}

void
BenchReporter::record(std::size_t slot, const SystemConfig &cfg,
                      const RunResult &res)
{
    const std::string dir = reportDir();
    if (dir.empty())
        return;

    // One v2 report per run, numbered by reservation (= submission)
    // order; the compare tool re-pairs reports by config fingerprint +
    // workload, so the numbering only has to be stable, which slot
    // reservation guarantees under any worker interleaving.
    char name[32];
    std::snprintf(name, sizeof(name), "_run%04zu", slot);
    obs::writeRunReport(dir + "/" + figure() + name + ".json", cfg, res);

    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(
                      obs::configFingerprint(cfg)));

    std::lock_guard<std::mutex> lock(mu_);
    if (slot >= runs_.size()) {
        std::fprintf(stderr,
                     "BenchReporter: record() of unreserved slot %zu\n",
                     slot);
        return;
    }
    TrajectoryRun &r = runs_[slot];
    r.fingerprint = fp;
    r.workload = res.workload;
    r.cycles = res.cycles;
    r.coreCacheMisses = res.coreCacheMisses;
    r.trafficBytes = res.trafficBytes;
    r.devInvalidations = res.devInvalidations;
    r.maccessesPerSecond = res.maccessesPerSecond();
    r.recorded = true;
}

/**
 * Append one JSON line to "<dir>/BENCH_<figure>.json" (schema
 * "zerodev-bench-trajectory-v1"): the commit (ZERODEV_COMMIT
 * environment variable, when set) plus every recorded run's fingerprint
 * and key metrics — including the informational host sim-rate.
 * Append-mode so successive commits accumulate a perf history in one
 * file per figure.
 */
void
BenchReporter::flush()
{
    const std::string dir = reportDir();
    if (dir.empty())
        return;

    std::lock_guard<std::mutex> lock(mu_);
    bool any = false;
    for (const TrajectoryRun &r : runs_)
        any = any || (r.recorded && !r.flushed);
    if (!any)
        return;

    obs::JsonWriter w;
    w.beginObject();
    obs::stampArtifact(w, "zerodev-bench-trajectory-v1");
    w.field("figure", slug_);
    w.key("runs").beginArray();
    for (TrajectoryRun &r : runs_) {
        if (!r.recorded || r.flushed)
            continue;
        r.flushed = true;
        w.beginObject();
        if (!r.label.empty())
            w.field("label", r.label);
        w.field("fingerprint", r.fingerprint);
        w.field("workload", r.workload);
        w.field("cycles", r.cycles);
        w.field("coreCacheMisses", r.coreCacheMisses);
        w.field("trafficBytes", r.trafficBytes);
        w.field("devInvalidations", r.devInvalidations);
        w.field("maccessesPerSecond", r.maccessesPerSecond);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    obs::appendTextFile(dir + "/BENCH_" + slug_ + ".json",
                        w.str() + "\n");
}

void
BenchReporter::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    runs_.clear();
    pendingLabel_.clear();
}

void
setSweepStop(const std::atomic<bool> *stop)
{
    g_sweepStop = stop;
}

std::uint64_t
accessesPerCore(std::uint64_t dflt)
{
    return envOverride("ZERODEV_ACCESSES", dflt);
}

std::uint64_t
serverAccessesPerCore(std::uint64_t dflt)
{
    return envOverride("ZERODEV_SERVER_ACCESSES", dflt);
}

RunResult
runWorkload(const SystemConfig &cfg, const Workload &w,
            std::uint64_t accesses)
{
    // Deterministic per-call numbering: benches call this from the main
    // thread in program order, so call N gets checkpoint "one000N" on
    // every (re-)invocation.
    static std::size_t calls = 0;
    const std::size_t call = calls++;
    const std::string ckpt = snapshotPathFor("one", call);

    BenchReporter &rep = BenchReporter::instance();
    if (!rep.enabled()) {
        return runOne(cfg, w, accesses, false, ckpt,
                      beginTelemetryJob(cfg, w, accesses, call));
    }
    const std::size_t slot = rep.reserveSlot();
    RunResult res = runOne(cfg, w, accesses, true, ckpt,
                           beginTelemetryJob(cfg, w, accesses, slot));
    if (!res.interrupted)
        rep.record(slot, cfg, res);
    return res;
}

std::vector<RunResult>
runSweep(const std::vector<SweepJob> &jobs)
{
    BenchReporter &rep = BenchReporter::instance();
    const bool report = rep.enabled();

    // Reserve report slots up front, in job order: the serial numbering
    // the compare/trajectory consumers expect, however workers race.
    std::vector<std::size_t> slots(jobs.size(), 0);
    if (report) {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            slots[i] = rep.reserveSlot();
    }

    // Telemetry jobs registered up front too (from this thread, in job
    // order), so status.json lists the whole sweep before work starts.
    std::vector<obs::TelemetryJob *> tjs(jobs.size(), nullptr);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        tjs[i] = beginTelemetryJob(jobs[i].cfg, jobs[i].w,
                                   jobs[i].accesses,
                                   report ? slots[i] : i);
    }

    return parallelMap(jobs.size(), [&](std::size_t i) {
        const SweepJob &j = jobs[i];
        RunResult res = runOne(j.cfg, j.w, j.accesses, report,
                               snapshotPathFor("job", i), tjs[i]);
        if (report && !res.interrupted)
            rep.record(slots[i], j.cfg, res);
        return res;
    });
}

void
runSweep(const std::vector<TaskJob> &jobs)
{
    // Telemetry jobs registered up front from this thread, in task
    // order, mirroring the workload overload. Task names (not slot
    // numbers) key the status entries: a task is not a run report, so
    // there is no runNNNN numbering to match.
    std::vector<obs::TelemetryJob *> tjs(jobs.size(), nullptr);
    if (obs::TelemetrySink *sink = obs::TelemetrySink::fromEnv()) {
        const std::string figure = BenchReporter::instance().figure();
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            char fp[32];
            std::snprintf(fp, sizeof(fp), "%016llx",
                          static_cast<unsigned long long>(
                              obs::configFingerprint(jobs[i].cfg)));
            tjs[i] = sink->beginJob(figure + "_" + jobs[i].name, figure,
                                    fp, jobs[i].units);
        }
    }

    parallelMap(jobs.size(), [&](std::size_t i) {
        jobs[i].run(tjs[i]);
        if (tjs[i]) {
            obs::JobCompletion c;
            c.workload = jobs[i].name;
            c.accesses = jobs[i].units;
            tjs[i]->complete(c);
        }
        return 0;
    });
}

Workload
workloadFor(const AppProfile &p, std::uint32_t cores)
{
    if (p.suite == "cpu2017")
        return Workload::rate(p, cores);
    return Workload::multiThreaded(p, cores);
}

double
perfMetric(const Workload &w, const RunResult &base, const RunResult &test)
{
    return w.multiProgrammed() ? weightedSpeedup(base, test)
                               : speedup(base, test);
}

std::vector<SuiteRow>
sweepSuite(const std::string &suite,
           const std::function<SystemConfig()> &base_cfg,
           const std::vector<std::function<SystemConfig()>> &test_cfgs,
           std::uint64_t accesses)
{
    // Materialise the whole (app x config) grid up front — config
    // factories run on this thread, in serial order — then execute the
    // embarrassingly parallel grid in one sweep.
    std::vector<SweepJob> jobs;
    std::vector<std::string> apps;
    for (const AppProfile &p : suiteProfiles(suite)) {
        const SystemConfig bcfg = base_cfg();
        const Workload w =
            workloadFor(p, bcfg.coresPerSocket * bcfg.sockets);
        apps.push_back(p.name);
        jobs.push_back({bcfg, w, accesses});
        for (const auto &make_cfg : test_cfgs)
            jobs.push_back({make_cfg(), w, accesses});
    }

    const std::vector<RunResult> results = runSweep(jobs);

    const std::size_t stride = test_cfgs.size() + 1;
    std::vector<SuiteRow> rows;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const RunResult &base = results[a * stride];
        SuiteRow row;
        row.app = apps[a];
        for (std::size_t t = 0; t < test_cfgs.size(); ++t) {
            row.values.push_back(perfMetric(jobs[a * stride].w, base,
                                            results[a * stride + 1 + t]));
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

std::vector<double>
columnGeomeans(const std::vector<SuiteRow> &rows)
{
    if (rows.empty())
        return {};
    std::vector<double> out;
    for (std::size_t c = 0; c < rows[0].values.size(); ++c) {
        std::vector<double> col;
        col.reserve(rows.size());
        for (const auto &r : rows)
            col.push_back(r.values[c]);
        out.push_back(geomean(col));
    }
    return out;
}

std::vector<double>
columnMins(const std::vector<SuiteRow> &rows)
{
    if (rows.empty())
        return {};
    std::vector<double> out;
    for (std::size_t c = 0; c < rows[0].values.size(); ++c) {
        std::vector<double> col;
        col.reserve(rows.size());
        for (const auto &r : rows)
            col.push_back(r.values[c]);
        out.push_back(minOf(col));
    }
    return out;
}

SystemConfig
zdevEightCore(double ratio)
{
    SystemConfig cfg = makeEightCoreConfig();
    applyZeroDev(cfg, ratio);
    return cfg;
}

SystemConfig
backendEightCore(ProtocolKind protocol, double dir_ratio)
{
    SystemConfig cfg = makeEightCoreConfig();
    cfg.protocol = protocol;
    cfg.name = std::string("eight-core-") + toString(protocol);
    if (protocol == ProtocolKind::PhasePriority)
        cfg.directory.sizeRatio = dir_ratio;
    return cfg;
}

const std::vector<std::string> &
mainSuites()
{
    static const std::vector<std::string> suites{
        "parsec", "splash2x", "specomp", "fftw", "cpu2017"};
    return suites;
}

void
banner(const std::string &figure, const std::string &what)
{
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", figure.c_str(), what.c_str());
    std::printf("==============================================================\n");

    // Remember a filesystem-safe slug of the figure name so run reports
    // accumulated by runWorkload() land in a per-figure file.
    std::string slug;
    for (char c : figure) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                        c == '-';
        slug += ok ? c : '_';
    }
    if (!slug.empty())
        BenchReporter::instance().setFigure(slug);
}

} // namespace zerodev::bench
