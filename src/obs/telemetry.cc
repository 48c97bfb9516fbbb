#include "obs/telemetry.hh"

#include <cstdio>
#include <cstdlib>

#include <unistd.h>

#include "common/log.hh"
#include "obs/json.hh"
#include "obs/latency.hh"
#include "obs/report.hh"
#include "sim/runner.hh"

namespace zerodev::obs
{

namespace
{

/** Wall-clock milliseconds since the epoch (event timestamps). */
std::int64_t
wallMillis()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

double
secondsSince(std::chrono::steady_clock::time_point then,
             std::chrono::steady_clock::time_point now)
{
    return std::chrono::duration<double>(now - then).count();
}

/** Filesystem/label-safe slug of a job name. */
std::string
slugify(const std::string &name)
{
    std::string out;
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                        c == '-';
        out += ok ? c : '_';
    }
    return out.empty() ? "job" : out;
}

const char *
stateName(TelemetryJob::State s, bool stalled)
{
    switch (s) {
      case TelemetryJob::State::Running:
        return stalled ? "stalled" : "running";
      case TelemetryJob::State::Completed:
        return "completed";
      case TelemetryJob::State::Failed:
        return "failed";
    }
    return "unknown";
}

double
envDouble(const char *var, double dflt)
{
    const char *v = std::getenv(var);
    if (!v || !*v)
        return dflt;
    char *end = nullptr;
    const double parsed = std::strtod(v, &end);
    return (end && *end == '\0' && parsed >= 0.0) ? parsed : dflt;
}

} // namespace

JobCompletion
completionOf(const RunResult &res)
{
    JobCompletion c;
    c.workload = res.workload;
    c.accesses = res.accesses;
    c.cycles = res.cycles;
    c.wallSeconds = res.wallSeconds;
    c.maccessesPerSecond = res.maccessesPerSecond();
    for (std::size_t i = 0; i < LatencyBreakdown::kNumComps; ++i) {
        const std::uint64_t cycles = res.latency.components[i].cycles;
        if (cycles) {
            c.latencyCycles.emplace_back(
                toString(static_cast<LatComp>(i)), cycles);
        }
    }
    c.devByInducer = res.devByInducer;
    c.inclusionByInducer = res.inclusionByInducer;
    return c;
}

TelemetryJob::TelemetryJob(std::string name, std::string figure,
                           std::string fingerprint, std::uint64_t total,
                           std::uint64_t heartbeatEvery,
                           Counter *accessesTotal)
    : name_(std::move(name)), figure_(std::move(figure)),
      fingerprint_(std::move(fingerprint)), total_(total),
      heartbeatEvery_(heartbeatEvery ? heartbeatEvery : 1),
      start_(std::chrono::steady_clock::now()),
      accessesTotal_(accessesTotal), watchLastChange_(start_)
{
}

void
TelemetryJob::complete(const JobCompletion &c)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        completion_ = c;
    }
    // Fold the tail of the run (accesses since the last heartbeat) into
    // the shared counter so zerodev_accesses_total ends exact.
    if (c.accesses > counted_) {
        accessesTotal_->add(c.accesses - counted_);
        counted_ = c.accesses;
    }
    done_.store(c.accesses, std::memory_order_relaxed);
    state_.store(static_cast<std::uint8_t>(c.failed ? State::Failed
                                                    : State::Completed),
                 std::memory_order_release);
    stalled_.store(false, std::memory_order_relaxed);
    if (sink_)
        sink_->onJobComplete(*this, c);
}

std::string
TelemetryJob::claimStallSnapshot()
{
    if (!snapshotRequested_.exchange(false, std::memory_order_acq_rel))
        return {};
    std::lock_guard<std::mutex> lock(mu_);
    return stallSnapshotPath_;
}

TelemetrySink::TelemetrySink(TelemetryOptions opt, MetricsRegistry *reg)
    : opt_(std::move(opt)), reg_(reg ? reg : &MetricsRegistry::global())
{
    if (opt_.dir.empty())
        fatal("TelemetrySink needs an output directory");
    accessesTotal_ = reg_->counter(
        "zerodev_accesses_total",
        "Simulated memory accesses completed across all jobs");
    jobsTotal_ =
        reg_->counter("zerodev_jobs_total", "Jobs registered");
    jobsCompleted_ = reg_->counter("zerodev_jobs_completed_total",
                                   "Jobs finished successfully");
    jobsFailed_ =
        reg_->counter("zerodev_jobs_failed_total", "Jobs that failed");
    stallsTotal_ = reg_->counter("zerodev_stalls_total",
                                 "Watchdog stall events emitted");
    wallSeconds_ = reg_->histogram(
        "zerodev_job_wall_seconds", "Host wall-clock seconds per job",
        {0.01, 0.1, 1.0, 10.0, 60.0, 300.0});

    event("sink_start", "",
          "\"pid\":" + std::to_string(::getpid()) +
              ",\"stall_seconds\":" + jsonNumber(opt_.stallSeconds));
    publisher_ = std::thread([this] { publisherLoop(); });
}

TelemetrySink::~TelemetrySink()
{
    finalize();
}

TelemetryJob *
TelemetrySink::beginJob(const std::string &name,
                        const std::string &figure,
                        const std::string &fingerprint,
                        std::uint64_t total)
{
    const std::string slug = slugify(name);
    std::unique_ptr<TelemetryJob> job(
        new TelemetryJob(slug, figure, fingerprint, total,
                         opt_.heartbeatEvery, accessesTotal_));
    job->sink_ = this;
    job->progressGauge_ =
        reg_->gauge("zerodev_job_progress",
                    "Fraction of the job's accesses completed",
                    "job=\"" + slug + "\"");
    job->rateGauge_ = reg_->gauge(
        "zerodev_job_maccesses_per_second",
        "Host simulation rate of the job", "job=\"" + slug + "\"");
    jobsTotal_->inc();

    TelemetryJob *out = job.get();
    {
        std::lock_guard<std::mutex> lock(jobsMu_);
        jobs_.push_back(std::move(job));
    }
    event("job_start", slug,
          "\"figure\":\"" + jsonEscape(figure) + "\",\"fingerprint\":\"" +
              jsonEscape(fingerprint) +
              "\",\"total_accesses\":" + std::to_string(total));
    return out;
}

void
TelemetrySink::event(const std::string &kind, const std::string &job,
                     const std::string &fields)
{
    std::string line = "{\"schema\":\"zerodev-events-v1\",\"commit\":\"" +
                       jsonEscape(buildCommit()) +
                       "\",\"ts_ms\":" + std::to_string(wallMillis()) +
                       ",\"kind\":\"" + jsonEscape(kind) + "\"";
    if (!job.empty())
        line += ",\"job\":\"" + jsonEscape(job) + "\"";
    if (!fields.empty())
        line += "," + fields;
    line += "}\n";
    std::lock_guard<std::mutex> lock(eventMu_);
    appendTextFile(opt_.dir + "/events.jsonl", line);
}

void
TelemetrySink::onJobComplete(TelemetryJob &job, const JobCompletion &c)
{
    if (c.failed)
        jobsFailed_->inc();
    else
        jobsCompleted_->inc();
    wallSeconds_->observe(c.wallSeconds);
    job.progressGauge_->set(job.total_ ? static_cast<double>(c.accesses) /
                                             static_cast<double>(job.total_)
                                       : 1.0);
    job.rateGauge_->set(c.maccessesPerSecond);
    std::string fields =
        "\"accesses\":" + std::to_string(c.accesses) +
        ",\"cycles\":" + std::to_string(c.cycles) +
        ",\"wall_seconds\":" + jsonNumber(c.wallSeconds) +
        ",\"maccesses_per_second\":" + jsonNumber(c.maccessesPerSecond);
    if (c.failed)
        fields += ",\"error\":\"" + jsonEscape(c.error) + "\"";
    event(c.failed ? "job_failed" : "job_complete", job.name_, fields);
}

void
TelemetrySink::publisherLoop()
{
    const auto period = std::chrono::duration<double>(
        opt_.flushPeriodSeconds > 0.0 ? opt_.flushPeriodSeconds : 0.25);
    while (true) {
        {
            std::unique_lock<std::mutex> lock(cvMu_);
            cv_.wait_for(lock, period, [this] { return stop_; });
            if (stop_)
                return; // finalize() writes the terminal files
        }
        publish();
    }
}

void
TelemetrySink::watchdog()
{
    if (opt_.stallSeconds <= 0.0)
        return;
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(jobsMu_);
    for (const std::unique_ptr<TelemetryJob> &jp : jobs_) {
        TelemetryJob &j = *jp;
        if (j.state() != TelemetryJob::State::Running)
            continue;
        const std::uint64_t done = j.accessesDone();
        if (done != j.watchLastDone_) {
            j.watchLastDone_ = done;
            j.watchLastChange_ = now;
            j.stalled_.store(false, std::memory_order_relaxed);
            j.stallReported_ = false;
            continue;
        }
        const double idle = secondsSince(j.watchLastChange_, now);
        if (idle < opt_.stallSeconds || j.stallReported_)
            continue;

        // Declare the stall: sticky until progress resumes. The event
        // carries the job's full live state (the "dump"), and the
        // snapshot request is serviced by the worker at its next
        // checkpoint-safe boundary — a between-transactions point, the
        // only place runner state is snapshottable.
        j.stallReported_ = true;
        j.stalled_.store(true, std::memory_order_relaxed);
        stalls_.fetch_add(1, std::memory_order_relaxed);
        stallsTotal_->inc();
        std::string fields =
            "\"no_progress_seconds\":" + jsonNumber(idle) +
            ",\"accesses\":" + std::to_string(done) +
            ",\"total_accesses\":" + std::to_string(j.total_) +
            ",\"cycle\":" +
            std::to_string(j.cycle_.load(std::memory_order_relaxed)) +
            ",\"figure\":\"" + jsonEscape(j.figure_) +
            "\",\"fingerprint\":\"" + jsonEscape(j.fingerprint_) + "\"";
        if (opt_.stallSnapshots) {
            const std::string &ckptDir =
                opt_.snapshotDir.empty() ? opt_.dir : opt_.snapshotDir;
            const std::string path =
                ckptDir + "/stall-" + j.name_ + ".ckpt";
            {
                std::lock_guard<std::mutex> jlock(j.mu_);
                j.stallSnapshotPath_ = path;
            }
            j.snapshotRequested_.store(true, std::memory_order_release);
            fields += ",\"snapshot\":\"" + jsonEscape(path) + "\"";
        }
        event("stall", j.name_, fields);
    }
}

std::string
TelemetrySink::statusJson() const
{
    const auto now = std::chrono::steady_clock::now();
    JsonWriter w;
    w.beginObject();
    stampArtifact(w, "zerodev-status-v1");
    w.field("generated_ms", static_cast<std::int64_t>(wallMillis()));

    // Terminal state: "completed" only when every job ended well.
    std::lock_guard<std::mutex> lock(jobsMu_);
    const char *state = "running";
    if (finalized_.load(std::memory_order_acquire)) {
        state = "completed";
        for (const std::unique_ptr<TelemetryJob> &j : jobs_) {
            if (j->state() != TelemetryJob::State::Completed)
                state = "aborted";
        }
    }
    w.field("state", state);
    w.field("stalls", stalls_.load(std::memory_order_relaxed));
    w.field("stall_seconds", opt_.stallSeconds);

    w.key("jobs").beginArray();
    for (const std::unique_ptr<TelemetryJob> &jp : jobs_) {
        const TelemetryJob &j = *jp;
        const TelemetryJob::State js = j.state();
        w.beginObject();
        w.field("name", j.name_);
        w.field("figure", j.figure_);
        w.field("fingerprint", j.fingerprint_);
        w.field("state", stateName(js, j.stalled()));
        w.field("total_accesses", j.total_);
        if (js == TelemetryJob::State::Running) {
            const std::uint64_t done = j.accessesDone();
            const double elapsed = secondsSince(j.start_, now);
            const double rate =
                elapsed > 0.0 ? static_cast<double>(done) / elapsed
                              : 0.0;
            w.field("accesses", done);
            w.field("progress",
                    j.total_ ? static_cast<double>(done) /
                                   static_cast<double>(j.total_)
                             : 0.0);
            w.field("cycle",
                    j.cycle_.load(std::memory_order_relaxed));
            w.field("maccesses_per_second", rate / 1e6);
            w.field("eta_seconds",
                    (rate > 0.0 && j.total_ > done)
                        ? static_cast<double>(j.total_ - done) / rate
                        : 0.0);
        } else {
            // Finished: republish the RunResult-derived numbers
            // verbatim, so this view and the v2 run report agree
            // exactly (the single-source-of-truth contract).
            std::lock_guard<std::mutex> jlock(j.mu_);
            const JobCompletion &c = j.completion_;
            w.field("accesses", c.accesses);
            w.field("progress",
                    j.total_ ? static_cast<double>(c.accesses) /
                                   static_cast<double>(j.total_)
                             : 1.0);
            w.field("workload", c.workload);
            w.field("cycles", c.cycles);
            w.field("wall_seconds", c.wallSeconds);
            w.field("maccesses_per_second", c.maccessesPerSecond);
            w.field("eta_seconds", 0.0);
            if (!c.latencyCycles.empty()) {
                w.key("latency_cycles").beginObject();
                for (const auto &[comp, cycles] : c.latencyCycles)
                    w.field(comp, cycles);
                w.endObject();
            }
            if (!c.devByInducer.empty()) {
                w.key("dev_by_inducing_core").beginArray();
                for (const std::uint64_t v : c.devByInducer)
                    w.value(v);
                w.endArray();
                w.key("inclusion_by_inducing_core").beginArray();
                for (const std::uint64_t v : c.inclusionByInducer)
                    w.value(v);
                w.endArray();
            }
            if (c.failed)
                w.field("error", c.error);
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

void
TelemetrySink::writeStatusFile(const std::string &json) const
{
    // Temp + rename: readers (telemetry_tool top, a future zerodevd
    // endpoint) never observe a torn document.
    const std::string tmp = opt_.dir + "/.status.json.tmp";
    if (writeTextFile(tmp, json + "\n"))
        std::rename(tmp.c_str(), (opt_.dir + "/status.json").c_str());
}

void
TelemetrySink::publish()
{
    watchdog();
    writeStatusFile(statusJson());
    const std::string tmp = opt_.dir + "/.metrics.prom.tmp";
    if (writeTextFile(tmp, reg_->prometheusText()))
        std::rename(tmp.c_str(), (opt_.dir + "/metrics.prom").c_str());
}

void
TelemetrySink::finalize()
{
    if (finalized_.exchange(true, std::memory_order_acq_rel))
        return;
    {
        std::lock_guard<std::mutex> lock(cvMu_);
        stop_ = true;
    }
    cv_.notify_all();
    if (publisher_.joinable())
        publisher_.join();
    // One last watchdog-free publish with the terminal state.
    writeStatusFile(statusJson());
    const std::string tmp = opt_.dir + "/.metrics.prom.tmp";
    if (writeTextFile(tmp, reg_->prometheusText()))
        std::rename(tmp.c_str(), (opt_.dir + "/metrics.prom").c_str());
    event("sink_finalize", "",
          "\"stalls\":" +
              std::to_string(stalls_.load(std::memory_order_relaxed)));
}

namespace
{

std::mutex gSinkMu;
std::unique_ptr<TelemetrySink> gSink;
bool gSinkInit = false;

} // namespace

TelemetrySink *
TelemetrySink::fromEnv()
{
    std::lock_guard<std::mutex> lock(gSinkMu);
    if (gSinkInit)
        return gSink.get();
    gSinkInit = true;
    const std::string dir = outputDirFromEnv("ZERODEV_TELEMETRY_DIR");
    if (dir.empty())
        return nullptr;
    TelemetryOptions opt;
    opt.dir = dir;
    opt.flushPeriodSeconds = envDouble("ZERODEV_TELEMETRY_PERIOD",
                                       opt.flushPeriodSeconds);
    opt.stallSeconds =
        envDouble("ZERODEV_STALL_SECONDS", opt.stallSeconds);
    if (const char *v = std::getenv("ZERODEV_STALL_SNAPSHOT"))
        opt.stallSnapshots = std::string(v) != "0";
    opt.snapshotDir = outputDirFromEnv("ZERODEV_SNAPSHOT_DIR");
    gSink.reset(new TelemetrySink(opt));
    std::atexit([] { TelemetrySink::resetGlobalForTesting(); });
    return gSink.get();
}

void
TelemetrySink::resetGlobalForTesting()
{
    std::lock_guard<std::mutex> lock(gSinkMu);
    gSink.reset(); // destructor finalizes
    gSinkInit = false;
}

} // namespace zerodev::obs
