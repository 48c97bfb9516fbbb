/**
 * @file
 * Live telemetry: per-job progress/heartbeat streaming, a structured
 * JSONL event log, Prometheus snapshots, a periodically rewritten
 * status.json, and a stall watchdog.
 *
 * The flow has three actors:
 *
 *  - Workers (the simulation loops in sim/runner.cc, the Differ, the
 *    sweep engine) own a TelemetryJob each and call progress() every
 *    heartbeatEvery() accesses — two relaxed atomic stores plus one
 *    relaxed counter add, no locks. A run without a TelemetryJob makes
 *    no call at all.
 *
 *  - The TelemetrySink's publisher thread wakes every flush period,
 *    rewrites <dir>/status.json (atomically: temp file + rename) and
 *    <dir>/metrics.prom from the registry, and runs the watchdog: a
 *    running job whose progress counter has not moved for stallSeconds
 *    gets a `stall` event (with the job's full state dumped into it)
 *    and, when stallSnapshots is on, a snapshot-on-stall request the
 *    worker services at its next checkpoint-safe boundary.
 *
 *  - Consumers tail <dir>/events.jsonl (schema zerodev-events-v1) or
 *    poll status.json (schema zerodev-status-v1) — `telemetry_tool top`
 *    renders exactly these files, and a future zerodevd admin endpoint
 *    can serve status.json verbatim.
 *
 * Completed jobs republish their final RunResult-derived numbers
 * (completionOf), so the live view of a finished job and its v2 run
 * report are the same values from the same source.
 */

#ifndef ZERODEV_OBS_TELEMETRY_HH
#define ZERODEV_OBS_TELEMETRY_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hh"

namespace zerodev
{
struct RunResult;
} // namespace zerodev

namespace zerodev::obs
{

/** Sink configuration (fromEnv() fills it from ZERODEV_TELEMETRY_*). */
struct TelemetryOptions
{
    /** Output directory for status.json / metrics.prom / events.jsonl
     *  (must be set; fromEnv() creates it recursively). */
    std::string dir;

    /** Publisher period in seconds (ZERODEV_TELEMETRY_PERIOD). */
    double flushPeriodSeconds = 0.25;

    /** Watchdog window: a running job with no progress for this many
     *  seconds is declared stalled (ZERODEV_STALL_SECONDS; 0 disables
     *  the watchdog). */
    double stallSeconds = 30.0;

    /** Write a snapshot-on-stall checkpoint request for stalled jobs
     *  (ZERODEV_STALL_SNAPSHOT=0 turns it off). */
    bool stallSnapshots = true;

    /** Where stall checkpoints land (ZERODEV_SNAPSHOT_DIR — the same
     *  directory resumable benches checkpoint into); empty = `dir`. */
    std::string snapshotDir;

    /** Workers publish progress every this many accesses. */
    std::uint64_t heartbeatEvery = 512;
};

/** Final numbers of a finished job — copied verbatim from the run's
 *  RunResult (completionOf) so live status and the v2 run report agree
 *  exactly. Plain fields keep sim/runner.hh out of this header. */
struct JobCompletion
{
    std::string workload;
    std::uint64_t accesses = 0;
    std::uint64_t cycles = 0;
    double wallSeconds = 0.0;
    double maccessesPerSecond = 0.0;

    /** Per-component critical-path cycles (name, cycles), only the
     *  non-zero ones; empty when no profiler was attached. */
    std::vector<std::pair<std::string, std::uint64_t>> latencyCycles;

    /** DEV / inclusion invalidations per inducing global core (the run
     *  report's `leakage` arrays); empty for a job without them. */
    std::vector<std::uint64_t> devByInducer;
    std::vector<std::uint64_t> inclusionByInducer;

    bool failed = false;
    std::string error;
};

/** Build a JobCompletion from a RunResult. */
JobCompletion completionOf(const RunResult &res);

class TelemetrySink;

/**
 * One unit of tracked work. Created by TelemetrySink::beginJob and owned
 * by the sink (pointers stay valid until the sink is destroyed); the
 * worker thread calls progress()/complete(), everything else is for the
 * publisher.
 */
class TelemetryJob
{
  public:
    enum class State : std::uint8_t
    {
        Running,
        Completed,
        Failed,
    };

    const std::string &name() const { return name_; }
    const std::string &figure() const { return figure_; }
    const std::string &fingerprint() const { return fingerprint_; }
    std::uint64_t totalAccesses() const { return total_; }
    std::uint64_t heartbeatEvery() const { return heartbeatEvery_; }

    /** Worker heartbeat: @p done accesses executed so far, simulated
     *  time at @p cycle. Lock-free; call from the one thread running
     *  the job. */
    void
    progress(std::uint64_t done, std::uint64_t cycle)
    {
        done_.store(done, std::memory_order_relaxed);
        cycle_.store(cycle, std::memory_order_relaxed);
        accessesTotal_->add(done - counted_);
        counted_ = done;
    }

    /** Worker completion (or failure, when @p c.failed). */
    void complete(const JobCompletion &c);

    /** True once the watchdog has requested a snapshot-on-stall. The
     *  worker polls this at heartbeat boundaries and, when set, claims
     *  the path and writes a checkpoint there. */
    bool
    stallSnapshotRequested() const
    {
        return snapshotRequested_.load(std::memory_order_acquire);
    }

    /** Consume the snapshot request; returns the checkpoint path (empty
     *  if there was no pending request). */
    std::string claimStallSnapshot();

    std::uint64_t
    accessesDone() const
    {
        return done_.load(std::memory_order_relaxed);
    }

    State
    state() const
    {
        return static_cast<State>(
            state_.load(std::memory_order_acquire));
    }

    /** Set by the watchdog; cleared when progress resumes. */
    bool
    stalled() const
    {
        return stalled_.load(std::memory_order_relaxed);
    }

  private:
    friend class TelemetrySink;
    TelemetryJob(std::string name, std::string figure,
                 std::string fingerprint, std::uint64_t total,
                 std::uint64_t heartbeatEvery, Counter *accessesTotal);

    const std::string name_;
    const std::string figure_;
    const std::string fingerprint_;
    const std::uint64_t total_;
    const std::uint64_t heartbeatEvery_;
    const std::chrono::steady_clock::time_point start_;

    std::atomic<std::uint64_t> done_{0};
    std::atomic<std::uint64_t> cycle_{0};
    std::atomic<std::uint8_t> state_{0};
    std::atomic<bool> stalled_{false};

    TelemetrySink *sink_ = nullptr;
    Counter *accessesTotal_;    //!< shared zerodev_accesses_total
    std::uint64_t counted_ = 0; //!< worker-thread-only add() baseline
    Gauge *progressGauge_ = nullptr;
    Gauge *rateGauge_ = nullptr;

    mutable std::mutex mu_; //!< completion_ and stall path
    JobCompletion completion_;
    std::string stallSnapshotPath_;
    std::atomic<bool> snapshotRequested_{false};

    // Publisher-thread-only watchdog bookkeeping.
    std::uint64_t watchLastDone_ = 0;
    std::chrono::steady_clock::time_point watchLastChange_;
    bool stallReported_ = false;
};

/**
 * The export layer: owns the jobs, the event log, and the publisher /
 * watchdog thread. Construct one per process (fromEnv) or per test.
 */
class TelemetrySink
{
  public:
    /** Starts the publisher thread; @p reg defaults to the process
     *  registry. The directory must already exist (fromEnv and the
     *  tests create it). */
    explicit TelemetrySink(TelemetryOptions opt,
                           MetricsRegistry *reg = nullptr);

    /** Finalizes (idempotent) and joins the publisher. */
    ~TelemetrySink();

    TelemetrySink(const TelemetrySink &) = delete;
    TelemetrySink &operator=(const TelemetrySink &) = delete;

    const TelemetryOptions &options() const { return opt_; }

    /** Register a job. @p name must be a filesystem-safe slug (it names
     *  the snapshot-on-stall file and Prometheus labels); @p total is
     *  the access count the job will execute (ETA denominator). */
    TelemetryJob *beginJob(const std::string &name,
                           const std::string &figure,
                           const std::string &fingerprint,
                           std::uint64_t total);

    /** Append one structured event line (schema zerodev-events-v1).
     *  @p fields is pre-rendered JSON members ("\"k\":v,...", may be
     *  empty) spliced into the line after the standard envelope. */
    void event(const std::string &kind, const std::string &job,
               const std::string &fields = "");

    /**
     * Terminal flush: writes the final status.json (state "completed"
     * when every job ended Completed, else "aborted"), a last
     * metrics.prom, and the sink_finalize event, then stops the
     * publisher. Idempotent; also run by the destructor.
     */
    void finalize();

    /** Render the current status document (what status.json holds). */
    std::string statusJson() const;

    /** Stall events emitted so far. */
    std::uint64_t
    stallsDetected() const
    {
        return stalls_.load(std::memory_order_relaxed);
    }

    /**
     * The process-wide sink configured by the environment: returns a
     * lazily constructed singleton when ZERODEV_TELEMETRY_DIR is set
     * (creating the directory, exit 2 if that fails), nullptr
     * otherwise. Finalized at process exit.
     */
    static TelemetrySink *fromEnv();

    /** Tests only: finalize and drop the fromEnv() singleton so the
     *  next call re-reads the environment. */
    static void resetGlobalForTesting();

  private:
    friend class TelemetryJob;

    /** Completion bookkeeping + job_complete event (worker thread). */
    void onJobComplete(TelemetryJob &job, const JobCompletion &c);

    void publisherLoop();

    /** One publisher beat: watchdog sweep, then rewrite status.json and
     *  metrics.prom. */
    void publish();

    /** Watchdog sweep over running jobs (publisher thread only). */
    void watchdog();

    void writeStatusFile(const std::string &json) const;

    TelemetryOptions opt_;
    MetricsRegistry *reg_;

    mutable std::mutex jobsMu_;
    std::vector<std::unique_ptr<TelemetryJob>> jobs_;

    std::mutex eventMu_;

    Counter *accessesTotal_;
    Counter *jobsTotal_;
    Counter *jobsCompleted_;
    Counter *jobsFailed_;
    Counter *stallsTotal_;
    HistogramMetric *wallSeconds_;

    std::atomic<std::uint64_t> stalls_{0};
    std::atomic<bool> finalized_{false};

    std::mutex cvMu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread publisher_;
};

} // namespace zerodev::obs

#endif // ZERODEV_OBS_TELEMETRY_HH
