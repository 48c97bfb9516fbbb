/**
 * @file
 * The simulation driver: executes a Workload on a CmpSystem by issuing
 * each core's accesses in globally non-decreasing time order (the
 * transaction-level ordering the protocol engine requires), collects
 * per-core progress, and extracts the metrics the paper's figures use
 * (execution cycles, weighted speedup inputs, core cache misses,
 * interconnect traffic).
 */

#ifndef ZERODEV_SIM_RUNNER_HH
#define ZERODEV_SIM_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "core/cmp_system.hh"
#include "obs/latency.hh"
#include "workload/trace.hh"
#include "workload/workload.hh"

namespace zerodev
{

namespace obs
{
class Tracer;
class IntervalSampler;
class TelemetryJob;
} // namespace obs

/** Run-control parameters. */
struct RunConfig
{
    /** Memory accesses each core executes (fixed work per core). */
    std::uint64_t accessesPerCore = 50000;

    /** Warm-up accesses per core (executed, not counted in cycles). */
    std::uint64_t warmupPerCore = 0;

    /** Check system invariants every N accesses (0 = never). */
    std::uint64_t invariantCheckInterval = 0;

    /** Optional path to record the access trace. */
    std::string tracePath;

    /** Optional coherence tracer, attached to the system for the run
     *  (events only flow when the tracer is runtime-enabled). */
    obs::Tracer *tracer = nullptr;

    /** Optional interval sampler, ticked as simulated time advances and
     *  finished at the run's completion cycle. */
    obs::IntervalSampler *sampler = nullptr;

    /** Optional critical-path latency profiler, attached to the system
     *  for the run; its snapshot lands in RunResult::latency. */
    obs::LatencyProfiler *latency = nullptr;

    /** Optional live-telemetry job (obs/telemetry.hh): the issue loop
     *  publishes a heartbeat — accesses executed, simulated time — every
     *  heartbeatEvery() accesses and services snapshot-on-stall requests
     *  at those same (checkpoint-safe) boundaries. Completion is
     *  published by the caller from the RunResult. */
    obs::TelemetryJob *telemetry = nullptr;

    /** Test-only planted stall for the watchdog self-test: after
     *  executing access #plantStallAt the loop sleeps plantStallSeconds
     *  of host time (0 = disabled; never set outside tests/tools). */
    std::uint64_t plantStallAt = 0;
    double plantStallSeconds = 0.0;

    // --- checkpointing (sim/snapshot.hh) ---

    /** Write a checkpoint every N executed accesses (0 = disabled; the
     *  ZERODEV_SNAPSHOT_EVERY environment variable supplies the cadence
     *  when this is 0). Checkpoints only happen when snapshotPath is
     *  set, and are always taken between transactions. */
    std::uint64_t snapshotEvery = 0;

    /** Checkpoint file path. A "{n}" placeholder is replaced with the
     *  executed-access count (keeping every checkpoint); without it the
     *  latest checkpoint overwrites the file. */
    std::string snapshotPath;

    /** Resume from this checkpoint file: the system state and the issue
     *  engine (per-core progress, workload RNG streams) continue exactly
     *  where the checkpoint was taken, so the completed run is
     *  bit-identical to an uninterrupted one. */
    std::string restorePath;

    /** Optional cooperative stop request (service preemption): the
     *  issue loop polls the flag at transaction boundaries and, when it
     *  flips true, writes a final checkpoint to snapshotPath (when set,
     *  regardless of cadence) and returns early with
     *  RunResult::interrupted set. Resuming the checkpoint completes
     *  the run bit-identically to an uninterrupted one. */
    const std::atomic<bool> *stopRequest = nullptr;
};

/** Aggregated result of one run. */
struct RunResult
{
    std::string workload;
    Cycle cycles = 0;              //!< completion time (max over cores)
    std::uint64_t instructions = 0;
    std::vector<Cycle> coreCycles; //!< per-core completion time
    std::vector<std::uint64_t> coreInstructions;
    std::uint64_t coreCacheMisses = 0;
    std::uint64_t trafficBytes = 0;
    std::uint64_t devInvalidations = 0;
    /** Eviction provenance: DEV / inclusion invalidations attributed to
     *  each inducing global core (leakage observability; the sums equal
     *  devInvalidations resp. the inclusion counter in `system`). */
    std::vector<std::uint64_t> devByInducer;
    std::vector<std::uint64_t> inclusionByInducer;
    StatDump system; //!< the full CmpSystem dump

    /** Critical-path latency attribution (zeros unless a profiler was
     *  attached through RunConfig::latency). */
    obs::LatencyBreakdown latency;

    /** Simulated memory accesses executed (protocol transactions,
     *  including warm-up) — the work unit of the sim-rate metric. */
    std::uint64_t accesses = 0;

    /** Host wall-clock seconds the run consumed (sim-rate profiling).
     *  Zeroed when the ZERODEV_ZERO_WALL environment variable is set to
     *  a non-empty value, so two runs of the same work render
     *  byte-identical reports (daemon-vs-direct CI gates). */
    double wallSeconds = 0.0;

    /** True when the run stopped early at a RunConfig::stopRequest; the
     *  partial metrics are not meaningful and must not be reported. */
    bool interrupted = false;

    /** Host simulation rate in million accesses per second; 0 when the
     *  wall clock was zeroed (determinism comparisons). Informational
     *  only — never a gated metric. */
    double
    maccessesPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(accesses) / wallSeconds / 1e6
                   : 0.0;
    }

    /** Per-core IPC (weighted-speedup ingredient). */
    double ipc(std::uint32_t core) const
    {
        if (core >= coreCycles.size()) {
            panic("RunResult::ipc(%u): run had only %zu cores", core,
                  coreCycles.size());
        }
        return coreCycles[core] == 0
                   ? 0.0
                   : static_cast<double>(coreInstructions[core]) /
                         static_cast<double>(coreCycles[core]);
    }
};

/** Weighted speedup of @p test_ipc over @p base_ipc: sum of test/base
 *  IPC ratios over the common prefix (cores whose base IPC is zero
 *  contribute 0), divided by the common core count. Returns 0 when the
 *  prefix is empty. */
double weightedSpeedup(const std::vector<double> &base_ipc,
                       const std::vector<double> &test_ipc);

/** Execute @p workload on @p sys. Thread i of the workload drives global
 *  core i; cores beyond the workload's thread count stay idle. */
RunResult run(CmpSystem &sys, const Workload &workload,
              const RunConfig &rc);

/** Replay a recorded trace on @p sys. */
RunResult replay(CmpSystem &sys, const TraceReader &trace,
                 const RunConfig &rc);

} // namespace zerodev

#endif // ZERODEV_SIM_RUNNER_HH
