#include "sim/runner.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>

#include "common/log.hh"
#include "common/serialize.hh"
#include "core/invariants.hh"
#include "obs/latency.hh"
#include "obs/sampler.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "sim/issue_scheduler.hh"
#include "sim/snapshot.hh"

namespace zerodev
{

namespace
{

/** Per-core issue state. */
struct CoreState
{
    Cycle ready = 0;          //!< time the core can issue its next access
    std::uint64_t done = 0;   //!< accesses completed (incl. warm-up)
    std::uint64_t instructions = 0;
    Cycle finish = 0;         //!< completion time of the last access
    bool active = false;
};

/** Attaches the run's observers to the system and guarantees they are
 *  detached/finished on every exit path. */
class ObserverScope
{
  public:
    ObserverScope(CmpSystem &sys, const RunConfig &rc)
        : sys_(sys), sampler_(rc.sampler), latency_(rc.latency),
          start_(std::chrono::steady_clock::now())
    {
        if (rc.tracer)
            sys_.attachTracer(rc.tracer);
        if (latency_)
            sys_.attachLatencyProfiler(latency_);
    }

    /** Advance the sampler to the latest completion time seen. */
    void
    advance(Cycle done)
    {
        horizon_ = std::max(horizon_, done);
        if (sampler_)
            sampler_->tick(horizon_);
    }

    /** Latest simulated completion time seen (heartbeat payload). */
    Cycle horizon() const { return horizon_; }

    /** Close out the run: final sample and wall-clock accounting. With
     *  ZERODEV_ZERO_WALL set (non-empty) the wall clock is zeroed so
     *  reports of identical work render byte-identically. */
    void
    complete(RunResult &res)
    {
        if (sampler_)
            sampler_->finish(res.cycles);
        if (latency_)
            res.latency = latency_->snapshot();
        const char *zero = std::getenv("ZERODEV_ZERO_WALL");
        res.wallSeconds =
            (zero && *zero)
                ? 0.0
                : std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
    }

    ~ObserverScope()
    {
        sys_.attachTracer(nullptr);
        sys_.attachLatencyProfiler(nullptr);
    }

  private:
    CmpSystem &sys_;
    obs::IntervalSampler *sampler_;
    obs::LatencyProfiler *latency_;
    std::chrono::steady_clock::time_point start_;
    Cycle horizon_ = 0;
};

/** The "runner" snapshot section distinguishes the two issue engines:
 *  resuming a generator run from a replay checkpoint (or vice versa)
 *  would silently desynchronise, so the mode is checked. */
constexpr std::uint8_t kRunnerModeRun = 0;
constexpr std::uint8_t kRunnerModeReplay = 1;

/** Substitute the "{n}" placeholder with the executed-access count. */
std::string
checkpointPath(const std::string &tmpl, std::uint64_t n)
{
    const std::size_t pos = tmpl.find("{n}");
    if (pos == std::string::npos)
        return tmpl;
    return tmpl.substr(0, pos) + std::to_string(n) +
           tmpl.substr(pos + 3);
}

/** Snapshot cadence: the RunConfig field, else ZERODEV_SNAPSHOT_EVERY
 *  (only meaningful when a snapshot path exists to write to). */
std::uint64_t
effectiveSnapshotEvery(const RunConfig &rc)
{
    if (rc.snapshotPath.empty())
        return 0;
    if (rc.snapshotEvery)
        return rc.snapshotEvery;
    if (const char *env = std::getenv("ZERODEV_SNAPSHOT_EVERY"))
        return std::strtoull(env, nullptr, 10);
    return 0;
}

void
saveCoreStates(SerialOut &out, const std::vector<CoreState> &state)
{
    out.u32(static_cast<std::uint32_t>(state.size()));
    for (const CoreState &cs : state) {
        out.u64(cs.ready);
        out.u64(cs.done);
        out.u64(cs.instructions);
        out.u64(cs.finish);
        out.b(cs.active);
    }
}

void
restoreCoreStates(SerialIn &in, std::vector<CoreState> &state)
{
    if (!in.check(in.u32() == state.size(),
                  "checkpoint core count mismatch"))
        return;
    for (CoreState &cs : state) {
        cs.ready = in.u64();
        cs.done = in.u64();
        cs.instructions = in.u64();
        cs.finish = in.u64();
        cs.active = in.b();
    }
}

/** Write one mid-run checkpoint (system + issue-engine state; when a
 *  sampler is attached its phase state rides along in a "sampler"
 *  section so resumed time series stay aligned with a straight run). */
void
writeCheckpoint(const CmpSystem &sys, std::uint8_t mode,
                const std::vector<CoreState> &state,
                const std::vector<ThreadGenerator> *gens,
                std::uint64_t executed,
                const obs::IntervalSampler *sampler,
                const std::string &path)
{
    Snapshot snap;
    sys.saveState(snap.section("system"));
    SerialOut &r = snap.section("runner");
    r.u8(mode);
    r.u64(executed);
    saveCoreStates(r, state);
    r.b(gens != nullptr);
    if (gens) {
        r.u32(static_cast<std::uint32_t>(gens->size()));
        for (const ThreadGenerator &g : *gens)
            g.save(r);
    }
    if (sampler)
        sampler->save(snap.section("sampler"));
    std::string err;
    if (!snap.writeFile(path, &err))
        fatal("checkpoint write failed: %s", err.c_str());
}

/** Restore a mid-run checkpoint; returns the executed-access count the
 *  run continues from. Any mismatch with the current run setup is fatal
 *  (the tools pre-validate with CmpSystem::restoreSnapshot and the
 *  shared exit contract; the engine itself has no partial-failure
 *  story). */
std::uint64_t
loadCheckpoint(CmpSystem &sys, std::uint8_t mode,
               std::vector<CoreState> &state,
               std::vector<ThreadGenerator> *gens,
               obs::IntervalSampler *sampler, const std::string &path)
{
    Snapshot snap;
    std::string err;
    if (!snap.readFile(path, &err))
        fatal("cannot restore checkpoint %s: %s", path.c_str(),
              err.c_str());
    if (!restoreSystemSection(snap, sys, &err))
        fatal("cannot restore checkpoint %s: %s", path.c_str(),
              err.c_str());
    const std::vector<std::uint8_t> *bytes = snap.find("runner");
    if (!bytes)
        fatal("checkpoint %s has no runner section", path.c_str());
    SerialIn in(*bytes);
    in.check(in.u8() == mode, "checkpoint issue-engine mode mismatch");
    const std::uint64_t executed = in.u64();
    restoreCoreStates(in, state);
    const bool hasGens = in.b();
    if (gens) {
        in.check(hasGens, "checkpoint lacks workload generator state");
        in.check(in.u32() == gens->size(),
                 "checkpoint generator count mismatch");
        if (in.ok()) {
            for (ThreadGenerator &g : *gens)
                g.restore(in);
        }
    }
    if (!in.exhausted())
        fatal("cannot restore checkpoint %s: %s", path.c_str(),
              in.ok() ? "trailing bytes in runner section"
                      : in.error().c_str());

    // A sampler attached to the resumed run continues the checkpointed
    // phase (older checkpoints without the section start it fresh; a
    // section without an attached sampler is simply unused).
    if (sampler) {
        if (const std::vector<std::uint8_t> *sb = snap.find("sampler")) {
            SerialIn sin(*sb);
            sampler->restore(sin);
            if (!sin.exhausted())
                fatal("cannot restore checkpoint %s: %s", path.c_str(),
                      sin.ok() ? "trailing bytes in sampler section"
                               : sin.error().c_str());
        }
    }
    return executed;
}

} // namespace

double
weightedSpeedup(const std::vector<double> &base_ipc,
                const std::vector<double> &test_ipc)
{
    const std::size_t n = std::min(base_ipc.size(), test_ipc.size());
    if (n == 0)
        return 0.0;
    double sum = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
        if (base_ipc[c] > 0.0)
            sum += test_ipc[c] / base_ipc[c];
    }
    return sum / static_cast<double>(n);
}

RunResult
run(CmpSystem &sys, const Workload &workload, const RunConfig &rc)
{
    const std::uint32_t cores =
        std::min(sys.totalCores(), workload.threadCount());
    if (cores == 0)
        fatal("workload %s has no threads", workload.name().c_str());

    std::vector<ThreadGenerator> gens;
    gens.reserve(cores);
    std::vector<CoreState> state(cores);
    for (std::uint32_t c = 0; c < cores; ++c) {
        gens.push_back(workload.makeGenerator(c));
        state[c].active = true;
    }

    std::unique_ptr<TraceWriter> tracer;
    if (!rc.tracePath.empty())
        tracer = std::make_unique<TraceWriter>(rc.tracePath, cores);

    ObserverScope observers(sys, rc);

    const std::uint64_t total =
        rc.warmupPerCore + rc.accessesPerCore;
    std::uint64_t executed = 0;
    if (!rc.restorePath.empty()) {
        executed = loadCheckpoint(sys, kRunnerModeRun, state, &gens,
                                  rc.sampler, rc.restorePath);
    }
    const std::uint64_t snap_every = effectiveSnapshotEvery(rc);
    std::uint64_t next_snap =
        snap_every ? (executed / snap_every + 1) * snap_every : ~0ull;
    std::uint64_t next_check =
        rc.invariantCheckInterval ? executed + rc.invariantCheckInterval
                                  : ~0ull;
    const std::uint64_t beat =
        rc.telemetry ? rc.telemetry->heartbeatEvery() : 0;
    std::uint64_t next_beat = beat ? (executed / beat + 1) * beat : ~0ull;

    // Issue in globally non-decreasing ready-time order, ties to the
    // lowest core. A per-access linear scan over 128 cores was the
    // largest host cost outside CmpSystem::access, so the scheduler
    // keeps grouped minima (docs/PERFORMANCE.md). It is built from the
    // (possibly restored) core states.
    IssueScheduler sched(cores);
    for (std::uint32_t c = 0; c < cores; ++c) {
        sched.set(c, state[c].active ? state[c].ready
                                     : IssueScheduler::kFinished);
    }
    bool interrupted = false;
    while (true) {
        const std::uint32_t best = sched.next();
        if (best == cores)
            break; // every core finished

        CoreState &cs = state[best];
        const MemAccess a = gens[best].next();
        if (tracer)
            tracer->append({best, a});

        const Cycle issue = cs.ready + a.gap; // 1 IPC between accesses
        const Cycle done = sys.access(best, a.type, a.block, issue);
        observers.advance(done);
        cs.ready = done;
        cs.finish = done;
        cs.instructions += a.gap + 1;
        ++cs.done;
        if (cs.done >= total)
            cs.active = false;
        sched.set(best, cs.active ? done : IssueScheduler::kFinished);

        ++executed;
        if (executed >= next_check) {
            assertInvariants(sys);
            next_check += rc.invariantCheckInterval;
        }
        if (executed >= next_snap) {
            writeCheckpoint(sys, kRunnerModeRun, state, &gens, executed,
                            rc.sampler,
                            checkpointPath(rc.snapshotPath, executed));
            next_snap += snap_every;
        }
        // Cooperative preemption: poll every 256 transactions; park a
        // final checkpoint so the run can resume bit-identically.
        if (rc.stopRequest && (executed & 0xffu) == 0 &&
            rc.stopRequest->load(std::memory_order_relaxed)) {
            if (!rc.snapshotPath.empty()) {
                writeCheckpoint(
                    sys, kRunnerModeRun, state, &gens, executed,
                    rc.sampler,
                    checkpointPath(rc.snapshotPath, executed));
            }
            interrupted = true;
            break;
        }
        if (executed >= next_beat) {
            rc.telemetry->progress(executed, observers.horizon());
            if (rc.telemetry->stallSnapshotRequested()) {
                const std::string p = rc.telemetry->claimStallSnapshot();
                if (!p.empty()) {
                    writeCheckpoint(sys, kRunnerModeRun, state, &gens,
                                    executed, rc.sampler, p);
                }
            }
            next_beat += beat;
        }
        if (rc.plantStallAt && executed == rc.plantStallAt &&
            rc.plantStallSeconds > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(rc.plantStallSeconds));
        }
    }
    if (rc.telemetry)
        rc.telemetry->progress(executed, observers.horizon());

    RunResult res;
    res.workload = workload.name();
    res.coreCycles.resize(cores);
    res.coreInstructions.resize(cores);
    for (std::uint32_t c = 0; c < cores; ++c) {
        res.coreCycles[c] = state[c].finish;
        res.coreInstructions[c] = state[c].instructions;
        res.cycles = std::max(res.cycles, state[c].finish);
        res.instructions += state[c].instructions;
    }
    res.coreCacheMisses = sys.protoStats().l2Misses;
    res.trafficBytes = sys.totalTrafficBytes();
    res.devInvalidations = sys.protoStats().devInvalidations;
    res.devByInducer = sys.protoStats().devByInducer;
    res.inclusionByInducer = sys.protoStats().inclusionByInducer;
    res.accesses = sys.protoStats().accesses;
    res.system = sys.report();
    res.interrupted = interrupted;
    observers.complete(res);
    return res;
}

RunResult
replay(CmpSystem &sys, const TraceReader &trace, const RunConfig &rc)
{
    const std::uint32_t cores = trace.cores();
    std::vector<CoreState> state(cores);
    ObserverScope observers(sys, rc);

    std::uint64_t executed = 0;
    if (!rc.restorePath.empty()) {
        executed = loadCheckpoint(sys, kRunnerModeReplay, state, nullptr,
                                  rc.sampler, rc.restorePath);
    }
    const std::uint64_t snap_every = effectiveSnapshotEvery(rc);
    std::uint64_t next_snap =
        snap_every ? (executed / snap_every + 1) * snap_every : ~0ull;
    const std::uint64_t beat =
        rc.telemetry ? rc.telemetry->heartbeatEvery() : 0;
    std::uint64_t next_beat = beat ? (executed / beat + 1) * beat : ~0ull;

    const std::vector<TraceRecord> &records = trace.records();
    if (executed > records.size()) {
        fatal("checkpoint is %llu records in, but the trace has only %zu",
              static_cast<unsigned long long>(executed), records.size());
    }
    for (std::size_t i = executed; i < records.size(); ++i) {
        const TraceRecord &rec = records[i];
        if (rec.core >= cores)
            fatal("trace record references core %u of %u", rec.core,
                  cores);
        CoreState &cs = state[rec.core];
        const Cycle issue = cs.ready + rec.access.gap;
        const Cycle done =
            sys.access(rec.core, rec.access.type, rec.access.block, issue);
        observers.advance(done);
        cs.ready = done;
        cs.finish = done;
        cs.instructions += rec.access.gap + 1;
        ++cs.done;

        ++executed;
        if (executed >= next_snap) {
            writeCheckpoint(sys, kRunnerModeReplay, state, nullptr,
                            executed, rc.sampler,
                            checkpointPath(rc.snapshotPath, executed));
            next_snap += snap_every;
        }
        if (executed >= next_beat) {
            rc.telemetry->progress(executed, observers.horizon());
            if (rc.telemetry->stallSnapshotRequested()) {
                const std::string p = rc.telemetry->claimStallSnapshot();
                if (!p.empty()) {
                    writeCheckpoint(sys, kRunnerModeReplay, state,
                                    nullptr, executed, rc.sampler, p);
                }
            }
            next_beat += beat;
        }
        if (rc.plantStallAt && executed == rc.plantStallAt &&
            rc.plantStallSeconds > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(rc.plantStallSeconds));
        }
    }
    if (rc.telemetry)
        rc.telemetry->progress(executed, observers.horizon());

    RunResult res;
    res.workload = "trace";
    res.coreCycles.resize(cores);
    res.coreInstructions.resize(cores);
    for (std::uint32_t c = 0; c < cores; ++c) {
        res.coreCycles[c] = state[c].finish;
        res.coreInstructions[c] = state[c].instructions;
        res.cycles = std::max(res.cycles, state[c].finish);
        res.instructions += state[c].instructions;
    }
    res.coreCacheMisses = sys.protoStats().l2Misses;
    res.trafficBytes = sys.totalTrafficBytes();
    res.devInvalidations = sys.protoStats().devInvalidations;
    res.devByInducer = sys.protoStats().devByInducer;
    res.inclusionByInducer = sys.protoStats().inclusionByInducer;
    res.accesses = sys.protoStats().accesses;
    res.system = sys.report();
    observers.complete(res);
    return res;
}

} // namespace zerodev
