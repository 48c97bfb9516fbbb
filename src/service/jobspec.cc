#include "service/jobspec.hh"

#include <cinttypes>
#include <cstdio>

#include "bench_util.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "workload/app_profiles.hh"
#include "workload/workload.hh"

namespace zerodev::service
{

namespace
{

constexpr std::uint64_t kMaxAccesses = 10'000'000;
constexpr std::size_t kMaxSweepRuns = 256;
constexpr std::uint64_t kMaxFuzzSeeds = 100'000;
constexpr double kMaxDirRatio = 64.0;

bool
fail(std::string *err, const std::string &why)
{
    if (err)
        *err = why;
    return false;
}

bool
validFigure(const std::string &s)
{
    if (s.empty() || s.size() > 64)
        return false;
    for (char c : s) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' ||
                        c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

/** Non-fatal profile lookup (profileByName() aborts on unknown). */
bool
findProfile(const std::string &name, AppProfile *out)
{
    for (const std::string &suite : suiteNames()) {
        for (const AppProfile &p : suiteProfiles(suite)) {
            if (p.name == name) {
                *out = p;
                return true;
            }
        }
    }
    return false;
}

/** Integer member in [lo, hi]; false (with reason) otherwise. */
bool
parseInt(const obs::JsonValue &obj, const char *key, std::uint64_t lo,
         std::uint64_t hi, std::uint64_t *out, std::string *err)
{
    const obs::JsonValue *v = obj.find(key);
    if (!v || !v->isNumber() || v->number < 0 ||
        v->number != static_cast<double>(
                         static_cast<std::uint64_t>(v->number))) {
        return fail(err, std::string(key) +
                             " must be a non-negative integer");
    }
    const auto n = static_cast<std::uint64_t>(v->number);
    if (n < lo || n > hi) {
        return fail(err, std::string(key) + " out of range [" +
                             std::to_string(lo) + ", " +
                             std::to_string(hi) + "]");
    }
    *out = n;
    return true;
}

bool
parseDirOrg(const std::string &s, DirOrg *out)
{
    if (s == "sparse-NRU")
        *out = DirOrg::SparseNru;
    else if (s == "unbounded")
        *out = DirOrg::Unbounded;
    else if (s == "ZeroDEV")
        *out = DirOrg::ZeroDev;
    else if (s == "SecDir")
        *out = DirOrg::SecDir;
    else if (s == "MgD")
        *out = DirOrg::MultiGrain;
    else
        return false;
    return true;
}

bool
parseLlcFlavor(const std::string &s, LlcFlavor *out)
{
    if (s == "non-inclusive")
        *out = LlcFlavor::NonInclusive;
    else if (s == "inclusive")
        *out = LlcFlavor::Inclusive;
    else if (s == "EPD")
        *out = LlcFlavor::Epd;
    else
        return false;
    return true;
}

bool
parseDirCachePolicy(const std::string &s, DirCachePolicy *out)
{
    if (s == "none")
        *out = DirCachePolicy::None;
    else if (s == "SpillAll")
        *out = DirCachePolicy::SpillAll;
    else if (s == "FPSS")
        *out = DirCachePolicy::Fpss;
    else if (s == "FuseAll")
        *out = DirCachePolicy::FuseAll;
    else
        return false;
    return true;
}

bool
parseLlcRepl(const std::string &s, LlcReplPolicy *out)
{
    if (s == "LRU")
        *out = LlcReplPolicy::Lru;
    else if (s == "spLRU")
        *out = LlcReplPolicy::SpLru;
    else if (s == "dataLRU")
        *out = LlcReplPolicy::DataLru;
    else
        return false;
    return true;
}

bool
parseProtocol(const std::string &s, ProtocolKind *out)
{
    if (s == "mesi-zerodev")
        *out = ProtocolKind::MesiZeroDev;
    else if (s == "DLS" || s == "dls") // "dls" = the differ variant name
        *out = ProtocolKind::Dls;
    else if (s == "phase-priority" || s == "phasepri")
        *out = ProtocolKind::PhasePriority;
    else
        return false;
    return true;
}

/**
 * Materialise a "config" object: a named preset plus a restricted set
 * of safe knobs (the enums and ratios the figure benches sweep). Every
 * key is checked; unknown keys are rejected rather than ignored.
 */
bool
parseConfigSpec(const obs::JsonValue &spec, SystemConfig *out,
                std::string *err)
{
    const std::string preset = spec.str("preset", "eight-core");
    if (preset == "eight-core")
        *out = makeEightCoreConfig();
    else if (preset == "server")
        *out = makeServerConfig();
    else if (preset == "quad-socket")
        *out = makeQuadSocketConfig();
    else
        return fail(err, "config.preset must be eight-core, server or "
                         "quad-socket");

    for (const auto &[key, value] : spec.object) {
        if (key == "preset") {
            continue;
        } else if (key == "name") {
            if (!value.isString() || !validFigure(value.string))
                return fail(err, "config.name must be a short "
                                 "[A-Za-z0-9._-] string");
            out->name = value.string;
        } else if (key == "zdev_ratio") {
            if (!value.isNumber() || value.number < 0.0 ||
                value.number > kMaxDirRatio)
                return fail(err, "config.zdev_ratio out of range");
            applyZeroDev(*out, value.number);
        } else if (key == "dir_org") {
            if (!value.isString() ||
                !parseDirOrg(value.string, &out->dirOrg))
                return fail(err, "config.dir_org must be sparse-NRU, "
                                 "unbounded, ZeroDEV, SecDir or MgD");
        } else if (key == "dir_ratio") {
            if (!value.isNumber() || value.number < 0.0 ||
                value.number > kMaxDirRatio)
                return fail(err, "config.dir_ratio out of range");
            out->directory.sizeRatio = value.number;
        } else if (key == "dir_replacement_disabled") {
            if (!value.isBool())
                return fail(err, "config.dir_replacement_disabled "
                                 "must be a bool");
            out->directory.replacementDisabled = value.boolean;
        } else if (key == "tag_partitions") {
            if (!value.isNumber() || value.number < 0 ||
                value.number > out->directory.ways)
                return fail(err, "config.tag_partitions must be in "
                                 "[0, directory ways]");
            out->directory.tagPartitions =
                static_cast<std::uint32_t>(value.number);
        } else if (key == "dir_cache_policy") {
            if (!value.isString() ||
                !parseDirCachePolicy(value.string,
                                     &out->dirCachePolicy))
                return fail(err, "config.dir_cache_policy must be "
                                 "none, SpillAll, FPSS or FuseAll");
        } else if (key == "llc_repl") {
            if (!value.isString() ||
                !parseLlcRepl(value.string, &out->llcReplPolicy))
                return fail(err, "config.llc_repl must be LRU, spLRU "
                                 "or dataLRU");
        } else if (key == "llc_flavor") {
            if (!value.isString() ||
                !parseLlcFlavor(value.string, &out->llcFlavor))
                return fail(err, "config.llc_flavor must be "
                                 "non-inclusive, inclusive or EPD");
        } else if (key == "protocol") {
            if (!value.isString() ||
                !parseProtocol(value.string, &out->protocol))
                return fail(err, "config.protocol must be "
                                 "mesi-zerodev, DLS or phase-priority");
        } else {
            return fail(err, "unknown config key: " + key);
        }
    }

    // The same rules SystemConfig::validate() would fatal() on later.
    const std::string why = out->check();
    if (!why.empty())
        return fail(err, "config: " + why);
    return true;
}

/** One run entry (the whole job object for type "run", one element of
 *  "runs" for type "sweep"). */
bool
parseRunSpec(const obs::JsonValue &obj, RunSpec *out, std::string *err)
{
    if (const obs::JsonValue *cfg = obj.find("config")) {
        if (!cfg->isObject())
            return fail(err, "config must be an object");
        if (!parseConfigSpec(*cfg, &out->cfg, err))
            return false;
    } else {
        out->cfg = makeEightCoreConfig();
    }

    out->app = obj.str("app");
    AppProfile profile;
    if (out->app.empty() || !findProfile(out->app, &profile))
        return fail(err, "app must name a known application profile");

    const std::uint32_t totalCores =
        out->cfg.coresPerSocket * out->cfg.sockets;
    std::uint64_t threads = totalCores;
    if (obj.has("threads") &&
        !parseInt(obj, "threads", 1, totalCores, &threads, err))
        return false;
    out->threads = static_cast<std::uint32_t>(threads);

    if (!parseInt(obj, "accesses", 1, kMaxAccesses, &out->accesses,
                  err))
        return false;

    for (const auto &[key, value] : obj.object) {
        (void)value;
        if (key != "config" && key != "app" && key != "threads" &&
            key != "accesses")
            return fail(err, "unknown run key: " + key);
    }
    return true;
}

bool
parseFuzzSpec(const obs::JsonValue &job, JobSpec *out, std::string *err)
{
    verify::FuzzBatchOptions &f = out->fuzz;
    if (job.has("seeds") &&
        !parseInt(job, "seeds", 1, kMaxFuzzSeeds, &f.seeds, err))
        return false;
    if (job.has("accesses") &&
        !parseInt(job, "accesses", 1, kMaxAccesses, &f.accesses, err))
        return false;
    std::uint64_t cores = f.cores;
    if (job.has("cores") &&
        !parseInt(job, "cores", 1, kMaxCores * kMaxSockets, &cores,
                  err))
        return false;
    f.cores = static_cast<std::uint32_t>(cores);
    if (const obs::JsonValue *q = job.find("quick")) {
        if (!q->isBool())
            return fail(err, "quick must be a bool");
        f.quick = q->boolean;
    }
    if (job.has("snapshot_every") &&
        !parseInt(job, "snapshot_every", 1, kMaxAccesses,
                  &f.snapshotEvery, err))
        return false;
    if (const obs::JsonValue *fault = job.find("fault")) {
        if (!fault->isString())
            return fail(err, "fault must be an \"I,B,S\" string");
        unsigned long long i = 0, b = 0, n = 0;
        char extra = 0;
        if (std::sscanf(fault->string.c_str(), "%llu,%llu,%llu%c", &i,
                        &b, &n, &extra) != 3)
            return fail(err, "fault must be an \"I,B,S\" string");
        const std::size_t variants =
            (f.quick ? verify::Differ::quickVariants(f.cores)
                     : verify::Differ::standardVariants(f.cores))
                .size();
        if (i >= variants)
            return fail(err, "fault variant index out of range");
        f.fault.enabled = true;
        f.fault.instance = static_cast<std::size_t>(i);
        f.fault.block = b;
        f.fault.afterStores = n;
    }

    for (const auto &[key, value] : job.object) {
        (void)value;
        if (key != "type" && key != "figure" && key != "seeds" &&
            key != "accesses" && key != "cores" && key != "quick" &&
            key != "snapshot_every" && key != "fault")
            return fail(err, "unknown fuzz key: " + key);
    }
    return true;
}

} // namespace

const char *
toString(JobType t)
{
    switch (t) {
      case JobType::Run: return "run";
      case JobType::Sweep: return "sweep";
      case JobType::Fuzz: return "fuzz";
    }
    return "?";
}

const char *
toString(JobState s)
{
    switch (s) {
      case JobState::Queued: return "QUEUED";
      case JobState::Running: return "RUNNING";
      case JobState::Done: return "DONE";
      case JobState::Failed: return "FAILED";
      case JobState::Cancelled: return "CANCELLED";
    }
    return "?";
}

bool
jobTypeFromString(const std::string &s, JobType *out)
{
    if (s == "run")
        *out = JobType::Run;
    else if (s == "sweep")
        *out = JobType::Sweep;
    else if (s == "fuzz")
        *out = JobType::Fuzz;
    else
        return false;
    return true;
}

bool
jobStateFromString(const std::string &s, JobState *out)
{
    if (s == "QUEUED")
        *out = JobState::Queued;
    else if (s == "RUNNING")
        *out = JobState::Running;
    else if (s == "DONE")
        *out = JobState::Done;
    else if (s == "FAILED")
        *out = JobState::Failed;
    else if (s == "CANCELLED")
        *out = JobState::Cancelled;
    else
        return false;
    return true;
}

bool
isTerminal(JobState s)
{
    return s == JobState::Done || s == JobState::Failed ||
           s == JobState::Cancelled;
}

bool
JobSpec::parse(const obs::JsonValue &job, JobSpec *out,
               std::string *err)
{
    if (!job.isObject())
        return fail(err, "job must be a JSON object");
    if (!jobTypeFromString(job.str("type"), &out->type))
        return fail(err, "job.type must be run, sweep or fuzz");

    out->figure = job.str("figure", "job");
    if (!validFigure(out->figure))
        return fail(err, "job.figure must be a short [A-Za-z0-9._-] "
                         "string");

    switch (out->type) {
      case JobType::Run: {
        RunSpec run;
        // The run spec rides at the top level next to type/figure.
        obs::JsonValue stripped = job;
        std::erase_if(stripped.object, [](const auto &kv) {
            return kv.first == "type" || kv.first == "figure";
        });
        if (!parseRunSpec(stripped, &run, err))
            return false;
        out->runs = {std::move(run)};
        break;
      }
      case JobType::Sweep: {
        const obs::JsonValue *runs = job.find("runs");
        if (!runs || !runs->isArray() || runs->array.empty() ||
            runs->array.size() > kMaxSweepRuns) {
            return fail(err, "job.runs must be a non-empty array of "
                             "at most " +
                                 std::to_string(kMaxSweepRuns) +
                                 " runs");
        }
        for (const auto &[key, value] : job.object) {
            (void)value;
            if (key != "type" && key != "figure" && key != "runs")
                return fail(err, "unknown sweep key: " + key);
        }
        for (std::size_t i = 0; i < runs->array.size(); ++i) {
            RunSpec run;
            std::string rerr;
            if (!parseRunSpec(runs->array[i], &run, &rerr)) {
                return fail(err, "runs[" + std::to_string(i) +
                                     "]: " + rerr);
            }
            out->runs.push_back(std::move(run));
        }
        break;
      }
      case JobType::Fuzz:
        if (!parseFuzzSpec(job, out, err))
            return false;
        break;
    }

    out->rawJson = obs::renderJson(job);
    return true;
}

namespace
{

/** Scoped artifact routing + stop flag for one job execution. */
class ExecutionScope
{
  public:
    ExecutionScope(const std::string &artifactsDir,
                   const std::atomic<bool> *stop)
    {
        obs::setOutputDirOverride("ZERODEV_REPORT_DIR", artifactsDir);
        obs::setOutputDirOverride("ZERODEV_SNAPSHOT_DIR",
                                  artifactsDir);
        bench::setSweepStop(stop);
    }

    ~ExecutionScope()
    {
        bench::setSweepStop(nullptr);
        obs::setOutputDirOverride("ZERODEV_REPORT_DIR", "");
        obs::setOutputDirOverride("ZERODEV_SNAPSHOT_DIR", "");
    }
};

JobOutcome
executeRuns(const JobSpec &spec, const std::string &artifactsDir,
            const std::atomic<bool> *stop)
{
    JobOutcome out;
    ExecutionScope scope(artifactsDir, stop);

    bench::BenchReporter &rep = bench::BenchReporter::instance();
    rep.reset();
    rep.setFigure(spec.figure);

    std::vector<bench::SweepJob> jobs;
    jobs.reserve(spec.runs.size());
    for (const RunSpec &r : spec.runs) {
        const Workload w =
            bench::workloadFor(profileByName(r.app), r.threads);
        jobs.push_back({r.cfg, w, r.accesses});
    }

    const std::vector<RunResult> results = bench::runSweep(jobs);
    rep.flush();

    for (const RunResult &res : results) {
        if (res.interrupted) {
            out.interrupted = true;
            return out;
        }
    }

    obs::JsonWriter w;
    w.beginObject();
    obs::stampArtifact(w, "zerodev-job-result-v1");
    w.field("type", toString(spec.type));
    w.field("figure", spec.figure);
    w.field("exit_code", 0);
    w.key("runs").beginArray();
    for (std::size_t i = 0; i < results.size(); ++i) {
        char name[32];
        std::snprintf(name, sizeof(name), "_run%04zu", i);
        const RunResult &res = results[i];
        w.beginObject();
        w.field("report", spec.figure + name + ".json");
        w.field("workload", res.workload);
        w.field("cycles", static_cast<std::uint64_t>(res.cycles));
        w.field("core_cache_misses", res.coreCacheMisses);
        w.field("traffic_bytes", res.trafficBytes);
        w.field("dev_invalidations", res.devInvalidations);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    out.ok = true;
    out.resultJson = w.str();
    return out;
}

JobOutcome
executeFuzz(const JobSpec &spec, const std::string &artifactsDir,
            const std::atomic<bool> *stop)
{
    JobOutcome out;
    verify::FuzzBatchOptions opt = spec.fuzz;
    opt.outDir = artifactsDir;
    opt.stop = stop;
    opt.telemetryPrefix = spec.figure + "_";

    const verify::FuzzBatchResult res = verify::runFuzzBatch(opt);
    if (res.cancelled) {
        out.interrupted = true;
        return out;
    }
    if (res.exitCode == 1) {
        out.error = "fuzz batch runtime failure";
        return out;
    }

    obs::JsonWriter w;
    w.beginObject();
    obs::stampArtifact(w, "zerodev-job-result-v1");
    w.field("type", toString(spec.type));
    w.field("figure", spec.figure);
    w.field("exit_code", res.exitCode);
    w.field("seeds_run", res.seedsRun);
    w.key("fuzz_report").raw(res.report);
    w.endObject();

    out.ok = true;
    out.exitCode = res.exitCode;
    out.divergence = res.divergence;
    out.resultJson = w.str();
    return out;
}

} // namespace

JobOutcome
executeJob(const JobSpec &spec, const std::string &artifactsDir,
           const std::atomic<bool> *stop)
{
    switch (spec.type) {
      case JobType::Run:
      case JobType::Sweep:
        return executeRuns(spec, artifactsDir, stop);
      case JobType::Fuzz:
        return executeFuzz(spec, artifactsDir, stop);
    }
    JobOutcome out;
    out.error = "unknown job type";
    return out;
}

} // namespace zerodev::service
