/**
 * @file
 * Trace utility: generate reproducible access traces from the synthetic
 * application profiles, inspect them, and replay them on any system
 * configuration — the workflow for bit-identical experiment repeats or
 * for feeding external traces to the simulator.
 *
 * The `sim` and `inspect` subcommands drive the observability layer:
 * `sim` runs a workload with the coherence tracer, interval sampler and
 * latency profiler attached and writes the full artefact set (Chrome
 * trace, JSONL trace, interval CSV/JSON, v2 run report); `inspect`
 * summarises a JSONL trace. `compare` is the perf-regression gate: it
 * diffs two run reports (or directories of them) pair-wise by config
 * fingerprint + workload and fails when a gated metric grew beyond its
 * noise threshold.
 *
 * Exit codes (shared by every subcommand):
 *   0  success (for `compare`: no regression)
 *   1  runtime failure (I/O, malformed trace)
 *   2  usage error (unknown subcommand / missing operands)
 *   3  a load failure: `compare` report sets, or a `--restore` snapshot
 *   4  `compare` detected a regression
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "common/config.hh"
#include "core/cmp_system.hh"
#include "obs/compare.hh"
#include "obs/json.hh"
#include "obs/latency.hh"
#include "obs/probes.hh"
#include "obs/report.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "sim/runner.hh"
#include "sim/snapshot.hh"
#include "workload/trace.hh"
#include "workload/workload.hh"

using namespace zerodev;

namespace
{

// Exit codes — keep in sync with the file header and docs.
constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;
constexpr int kExitCompareLoad = 3;
constexpr int kExitRegression = 4;

const char *const kUsage =
    "usage: trace_tool <subcommand> [args]\n"
    "\n"
    "subcommands:\n"
    "  gen <app> <cores> <accesses-per-core> <file>\n"
    "      generate a reproducible access trace\n"
    "  info <file>\n"
    "      summarise a binary access trace\n"
    "  replay <file> [baseline|unbounded|zerodev|dls|phasepri]\n"
    "      [--snapshot FILE [--every N]] [--restore FILE]\n"
    "      replay a trace on a system configuration. --snapshot writes\n"
    "      zerodev-snapshot-v3 checkpoints every N accesses (a \"{n}\"\n"
    "      in FILE becomes the access count; default N from\n"
    "      ZERODEV_SNAPSHOT_EVERY); --restore resumes bit-identically\n"
    "      from a checkpoint\n"
    "  sim <app> <cores> <accesses-per-core> <outdir>\n"
    "      [baseline|unbounded|zerodev|dls|phasepri]\n"
    "      run with tracer+sampler+latency profiler attached; writes\n"
    "      trace.json, trace.jsonl, intervals.csv/json, report.json\n"
    "  inspect <trace.jsonl>\n"
    "      summarise a JSONL coherence trace\n"
    "  compare <baseline> <candidate> [--json <file>] [--markdown <file>]\n"
    "      diff run reports (files or directories) by config fingerprint\n"
    "      + workload; prints a markdown table and a JSON verdict\n"
    "\n"
    "exit codes: 0 ok/no regression, 1 runtime failure, 2 usage error,\n"
    "            3 compare/snapshot load failure, 4 regression detected\n";

int
usage(const char *why = nullptr)
{
    if (why)
        std::fprintf(stderr, "trace_tool: %s\n", why);
    std::fputs(kUsage, stderr);
    return kExitUsage;
}

bool
wantsHelp(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h"))
            return true;
    }
    return false;
}

/** Strict decimal parse; nullopt on garbage, sign or overflow. */
std::optional<std::uint64_t>
parseCount(const char *s)
{
    if (!s || !*s)
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || *end != '\0' || s[0] == '-')
        return std::nullopt;
    return static_cast<std::uint64_t>(v);
}

/** Core-count operand: an integer in [1, kMaxCores * kMaxSockets]. */
std::optional<std::uint32_t>
parseCores(const char *s)
{
    const auto v = parseCount(s);
    if (!v || *v == 0 || *v > kMaxCores * kMaxSockets)
        return std::nullopt;
    return static_cast<std::uint32_t>(*v);
}

int
cmdGen(int argc, char **argv)
{
    if (argc < 6)
        return usage("gen needs <app> <cores> <accesses-per-core> <file>");
    const AppProfile p = profileByName(argv[2]);
    const auto cores = parseCores(argv[3]);
    const auto acc = parseCount(argv[4]);
    if (!cores)
        return usage("gen: <cores> must be a positive core count");
    if (!acc || *acc == 0)
        return usage("gen: <accesses-per-core> must be a positive count");
    const Workload w = p.suite == "cpu2017"
                           ? Workload::rate(p, *cores)
                           : Workload::multiThreaded(p, *cores);

    TraceWriter out(argv[5], *cores);
    std::vector<ThreadGenerator> gens;
    for (std::uint32_t c = 0; c < *cores; ++c)
        gens.push_back(w.makeGenerator(c));
    // Round-robin interleave (replay re-times per core anyway).
    for (std::uint64_t i = 0; i < *acc; ++i) {
        for (std::uint32_t c = 0; c < *cores; ++c)
            out.append({c, gens[c].next()});
    }
    std::printf("wrote %llu records to %s\n",
                static_cast<unsigned long long>(out.written()), argv[5]);
    return kExitOk;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc < 3)
        return usage("info needs <file>");
    const TraceReader trace = TraceReader::mustLoad(argv[2]);
    std::map<std::uint32_t, std::uint64_t> per_core;
    std::uint64_t loads = 0, stores = 0, ifetches = 0, instructions = 0;
    std::set<BlockAddr> footprint;
    for (const TraceRecord &r : trace.records()) {
        ++per_core[r.core];
        instructions += r.access.gap + 1;
        footprint.insert(r.access.block);
        switch (r.access.type) {
          case AccessType::Load: ++loads; break;
          case AccessType::Store: ++stores; break;
          case AccessType::Ifetch: ++ifetches; break;
        }
    }
    std::printf("cores: %u\nrecords: %zu\ninstructions: %llu\n",
                trace.cores(), trace.records().size(),
                static_cast<unsigned long long>(instructions));
    std::printf("loads: %llu  stores: %llu  ifetches: %llu\n",
                static_cast<unsigned long long>(loads),
                static_cast<unsigned long long>(stores),
                static_cast<unsigned long long>(ifetches));
    std::printf("footprint: %zu blocks (%.1f MB)\n", footprint.size(),
                static_cast<double>(footprint.size()) * 64 / 1048576.0);
    for (const auto &[core, n] : per_core)
        std::printf("  core %u: %llu accesses\n", core,
                    static_cast<unsigned long long>(n));
    return kExitOk;
}

/** nullopt for an unknown organisation name (a usage error). The
 *  rival protocol backends count as organisations here: DLS has no
 *  directory, phase-priority replaces the sparse one. */
std::optional<SystemConfig>
configFor(const char *org)
{
    SystemConfig cfg = makeEightCoreConfig();
    if (!std::strcmp(org, "unbounded")) {
        cfg.dirOrg = DirOrg::Unbounded;
    } else if (!std::strcmp(org, "zerodev")) {
        applyZeroDev(cfg, 0.0);
    } else if (!std::strcmp(org, "dls")) {
        cfg.protocol = ProtocolKind::Dls;
    } else if (!std::strcmp(org, "phasepri")) {
        cfg.protocol = ProtocolKind::PhasePriority;
    } else if (std::strcmp(org, "baseline") != 0) {
        return std::nullopt;
    }
    return cfg;
}

constexpr const char *kOrgNames = "baseline|unbounded|zerodev|dls|phasepri";

/** What the console calls a config: its directory organisation, or the
 *  rival backend that replaces the MESI directory family. */
const char *
orgLabel(const SystemConfig &cfg)
{
    return cfg.protocol == ProtocolKind::MesiZeroDev ? toString(cfg.dirOrg)
                                                     : toString(cfg.protocol);
}

int
cmdReplay(int argc, char **argv)
{
    if (argc < 3)
        return usage("replay needs <file> [org]");
    const char *org = "baseline";
    RunConfig rc;
    for (int i = 3; i < argc; ++i) {
        const std::string_view a = argv[i];
        if (a == "--snapshot" || a == "--restore" || a == "--every") {
            if (i + 1 >= argc)
                return usage("replay: missing value after option");
            if (a == "--snapshot") {
                rc.snapshotPath = argv[++i];
            } else if (a == "--restore") {
                rc.restorePath = argv[++i];
            } else {
                const auto v = parseCount(argv[++i]);
                if (!v || *v == 0)
                    return usage("replay: --every needs a positive count");
                rc.snapshotEvery = *v;
            }
        } else if (a.size() && a[0] != '-') {
            org = argv[i];
        } else {
            return usage("replay: unknown option");
        }
    }
    const auto cfg = configFor(org);
    if (!cfg)
        return usage((std::string("replay: org must be ") + kOrgNames).c_str());
    const TraceReader trace = TraceReader::mustLoad(argv[2]);
    CmpSystem sys(*cfg);
    if (trace.cores() > sys.totalCores()) {
        fatal("trace drives %u cores but the %s config has only %u",
              trace.cores(), org, sys.totalCores());
    }

    // Pre-validate the checkpoint under the shared exit contract (the
    // engine itself treats a bad checkpoint as fatal): the container
    // must parse, carry issue-engine state, and match this config's
    // fingerprint. The engine re-reads it when the replay starts.
    if (!rc.restorePath.empty()) {
        Snapshot snap;
        std::string err;
        if (!snap.readFile(rc.restorePath, &err) ||
            !restoreSystemSection(snap, sys, &err)) {
            std::fprintf(stderr, "cannot restore %s: %s\n",
                         rc.restorePath.c_str(), err.c_str());
            return kExitCompareLoad;
        }
        if (!snap.has("runner")) {
            std::fprintf(stderr,
                         "cannot restore %s: snapshot has no runner "
                         "section (not a mid-run checkpoint)\n",
                         rc.restorePath.c_str());
            return kExitCompareLoad;
        }
    }

    const RunResult r = replay(sys, trace, rc);
    std::printf("org: %s\ncycles: %llu\ncore cache misses: %llu\n"
                "traffic bytes: %llu\nDEV invalidations: %llu\n",
                orgLabel(*cfg),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.coreCacheMisses),
                static_cast<unsigned long long>(r.trafficBytes),
                static_cast<unsigned long long>(r.devInvalidations));
    obs::maybeWriteRunReport(std::string("trace_replay_") + org, *cfg, r);
    return kExitOk;
}

int
cmdSim(int argc, char **argv)
{
    if (argc < 6) {
        return usage(
            "sim needs <app> <cores> <accesses-per-core> <outdir> [org]");
    }
    const AppProfile p = profileByName(argv[2]);
    const auto cores = parseCores(argv[3]);
    const auto acc = parseCount(argv[4]);
    if (!cores)
        return usage("sim: <cores> must be a positive core count");
    if (!acc || *acc == 0)
        return usage("sim: <accesses-per-core> must be a positive count");
    const std::string outdir = argv[5];
    const char *org = argc > 6 ? argv[6] : "zerodev";

    const auto maybe_cfg = configFor(org);
    if (!maybe_cfg)
        return usage((std::string("sim: org must be ") + kOrgNames).c_str());
    const SystemConfig &cfg = *maybe_cfg;
    const Workload w = p.suite == "cpu2017"
                           ? Workload::rate(p, *cores)
                           : Workload::multiThreaded(p, *cores);

    CmpSystem sys(cfg);
    obs::Tracer tracer;
    tracer.setEnabled(true);
    obs::IntervalSampler sampler(10000);
    obs::registerSystemProbes(sampler, sys);
    obs::LatencyProfiler latency;

    RunConfig rc;
    rc.accessesPerCore = *acc;
    rc.tracer = &tracer;
    rc.sampler = &sampler;
    rc.latency = &latency;
    const RunResult r = run(sys, w, rc);

    const bool ok = tracer.writeChromeJson(outdir + "/trace.json") &&
                    tracer.writeJsonl(outdir + "/trace.jsonl") &&
                    sampler.writeCsv(outdir + "/intervals.csv") &&
                    sampler.writeJson(outdir + "/intervals.json") &&
                    obs::writeRunReport(outdir + "/report.json", cfg, r);

    std::printf("org: %s  cycles: %llu  DEVs: %llu\n", orgLabel(cfg),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.devInvalidations));
    std::printf("trace: %llu events recorded, %llu dropped (ring %zu)\n",
                static_cast<unsigned long long>(tracer.recorded()),
                static_cast<unsigned long long>(tracer.dropped()),
                tracer.capacity());
    if (tracer.dropped() > 0) {
        std::fprintf(stderr,
                     "trace_tool: warning: the trace ring dropped %llu "
                     "events; trace.json/trace.jsonl hold only the newest "
                     "%zu\n",
                     static_cast<unsigned long long>(tracer.dropped()),
                     tracer.capacity());
    }
    std::printf("intervals: %zu samples every %llu cycles\n",
                sampler.samples().size(),
                static_cast<unsigned long long>(sampler.interval()));
    std::printf("latency: %llu transactions attributed\n",
                static_cast<unsigned long long>(latency.transactions()));
    std::printf("%s trace.json trace.jsonl intervals.csv intervals.json "
                "report.json in %s\n",
                ok ? "wrote" : "FAILED writing", outdir.c_str());
    return ok ? kExitOk : kExitRuntime;
}

int
cmdInspect(int argc, char **argv)
{
    if (argc < 3)
        return usage("inspect needs <trace.jsonl>");
    const auto text = obs::readTextFile(argv[2]);
    if (!text) {
        std::fprintf(stderr, "cannot read %s\n", argv[2]);
        return kExitRuntime;
    }

    std::map<std::string, std::uint64_t> by_kind, by_comp;
    std::map<std::uint64_t, std::uint64_t> by_prov;
    std::set<std::uint64_t> txns;
    std::uint64_t events = 0, bad = 0;
    std::uint64_t min_cycle = ~0ull, max_cycle = 0;
    std::size_t pos = 0;
    while (pos < text->size()) {
        std::size_t eol = text->find('\n', pos);
        if (eol == std::string::npos)
            eol = text->size();
        const std::string_view line(text->data() + pos, eol - pos);
        pos = eol + 1;
        if (line.empty())
            continue;
        std::string err;
        const auto v = obs::parseJson(line, &err);
        if (!v || !v->isObject()) {
            ++bad;
            continue;
        }
        ++events;
        ++by_kind[v->str("kind", "?")];
        ++by_comp[v->str("comp", "?")];
        const auto cycle = static_cast<std::uint64_t>(v->num("cycle"));
        min_cycle = std::min(min_cycle, cycle);
        max_cycle = std::max(max_cycle, cycle);
        const auto txn = static_cast<std::uint64_t>(v->num("txn"));
        if (txn)
            txns.insert(txn);
        // "prov" is the v2 eviction-provenance member (the global core
        // whose transaction induced a dev/llc_victim); v1 traces simply
        // have no such member.
        if (v->has("prov"))
            ++by_prov[static_cast<std::uint64_t>(v->num("prov"))];
    }

    std::printf("events: %llu", static_cast<unsigned long long>(events));
    if (bad)
        std::printf("  (unparseable lines: %llu)",
                    static_cast<unsigned long long>(bad));
    std::printf("\n");
    if (events) {
        std::printf("cycles: %llu .. %llu\n",
                    static_cast<unsigned long long>(min_cycle),
                    static_cast<unsigned long long>(max_cycle));
        std::printf("transactions: %zu\n", txns.size());
        std::printf("by kind:\n");
        for (const auto &[k, n] : by_kind)
            std::printf("  %-12s %llu\n", k.c_str(),
                        static_cast<unsigned long long>(n));
        std::printf("by component:\n");
        for (const auto &[c, n] : by_comp)
            std::printf("  %-12s %llu\n", c.c_str(),
                        static_cast<unsigned long long>(n));
        if (!by_prov.empty()) {
            std::printf("evictions by inducing core:\n");
            for (const auto &[core, n] : by_prov)
                std::printf("  core %-6llu %llu\n",
                            static_cast<unsigned long long>(core),
                            static_cast<unsigned long long>(n));
        }
    }
    return kExitOk;
}

int
cmdCompare(int argc, char **argv)
{
    std::string base_path, cand_path, json_path, md_path;
    for (int i = 2; i < argc; ++i) {
        const std::string_view a = argv[i];
        if (a == "--json" || a == "--markdown") {
            if (i + 1 >= argc)
                return usage("compare: missing value after option");
            (a == "--json" ? json_path : md_path) = argv[++i];
        } else if (base_path.empty()) {
            base_path = a;
        } else if (cand_path.empty()) {
            cand_path = a;
        } else {
            return usage("compare takes exactly two report paths");
        }
    }
    if (base_path.empty() || cand_path.empty())
        return usage("compare needs <baseline> <candidate>");

    std::vector<obs::LoadedReport> base, cand;
    std::string err;
    if (!obs::loadReports(base_path, base, &err)) {
        std::fprintf(stderr, "cannot load baseline: %s\n", err.c_str());
        return kExitCompareLoad;
    }
    if (!obs::loadReports(cand_path, cand, &err)) {
        std::fprintf(stderr, "cannot load candidate: %s\n", err.c_str());
        return kExitCompareLoad;
    }

    const obs::CompareResult res = obs::compareReports(base, cand);
    const std::string md = res.markdown();
    const std::string verdict = res.verdictJson();

    std::fputs(md.c_str(), stdout);
    if (!md_path.empty() && !obs::writeTextFile(md_path, md))
        return kExitRuntime;
    if (!json_path.empty()) {
        if (!obs::writeTextFile(json_path, verdict + "\n"))
            return kExitRuntime;
    } else {
        std::printf("\n%s\n", verdict.c_str());
    }
    return res.regression() ? kExitRegression : kExitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    if (wantsHelp(argc, argv) || !std::strcmp(argv[1], "help")) {
        std::fputs(kUsage, stdout);
        return kExitOk;
    }
    if (!std::strcmp(argv[1], "gen"))
        return cmdGen(argc, argv);
    if (!std::strcmp(argv[1], "info"))
        return cmdInfo(argc, argv);
    if (!std::strcmp(argv[1], "replay"))
        return cmdReplay(argc, argv);
    if (!std::strcmp(argv[1], "sim"))
        return cmdSim(argc, argv);
    if (!std::strcmp(argv[1], "inspect"))
        return cmdInspect(argc, argv);
    if (!std::strcmp(argv[1], "compare"))
        return cmdCompare(argc, argv);
    return usage("unknown subcommand");
}
