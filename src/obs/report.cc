#include "obs/report.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <cmath>
#include <map>
#include <mutex>

#include <sys/stat.h>
#include <unistd.h>

#include "common/log.hh"
#include "obs/json.hh"
#include "obs/latency.hh"

namespace zerodev::obs
{

namespace
{

/** mkdir -p: create @p path and every missing parent. */
bool
makeDirs(const std::string &path)
{
    std::string prefix;
    std::size_t pos = 0;
    while (pos <= path.size()) {
        const std::size_t slash = path.find('/', pos);
        prefix = slash == std::string::npos ? path
                                            : path.substr(0, slash);
        pos = slash == std::string::npos ? path.size() + 1 : slash + 1;
        if (prefix.empty())
            continue; // leading '/'
        if (::mkdir(prefix.c_str(), 0777) != 0 && errno != EEXIST)
            return false;
    }
    struct ::stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

} // namespace

std::string
buildCommit()
{
    const char *commit = std::getenv("ZERODEV_COMMIT");
    return commit ? commit : "";
}

void
stampArtifact(JsonWriter &w, std::string_view schema)
{
    w.field("schema", schema);
    w.field("commit", buildCommit());
}

namespace
{

std::mutex g_dirOverrideMu;
std::map<std::string, std::string> g_dirOverrides;

/** The active override for @p var, or "" when none is set. */
std::string
dirOverride(const char *var)
{
    std::lock_guard<std::mutex> lock(g_dirOverrideMu);
    const auto it = g_dirOverrides.find(var);
    return it == g_dirOverrides.end() ? std::string() : it->second;
}

} // namespace

void
setOutputDirOverride(const char *var, const std::string &dir)
{
    std::lock_guard<std::mutex> lock(g_dirOverrideMu);
    if (dir.empty())
        g_dirOverrides.erase(var);
    else
        g_dirOverrides[var] = dir;
}

std::string
outputDirFromEnv(const char *var)
{
    std::string path = dirOverride(var);
    if (path.empty()) {
        const char *dir = std::getenv(var);
        if (!dir || !*dir)
            return {};
        path = dir;
    }
    if (!makeDirs(path)) {
        std::fprintf(stderr,
                     "zerodev: cannot create %s directory '%s': %s\n",
                     var, path.c_str(), std::strerror(errno));
        std::exit(2);
    }
    // Probe writability up front: a full run whose reports all vanish
    // into EACCES at the end is strictly worse than failing now.
    const std::string probe = path + "/.zerodev-writable";
    std::FILE *f = std::fopen(probe.c_str(), "w");
    if (!f) {
        std::fprintf(stderr,
                     "zerodev: %s directory '%s' is not writable: %s\n",
                     var, path.c_str(), std::strerror(errno));
        std::exit(2);
    }
    std::fclose(f);
    ::unlink(probe.c_str());
    return path;
}

namespace
{

void
kv(std::string &out, const char *k, const std::string &v)
{
    out += k;
    out += '=';
    out += v;
    out += ';';
}

void
kv(std::string &out, const char *k, std::uint64_t v)
{
    kv(out, k, std::to_string(v));
}

void
kv(std::string &out, const char *k, double v)
{
    kv(out, k, jsonNumber(v));
}

void
kv(std::string &out, const char *k, bool v)
{
    kv(out, k, std::string(v ? "1" : "0"));
}

void
cacheKv(std::string &out, const char *name, const CacheConfig &c)
{
    std::string pfx(name);
    kv(out, (pfx + ".size").c_str(), c.sizeBytes);
    kv(out, (pfx + ".ways").c_str(), std::uint64_t(c.ways));
    kv(out, (pfx + ".lookup").c_str(), std::uint64_t(c.lookupCycles));
}

void
latencyBreakdownToJson(JsonWriter &w, const LatencyBreakdown &lat)
{
    w.beginObject();
    w.field("transactions", lat.transactions);
    w.field("totalCycles", lat.totalCycles);

    w.key("components").beginObject();
    for (std::size_t i = 0; i < LatencyBreakdown::kNumComps; ++i) {
        const auto &c = lat.components[i];
        w.key(toString(static_cast<LatComp>(i))).beginObject();
        w.field("cycles", c.cycles);
        w.field("samples", c.samples);
        w.field("mean", c.mean);
        w.field("p50", c.p50);
        w.field("p95", c.p95);
        w.field("p99", c.p99);
        w.endObject();
    }
    w.endObject();

    w.key("perClass").beginObject();
    for (std::size_t k = 0; k < LatencyBreakdown::kMaxClasses; ++k) {
        const auto &row = lat.classes[k];
        if (row.count == 0)
            continue;
        // The class index is an AccessClass ordinal; name it so reports
        // stay readable without the enum definition at hand.
        w.key(toString(static_cast<AccessClass>(k))).beginObject();
        w.field("count", row.count);
        w.field("cycles", row.cycles);
        w.key("components").beginObject();
        for (std::size_t i = 0; i < LatencyBreakdown::kNumComps; ++i) {
            if (row.compCycles[i])
                w.field(toString(static_cast<LatComp>(i)),
                        row.compCycles[i]);
        }
        w.endObject();
        w.endObject();
    }
    w.endObject();

    w.key("background").beginObject();
    for (std::size_t i = 0; i < LatencyBreakdown::kNumComps; ++i) {
        if (lat.background[i])
            w.field(toString(static_cast<LatComp>(i)), lat.background[i]);
    }
    w.endObject();
    w.endObject();
}

} // namespace

std::string
configCanonicalString(const SystemConfig &cfg)
{
    std::string s;
    kv(s, "name", cfg.name);
    kv(s, "sockets", std::uint64_t(cfg.sockets));
    kv(s, "coresPerSocket", std::uint64_t(cfg.coresPerSocket));
    kv(s, "blockBytes", std::uint64_t(cfg.blockBytes));
    cacheKv(s, "l1i", cfg.l1i);
    cacheKv(s, "l1d", cfg.l1d);
    cacheKv(s, "l2", cfg.l2);
    kv(s, "llc.size", cfg.llcSizeBytes);
    kv(s, "llc.ways", std::uint64_t(cfg.llcWays));
    kv(s, "llc.banks", std::uint64_t(cfg.llcBanks));
    kv(s, "llc.tag", std::uint64_t(cfg.llcTagCycles));
    kv(s, "llc.data", std::uint64_t(cfg.llcDataCycles));
    kv(s, "dir.ratio", cfg.directory.sizeRatio);
    kv(s, "dir.ways", std::uint64_t(cfg.directory.ways));
    kv(s, "dir.lookup", std::uint64_t(cfg.directory.lookupCycles));
    kv(s, "dir.replDisabled", cfg.directory.replacementDisabled);
    // Appended only when active so every pre-partitioning fingerprint
    // (checked-in baselines, golden snapshots) is preserved verbatim.
    if (cfg.directory.tagPartitions != 0)
        kv(s, "dir.parts", std::uint64_t(cfg.directory.tagPartitions));
    kv(s, "dram.channels", std::uint64_t(cfg.dram.channels));
    kv(s, "dram.ranks", std::uint64_t(cfg.dram.ranksPerChannel));
    kv(s, "dram.banks", std::uint64_t(cfg.dram.banksPerRank));
    kv(s, "dram.rowBytes", std::uint64_t(cfg.dram.rowBytes));
    kv(s, "dram.tCas", std::uint64_t(cfg.dram.tCas));
    kv(s, "dram.tRcd", std::uint64_t(cfg.dram.tRcd));
    kv(s, "dram.tRp", std::uint64_t(cfg.dram.tRp));
    kv(s, "dram.tRas", std::uint64_t(cfg.dram.tRas));
    kv(s, "dram.tBurst", std::uint64_t(cfg.dram.tBurst));
    kv(s, "mgd.regionBytes", std::uint64_t(cfg.mgd.regionBytes));
    kv(s, "meshHop", std::uint64_t(cfg.meshHopCycles));
    kv(s, "interSocket", std::uint64_t(cfg.interSocketCycles));
    kv(s, "dirOrg", std::string(toString(cfg.dirOrg)));
    kv(s, "dirCachePolicy", std::string(toString(cfg.dirCachePolicy)));
    kv(s, "llcRepl", std::string(toString(cfg.llcReplPolicy)));
    kv(s, "llcFlavor", std::string(toString(cfg.llcFlavor)));
    kv(s, "socketDirZeroDev", cfg.socketDirZeroDev);
    kv(s, "socketDirSets", cfg.socketDirCacheSets);
    kv(s, "socketDirWays", std::uint64_t(cfg.socketDirCacheWays));
    // Appended only for the rival backends so every pre-backend
    // fingerprint (checked-in baselines, golden snapshots) is preserved
    // verbatim for the MESI+ZeroDEV family.
    if (cfg.protocol != ProtocolKind::MesiZeroDev)
        kv(s, "protocol", std::string(toString(cfg.protocol)));
    return s;
}

std::uint64_t
configFingerprint(const SystemConfig &cfg)
{
    // 64-bit FNV-1a over the canonical string: stable across runs and
    // hosts, cheap, and good enough to distinguish sweep points.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : configCanonicalString(cfg)) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

void
configToJson(JsonWriter &w, const SystemConfig &cfg)
{
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(configFingerprint(cfg)));

    w.beginObject();
    w.field("name", cfg.name);
    w.field("fingerprint", fp);
    w.field("sockets", std::uint64_t(cfg.sockets));
    w.field("coresPerSocket", std::uint64_t(cfg.coresPerSocket));
    w.field("blockBytes", std::uint64_t(cfg.blockBytes));
    if (cfg.protocol != ProtocolKind::MesiZeroDev)
        w.field("protocol", toString(cfg.protocol));

    const auto cache = [&w](const char *name, const CacheConfig &c) {
        w.key(name).beginObject();
        w.field("sizeBytes", c.sizeBytes);
        w.field("ways", std::uint64_t(c.ways));
        w.field("lookupCycles", std::uint64_t(c.lookupCycles));
        w.endObject();
    };
    cache("l1i", cfg.l1i);
    cache("l1d", cfg.l1d);
    cache("l2", cfg.l2);

    w.key("llc").beginObject();
    w.field("sizeBytes", cfg.llcSizeBytes);
    w.field("ways", std::uint64_t(cfg.llcWays));
    w.field("banks", std::uint64_t(cfg.llcBanks));
    w.field("tagCycles", std::uint64_t(cfg.llcTagCycles));
    w.field("dataCycles", std::uint64_t(cfg.llcDataCycles));
    w.field("flavor", toString(cfg.llcFlavor));
    w.field("replPolicy", toString(cfg.llcReplPolicy));
    w.endObject();

    w.key("directory").beginObject();
    w.field("org", toString(cfg.dirOrg));
    w.field("cachePolicy", toString(cfg.dirCachePolicy));
    w.field("sizeRatio", cfg.directory.sizeRatio);
    w.field("ways", std::uint64_t(cfg.directory.ways));
    w.field("lookupCycles", std::uint64_t(cfg.directory.lookupCycles));
    w.field("replacementDisabled", cfg.directory.replacementDisabled);
    if (cfg.directory.tagPartitions != 0) {
        w.field("tagPartitions",
                std::uint64_t(cfg.directory.tagPartitions));
    }
    w.endObject();

    w.key("mesh").beginObject();
    w.field("hopCycles", std::uint64_t(cfg.meshHopCycles));
    w.field("interSocketCycles", std::uint64_t(cfg.interSocketCycles));
    w.endObject();
    w.endObject();
}

std::string
runReportJson(const SystemConfig &cfg, const RunResult &res)
{
    JsonWriter w;
    w.beginObject();
    stampArtifact(w, "zerodev-run-report-v2");

    w.key("config");
    configToJson(w, cfg);

    w.key("result").beginObject();
    w.field("workload", res.workload);
    w.field("cycles", static_cast<std::uint64_t>(res.cycles));
    w.field("instructions", res.instructions);
    w.field("coreCacheMisses", res.coreCacheMisses);
    w.field("trafficBytes", res.trafficBytes);
    w.field("devInvalidations", res.devInvalidations);
    w.key("cores").beginArray();
    for (std::size_t c = 0; c < res.coreCycles.size(); ++c) {
        w.beginObject();
        w.field("cycles", static_cast<std::uint64_t>(res.coreCycles[c]));
        w.field("instructions", res.coreInstructions[c]);
        w.field("ipc", res.ipc(static_cast<std::uint32_t>(c)));
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("profile").beginObject();
    w.field("wallSeconds", res.wallSeconds);
    const double wall = res.wallSeconds;
    w.field("accessesPerSecond",
            wall > 0.0 ? static_cast<double>(res.instructions) / wall : 0.0);
    w.field("cyclesPerSecond",
            wall > 0.0 ? static_cast<double>(res.cycles) / wall : 0.0);
    // Host sim-rate (informational, never gated: the compare tool only
    // extracts result/latency metrics, so profile fields cannot fail a
    // perf gate).
    w.field("simAccesses", res.accesses);
    w.field("maccessesPerSecond", res.maccessesPerSecond());
    w.endObject();

    // Eviction provenance: which core induced every DEV / inclusion
    // invalidation. The per-core vectors sum to the totals (the
    // provenance-conservation invariant, checked by validateRunReport).
    // Synthetic RunResults without attribution vectors (and pre-
    // provenance consumers) simply omit the section.
    if (!res.devByInducer.empty()) {
        w.key("leakage").beginObject();
        w.field("devInvalidations", res.devInvalidations);
        w.key("devByInducingCore").beginArray();
        for (std::uint64_t v : res.devByInducer)
            w.value(v);
        w.endArray();
        w.key("inclusionByInducingCore").beginArray();
        for (std::uint64_t v : res.inclusionByInducer)
            w.value(v);
        w.endArray();
        w.endObject();
    }

    // Where the cycles went: zeros unless a LatencyProfiler was
    // attached, but always present so v2 consumers need no probing.
    w.key("latency_breakdown");
    latencyBreakdownToJson(w, res.latency);

    // The full StatDump: every counter the console dump prints, flat.
    w.key("stats").beginObject();
    for (const auto &[name, value] : res.system.entries())
        w.field(name, value);
    w.endObject();

    w.endObject();
    return w.str();
}

bool
writeRunReport(const std::string &path, const SystemConfig &cfg,
               const RunResult &res)
{
    return writeTextFile(path, runReportJson(cfg, res) + "\n");
}

bool
maybeWriteRunReport(const std::string &name, const SystemConfig &cfg,
                    const RunResult &res)
{
    const std::string dir = outputDirFromEnv("ZERODEV_REPORT_DIR");
    if (dir.empty())
        return false;
    std::string file;
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                        c == '-';
        file += ok ? c : '_';
    }
    if (file.empty())
        file = "run";
    return writeRunReport(dir + "/" + file + ".json", cfg, res);
}

const std::vector<std::string> &
requiredReportKeys()
{
    static const std::vector<std::string> keys = {
        "schema", "config", "result", "profile", "stats",
    };
    return keys;
}

bool
validateRunReport(const JsonValue &doc, std::string *err)
{
    const auto fail = [err](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };
    if (!doc.isObject())
        return fail("report is not a JSON object");
    for (const std::string &k : requiredReportKeys()) {
        if (!doc.has(k))
            return fail("missing top-level key: " + k);
    }
    const std::string schema = doc.str("schema");
    const bool v2 = schema == "zerodev-run-report-v2";
    if (!v2 && schema != "zerodev-run-report-v1")
        return fail("unexpected schema: " + schema);

    const JsonValue *config = doc.find("config");
    if (!config->isObject() || config->str("fingerprint").empty())
        return fail("config missing fingerprint");

    const JsonValue *result = doc.find("result");
    if (!result->isObject())
        return fail("result is not an object");
    for (const char *k : {"cycles", "instructions", "coreCacheMisses",
                          "trafficBytes", "devInvalidations"}) {
        const JsonValue *v = result->find(k);
        if (!v || !v->isNumber())
            return fail(std::string("result.") + k + " missing");
    }
    const JsonValue *cores = result->find("cores");
    if (!cores || !cores->isArray())
        return fail("result.cores missing");

    const JsonValue *profile = doc.find("profile");
    if (!profile->isObject() || !profile->find("wallSeconds"))
        return fail("profile.wallSeconds missing");

    if (!doc.find("stats")->isObject())
        return fail("stats is not an object");

    // Leakage section (reports written since the provenance layer):
    // the attributed per-core DEVs must conserve the total DEV counter.
    // Optional, so pre-provenance v2 reports (checked-in baselines)
    // still validate.
    if (const JsonValue *leak = doc.find("leakage")) {
        if (!leak->isObject())
            return fail("leakage is not an object");
        const JsonValue *by = leak->find("devByInducingCore");
        if (!by || !by->isArray())
            return fail("leakage.devByInducingCore missing");
        double sum = 0.0;
        for (const JsonValue &v : by->array)
            sum += v.number;
        if (sum != leak->num("devInvalidations"))
            return fail("leakage.devByInducingCore does not sum to "
                        "devInvalidations (provenance conservation)");
    }

    if (v2) {
        const JsonValue *lat = doc.find("latency_breakdown");
        if (!lat || !lat->isObject())
            return fail("latency_breakdown missing (v2)");
        const JsonValue *comps = lat->find("components");
        if (!comps || !comps->isObject())
            return fail("latency_breakdown.components missing");
        if (lat->num("transactions") > 0.0) {
            // Attribution is exact by construction; allow 1% slack for
            // the double round-trip through JSON.
            double sum = 0.0;
            for (const auto &[name, comp] : comps->object) {
                (void)name;
                sum += comp.num("cycles");
            }
            const double total = lat->num("totalCycles");
            if (std::fabs(sum - total) > 0.01 * total)
                return fail("latency_breakdown components do not sum to "
                            "totalCycles");
        }
    }
    return true;
}

} // namespace zerodev::obs
