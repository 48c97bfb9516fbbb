#include "probes.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace hostbench
{

using namespace zerodev;

const std::array<const char *, NumCounts> kCountNames = {
    "llc.data_array_reads",
    "llc.spill_allocs",
    "llc.fuse_ops",
    "llc.de_evictions",
    "dram.reads",
    "dram.de_reads",
    "dram.de_writes",
    "mesh.traversals",
    "dir.forced_invs",
    "dev_invalidations",
    "inclusion_invalidations",
    "wb_de",
    "get_de",
    "denf_nacks",
    "corrupted_responses",
};

namespace
{

/** CmpSystem::report() name of each count, with the "s<N>." socket
 *  prefix stripped. */
const std::array<const char *, NumCounts> kCountReportNames = {
    "llc.data_array_reads",
    "llc.spill_allocs",
    "llc.fuse_ops",
    "llc.de_evictions",
    "dram.reads",
    "dram.de_reads",
    "dram.de_writes",
    "mesh.traversals",
    "dir.forced_invs",
    "dev_invalidations",
    "inclusion_invalidations",
    "llc_de_evict_wbs",
    "get_de_flows",
    "denf_nacks",
    "corrupted_responses",
};

} // namespace

Counts
readCounts(const CmpSystem &sys)
{
    Counts c{};
    for (SocketId s = 0; s < sys.config().sockets; ++s) {
        const LlcStats &l = sys.llc(s).stats();
        c[LlcDataArrayReads] += l.dataArrayReads;
        c[LlcSpillAllocs] += l.spillAllocs;
        c[LlcFuseOps] += l.fuseOps;
        c[LlcDeEvictions] += l.deEvictions;
        const DramStats &d = sys.dram(s).stats();
        c[DramReads] += d.reads;
        c[DramDeReads] += d.deReads;
        c[DramDeWrites] += d.deWrites;
        c[MeshTraversals] += sys.mesh(s).stats().traversals;
        if (const DirOrgBase *org = sys.dirOrg(s))
            c[DirForcedInvs] += org->orgStats().forcedInvalidations;
    }
    const ProtocolStats &p = sys.protoStats();
    c[DevInvalidations] = p.devInvalidations;
    c[InclusionInvalidations] = p.inclusionInvalidations;
    c[WbDe] = p.llcDeEvictWbs;
    c[GetDe] = p.getDeFlows;
    c[DenfNacks] = p.denfNacks;
    c[CorruptedResponses] = p.corruptedResponses;
    return c;
}

Counts
countsFromReport(const StatDump &report)
{
    Counts c{};
    for (const auto &[name, value] : report.entries()) {
        std::string_view n = name;
        // Fold per-socket series: "s<digits>.<name>".
        if (n.size() > 2 && n[0] == 's' &&
            std::isdigit(static_cast<unsigned char>(n[1]))) {
            const std::size_t dot = n.find('.');
            if (dot != std::string_view::npos)
                n.remove_prefix(dot + 1);
        }
        for (std::size_t i = 0; i < NumCounts; ++i) {
            if (n == kCountReportNames[i])
                c[i] += static_cast<std::uint64_t>(value);
        }
    }
    return c;
}

std::string
signature(const StatDump &report, Cycle cycles, std::uint64_t instructions)
{
    std::string sig;
    char buf[64];
    for (const auto &[name, value] : report.entries()) {
        std::snprintf(buf, sizeof buf, "=%.17g\n", value);
        sig += name;
        sig += buf;
    }
    std::snprintf(buf, sizeof buf, "cycles=%llu\ninstructions=%llu\n",
                  static_cast<unsigned long long>(cycles),
                  static_cast<unsigned long long>(instructions));
    return sig + buf;
}

std::uint64_t
digest(const std::string &sig)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char ch : sig) {
        h ^= ch;
        h *= 0x100000001b3ull;
    }
    return h;
}

void
CallProfile::merge(const CallProfile &o)
{
    calls += o.calls;
    totalNs += o.totalNs;
    for (std::size_t k = 0; k <= kNumClasses; ++k) {
        classCalls[k] += o.classCalls[k];
        classNs[k] += o.classNs[k];
    }
    devCalls += o.devCalls;
    devNs += o.devNs;
    hist.merge(o.hist);
}

void
addCounts(Counts &into, const Counts &c)
{
    for (std::size_t i = 0; i < NumCounts; ++i)
        into[i] += c[i];
}

Counts
sumClasses(const ClassCounts &counts)
{
    Counts t{};
    for (const Counts &c : counts)
        addCounts(t, c);
    return t;
}

namespace
{

/** Shared replay engine; @p per_call runs around every access. */
template <typename PerCall>
ReplayResult
replayWith(CmpSystem &sys, const std::vector<TraceRecord> &stream,
           Clocking clocking, PerCall &&per_call)
{
    ReplayResult res;
    std::vector<Cycle> ready(sys.totalCores(), 0);
    Cycle now = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < stream.size(); ++i) {
        const TraceRecord &rec = stream[i];
        Cycle &clock = clocking == Clocking::Global ? now : ready[rec.core];
        const Cycle issue = clock + rec.access.gap;
        clock = per_call(i, rec, issue);
        res.cycles = std::max(res.cycles, clock);
        res.instructions += rec.access.gap + 1;
    }
    res.wallSeconds = nsBetween(t0, Clock::now()) / 1e9;
    res.report = sys.report();
    return res;
}

/** The AccessClass whose classCount entry moved since @p pre, or
 *  kNumClasses when none did. */
std::size_t
completedClass(const CmpSystem &sys,
               const std::array<std::uint64_t, kNumClasses> &pre)
{
    const auto &post = sys.protoStats().classCount;
    for (std::size_t k = 0; k < kNumClasses; ++k) {
        if (post[k] != pre[k])
            return k;
    }
    return kNumClasses;
}

} // namespace

ReplayResult
plainReplay(CmpSystem &sys, const std::vector<TraceRecord> &stream,
            Clocking clocking)
{
    return replayWith(sys, stream, clocking,
                      [&](std::uint64_t, const TraceRecord &rec,
                          Cycle issue) {
                          return sys.access(rec.core, rec.access.type,
                                            rec.access.block, issue);
                      });
}

ReplayResult
timedReplay(CmpSystem &sys, const std::vector<TraceRecord> &stream,
            Clocking clocking, double timer_ns, CallProfile &prof,
            const std::function<void(std::uint64_t)> &between)
{
    return replayWith(
        sys, stream, clocking,
        [&](std::uint64_t i, const TraceRecord &rec, Cycle issue) {
            const auto classPre = sys.protoStats().classCount;
            const std::uint64_t devPre = sys.protoStats().devInvalidations;

            const Clock::time_point t0 = Clock::now();
            const Cycle done = sys.access(rec.core, rec.access.type,
                                          rec.access.block, issue);
            const Clock::time_point t1 = Clock::now();
            const double ns = std::max(0.0, nsBetween(t0, t1) - timer_ns);

            const std::size_t cls = completedClass(sys, classPre);
            ++prof.calls;
            prof.totalNs += ns;
            ++prof.classCalls[cls];
            prof.classNs[cls] += ns;
            if (sys.protoStats().devInvalidations != devPre) {
                ++prof.devCalls;
                prof.devNs += ns;
            }
            prof.hist.add(ns);
            if (between)
                between(i);
            return done;
        });
}

ReplayResult
countedReplay(CmpSystem &sys, const std::vector<TraceRecord> &stream,
              Clocking clocking, ClassCounts &counts)
{
    return replayWith(
        sys, stream, clocking,
        [&](std::uint64_t, const TraceRecord &rec, Cycle issue) {
            const Counts pre = readCounts(sys);
            const auto classPre = sys.protoStats().classCount;
            const Cycle done = sys.access(rec.core, rec.access.type,
                                          rec.access.block, issue);
            const Counts post = readCounts(sys);
            Counts &row = counts[completedClass(sys, classPre)];
            for (std::size_t c = 0; c < NumCounts; ++c)
                row[c] += post[c] - pre[c];
            return done;
        });
}

double
timerOverheadNs()
{
    std::vector<double> d(4001);
    for (double &x : d) {
        const Clock::time_point a = Clock::now();
        const Clock::time_point b = Clock::now();
        x = nsBetween(a, b);
    }
    std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
    return d[d.size() / 2];
}

} // namespace hostbench
