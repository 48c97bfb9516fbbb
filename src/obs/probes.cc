#include "obs/probes.hh"

#include "core/cmp_system.hh"
#include "obs/sampler.hh"

namespace zerodev::obs
{

namespace
{

/** Sum fn(socket) over all sockets. */
template <typename Fn>
double
overSockets(const CmpSystem &sys, Fn &&fn)
{
    double total = 0.0;
    for (SocketId s = 0; s < sys.config().sockets; ++s)
        total += fn(s);
    return total;
}

double
liveDirEntries(const CmpSystem &sys)
{
    return overSockets(sys, [&](SocketId s) {
        if (sys.dirOrg(s))
            return static_cast<double>(sys.dirOrg(s)->liveEntries());
        return 0.0;
    });
}

double
dirCapacity(const CmpSystem &sys)
{
    return overSockets(sys, [&](SocketId s) {
        if (sys.dirOrg(s))
            return static_cast<double>(sys.dirOrg(s)->capacityEntries());
        return 0.0;
    });
}

} // namespace

void
registerSystemProbes(IntervalSampler &sampler, const CmpSystem &sys)
{
    using PK = IntervalSampler::ProbeKind;
    const CmpSystem *p = &sys;

    sampler.addProbe("dir_live_entries", PK::Level,
                     [p] { return liveDirEntries(*p); });
    sampler.addProbe("dir_occupancy", PK::Level, [p] {
        const double cap = dirCapacity(*p);
        return cap > 0.0 ? liveDirEntries(*p) / cap : 0.0;
    });
    sampler.addProbe("llc_de_lines", PK::Level, [p] {
        return overSockets(*p, [&](SocketId s) {
            return static_cast<double>(p->llc(s).deLines());
        });
    });
    sampler.addProbe("llc_spilled_lines", PK::Level, [p] {
        return overSockets(*p, [&](SocketId s) {
            return static_cast<double>(p->llc(s).spilledLines());
        });
    });
    sampler.addProbe("llc_fused_lines", PK::Level, [p] {
        return overSockets(*p, [&](SocketId s) {
            return static_cast<double>(p->llc(s).fusedLines());
        });
    });
    sampler.addProbe("mem_corrupted_blocks", PK::Level, [p] {
        return overSockets(*p, [&](SocketId s) {
            return static_cast<double>(p->memStore(s).corruptedBlocks());
        });
    });

    sampler.addProbe("accesses", PK::Rate, [p] {
        return static_cast<double>(p->protoStats().accesses);
    });
    sampler.addProbe("l2_misses", PK::Rate, [p] {
        return static_cast<double>(p->protoStats().l2Misses);
    });
    sampler.addProbe("dev_invalidations", PK::Rate, [p] {
        return static_cast<double>(p->protoStats().devInvalidations);
    });
    sampler.addProbe("llc_de_evictions", PK::Rate, [p] {
        return overSockets(*p, [&](SocketId s) {
            return static_cast<double>(p->llc(s).stats().deEvictions);
        });
    });
    sampler.addProbe("traffic_bytes", PK::Rate, [p] {
        return static_cast<double>(p->totalTrafficBytes());
    });
    sampler.addProbe("mesh_hops", PK::Rate, [p] {
        return overSockets(*p, [&](SocketId s) {
            return static_cast<double>(p->mesh(s).stats().hops);
        });
    });
}

} // namespace zerodev::obs
