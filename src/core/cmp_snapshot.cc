/**
 * @file
 * CmpSystem state serialization: the "System" payload of a
 * zerodev-snapshot-v3 container (sim/snapshot.hh). The stream is guarded
 * by the config fingerprint — geometry is never serialized redundantly;
 * a restore target must be constructed from the identical SystemConfig,
 * and every component then checks its own derived geometry as a backstop.
 */

#include <cstddef>

#include "coherence/backend.hh"
#include "common/serialize.hh"
#include "core/cmp_system.hh"
#include "obs/report.hh"

namespace zerodev
{

namespace
{

constexpr std::size_t kNumClasses =
    static_cast<std::size_t>(AccessClass::NumClasses);

void
saveProtoStats(SerialOut &out, const ProtocolStats &p)
{
    // Eviction-provenance attribution vectors (sized by core count,
    // which the config fingerprint already pins).
    out.u64(p.devByInducer.size());
    for (std::uint64_t v : p.devByInducer)
        out.u64(v);
    for (std::uint64_t v : p.inclusionByInducer)
        out.u64(v);
    out.u64(p.accesses);
    out.u64(p.l2Misses);
    out.u64(p.devInvalidations);
    out.u64(p.devOwnedInvalidations);
    out.u64(p.inclusionInvalidations);
    out.u64(p.threeHopReads);
    out.u64(p.twoHopReads);
    out.u64(p.llcDeEvictWbs);
    out.u64(p.getDeFlows);
    out.u64(p.denfNacks);
    out.u64(p.corruptedReadMisses);
    out.u64(p.corruptedResponses);
    out.u64(p.socketMisses);
    out.u64(p.lastCopyRestores);
    for (std::size_t i = 0; i < kNumClasses; ++i) {
        out.u64(p.classCount[i]);
        out.u64(p.classCycles[i]);
    }
}

void
restoreProtoStats(SerialIn &in, ProtocolStats &p)
{
    if (!in.check(in.u64() == p.devByInducer.size(),
                  "provenance vector size mismatch"))
        return;
    for (std::uint64_t &v : p.devByInducer)
        v = in.u64();
    for (std::uint64_t &v : p.inclusionByInducer)
        v = in.u64();
    p.accesses = in.u64();
    p.l2Misses = in.u64();
    p.devInvalidations = in.u64();
    p.devOwnedInvalidations = in.u64();
    p.inclusionInvalidations = in.u64();
    p.threeHopReads = in.u64();
    p.twoHopReads = in.u64();
    p.llcDeEvictWbs = in.u64();
    p.getDeFlows = in.u64();
    p.denfNacks = in.u64();
    p.corruptedReadMisses = in.u64();
    p.corruptedResponses = in.u64();
    p.socketMisses = in.u64();
    p.lastCopyRestores = in.u64();
    for (std::size_t i = 0; i < kNumClasses; ++i) {
        p.classCount[i] = in.u64();
        p.classCycles[i] = in.u64();
    }
}

} // namespace

void
CmpSystem::saveState(SerialOut &out) const
{
    out.u64(obs::configFingerprint(cfg_));
    for (const auto &sock : sockets_) {
        for (const PrivateCache &core : sock->cores)
            core.save(out);
        sock->llc.save(out);
        out.b(sock->dirOrg != nullptr);
        if (sock->dirOrg)
            sock->dirOrg->save(out);
        sock->dram.save(out);
        sock->memStore.save(out);
        out.b(sock->socketDir != nullptr);
        if (sock->socketDir)
            sock->socketDir->save(out);
        sock->mesh.save(out);
        sock->traffic.save(out);
    }
    saveProtoStats(out, proto_);
    sharingDegree_.save(out);
    devSize_.save(out);
    out.u64(txn_);
    out.u32(txnCore_);
    out.u64(txnBlock_);
    // Backend extension: appended after everything else and only for
    // backends that carry state, so stateless backends (the whole
    // MESI+ZeroDEV family) leave every pre-backend stream — including
    // the checked-in golden corpus — byte-identical.
    if (backend_->hasState())
        backend_->save(out);
}

void
CmpSystem::restoreState(SerialIn &in)
{
    if (!in.check(in.u64() == obs::configFingerprint(cfg_),
                  "config fingerprint mismatch"))
        return;
    for (auto &sock : sockets_) {
        for (PrivateCache &core : sock->cores)
            core.restore(in);
        sock->llc.restore(in);
        if (!in.check(in.b() == (sock->dirOrg != nullptr),
                      "directory organisation presence mismatch"))
            return;
        if (sock->dirOrg)
            sock->dirOrg->restore(in);
        sock->dram.restore(in);
        sock->memStore.restore(in);
        if (!in.check(in.b() == (sock->socketDir != nullptr),
                      "socket directory presence mismatch"))
            return;
        if (sock->socketDir)
            sock->socketDir->restore(in);
        sock->mesh.restore(in);
        sock->traffic.restore(in);
    }
    restoreProtoStats(in, proto_);
    sharingDegree_.restore(in);
    devSize_.restore(in);
    txn_ = in.u64();
    txnCore_ = in.u32();
    txnBlock_ = in.u64();
    if (backend_->hasState())
        backend_->restore(in);
}

} // namespace zerodev
