/**
 * @file
 * Backend factory and the MESI+ZeroDEV backend: a verbatim delegation to
 * the CmpSystem request machinery, so every pre-backend configuration is
 * cycle-identical through the interface (the smoke-bench compare gate
 * pins this at +0.00%).
 */

#include "coherence/backend.hh"

#include "common/log.hh"

namespace zerodev
{

void
MesiZeroDevBackend::miss(SocketId s, CoreId c, AccessType type,
                         BlockAddr block, obs::LatencyChain &ch)
{
    sys_.handleMiss(*sys_.sockets_[s], c, type, block, ch);
}

void
MesiZeroDevBackend::upgrade(SocketId s, CoreId c, BlockAddr block,
                            obs::LatencyChain &ch)
{
    sys_.handleUpgrade(*sys_.sockets_[s], c, block, ch);
}

void
MesiZeroDevBackend::privateEviction(SocketId s, CoreId c,
                                    const PrivateEviction &ev, Cycle now)
{
    sys_.handlePrivateEviction(*sys_.sockets_[s], c, ev, now);
}

std::unique_ptr<ProtocolBackend>
makeProtocolBackend(CmpSystem &sys)
{
    switch (sys.config().protocol) {
      case ProtocolKind::MesiZeroDev:
        return std::make_unique<MesiZeroDevBackend>(sys);
      case ProtocolKind::Dls:
        return std::make_unique<DlsBackend>(sys);
      case ProtocolKind::PhasePriority:
        return std::make_unique<PhasePriorityBackend>(sys);
    }
    panic("unknown protocol backend");
}

} // namespace zerodev
