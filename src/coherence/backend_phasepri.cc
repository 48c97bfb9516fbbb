/**
 * @file
 * Phase-priority backend: the MESI directory flows behind per-bank
 * phase-priority queues, over a bounded directory whose victim selection
 * follows request-phase priority.
 *
 * Requests are split into three phases — stores/upgrades (phase 0),
 * loads (phase 1), ifetches (phase 2) — and each LLC bank serves them in
 * priority order: a request may not start before every same-or-higher-
 * priority request previously admitted to its bank has completed, but it
 * overtakes queued lower-priority work. The functional protocol is the
 * unmodified MESI machinery (delegation, shifted by the admission
 * delay), so the value oracle holds by construction; only timing and the
 * directory victim choice differ.
 *
 * The directory is a PhasePriorityOrg: bounded and replacement-managed,
 * with victims chosen among the entries last touched by the lowest-
 * priority phase. Forced invalidations flow through the ordinary DEV
 * path, so — unlike DLS and ZeroDEV — this rival leaks through the
 * directory eviction channel, and the side-channel lab measures it.
 */

#include "coherence/backend.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/latency.hh"

namespace zerodev
{

PhasePriorityBackend::PhasePriorityBackend(CmpSystem &sys)
    : ProtocolBackend(sys)
{
    const SystemConfig &cfg = sys.config();
    lastDone_.resize(static_cast<std::size_t>(cfg.sockets) * cfg.llcBanks);
    for (auto &bank : lastDone_)
        bank.fill(0);
    for (auto &s : sys.sockets_)
        orgs_.push_back(static_cast<PhasePriorityOrg *>(s->dirOrg.get()));
}

std::uint8_t
PhasePriorityBackend::phaseOf(AccessType type)
{
    switch (type) {
      case AccessType::Store: return 0;
      case AccessType::Load: return 1;
      case AccessType::Ifetch: return 2;
    }
    return 2;
}

Cycle
PhasePriorityBackend::admit(std::uint32_t bank, std::uint8_t phase,
                            Cycle t)
{
    Cycle start = t;
    for (std::uint8_t q = 0; q <= phase; ++q)
        start = std::max(start, lastDone_[bank][q]);
    if (start > t) {
        ++queuedRequests_;
        queueDelayCycles_ += start - t;
    }
    return start;
}

void
PhasePriorityBackend::complete(std::uint32_t bank, std::uint8_t phase,
                               Cycle done)
{
    lastDone_[bank][phase] = std::max(lastDone_[bank][phase], done);
}

void
PhasePriorityBackend::notePhase(std::uint8_t phase)
{
    for (PhasePriorityOrg *org : orgs_)
        org->notePhase(phase);
}

void
PhasePriorityBackend::miss(SocketId sid, CoreId c, AccessType type,
                           BlockAddr block, obs::LatencyChain &ch)
{
    CmpSystem::Socket &s = *sys_.sockets_[sid];
    const std::uint8_t phase = phaseOf(type);
    notePhase(phase);
    const std::uint32_t bank =
        sid * sys_.cfg_.llcBanks + s.llc.bankOfBlock(block);
    ch.join(obs::LatComp::QueueWait, admit(bank, phase, ch.now()));
    sys_.handleMiss(s, c, type, block, ch);
    complete(bank, phase, ch.now());
}

void
PhasePriorityBackend::upgrade(SocketId sid, CoreId c, BlockAddr block,
                              obs::LatencyChain &ch)
{
    CmpSystem::Socket &s = *sys_.sockets_[sid];
    notePhase(0); // upgrades are stores
    const std::uint32_t bank =
        sid * sys_.cfg_.llcBanks + s.llc.bankOfBlock(block);
    ch.join(obs::LatComp::QueueWait, admit(bank, 0, ch.now()));
    sys_.handleUpgrade(s, c, block, ch);
    complete(bank, 0, ch.now());
}

void
PhasePriorityBackend::privateEviction(SocketId sid, CoreId c,
                                      const PrivateEviction &ev, Cycle now)
{
    // Evictions are background traffic: they bypass the request queues
    // (their directory updates still run under the current phase stamp).
    sys_.handlePrivateEviction(*sys_.sockets_[sid], c, ev, now);
}

void
PhasePriorityBackend::save(SerialOut &out) const
{
    out.u64(lastDone_.size());
    for (const auto &bank : lastDone_) {
        for (Cycle t : bank)
            out.u64(t);
    }
    out.u64(queuedRequests_);
    out.u64(queueDelayCycles_);
}

void
PhasePriorityBackend::restore(SerialIn &in)
{
    const std::uint64_t n = in.u64();
    if (n != lastDone_.size())
        panic("phase-priority backend: queue geometry mismatch on restore");
    for (auto &bank : lastDone_) {
        for (Cycle &t : bank)
            t = in.u64();
    }
    queuedRequests_ = in.u64();
    queueDelayCycles_ = in.u64();
}

void
PhasePriorityBackend::reportStats(StatDump &d) const
{
    d.add("backend.queued_requests",
          static_cast<double>(queuedRequests_));
    d.add("backend.queue_delay_cycles",
          static_cast<double>(queueDelayCycles_));
}

} // namespace zerodev
