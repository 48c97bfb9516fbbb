/**
 * @file
 * Coherence protocol backends: the pluggable request-handling layer of
 * the CMP system.
 *
 * CmpSystem owns the substrate — private caches, LLC banks, directory
 * structures, mesh, DRAM, memory store — and the three request entry
 * points (core miss, upgrade, private eviction) are dispatched through a
 * ProtocolBackend chosen by SystemConfig::protocol:
 *
 *  - MesiZeroDevBackend: the original MESI directory family (every
 *    DirOrg, including the ZeroDEV LLC-caching flavours). It delegates
 *    verbatim to the CmpSystem request machinery, so the refactor is
 *    cycle-identical for every pre-backend configuration.
 *  - DlsBackend: a directoryless shared-LLC protocol. The home LLC bank
 *    is the serialization point; holders are found by probing the cores
 *    (the transaction-level model makes the broadcast atomic), so there
 *    is no directory structure at all and therefore no directory
 *    eviction victims — the rival "other way to zero directory cost".
 *  - PhasePriorityBackend: keeps the MESI directory flows but orders
 *    requests at each bank by access-phase priority (stores > loads >
 *    ifetches) through per-bank phase queues, and runs a bounded
 *    directory (PhasePriorityOrg) whose victim selection prefers entries
 *    last touched by low-priority phases.
 *
 * Backends may carry their own architectural state (the phase queues);
 * it is serialized behind hasState() as an extension of the system
 * snapshot stream, so stateless backends leave every existing snapshot
 * byte — including the checked-in golden corpus — untouched.
 */

#ifndef ZERODEV_COHERENCE_BACKEND_HH
#define ZERODEV_COHERENCE_BACKEND_HH

#include <array>
#include <memory>
#include <vector>

#include "core/cmp_system.hh"

namespace zerodev
{

class ProtocolBackend
{
  public:
    explicit ProtocolBackend(CmpSystem &sys) : sys_(sys) {}
    virtual ~ProtocolBackend() = default;

    ProtocolBackend(const ProtocolBackend &) = delete;
    ProtocolBackend &operator=(const ProtocolBackend &) = delete;

    virtual const char *name() const = 0;

    /** Serve a core cache miss, extending the access's latency chain
     *  from its running time. The chain arrives classed TwoHop; a flow
     *  that forwards, reads memory or takes a corrupted-block response
     *  reclasses it. */
    virtual void miss(SocketId s, CoreId c, AccessType type,
                      BlockAddr block, obs::LatencyChain &ch) = 0;

    /** Serve an S->M upgrade of a block the core already holds. */
    virtual void upgrade(SocketId s, CoreId c, BlockAddr block,
                         obs::LatencyChain &ch) = 0;

    /** Handle a private-cache victim produced by a core fill. */
    virtual void privateEviction(SocketId s, CoreId c,
                                 const PrivateEviction &ev, Cycle now) = 0;

    /** True when the backend carries architectural state of its own;
     *  save()/restore() then extend the system snapshot stream. */
    virtual bool hasState() const { return false; }
    virtual void save(SerialOut &out) const { (void)out; }
    virtual void restore(SerialIn &in) { (void)in; }

    /** Append backend-specific statistics to the system report. */
    virtual void reportStats(StatDump &d) const { (void)d; }

  protected:
    CmpSystem &sys_;
};

/** The original MESI + ZeroDEV family behind the backend interface. */
class MesiZeroDevBackend final : public ProtocolBackend
{
  public:
    explicit MesiZeroDevBackend(CmpSystem &sys) : ProtocolBackend(sys) {}

    const char *name() const override { return "mesi-zerodev"; }
    void miss(SocketId s, CoreId c, AccessType type, BlockAddr block,
              obs::LatencyChain &ch) override;
    void upgrade(SocketId s, CoreId c, BlockAddr block,
                 obs::LatencyChain &ch) override;
    void privateEviction(SocketId s, CoreId c, const PrivateEviction &ev,
                         Cycle now) override;
};

/** Directoryless shared-LLC protocol (DLS): no directory structure. */
class DlsBackend final : public ProtocolBackend
{
  public:
    explicit DlsBackend(CmpSystem &sys) : ProtocolBackend(sys) {}

    const char *name() const override { return "DLS"; }
    void miss(SocketId s, CoreId c, AccessType type, BlockAddr block,
              obs::LatencyChain &ch) override;
    void upgrade(SocketId s, CoreId c, BlockAddr block,
                 obs::LatencyChain &ch) override;
    void privateEviction(SocketId s, CoreId c, const PrivateEviction &ev,
                         Cycle now) override;

    bool hasState() const override { return true; }
    void save(SerialOut &out) const override;
    void restore(SerialIn &in) override;
    void reportStats(StatDump &d) const override;

  private:
    /** Find another core holding @p block; prefers the M/E owner.
     *  Returns kInvalidCore when no other core caches it. */
    CoreId findHolder(CmpSystem::Socket &s, CoreId except, BlockAddr block,
                      bool *owned) const;

    /** Invalidate every other holder of @p block (exclusivity for a
     *  store/upgrade); returns when the last InvAck arrives at @p c. */
    Cycle invalidateOthers(CmpSystem::Socket &s, CoreId c, BlockAddr block,
                           Cycle base);

    std::uint64_t broadcastProbes_ = 0; //!< core scans on the miss path
    std::uint64_t snoopSupplies_ = 0;   //!< misses served core-to-core
};

/** MESI flows behind per-bank phase-priority queues and a directory
 *  whose victims are chosen by request-phase priority. */
class PhasePriorityBackend final : public ProtocolBackend
{
  public:
    /** Request phases, highest priority first. */
    static constexpr std::size_t kNumPhases = 3;

    explicit PhasePriorityBackend(CmpSystem &sys);

    const char *name() const override { return "phase-priority"; }
    void miss(SocketId s, CoreId c, AccessType type, BlockAddr block,
              obs::LatencyChain &ch) override;
    void upgrade(SocketId s, CoreId c, BlockAddr block,
                 obs::LatencyChain &ch) override;
    void privateEviction(SocketId s, CoreId c, const PrivateEviction &ev,
                         Cycle now) override;

    bool hasState() const override { return true; }
    void save(SerialOut &out) const override;
    void restore(SerialIn &in) override;
    void reportStats(StatDump &d) const override;

    /** Phase of an access: 0 = store/upgrade, 1 = load, 2 = ifetch. */
    static std::uint8_t phaseOf(AccessType type);

  private:
    /**
     * Admit a request of @p phase to @p bank's queue at @p t: it may not
     * start before every same-or-higher-priority request previously
     * admitted to the bank has completed (lower-priority requests are
     * overtaken). Returns the start time.
     */
    Cycle admit(std::uint32_t bank, std::uint8_t phase, Cycle t);

    /** Record the completion of the admitted request. */
    void complete(std::uint32_t bank, std::uint8_t phase, Cycle done);

    /** Stamp the request phase on every socket's directory. */
    void notePhase(std::uint8_t phase);

    /** The priority-victim directories, one per socket (cached from the
     *  sockets' DirOrg slots at construction). */
    std::vector<PhasePriorityOrg *> orgs_;

    /** Per-bank completion time of the last request of each phase. */
    std::vector<std::array<Cycle, kNumPhases>> lastDone_;
    std::uint64_t queuedRequests_ = 0;   //!< requests that were delayed
    std::uint64_t queueDelayCycles_ = 0; //!< total admission delay
};

/** Build the backend selected by @p sys's config. */
std::unique_ptr<ProtocolBackend> makeProtocolBackend(CmpSystem &sys);

} // namespace zerodev

#endif // ZERODEV_COHERENCE_BACKEND_HH
