/**
 * @file
 * Critical-path latency: composition and attribution in one value.
 *
 * The protocol engine composes every transaction's completion time from a
 * handful of architectural delays — private lookups, mesh traversals,
 * directory/LLC array accesses, DRAM, entry-in-memory round-trips,
 * invalidation stalls, bank admission queues. A LatencyChain carries the
 * transaction's running time, and the flows advance it only through
 * add() (a serial delay) and join() (a parallel path that ends at an
 * absolute time, i.e. a max()). Both charge the cycles they add to a
 * component in the same step, so the components of every transaction —
 * and therefore of the whole run — sum exactly to its latency: there is
 * no residual to guess at and no overlap to clip.
 *
 * A LatencyProfiler observes finished chains:
 *
 *  - per-component cycle totals and per-transaction Histograms
 *    (p50/p95/p99 of the cycles one transaction spent in a component);
 *  - per-service-class component totals (where do Memory-class cycles
 *    go vs ThreeHop-class cycles).
 *
 * Off-critical-path work (posted WB_DE writebacks, background GET_DE
 * flows) is recorded separately via addOffPath() and reported as a
 * "background" section — it costs the requester nothing in this model
 * and must not pollute the per-transaction attribution.
 *
 * Cost model: the chain is always composed (it *is* the latency
 * arithmetic); recording it is a null test on the attached profiler
 * (CmpSystem::attachLatencyProfiler, or RunConfig::latency through the
 * runner), in every build.
 */

#ifndef ZERODEV_OBS_LATENCY_HH
#define ZERODEV_OBS_LATENCY_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace zerodev
{

/** Service class of an access; defined with the protocol engine
 *  (core/cmp_system.hh). The chain only carries it. */
enum class AccessClass : std::uint8_t;

namespace obs
{

/** Critical-path component a latency charge is attributed to. */
enum class LatComp : std::uint8_t
{
    CoreLookup,  //!< private L1/L2 array lookups (requester or supplier)
    DirLookup,   //!< directory / LLC tag / socket-directory lookups
    Mesh,        //!< on-chip mesh traversals
    LlcData,     //!< LLC data-array accesses serving the request
    FuseSpill,   //!< extra data-array reads for spilled/fused entries
    Dram,        //!< DRAM data fills on the critical path
    DeMemory,    //!< entry-in-memory round-trips (WB_DE/GET_DE/corrupted)
    InvStall,    //!< stall waiting on sharer/owner invalidations
    InterSocket, //!< inter-socket link crossings
    QueueWait,   //!< waiting for admission to a bank's request queue
    NumComps,
};

const char *toString(LatComp c);

inline constexpr std::size_t kNumLatComps =
    static_cast<std::size_t>(LatComp::NumComps);

/**
 * One transaction's running time plus the cycles each component added
 * to it. Every cycle between start() and now() went through add() or
 * join(), so the component cycles sum to latency().
 */
class LatencyChain
{
  public:
    explicit LatencyChain(Cycle start) : start_(start), now_(start) {}

    Cycle start() const { return start_; }
    /** How far the critical path has got. */
    Cycle now() const { return now_; }
    Cycle latency() const { return now_ - start_; }

    /** Extend the critical path by @p cycles spent in @p comp. */
    void
    add(LatComp comp, Cycle cycles)
    {
        now_ += cycles;
        cycles_[static_cast<std::size_t>(comp)] += cycles;
    }

    /** Wait for a parallel path that ends at absolute time @p t: the
     *  max() of the two, with any overshoot charged to @p comp. */
    void
    join(LatComp comp, Cycle t)
    {
        if (t > now_)
            add(comp, t - now_);
    }

    /** Cycles charged to each component, indexed by LatComp. */
    const std::array<Cycle, kNumLatComps> &components() const
    {
        return cycles_;
    }

    /** Service class, set by the flow that serves the access. */
    AccessClass cls{};

  private:
    Cycle start_;
    Cycle now_;
    std::array<Cycle, kNumLatComps> cycles_{};
};

/** Immutable snapshot of a profiler's accumulated attribution. */
struct LatencyBreakdown
{
    static constexpr std::size_t kNumComps = kNumLatComps;
    /** Service classes are tracked by index so this header does not
     *  depend on core/; sized for AccessClass::NumClasses with slack. */
    static constexpr std::size_t kMaxClasses = 8;

    struct Component
    {
        std::uint64_t cycles = 0;  //!< total attributed cycles
        std::uint64_t samples = 0; //!< transactions the component touched
        double mean = 0.0;         //!< cycles per touching transaction
        std::uint64_t p50 = 0;
        std::uint64_t p95 = 0;
        std::uint64_t p99 = 0;
    };

    struct ClassRow
    {
        std::uint64_t count = 0;  //!< transactions of this class
        std::uint64_t cycles = 0; //!< their total latency
        std::array<std::uint64_t, kNumComps> compCycles{};
    };

    std::uint64_t transactions = 0; //!< completed transactions observed
    std::uint64_t totalCycles = 0;  //!< sum of their latencies
    std::array<Component, kNumComps> components{};
    std::array<ClassRow, kMaxClasses> classes{};
    /** Off-critical-path cycles (posted writebacks, background entry
     *  flows) per component; not part of totalCycles. */
    std::array<std::uint64_t, kNumComps> background{};
};

/** Accumulates the finished chains of a run. */
class LatencyProfiler
{
  public:
    LatencyProfiler();

    /** Record off-critical-path work (not tied to a transaction). */
    void
    addOffPath(LatComp comp, Cycle cycles)
    {
        background_[static_cast<std::size_t>(comp)] += cycles;
    }

    /** Fold a finished transaction into the per-component histograms
     *  and the per-class row @p cls (an AccessClass index; rows >=
     *  kMaxClasses are dropped). */
    void record(std::uint32_t cls, const LatencyChain &ch);

    std::uint64_t transactions() const { return transactions_; }

    /** Aggregate view (percentiles computed here). */
    LatencyBreakdown snapshot() const;

  private:
    static constexpr std::size_t kNumComps = kNumLatComps;
    static constexpr std::size_t kMaxClasses =
        LatencyBreakdown::kMaxClasses;

    std::array<std::uint64_t, kNumComps> totals_{}; //!< attributed cycles
    std::array<std::uint64_t, kNumComps> background_{};
    std::vector<Histogram> hist_; //!< per-component, per-txn cycles
    std::array<LatencyBreakdown::ClassRow, kMaxClasses> classes_{};
    std::uint64_t transactions_ = 0;
    std::uint64_t totalCycles_ = 0;
};

} // namespace obs
} // namespace zerodev

#endif // ZERODEV_OBS_LATENCY_HH
