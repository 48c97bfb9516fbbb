/**
 * @file
 * Structured coherence-transaction tracer.
 *
 * The protocol engine records one TraceEvent per interesting step of a
 * transaction's life — request issue, directory lookup (with the entry's
 * location), entry spills/fusions, WB_DE / GET_DE entry migrations, DEV
 * invalidations, forwards, memory fills, and completion (with service
 * class and latency). Events of one transaction share a txn id, so a
 * trace can be re-grouped into per-transaction timelines.
 *
 * Storage is a fixed-capacity ring buffer: tracing a long run keeps the
 * newest events and counts the overwritten ones. Output formats:
 *  - Chrome trace_event JSON (load in chrome://tracing or Perfetto);
 *  - compact JSONL, one event object per line (grep/jq-friendly, parsed
 *    back by obs::parseJson and the trace_tool inspector).
 *
 * Cost model: hooks sit behind the ZDEV_TRACE macro, a never-taken
 * null-pointer test until a Tracer is attached to the system (runtime
 * enable), plus per-component filtering inside record().
 */

#ifndef ZERODEV_OBS_TRACE_HH
#define ZERODEV_OBS_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace zerodev::obs
{

/** Component a trace event originates from (filterable). */
enum class TraceComp : std::uint8_t
{
    Core,      //!< private hierarchy (requests, completions)
    Directory, //!< directory organisation
    Llc,       //!< shared LLC (spill/fuse/victims)
    Mesh,      //!< interconnect (forwards)
    Memory,    //!< DRAM and entry-in-memory flows
    Protocol,  //!< cross-component protocol decisions
    NumComps,
};

const char *toString(TraceComp c);

/** What happened. */
enum class TraceEventKind : std::uint8_t
{
    Request,    //!< core issued a request (arg = AccessType)
    Complete,   //!< transaction finished (arg = AccessClass, dur = latency)
    DirLookup,  //!< tracking lookup (arg = TrackWhere found)
    Spill,      //!< entry spilled into an LLC line
    Fuse,       //!< entry fused into its data block's LLC line
    Unfuse,     //!< fused line reconstructed into a plain data block
    WbDe,       //!< live entry written back to home memory (Figure 14)
    GetDe,      //!< entry retrieved from memory on a core eviction (Fig. 16)
    DeExtract,  //!< entry segment extracted from a corrupted memory block
    Dev,        //!< forced directory eviction victim (arg = copies killed)
    Forward,    //!< 3-hop forward to an owner/sharer (arg = target core)
    MemRead,    //!< DRAM read on the critical path
    SocketMiss, //!< request left the socket
    LlcVictim,  //!< LLC displaced a line (arg = LlcLineKind)
    NumKinds,
};

const char *toString(TraceEventKind k);

/** Provenance sentinel: the event has no inducing agent. */
constexpr std::uint16_t kTraceNoProv = 0xffff;

/** One recorded event. 56 bytes; the ring buffer is allocated up front. */
struct TraceEvent
{
    std::uint64_t seq = 0;   //!< global record order (monotonic)
    std::uint64_t txn = 0;   //!< enclosing transaction id (0 = none)
    Cycle cycle = 0;         //!< simulated start time
    Cycle dur = 0;           //!< duration in cycles (0 = instant)
    BlockAddr block = 0;     //!< block the event concerns
    std::uint32_t arg = 0;   //!< kind-specific payload
    TraceEventKind kind = TraceEventKind::Request;
    TraceComp comp = TraceComp::Protocol;
    std::uint8_t socket = 0;
    std::uint8_t core = 0;
    /** Inducing agent (global core of the transaction that forced the
     *  eviction) for Dev / LlcVictim events; kTraceNoProv otherwise.
     *  Added by the v2 JSONL writer — emitted as an optional "prov"
     *  member, so v1 traces (no member) still parse. */
    std::uint16_t prov = kTraceNoProv;
};

class Tracer
{
  public:
    /** @param capacity ring size in events (newest retained). */
    explicit Tracer(std::size_t capacity = 1 << 16);

    /** Runtime master switch (a disabled tracer records nothing). */
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Per-component runtime filter (all components start enabled). */
    void setComponentEnabled(TraceComp c, bool on);
    bool componentEnabled(TraceComp c) const;

    /** Record one event (fast path; returns immediately when disabled
     *  or filtered out). */
    void
    record(TraceEventKind kind, TraceComp comp, std::uint32_t socket,
           std::uint32_t core, BlockAddr block, Cycle cycle,
           Cycle dur = 0, std::uint32_t arg = 0, std::uint64_t txn = 0,
           std::uint32_t prov = kTraceNoProv)
    {
        if (!enabled_ || !(compMask_ & (1u << static_cast<unsigned>(comp))))
            return;
        TraceEvent &e = buf_[accepted_ % buf_.size()];
        e.seq = accepted_;
        e.txn = txn;
        e.cycle = cycle;
        e.dur = dur;
        e.block = block;
        e.arg = arg;
        e.kind = kind;
        e.comp = comp;
        e.socket = static_cast<std::uint8_t>(socket);
        e.core = static_cast<std::uint8_t>(core);
        e.prov = static_cast<std::uint16_t>(prov);
        ++accepted_;
    }

    /** Events accepted since construction/clear(). */
    std::uint64_t recorded() const { return accepted_; }

    /** Events lost to ring wraparound. */
    std::uint64_t
    dropped() const
    {
        return accepted_ > buf_.size() ? accepted_ - buf_.size() : 0;
    }

    /** Events currently retained. */
    std::size_t
    size() const
    {
        return accepted_ < buf_.size()
                   ? static_cast<std::size_t>(accepted_)
                   : buf_.size();
    }

    std::size_t capacity() const { return buf_.size(); }

    void clear() { accepted_ = 0; }

    /** Retained events, oldest first. */
    std::vector<TraceEvent> events() const;

    /** One compact JSON object per line (oldest first). */
    std::string toJsonl() const;

    /** Chrome trace_event document ("X" complete events; pid = socket,
     *  tid = core, ts/dur in simulated cycles). */
    std::string toChromeJson() const;

    bool writeJsonl(const std::string &path) const;
    bool writeChromeJson(const std::string &path) const;

  private:
    std::vector<TraceEvent> buf_;
    std::uint64_t accepted_ = 0;
    std::uint32_t compMask_;
    bool enabled_ = false;
};

} // namespace zerodev::obs

// Hot-path hook: a null test on the attached tracer.
#define ZDEV_TRACE(trc, ...)                                                \
    do {                                                                    \
        if (trc)                                                            \
            (trc)->record(__VA_ARGS__);                                     \
    } while (0)

#endif // ZERODEV_OBS_TRACE_HH
