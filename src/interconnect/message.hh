/**
 * @file
 * Coherence message catalogue with per-type wire sizes, and the traffic
 * accounting used to reproduce the paper's interconnect-traffic results
 * (total bytes communicated, Figures 2 and 3).
 *
 * Control messages carry an 8-byte header (command, address, ids);
 * data-bearing messages add the 64-byte block. The ZeroDEV-specific
 * messages that carry reconstruction bits or directory entries account for
 * their extra payload explicitly (Sections III-C2, III-C3, III-D).
 */

#ifndef ZERODEV_INTERCONNECT_MESSAGE_HH
#define ZERODEV_INTERCONNECT_MESSAGE_HH

#include <array>
#include <cstdint>

#include "common/stats.hh"
#include "common/types.hh"

namespace zerodev
{

/** Every message class exchanged in the system. */
enum class MsgType : std::uint8_t
{
    // Core requests to the home LLC bank / directory slice.
    GetS,          //!< read request
    GetX,          //!< read-exclusive request
    Upgrade,       //!< S -> M permission request (no data needed)

    // Responses.
    DataResp,      //!< data block response (home or owner to requester)
    DataRespCorrupted, //!< corrupted-memory-block response (carries a DE)
    AckResp,       //!< dataless response (upgrade grant, inv-ack count)

    // Forwards and invalidations.
    FwdGetS,       //!< forwarded read to the owner/sharer core or socket
    FwdGetX,       //!< forwarded read-exclusive (invalidate at the target)
    Inv,           //!< invalidation to a sharer
    InvAck,        //!< invalidation acknowledgment
    BusyClear,     //!< owner -> home, clears the pending directory state
    BusyClearBits, //!< BusyClear carrying block-reconstruction bits (FPSS)

    // Evictions from the private hierarchy.
    PutS,          //!< clean eviction notice of a shared block
    PutE,          //!< clean eviction notice of an exclusively owned block
    PutEBits,      //!< PutE carrying 3+log2(N) reconstruction bits (FPSS)
    PutM,          //!< dirty writeback (carries data)
    EvictAck,      //!< home acks an eviction (releases eviction buffer)
    EvictAckFetchBits, //!< FuseAll: ack that retrieves 4+N low bits

    // ZeroDEV directory-entry movement (Section III-D).
    WbDe,          //!< directory entry writeback from LLC to home memory
    GetDe,         //!< directory entry read request (core-eviction flow)
    DeResp,        //!< corrupted block returned for a GetDe
    PutDe,         //!< updated directory entry returned to home memory
    DenfNack,      //!< "directory entry not found" NACK from socket F
    FwdWithDe,     //!< re-forwarded request carrying the directory entry

    // DRAM interface (counted as traffic only between socket and memory).
    MemRead,
    MemReadResp,
    MemWrite,

    NumTypes,
};

const char *toString(MsgType t);

/** Wire size of one message of type @p t in bytes. @p cores sizes the
 *  sharer-vector payloads carried by the directory-entry messages. */
std::uint32_t msgBytes(MsgType t, std::uint32_t cores);

/** Accumulates message counts and byte totals, optionally hop-weighted. */
class TrafficStats
{
  public:
    explicit TrafficStats(std::uint32_t cores);

    /** Record one message of type @p t. Bytes are derived from the
     *  counts and the constructor-computed per-type byte table, so the
     *  hot path is one array add. */
    void record(MsgType t) { counts_[static_cast<std::size_t>(t)] += 1; }

    /** Total bytes communicated (summed over the per-type table). */
    std::uint64_t
    totalBytes() const
    {
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < kN; ++i)
            n += counts_[i] * byteTable_[i];
        return n;
    }

    /** Total message count (summed over the per-type table). */
    std::uint64_t
    totalMessages() const
    {
        std::uint64_t n = 0;
        for (const std::uint64_t c : counts_)
            n += c;
        return n;
    }

    /** Bytes for one message type. */
    std::uint64_t bytesOf(MsgType t) const
    {
        const auto i = static_cast<std::size_t>(t);
        return counts_[i] * byteTable_[i];
    }

    /** Message count for one type. */
    std::uint64_t countOf(MsgType t) const
    {
        return counts_[static_cast<std::size_t>(t)];
    }

    /** Reset all accumulators. */
    void clear();

    /** Per-type dump. */
    StatDump report() const;

    /** Snapshot the per-type counters and byte totals. */
    void save(SerialOut &out) const;
    void restore(SerialIn &in);

  private:
    static constexpr std::size_t kN =
        static_cast<std::size_t>(MsgType::NumTypes);

    std::uint32_t cores_;
    std::array<std::uint32_t, kN> byteTable_{}; //!< msgBytes per type
    std::array<std::uint64_t, kN> counts_{};
};

} // namespace zerodev

#endif // ZERODEV_INTERCONNECT_MESSAGE_HH
