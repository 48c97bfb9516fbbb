#include "interconnect/message.hh"

#include "common/bitops.hh"
#include "common/serialize.hh"

namespace zerodev
{

const char *
toString(MsgType t)
{
    switch (t) {
      case MsgType::GetS: return "GetS";
      case MsgType::GetX: return "GetX";
      case MsgType::Upgrade: return "Upgrade";
      case MsgType::DataResp: return "DataResp";
      case MsgType::DataRespCorrupted: return "DataRespCorrupted";
      case MsgType::AckResp: return "AckResp";
      case MsgType::FwdGetS: return "FwdGetS";
      case MsgType::FwdGetX: return "FwdGetX";
      case MsgType::Inv: return "Inv";
      case MsgType::InvAck: return "InvAck";
      case MsgType::BusyClear: return "BusyClear";
      case MsgType::BusyClearBits: return "BusyClearBits";
      case MsgType::PutS: return "PutS";
      case MsgType::PutE: return "PutE";
      case MsgType::PutEBits: return "PutEBits";
      case MsgType::PutM: return "PutM";
      case MsgType::EvictAck: return "EvictAck";
      case MsgType::EvictAckFetchBits: return "EvictAckFetchBits";
      case MsgType::WbDe: return "WbDe";
      case MsgType::GetDe: return "GetDe";
      case MsgType::DeResp: return "DeResp";
      case MsgType::PutDe: return "PutDe";
      case MsgType::DenfNack: return "DenfNack";
      case MsgType::FwdWithDe: return "FwdWithDe";
      case MsgType::MemRead: return "MemRead";
      case MsgType::MemReadResp: return "MemReadResp";
      case MsgType::MemWrite: return "MemWrite";
      case MsgType::NumTypes: break;
    }
    return "?";
}

std::uint32_t
msgBytes(MsgType t, std::uint32_t cores)
{
    constexpr std::uint32_t kHeader = 8;   // command + address + ids
    constexpr std::uint32_t kBlock = 64;   // cache block payload

    // Size in bytes of a full directory entry payload: N sharer bits plus
    // state/owner bits, rounded up (Section III-D: N+1 bits per entry).
    const std::uint32_t de_bytes = (cores + 1 + 7) / 8;
    // Reconstruction bits carried by E-state eviction notices and
    // busy-clear messages under FPSS: 3 + ceil(log2 N) bits (Sec. III-C2).
    const std::uint32_t recon_bytes = (3 + ceilLog2(cores) + 7) / 8;
    // FuseAll retrieves the least significant 4 + N bits (Sec. III-C3).
    const std::uint32_t fuseall_bits_bytes = (4 + cores + 7) / 8;

    switch (t) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::Upgrade:
      case MsgType::AckResp:
      case MsgType::FwdGetS:
      case MsgType::FwdGetX:
      case MsgType::Inv:
      case MsgType::InvAck:
      case MsgType::BusyClear:
      case MsgType::PutS:
      case MsgType::PutE:
      case MsgType::EvictAck:
      case MsgType::GetDe:
      case MsgType::DenfNack:
      case MsgType::MemRead:
        return kHeader;
      case MsgType::BusyClearBits:
      case MsgType::PutEBits:
        return kHeader + recon_bytes;
      case MsgType::EvictAckFetchBits:
        return kHeader + fuseall_bits_bytes;
      case MsgType::PutDe:
      case MsgType::FwdWithDe:
        return kHeader + de_bytes;
      case MsgType::DataResp:
      case MsgType::DataRespCorrupted:
      case MsgType::PutM:
      case MsgType::WbDe:
      case MsgType::DeResp:
      case MsgType::MemReadResp:
      case MsgType::MemWrite:
        return kHeader + kBlock;
      case MsgType::NumTypes:
        break;
    }
    return kHeader;
}

TrafficStats::TrafficStats(std::uint32_t cores) : cores_(cores)
{
    for (std::size_t i = 0; i < kN; ++i)
        byteTable_[i] = msgBytes(static_cast<MsgType>(i), cores_);
}

void
TrafficStats::clear()
{
    counts_.fill(0);
}

StatDump
TrafficStats::report() const
{
    StatDump d;
    d.add("total_bytes", static_cast<double>(totalBytes()));
    d.add("total_messages", static_cast<double>(totalMessages()));
    for (std::size_t i = 0; i < kN; ++i) {
        if (counts_[i] == 0)
            continue;
        const auto t = static_cast<MsgType>(i);
        d.add(std::string("count.") + toString(t),
              static_cast<double>(counts_[i]));
        d.add(std::string("bytes.") + toString(t),
              static_cast<double>(bytesOf(t)));
    }
    return d;
}


void
TrafficStats::save(SerialOut &out) const
{
    out.u64(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        out.u64(counts_[i]);
        out.u64(bytesOf(static_cast<MsgType>(i)));
    }
    // Bytes and totals are derived from the counts but stay in the
    // stream so the byte format (and old snapshots) remain valid.
    out.u64(totalBytes());
    out.u64(totalMessages());
}

void
TrafficStats::restore(SerialIn &in)
{
    if (!in.check(in.u64() == kN, "traffic message-type count mismatch"))
        return;
    for (std::size_t i = 0; i < kN; ++i) {
        counts_[i] = in.u64();
        in.u64(); // bytes: derived, stream-compatible
    }
    in.u64(); // total bytes: derived, stream-compatible
    in.u64(); // total messages: derived, stream-compatible
}

} // namespace zerodev
