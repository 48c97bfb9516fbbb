#include "obs/latency.hh"

namespace zerodev::obs
{

namespace
{

/** Per-transaction cycles one component can contribute before the
 *  histogram's overflow bucket absorbs it. DRAM fills and corrupted
 *  multi-socket chains reach a few hundred cycles; 1024 keeps exact
 *  percentiles well past p99 for every modelled flow. */
constexpr std::size_t kHistBuckets = 1024;

} // namespace

const char *
toString(LatComp c)
{
    switch (c) {
      case LatComp::CoreLookup: return "core_lookup";
      case LatComp::DirLookup: return "dir_lookup";
      case LatComp::Mesh: return "mesh";
      case LatComp::LlcData: return "llc_data";
      case LatComp::FuseSpill: return "fuse_spill";
      case LatComp::Dram: return "dram";
      case LatComp::DeMemory: return "de_memory";
      case LatComp::InvStall: return "inv_stall";
      case LatComp::InterSocket: return "inter_socket";
      case LatComp::QueueWait: return "queue_wait";
      case LatComp::NumComps: break;
    }
    return "?";
}

LatencyProfiler::LatencyProfiler()
{
    hist_.reserve(kNumComps);
    for (std::size_t i = 0; i < kNumComps; ++i)
        hist_.emplace_back(kHistBuckets);
}

void
LatencyProfiler::record(std::uint32_t cls, const LatencyChain &ch)
{
    const Cycle latency = ch.latency();
    ++transactions_;
    totalCycles_ += latency;
    for (std::size_t i = 0; i < kNumComps; ++i) {
        const Cycle c = ch.components()[i];
        if (c == 0)
            continue;
        totals_[i] += c;
        hist_[i].record(c);
    }
    if (cls < kMaxClasses) {
        LatencyBreakdown::ClassRow &row = classes_[cls];
        ++row.count;
        row.cycles += latency;
        for (std::size_t i = 0; i < kNumComps; ++i)
            row.compCycles[i] += ch.components()[i];
    }
}

LatencyBreakdown
LatencyProfiler::snapshot() const
{
    LatencyBreakdown b;
    b.transactions = transactions_;
    b.totalCycles = totalCycles_;
    for (std::size_t i = 0; i < kNumComps; ++i) {
        LatencyBreakdown::Component &c = b.components[i];
        c.cycles = totals_[i];
        c.samples = hist_[i].samples();
        c.mean = hist_[i].meanValue();
        c.p50 = hist_[i].percentile(0.50);
        c.p95 = hist_[i].percentile(0.95);
        c.p99 = hist_[i].percentile(0.99);
        b.background[i] = background_[i];
    }
    b.classes = classes_;
    return b;
}

} // namespace zerodev::obs
