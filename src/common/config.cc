#include "common/config.hh"

#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "common/bitops.hh"
#include "common/log.hh"
#include "directory/dir_formats.hh"

namespace zerodev
{

namespace
{

const char *
name(AccessType t)
{
    switch (t) {
      case AccessType::Load: return "Load";
      case AccessType::Store: return "Store";
      case AccessType::Ifetch: return "Ifetch";
    }
    return "?";
}

} // namespace

const char *
toString(AccessType t)
{
    return name(t);
}

const char *
toString(DirState s)
{
    switch (s) {
      case DirState::Invalid: return "I";
      case DirState::Owned: return "M/E";
      case DirState::Shared: return "S";
    }
    return "?";
}

const char *
toString(MesiState s)
{
    switch (s) {
      case MesiState::Invalid: return "I";
      case MesiState::Shared: return "S";
      case MesiState::Exclusive: return "E";
      case MesiState::Modified: return "M";
    }
    return "?";
}

const char *
toString(LlcFlavor f)
{
    switch (f) {
      case LlcFlavor::NonInclusive: return "non-inclusive";
      case LlcFlavor::Inclusive: return "inclusive";
      case LlcFlavor::Epd: return "EPD";
    }
    return "?";
}

const char *
toString(DirCachePolicy p)
{
    switch (p) {
      case DirCachePolicy::None: return "none";
      case DirCachePolicy::SpillAll: return "SpillAll";
      case DirCachePolicy::Fpss: return "FPSS";
      case DirCachePolicy::FuseAll: return "FuseAll";
    }
    return "?";
}

const char *
toString(LlcReplPolicy p)
{
    switch (p) {
      case LlcReplPolicy::Lru: return "LRU";
      case LlcReplPolicy::SpLru: return "spLRU";
      case LlcReplPolicy::DataLru: return "dataLRU";
    }
    return "?";
}

const char *
toString(DirOrg o)
{
    switch (o) {
      case DirOrg::SparseNru: return "sparse-NRU";
      case DirOrg::Unbounded: return "unbounded";
      case DirOrg::ZeroDev: return "ZeroDEV";
      case DirOrg::SecDir: return "SecDir";
      case DirOrg::MultiGrain: return "MgD";
    }
    return "?";
}

const char *
toString(ProtocolKind p)
{
    switch (p) {
      case ProtocolKind::MesiZeroDev: return "mesi-zerodev";
      case ProtocolKind::Dls: return "DLS";
      case ProtocolKind::PhasePriority: return "phase-priority";
    }
    return "?";
}

std::uint64_t
SystemConfig::dirEntries() const
{
    const double entries =
        directory.sizeRatio * static_cast<double>(privateL2Blocks());
    return static_cast<std::uint64_t>(std::llround(entries));
}

std::uint64_t
SystemConfig::dirSetsPerSlice() const
{
    const std::uint64_t entries = dirEntries();
    if (entries == 0)
        return 0;
    const std::uint64_t per_slice =
        entries / (static_cast<std::uint64_t>(directory.ways) * llcBanks);
    return per_slice == 0 ? 1 : per_slice;
}

namespace
{

/** printf into a std::string: the text of one failed config rule. */
__attribute__((format(printf, 1, 2))) std::string
reason(const char *fmt, ...)
{
    char buf[256];
    std::va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return buf;
}

} // namespace

std::string
SystemConfig::check() const
{
    if (!isPowerOfTwo(blockBytes))
        return reason("block size %u is not a power of two", blockBytes);
    if (!isPowerOfTwo(llcBanks))
        return reason("LLC bank count %u is not a power of two", llcBanks);
    if (llcBlocks() % (static_cast<std::uint64_t>(llcWays) * llcBanks) != 0)
        return "LLC geometry does not divide evenly";
    if (coresPerSocket > kMaxCores)
        return reason("%u cores exceed the %u-core sharer vector",
                      coresPerSocket, kMaxCores);
    if (sockets > kMaxSockets)
        return reason("%u sockets exceed the %u-socket limit", sockets,
                      kMaxSockets);
    if (dirOrg == DirOrg::ZeroDev &&
        dirCachePolicy == DirCachePolicy::None) {
        return "ZeroDEV requires a directory-entry caching policy";
    }
    if (dirOrg == DirOrg::ZeroDev && sockets > 1 &&
        sockets > maxSocketsPerBlockWithSocketEntry(coresPerSocket)) {
        // Section III-D: every socket's evicted entry and the socket
        // entry must fit in one 512-bit memory block.
        return reason("a memory block houses the ZeroDEV entries of at "
                      "most %u sockets of %u cores, not %u",
                      maxSocketsPerBlockWithSocketEntry(coresPerSocket),
                      coresPerSocket, sockets);
    }
    if (dirOrg != DirOrg::ZeroDev && directory.sizeRatio <= 0.0 &&
        dirOrg != DirOrg::Unbounded) {
        return reason("a %s directory cannot be sized 0x", toString(dirOrg));
    }
    if (directory.tagPartitions != 0) {
        if (dirOrg != DirOrg::SparseNru) {
            return "directory tag partitioning requires the sparse-NRU "
                   "organisation";
        }
        if (directory.ways % directory.tagPartitions != 0) {
            return reason("%u directory ways do not divide into %u tag "
                          "partitions",
                          directory.ways, directory.tagPartitions);
        }
        if (directory.tagPartitions > coresPerSocket) {
            return reason("%u tag partitions exceed %u cores per socket",
                          directory.tagPartitions, coresPerSocket);
        }
    }
    if (protocol == ProtocolKind::Dls) {
        // DLS has no directory structure: the shared LLC serialises
        // requests and holders are found by probing the cores, so every
        // directory knob is meaningless and must stay at a value the
        // backend can ignore safely.
        if (sockets != 1)
            return "the DLS backend is single-socket";
        if (llcFlavor != LlcFlavor::NonInclusive)
            return "the DLS backend requires the non-inclusive LLC flavour";
        if (dirCachePolicy != DirCachePolicy::None)
            return "the DLS backend cannot cache directory entries";
        if (directory.tagPartitions != 0)
            return "the DLS backend has no directory tags to partition";
    }
    if (protocol == ProtocolKind::PhasePriority) {
        // Phase-priority keeps the MESI directory flows but swaps the
        // organisation for its own priority-victim directory, driven
        // through the generic DirOrg path.
        if (sockets != 1)
            return "the phase-priority backend is single-socket";
        if (dirOrg != DirOrg::SparseNru) {
            return "the phase-priority backend replaces the sparse-NRU "
                   "organisation only";
        }
        if (llcFlavor != LlcFlavor::NonInclusive) {
            return "the phase-priority backend requires the non-inclusive "
                   "LLC flavour";
        }
        if (dirCachePolicy != DirCachePolicy::None)
            return "the phase-priority backend cannot cache directory "
                   "entries";
        if (directory.tagPartitions != 0)
            return "the phase-priority backend manages whole sets, not "
                   "partitions";
    }
    return "";
}

void
SystemConfig::validate() const
{
    const std::string why = check();
    if (!why.empty())
        fatal("%s", why.c_str());
}

SystemConfig
makeEightCoreConfig()
{
    SystemConfig cfg;
    cfg.name = "8core";
    // Every field already defaults to the Table I value.
    return cfg;
}

SystemConfig
makeServerConfig()
{
    SystemConfig cfg;
    cfg.name = "128core-server";
    cfg.coresPerSocket = 128;
    cfg.l2 = CacheConfig{128 * 1024, 8, 8};
    cfg.llcSizeBytes = 32ull * 1024 * 1024;
    cfg.llcBanks = 128;
    cfg.dram.channels = 8;
    cfg.dram.ranksPerChannel = 2;
    return cfg;
}

SystemConfig
makeQuadSocketConfig()
{
    SystemConfig cfg = makeEightCoreConfig();
    cfg.name = "4socket";
    cfg.sockets = 4;
    return cfg;
}

void
applyZeroDev(SystemConfig &cfg, double dir_ratio)
{
    cfg.dirOrg = DirOrg::ZeroDev;
    cfg.dirCachePolicy = DirCachePolicy::Fpss;
    cfg.llcReplPolicy = LlcReplPolicy::DataLru;
    cfg.directory.sizeRatio = dir_ratio;
    cfg.directory.replacementDisabled = true;
}

} // namespace zerodev
