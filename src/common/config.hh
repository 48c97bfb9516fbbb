/**
 * @file
 * System configuration structures mirroring Table I of the paper, plus the
 * named presets used throughout the evaluation (8-core socket, 128-core
 * server socket, 4-socket system).
 */

#ifndef ZERODEV_COMMON_CONFIG_HH
#define ZERODEV_COMMON_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace zerodev
{

/** Geometry and latency of one set-associative cache level. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 0;  //!< total capacity
    std::uint32_t ways = 8;       //!< associativity
    std::uint32_t lookupCycles = 3; //!< tag+data lookup latency

    /** Number of blocks given @p block_bytes. */
    std::uint64_t blocks(std::uint32_t block_bytes) const
    {
        return sizeBytes / block_bytes;
    }

    /** Number of sets given @p block_bytes. */
    std::uint64_t sets(std::uint32_t block_bytes) const
    {
        return blocks(block_bytes) / ways;
    }
};

/** Sparse directory sizing and organisation. */
struct DirectoryConfig
{
    /**
     * Ratio R of directory entries to the aggregate number of private
     * last-level (L2) cache blocks; the paper writes this as "R x".
     * 0 means "no sparse directory structure at all".
     */
    double sizeRatio = 1.0;
    std::uint32_t ways = 8;        //!< set associativity (Table I)
    std::uint32_t lookupCycles = 2; //!< slice lookup latency

    /**
     * ZeroDEV option (Section III-C4): a new entry never evicts a valid
     * entry; if the set is full it goes to the LLC instead.
     */
    bool replacementDisabled = false;

    /**
     * "Partitioned Tags, Shared Data"-style strict isolation: statically
     * partition each set's ways into this many per-core domains.
     * Lookups search every way (sharing is unrestricted), but a core
     * allocates — and therefore evicts — only within its own way range,
     * so one core's directory conflicts can never victimise another
     * core's entries. 0 disables partitioning; `ways` must divide
     * evenly. Only meaningful for the sparse-NRU organisation (the
     * side-channel lab's strict-isolation comparison point).
     */
    std::uint32_t tagPartitions = 0;
};

/** DDR3-2133-style DRAM timing, expressed in core-clock cycles (4 GHz). */
struct DramConfig
{
    std::uint32_t channels = 2;  //!< single-rank-pair channels
    std::uint32_t ranksPerChannel = 2;
    std::uint32_t banksPerRank = 8;
    std::uint32_t rowBytes = 1024; //!< row-buffer size per bank

    // DDR3-2133: tCK ~= 0.9375 ns ~= 3.75 core cycles at 4 GHz.
    std::uint32_t tCas = 53;   //!< 14 DRAM cycles
    std::uint32_t tRcd = 53;   //!< 14 DRAM cycles
    std::uint32_t tRp = 53;    //!< 14 DRAM cycles
    std::uint32_t tRas = 131;  //!< 35 DRAM cycles
    std::uint32_t tBurst = 15; //!< BL=8 on a 64-bit channel: 4 DRAM cycles
};

/** Multi-grain Directory baseline parameters (MICRO'13). */
struct MgdConfig
{
    std::uint32_t regionBytes = 1024; //!< private-region tracking grain
};

/** Top-level configuration of one simulated system. */
struct SystemConfig
{
    std::string name = "default";

    std::uint32_t sockets = 1;
    std::uint32_t coresPerSocket = 8;
    std::uint32_t blockBytes = 64;

    CacheConfig l1i{32 * 1024, 8, 3};
    CacheConfig l1d{32 * 1024, 8, 3};
    CacheConfig l2{256 * 1024, 8, 8};

    /** Shared LLC: size, ways, plus separate tag/data access latencies. */
    std::uint64_t llcSizeBytes = 8ull * 1024 * 1024;
    std::uint32_t llcWays = 16;
    std::uint32_t llcBanks = 8;
    std::uint32_t llcTagCycles = 3;
    std::uint32_t llcDataCycles = 4;

    DirectoryConfig directory;
    DramConfig dram;
    MgdConfig mgd;

    /** Mesh per-hop cost: 1-cycle routing + 1-cycle link (Table I). */
    std::uint32_t meshHopCycles = 2;

    /** Inter-socket one-way routing delay: 20 ns at 4 GHz. */
    std::uint32_t interSocketCycles = 80;

    DirOrg dirOrg = DirOrg::SparseNru;
    DirCachePolicy dirCachePolicy = DirCachePolicy::None;
    LlcReplPolicy llcReplPolicy = LlcReplPolicy::Lru;
    LlcFlavor llcFlavor = LlcFlavor::NonInclusive;

    /**
     * Coherence protocol backend. MesiZeroDev (the default) is the
     * original MESI directory family and honours every field above; the
     * rival backends (Dls, PhasePriority) are single-socket and restrict
     * the directory knobs they ignore (see check()).
     */
    ProtocolKind protocol = ProtocolKind::MesiZeroDev;

    /**
     * ZeroDEV socket-level directory backing (Section III-D5): when true,
     * evicted socket-level entries are housed in memory blocks guarded by
     * a DirEvict bit (solution 2, constant 0.2% DRAM overhead); when
     * false, the socket directory is fully backed up in home memory
     * (solution 1, the scheme the paper's evaluation uses).
     */
    bool socketDirZeroDev = false;

    /** Socket-level directory cache geometry (per home socket). */
    std::uint64_t socketDirCacheSets = 2048;
    std::uint32_t socketDirCacheWays = 8;

    /** Aggregate number of private L2 blocks in one socket. */
    std::uint64_t privateL2Blocks() const
    {
        return static_cast<std::uint64_t>(coresPerSocket) *
               l2.blocks(blockBytes);
    }

    /** Total sparse directory entries in one socket (R x sizing). */
    std::uint64_t dirEntries() const;

    /** Directory sets per slice (one slice per LLC bank). */
    std::uint64_t dirSetsPerSlice() const;

    /** Number of LLC blocks in one socket. */
    std::uint64_t llcBlocks() const { return llcSizeBytes / blockBytes; }

    /** LLC sets per bank. */
    std::uint64_t llcSetsPerBank() const
    {
        return llcBlocks() / llcWays / llcBanks;
    }

    /**
     * The first configuration rule that fails, as a one-line reason, or
     * "" when every rule holds.
     */
    std::string check() const;

    /** fatal() with check()'s reason when a rule fails. */
    void validate() const;
};

/** 8-core single-socket preset (Table I). */
SystemConfig makeEightCoreConfig();

/** 128-core single-socket server preset (Section IV). */
SystemConfig makeServerConfig();

/** Four-socket preset: 8 cores per socket (Section V, multi-socket). */
SystemConfig makeQuadSocketConfig();

/** Apply the canonical ZeroDEV settings (Section V selections). */
void applyZeroDev(SystemConfig &cfg, double dir_ratio);

} // namespace zerodev

#endif // ZERODEV_COMMON_CONFIG_HH
