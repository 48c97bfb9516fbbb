/**
 * @file
 * Synthetic memory-access stream generation. A ThreadGenerator produces
 * the per-thread access stream of an application profile: a mixture of
 * private (reuse-skewed), shared read-only, shared read-write (migratory
 * or read-mostly), streaming and instruction-fetch regions, with a
 * configurable non-memory instruction gap between accesses.
 *
 * These streams substitute for the paper's PARSEC / SPLASH2X / SPEC OMP /
 * FFTW / SPEC CPU 2017 / server binaries (see DESIGN.md section 3): the
 * mixture parameters are calibrated per application to the sharing and
 * footprint statistics the paper itself reports.
 */

#ifndef ZERODEV_WORKLOAD_ACCESS_PATTERN_HH
#define ZERODEV_WORKLOAD_ACCESS_PATTERN_HH

#include <cstdint>
#include <string>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/types.hh"

namespace zerodev
{

/** One generated memory operation. */
struct MemAccess
{
    AccessType type = AccessType::Load;
    BlockAddr block = 0;
    /** Non-memory instructions executed before this access (1 IPC). */
    std::uint32_t gap = 0;
};

/** Mixture parameters of one application profile (block granularity). */
struct AppProfile
{
    std::string name;
    std::string suite;

    // Region footprints, in 64-byte blocks.
    std::uint64_t privateBlocks = 4096;  //!< per-thread private data
    std::uint64_t sharedRoBlocks = 0;    //!< shared read-only data
    std::uint64_t sharedRwBlocks = 0;    //!< shared read-write data
    std::uint64_t codeBlocks = 256;      //!< instruction footprint
    std::uint64_t streamBlocks = 0;      //!< per-thread streaming data

    // Mixture probabilities (private = remainder).
    double pIfetch = 0.02;   //!< instruction fetch misses reaching L1I
    double pSharedRo = 0.0;
    double pSharedRw = 0.0;
    double pStream = 0.0;

    double storeFrac = 0.3;     //!< stores among private data accesses
    double rwStoreFrac = 0.5;   //!< stores among shared-RW accesses

    /**
     * Private-region locality: a fraction @c hotFrac of private accesses
     * goes to a reuse-skewed hot subset of @c hotBlocks blocks; the rest
     * sweep the full private footprint uniformly. The hot-subset size
     * relative to the L2/LLC and the cold fraction directly set the
     * application's miss profile (cache-friendly vs capacity-bound).
     */
    double hotFrac = 0.95;
    std::uint64_t hotBlocks = 1024;

    /** Spatial run length of the cold sweep: cold accesses touch this
     *  many consecutive blocks before jumping (page-sized bursts, the
     *  locality that region-grain directories exploit). */
    std::uint32_t coldRunBlocks = 16;

    double zipfSkew = 0.4;      //!< reuse skew within the hot subset
    double roZipfSkew = 0.5;    //!< reuse skew of shared/code regions

    /** Consecutive accesses per streaming block (spatial locality of a
     *  sequential sweep: ~8 word accesses per 64-byte block). */
    std::uint32_t streamRepeat = 8;

    /**
     * Migratory sharing: the shared-RW region is partitioned into
     * per-epoch chunks that rotate across threads (producer/consumer
     * style); 0 selects uniform read-mostly sharing.
     */
    double migratory = 0.0;
    std::uint64_t epochLength = 4096; //!< accesses per migration epoch

    std::uint32_t gapMean = 4; //!< mean non-memory instructions per access
};

/** Address-space layout: distinct, non-overlapping region bases. */
struct RegionLayout
{
    /**
     * @param instance process id (distinct data for multi-programming)
     * @param thread thread id within the process
     * @param app_id stable id of the application (code sharing across
     *        rate-mode copies of the same binary)
     */
    RegionLayout(std::uint32_t instance, std::uint32_t thread,
                 std::uint32_t app_id);

    BlockAddr privateBase;
    BlockAddr sharedBase;  //!< per process (shared among its threads)
    BlockAddr codeBase;    //!< per application binary
    BlockAddr streamBase;
};

/**
 * Per-thread stream generator. The constructor turns the profile into a
 * draw plan: clamped region sizes, the gap bound and every probability
 * as an Rng::threshold(), so next() compares integers only. The plan
 * reproduces the double compares of the profile exactly (see
 * docs/WORKLOADS.md, "Draw plan").
 */
class ThreadGenerator
{
  public:
    /**
     * @param profile the application profile
     * @param layout address-space layout of this thread
     * @param thread thread id within the application (migratory rotation)
     * @param threads total threads of the application
     * @param seed deterministic stream seed
     */
    ThreadGenerator(const AppProfile &profile, const RegionLayout &layout,
                    std::uint32_t thread, std::uint32_t threads,
                    std::uint64_t seed);

    /** Produce the next access of this thread. */
    MemAccess next();

    /** Accesses generated so far. */
    std::uint64_t generated() const { return count_; }

    /** Snapshot the mutable stream state (engine words + positions);
     *  the profile/layout are reconstructed from the workload config. */
    void
    save(SerialOut &out) const
    {
        for (std::uint64_t w : rng_.state())
            out.u64(w);
        out.u64(count_);
        out.u64(streamPos_);
        out.u64(coldPos_);
        out.u32(coldRemaining_);
    }

    void
    restore(SerialIn &in)
    {
        std::array<std::uint64_t, 4> s;
        for (std::uint64_t &w : s)
            w = in.u64();
        rng_.setState(s);
        count_ = in.u64();
        streamPos_ = in.u64();
        coldPos_ = in.u64();
        coldRemaining_ = in.u32();
    }

  private:
    BlockAddr pickPrivate();
    BlockAddr pickSharedRo();
    BlockAddr pickSharedRw();
    BlockAddr pickStream();
    BlockAddr pickCode();

    RegionLayout layout_;
    std::uint32_t thread_;
    std::uint32_t threads_;

    // Region sizes in blocks, each at least 1, and the other counts.
    std::uint64_t privateBlocks_;
    std::uint64_t hotBlocks_;       //!< at most privateBlocks_
    std::uint64_t sharedRoBlocks_;
    std::uint64_t sharedRwBlocks_;
    std::uint64_t chunkBlocks_;     //!< migratory chunk of one thread
    std::uint64_t codeBlocks_;
    std::uint64_t streamBlocks_;
    std::uint64_t epochLength_;     //!< accesses per migration epoch
    std::uint32_t coldRunBlocks_;   //!< at least 1
    std::uint32_t streamRepeat_;    //!< at least 1
    std::uint32_t gapBound_;        //!< 2 * gapMean + 1, or 0 for no gap

    // Rng::threshold() of each probability; the region bounds are the
    // running sums pIfetch, + pSharedRo, + pSharedRw, + pStream.
    std::uint64_t ifetchBound_;
    std::uint64_t sharedRoBound_;
    std::uint64_t sharedRwBound_;
    std::uint64_t streamBound_;
    std::uint64_t hotT_;
    std::uint64_t storeT_;
    std::uint64_t rwStoreT_;
    std::uint64_t migratoryT_;
    std::uint64_t zipfSkewT_;
    std::uint64_t roZipfSkewT_;

    Rng rng_;
    std::uint64_t count_ = 0;
    std::uint64_t streamPos_ = 0;
    std::uint64_t coldPos_ = 0;
    std::uint32_t coldRemaining_ = 0;
};

} // namespace zerodev

#endif // ZERODEV_WORKLOAD_ACCESS_PATTERN_HH
