/**
 * @file
 * Differential config-equivalence harness.
 *
 * ZeroDEV's central claim (PAPER.md Section III) is that relocating
 * directory entries into the LLC and memory is *architecturally
 * invisible*: every core observes exactly the values it would under an
 * unbounded directory, even though fused entries corrupt the low bits of
 * LLC data copies and WB_DE flows destroy memory data. The Differ turns
 * that claim into an executable oracle: it drives N CmpSystem instances
 * (unbounded, sparse, the ZeroDEV flavours, multi-socket splits) in
 * lockstep over ONE access stream and asserts, per access, that all of
 * them expose the same architectural values, with whole-system invariant
 * checks and strict core-cache-state comparisons interleaved on a
 * cadence.
 *
 * Because the simulator is metadata-only (no data bytes are modelled),
 * values are tracked by a shadow oracle: every store bumps a per-block
 * version, and a load "observes" that version unless the instance
 * demonstrably served the request from a destroyed memory copy without
 * executing one of the corrupted-block recovery flows — in which case the
 * block is poisoned for that instance and every subsequent comparison
 * diverges. Timing (latency, access class) is explicitly NOT compared:
 * it is allowed to differ between configurations; only value-visibility
 * must not.
 */

#ifndef ZERODEV_VERIFY_DIFFER_HH
#define ZERODEV_VERIFY_DIFFER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "workload/trace.hh"

namespace zerodev::verify
{

/** One system variant under differential test. */
struct Variant
{
    std::string name;
    SystemConfig cfg;
};

/**
 * Test-only fault plant: makes one instance mis-observe loads of one
 * block once the block has seen @c afterStores stores. Used to validate
 * the detection + shrinking pipeline end to end (a synthetic divergence
 * whose minimal repro is exactly `afterStores` stores plus one load).
 * Never enabled outside tests / the fuzz_tool --plant-fault flag.
 */
struct FaultHook
{
    bool enabled = false;
    std::size_t instance = 1;      //!< index of the misbehaving variant
    BlockAddr block = 0;           //!< loads of this block go wrong...
    std::uint64_t afterStores = 1; //!< ...once it saw this many stores
};

/** First difference found between the instances (or a per-instance
 *  property violation — both falsify architectural invisibility). */
struct Divergence
{
    bool found = false;
    std::string rule;     //!< load-value | response | destroyed-data |
                          //!< invariant | core-state | final-image
    std::string detail;
    std::string instance; //!< name of the offending variant
    std::uint64_t accessIndex = 0; //!< stream index at detection
};

/** Cadences and toggles of one differential run. */
struct DifferOptions
{
    /** Run checkInvariants() on every instance each N accesses
     *  (0 = only at the end of the stream). */
    std::uint64_t invariantCadence = 4096;

    /** Compare private-cache state across the strict equivalence
     *  classes each N accesses (0 = only at the end). */
    std::uint64_t coreStateCadence = 1024;

    /** Cross-check the final retrievable memory image. */
    bool finalImage = true;

    /** Capture an in-memory checkpoint of every instance each N
     *  accesses (0 = never). The last checkpoint taken before a
     *  divergence lands in DifferResult::checkpoint, so the repro can
     *  be fast-forwarded: Differ::resume() re-runs only the tail. */
    std::uint64_t snapshotCadence = 0;

    /** Live-telemetry hook: called with the executed-record count every
     *  progressCadence stream records (and once at the end of the
     *  stream). Runs on the thread driving run()/resume(). */
    std::function<void(std::uint64_t)> progress;
    std::uint64_t progressCadence = 2048;
};

/**
 * A lockstep checkpoint: every instance's serialized system image plus
 * the harness state (simulated time, poisoned blocks, the shadow
 * store-version oracle). Saved files use the zerodev-snapshot-v3
 * container (one "differ" section), so they share the magic/CRC/version
 * handling with run checkpoints.
 */
struct DifferCheckpoint
{
    bool valid = false;
    std::uint64_t accessIndex = 0; //!< stream records already executed

    struct InstanceState
    {
        std::vector<std::uint8_t> system; //!< CmpSystem::saveState bytes
        std::uint64_t now = 0;
        std::vector<BlockAddr> poisoned; //!< sorted
    };
    std::vector<InstanceState> instances;

    /** Shadow oracle: (block, store count), sorted by block. */
    std::vector<std::pair<BlockAddr, std::uint64_t>> versions;

    bool save(const std::string &path, std::string *err) const;
    bool load(const std::string &path, std::string *err);
};

/** Outcome of one differential run. */
struct DifferResult
{
    Divergence divergence;
    std::uint64_t accesses = 0; //!< stream records executed per instance
    std::uint64_t sweeps = 0;   //!< invariant/core-state sweeps performed

    /** Last checkpoint captured before the run ended (valid only when
     *  DifferOptions::snapshotCadence fired at least once). */
    DifferCheckpoint checkpoint;

    bool ok() const { return !divergence.found; }
};

/**
 * Drives every variant over one access stream in lockstep. run() is
 * const and re-entrant: each call constructs fresh CmpSystem instances,
 * which is exactly what the ddmin shrinker needs to re-validate
 * candidate traces.
 */
class Differ
{
  public:
    explicit Differ(std::vector<Variant> variants, DifferOptions opt = {});

    const std::vector<Variant> &variants() const { return variants_; }
    const DifferOptions &options() const { return opt_; }

    void setFaultHook(const FaultHook &hook) { hook_ = hook; }
    const FaultHook &faultHook() const { return hook_; }

    /** Execute @p stream on every variant; stops at the first
     *  divergence. Core ids in the stream must be < the variants'
     *  common total core count. Instances take turns over windows of
     *  up to 1024 records that end at every cadence point; the verdict
     *  is the one a record-by-record lockstep reaches (see
     *  docs/VERIFICATION.md). */
    DifferResult run(const std::vector<TraceRecord> &stream) const;

    /** Fast-forward: restore every instance from @p from and execute
     *  only stream records [from.accessIndex, end). The checkpoint must
     *  come from a run of the same variant set over the same stream
     *  prefix (the per-instance config fingerprints are checked);
     *  sweeps and end-of-stream checks land exactly as in a full run,
     *  so the verdict is identical — only the work is smaller. */
    DifferResult resume(const DifferCheckpoint &from,
                        const std::vector<TraceRecord> &stream) const;

    /** Total cores every variant must agree on. */
    std::uint32_t cores() const { return cores_; }

    /**
     * The standard cross product of the paper's configurations over
     * small-cache geometry (conflicts and entry spills happen quickly):
     * unbounded, sparse 1x / 1-8x, ZeroDEV SpillAll / FPSS / FuseAll,
     * FPSS with a 1-8x directory, no-directory ZeroDEV (ratio 0),
     * inclusive and EPD flavours, and 2-socket splits of the unbounded
     * and FPSS variants. @p cores is the total core count.
     */
    static std::vector<Variant> standardVariants(std::uint32_t cores = 4);

    /** A cheaper subset (unbounded + one ZeroDEV flavour per policy)
     *  for quick CLI replays and unit tests. */
    static std::vector<Variant> quickVariants(std::uint32_t cores = 4);

  private:
    /** Stamp the executed-access count and return @p res. */
    static DifferResult finish(DifferResult &res, std::uint64_t accesses);

    /** Shared engine behind run() / resume(). */
    DifferResult runImpl(const std::vector<TraceRecord> &stream,
                         const DifferCheckpoint *from) const;

    std::vector<Variant> variants_;
    DifferOptions opt_;
    FaultHook hook_;
    std::uint32_t cores_ = 0;
    /** Index of the head of each variant's strict-equivalence group
     *  (-1 = value-only; a head maps to itself). Members of the group
     *  must match the head's private-cache contents exactly (the
     *  paper's core-cache-isolation claim). */
    std::vector<int> strictHead_;
};

/**
 * Deterministic adversarial access stream for fuzzing: alternating
 * phases of same-set conflict storms, capacity churn and structured
 * application-profile traffic (the streams the paper's workloads
 * exercise), with no region discipline across phase boundaries.
 */
std::vector<TraceRecord> fuzzStream(std::uint64_t seed,
                                    std::uint32_t cores,
                                    std::uint64_t accesses);

} // namespace zerodev::verify

#endif // ZERODEV_VERIFY_DIFFER_HH
