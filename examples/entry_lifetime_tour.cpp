/**
 * @file
 * A guided tour of the life of a ZeroDEV directory entry (Sections III-C
 * and III-D): born in the replacement-disabled sparse directory (or the
 * LLC), fused into its block on ownership, spilled on sharing, evicted
 * from the LLC into the (stale) home memory block — corrupting it — and
 * finally recovered or retired, with the memory data restored from the
 * last cached copy. Every stage prints the authoritative tracking
 * location straight from the simulator's introspection API.
 */

#include <cstdio>

#include "common/config.hh"
#include "core/cmp_system.hh"
#include "core/invariants.hh"

using namespace zerodev;

namespace
{

const char *
whereName(TrackWhere w)
{
    switch (w) {
      case TrackWhere::None: return "none (home memory or untracked)";
      case TrackWhere::LlcSpilled: return "LLC (spilled line)";
      case TrackWhere::LlcFused: return "LLC (fused into the block)";
      case TrackWhere::Org: return "sparse directory";
    }
    return "?";
}

void
show(const CmpSystem &sys, BlockAddr b, const char *stage)
{
    const Tracking trk = sys.peekTracking(0, b);
    std::printf("%-46s -> entry in %s", stage, whereName(trk.where));
    if (trk.found()) {
        std::printf(" [%s, %u sharer(s)]", toString(trk.entry.state),
                    trk.entry.count());
    } else if (sys.memStore(0).hasSegment(b, 0)) {
        std::printf(" [housed in the memory block; data destroyed=%d]",
                    sys.memStore(0).destroyed(b) ? 1 : 0);
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    // Tiny 2-core system; plain LRU + SpillAll so entries age out of
    // the LLC and reach memory within a short run.
    SystemConfig cfg;
    cfg.coresPerSocket = 2;
    cfg.l1i = CacheConfig{2 * 1024, 8, 3};
    cfg.l1d = CacheConfig{2 * 1024, 8, 3};
    cfg.l2 = CacheConfig{4 * 1024, 8, 8};
    cfg.llcSizeBytes = 64 * 1024;
    cfg.llcBanks = 2;
    applyZeroDev(cfg, 0.0); // no sparse directory: straight to the LLC
    cfg.dirCachePolicy = DirCachePolicy::Fpss;
    cfg.llcReplPolicy = LlcReplPolicy::Lru;
    CmpSystem sys(cfg);

    const BlockAddr b = 64; // LLC bank 0, set 0
    Cycle t = 0;

    std::printf("The life of block %#llx's directory entry under "
                "ZeroDEV (FPSS)\n",
                static_cast<unsigned long long>(b));
    std::printf("================================================="
                "=============\n");

    t = sys.access(0, AccessType::Store, b, t + 100);
    show(sys, b, "1. core 0 stores (M state, entry fuses)");

    t = sys.access(1, AccessType::Load, b, t + 100);
    show(sys, b, "2. core 1 reads (M->S, entry spills)");

    t = sys.access(1, AccessType::Store, b, t + 100);
    show(sys, b, "3. core 1 upgrades (S->M, entry re-fuses)");

    // Flood the LLC set with other blocks from core 0 until the fused
    // entry is evicted: WB_DE writes it into the home memory block.
    for (std::uint32_t i = 1; i <= 40; ++i)
        t = sys.access(0, AccessType::Load, b + 64ull * i, t + 100);
    show(sys, b, "4. LLC set flooded (WB_DE to home memory)");

    t = sys.access(0, AccessType::Load, b, t + 100);
    show(sys, b, "5. core 0 reads (corrupted response, recovery)");

    // Evict every cached copy; the last one restores the memory data.
    for (std::uint32_t i = 0; i < 20; ++i) {
        t = sys.access(0, AccessType::Load, 16384 + 8ull * i, t + 100);
        t = sys.access(1, AccessType::Load, 32768 + 8ull * i, t + 100);
    }
    show(sys, b, "6. all private copies evicted (entry retired)");
    std::printf("   memory destroyed=%d (the LLC still holds the dirty "
                "block; its eventual\n   writeback restores the memory "
                "data), DEVs delivered=%llu\n",
                sys.memStore(0).destroyed(b) ? 1 : 0,
                static_cast<unsigned long long>(
                    sys.protoStats().devInvalidations));

    assertInvariants(sys);
    std::printf("\nAll invariants hold; no core ever received a "
                "directory-eviction invalidation.\n");
    return 0;
}
