#include "core/invariants.hh"

#include <algorithm>
#include <optional>
#include <sstream>

#include "common/log.hh"

namespace zerodev
{

namespace
{

std::string
hex(BlockAddr b)
{
    std::ostringstream os;
    os << std::hex << "0x" << b;
    return os.str();
}

/** Which cores of one socket cache a block. */
struct Holders
{
    SharerSet cores;
    std::uint32_t owners = 0; //!< cores holding the block in M/E
};

/** One privately cached copy. A socket's copies are kept sorted by
 *  block, so the copies of one block form a run. */
struct Copy
{
    BlockAddr block;
    CoreId core;
    std::uint32_t owner; //!< 1 if the copy is in M/E
};
static_assert(sizeof(Copy) == 16, "a private copy record is 16 bytes");

/** Orders copies, and copies against blocks, by block. */
struct ByBlock
{
    bool
    operator()(const Copy &a, const Copy &b) const
    {
        return a.block < b.block;
    }
    bool operator()(const Copy &a, BlockAddr b) const { return a.block < b; }
    bool operator()(BlockAddr a, const Copy &b) const { return a < b.block; }
};

using CopyIter = std::vector<Copy>::const_iterator;

/** Which cores hold the copies [@p lo, @p hi) of one block. */
Holders
holdersIn(CopyIter lo, CopyIter hi)
{
    Holders h;
    for (; lo != hi; ++lo) {
        h.cores.set(lo->core);
        h.owners += lo->owner;
    }
    return h;
}

/** Which cores cache @p b (none if it is not cached). */
Holders
holdersOf(const std::vector<Copy> &copies, BlockAddr b)
{
    const auto [lo, hi] =
        std::equal_range(copies.begin(), copies.end(), b, ByBlock{});
    return holdersIn(lo, hi);
}

/** Visit each cached block once, in ascending order: fn(block,
 *  holders). */
template <typename Fn>
void
forEachHeld(const std::vector<Copy> &copies, Fn &&fn)
{
    for (CopyIter lo = copies.begin(); lo != copies.end();) {
        CopyIter hi = lo + 1;
        while (hi != copies.end() && hi->block == lo->block)
            ++hi;
        fn(lo->block, holdersIn(lo, hi));
        lo = hi;
    }
}

bool
anyKind(LlcLineKind)
{
    return true;
}

/** A data-bearing line: a plain data line or a fused one. */
bool
carriesData(LlcLineKind k)
{
    return k == LlcLineKind::Data || k == LlcLineKind::FusedDe;
}

/** A plain data line: the only kind whose data can restore memory (a
 *  fused line's entry overwrote part of its block). */
bool
isData(LlcLineKind k)
{
    return k == LlcLineKind::Data;
}

} // namespace

std::vector<Violation>
checkInvariants(const CmpSystem &sys)
{
    std::vector<Violation> out;
    const SystemConfig &cfg = sys.config();
    const bool dls = cfg.protocol == ProtocolKind::Dls;
    const bool zerodev = !dls && cfg.dirOrg == DirOrg::ZeroDev;

    auto violate = [&](const std::string &rule, const std::string &det) {
        out.push_back({rule, det});
    };

    // Per socket, the privately cached copies sorted by block (kept for
    // the system-wide pass). Walks over them visit blocks in ascending
    // order, so violations come out in block order. The LLC is not
    // copied: its lines are counted in place (Llc::countLines).
    std::vector<std::vector<Copy>> copiesBy(cfg.sockets);

    for (SocketId s = 0; s < cfg.sockets; ++s) {
        // Ground truth: which cores of this socket cache which blocks.
        std::vector<Copy> &copies = copiesBy[s];
        std::size_t count = 0;
        for (CoreId c = 0; c < cfg.coresPerSocket; ++c)
            count += sys.privateCache(s, c).validBlocks();
        copies.reserve(count);
        for (CoreId c = 0; c < cfg.coresPerSocket; ++c) {
            sys.privateCache(s, c).forEachBlock(
                [&](BlockAddr b, MesiState st) {
                    copies.push_back(
                        {b, c,
                         st == MesiState::Modified ||
                             st == MesiState::Exclusive});
                });
        }
        std::sort(copies.begin(), copies.end(), ByBlock{});

        // 0. L1 inclusion: every L1 line's block is in the same core's
        // L2, the line's way byte names that block's L2 way (an L1 hit
        // reads the L2 line there without a search), and no L1 holds a
        // block twice.
        for (CoreId c = 0; c < cfg.coresPerSocket; ++c) {
            const PrivateCache &pc = sys.privateCache(s, c);
            const auto l1Violation = [&](BlockAddr b, const std::string &d) {
                violate("l1-inclusion", "socket " + std::to_string(s) +
                                            " core " + std::to_string(c) +
                                            " L1 block " + hex(b) + d);
            };
            pc.forEachL1Line([&](BlockAddr b, std::uint32_t way,
                                 std::uint32_t copies) {
                const std::optional<std::uint32_t> l2 = pc.l2Way(b);
                if (!l2)
                    l1Violation(b, " is not in its L2");
                else if (*l2 != way)
                    l1Violation(b, " names L2 way " + std::to_string(way) +
                                       ", not " + std::to_string(*l2));
                if (copies > 1)
                    l1Violation(b, " is held twice in one L1");
            });
        }

        // 1-DLS. The directoryless backend has no tracking state to
        // audit; its own protocol rules replace the directory checks:
        // single writer (an M owner is the sole holder) and, below once
        // the LLC is scanned, writer exclusivity against the LLC.
        if (dls) {
            forEachHeld(copies, [&](BlockAddr block, const Holders &h) {
                if (h.owners > 1) {
                    violate("single-owner",
                            "block " + hex(block) +
                                " has multiple M/E owners");
                }
                if (h.owners == 1 && h.cores.count() != 1) {
                    violate("dls-swmr",
                            "block " + hex(block) +
                                " is owned M/E alongside other copies");
                }
            });
        }

        // 1. Tracking completeness: every privately cached block has a
        // directory entry (in-socket or housed in home memory) whose
        // sharer vector matches the caching cores exactly. (No tracking
        // exists under DLS; rules 1-DLS above apply.)
        if (!dls) {
            forEachHeld(copies, [&](BlockAddr block, const Holders &h) {
                Tracking trk = sys.peekTracking(s, block);
                DirEntry entry;
                if (trk.found()) {
                    entry = trk.entry;
                } else {
                    auto seg = sys.memStore(sys.homeSocket(block))
                                   .loadSegment(block, s);
                    if (!seg) {
                        violate("tracking-completeness",
                                "socket " + std::to_string(s) + " block " +
                                    hex(block) + " cached but untracked");
                        return;
                    }
                    entry = *seg;
                }
                if (entry.sharers != h.cores) {
                    violate("tracking-precision",
                            "socket " + std::to_string(s) + " block " +
                                hex(block) + " sharer vector mismatch");
                }
                if (h.owners > 1) {
                    violate("single-owner", "block " + hex(block) +
                                                " has multiple M/E owners");
                }
                if (h.owners == 1 && entry.state != DirState::Owned) {
                    violate("owner-state",
                            "block " + hex(block) +
                                " owned privately but tracked as Shared");
                }
                if (h.owners == 0 && entry.state == DirState::Owned) {
                    violate("owner-state",
                            "block " + hex(block) +
                                " tracked as Owned but no core holds M/E");
                }
            });
        }

        // 2. No dangling entries: every live entry tracks cores that
        // really cache the block.
        auto check_entry = [&](BlockAddr block, const DirEntry &e,
                               const char *where) {
            if (!e.live()) {
                violate("live-entry", std::string(where) +
                                          " holds a dead entry for " +
                                          hex(block));
                return;
            }
            const SharerSet cores = holdersOf(copies, block).cores;
            if (cores.none() || cores != e.sharers) {
                violate("no-dangling",
                        std::string(where) + " entry for " + hex(block) +
                            " tracks cores that do not cache it");
            }
        };
        // ZeroDEV's organisation: its replacement-disabled sparse
        // directory.
        const auto *org = dynamic_cast<const SparseOrg *>(sys.dirOrg(s));
        if (zerodev && org) {
            org->dir().forEach([&](BlockAddr b, const DirEntry &e) {
                check_entry(b, e, "sparse-dir");
            });
        }

        // 3. LLC line rules. At most two tag matches per block (block +
        // spilled entry): the walk collects the blocks with more, which
        // are reported afterwards in ascending order.
        const Llc &llc = sys.llc(s);
        std::vector<BlockAddr> duplicated;
        llc.forEach([&](BlockAddr b, const LlcLine &l) {
            if (llc.countLines(b, anyKind) > 2)
                duplicated.push_back(b);
            switch (l.kind) {
              case LlcLineKind::Data:
                break;
              case LlcLineKind::FusedDe:
                if (dls) {
                    violate("dls-no-directory-lines",
                            "directoryless LLC holds a fused entry for " +
                                hex(b));
                    break;
                }
                check_entry(b, llc.entry(l), "fused-line");
                if (zerodev &&
                    cfg.dirCachePolicy == DirCachePolicy::Fpss &&
                    llc.entry(l).state != DirState::Owned) {
                    violate("fpss-fused-owned",
                            "FPSS fused entry for " + hex(b) +
                                " is not in M/E state");
                }
                break;
              case LlcLineKind::SpilledDe:
                if (dls) {
                    violate("dls-no-directory-lines",
                            "directoryless LLC holds a spilled entry "
                            "for " +
                                hex(b));
                    break;
                }
                check_entry(b, llc.entry(l), "spilled-line");
                break;
              case LlcLineKind::Invalid:
                break;
            }
        });
        std::sort(duplicated.begin(), duplicated.end());
        duplicated.erase(std::unique(duplicated.begin(), duplicated.end()),
                         duplicated.end());
        for (BlockAddr b : duplicated) {
            violate("tag-duplication",
                    "block " + hex(b) + " matches " +
                        std::to_string(llc.countLines(b, anyKind)) +
                        " LLC lines");
        }
        const auto llc_has_data = [&](BlockAddr b) {
            return llc.countLines(b, carriesData) != 0;
        };
        // FPSS: a spilled entry co-resident with its data block must be
        // in S state (the two-tag-match critical-path invariant).
        if (zerodev && cfg.dirCachePolicy == DirCachePolicy::Fpss) {
            llc.forEach([&](BlockAddr b, const LlcLine &l) {
                if (l.kind == LlcLineKind::SpilledDe &&
                    llc_has_data(b) &&
                    llc.entry(l).state != DirState::Shared) {
                    violate("fpss-spilled-shared",
                            "FPSS spilled entry for " + hex(b) +
                                " co-resident with its block is not S");
                }
            });
        }

        // 3-DLS. Writer exclusivity: a store removed the LLC data line,
        // so an M/E holder and an LLC copy can never coexist.
        if (dls) {
            forEachHeld(copies, [&](BlockAddr block, const Holders &h) {
                if (h.owners > 0 && llc_has_data(block)) {
                    violate("dls-llc-exclusion",
                            "M/E block " + hex(block) +
                                " still has an LLC data line");
                }
            });
        }

        // 4. Inclusion: every privately cached block is in the LLC.
        if (cfg.llcFlavor == LlcFlavor::Inclusive) {
            forEachHeld(copies, [&](BlockAddr block, const Holders &) {
                if (!llc_has_data(block)) {
                    violate("inclusion",
                            "block " + hex(block) +
                                " cached privately but absent from an "
                                "inclusive LLC");
                }
            });
        }

        // 5. EPD: an M/E-owned block is not in the LLC as a data line.
        if (cfg.llcFlavor == LlcFlavor::Epd) {
            forEachHeld(copies, [&](BlockAddr block, const Holders &h) {
                if (h.owners > 0 && llc_has_data(block)) {
                    Tracking trk = sys.peekTracking(s, block);
                    if (trk.found() &&
                        trk.where == TrackWhere::LlcFused) {
                        return; // a fused line is not a usable copy
                    }
                    violate("epd-exclusive-private",
                            "M/E block " + hex(block) +
                                " resident in an EPD LLC");
                }
            });
        }

        // 6a. Provenance conservation: every DEV and inclusion
        // invalidation is attributed to exactly one inducing core, so
        // the per-core attribution vectors sum to the totals.
        if (s == 0) { // system-wide counters; check once
            std::uint64_t dev_sum = 0, incl_sum = 0;
            for (std::uint64_t v : sys.protoStats().devByInducer)
                dev_sum += v;
            for (std::uint64_t v : sys.protoStats().inclusionByInducer)
                incl_sum += v;
            if (dev_sum != sys.protoStats().devInvalidations) {
                violate("provenance-conservation",
                        "attributed DEVs " + std::to_string(dev_sum) +
                            " != total " +
                            std::to_string(
                                sys.protoStats().devInvalidations));
            }
            if (incl_sum != sys.protoStats().inclusionInvalidations) {
                violate("provenance-conservation",
                        "attributed inclusion invalidations " +
                            std::to_string(incl_sum) + " != total " +
                            std::to_string(
                                sys.protoStats()
                                    .inclusionInvalidations));
            }
        }

        // 6. ZeroDEV guarantee: no DEV has ever been delivered.
        if (zerodev && sys.protoStats().devInvalidations != 0) {
            violate("zero-dev",
                    "ZeroDEV delivered " +
                        std::to_string(sys.protoStats().devInvalidations) +
                        " DEV invalidations");
        }

        // 6-DLS. No directory means no directory-induced invalidations
        // of any kind, ever (the side-channel lab measures this).
        if (dls && s == 0 &&
            (sys.protoStats().devInvalidations != 0 ||
             sys.protoStats().inclusionInvalidations != 0)) {
            violate("dls-zero-dev",
                    "directoryless backend delivered directory-induced "
                    "invalidations");
        }

        // 7. Memory-corruption safety looks at every socket's copies, so
        // it runs after this loop.
    }

    // 7. Memory-corruption safety, system-wide: every destroyed memory
    // block is still recoverable, from a private copy in any socket or
    // from a plain Data line in any socket's LLC (clean or dirty).
    const auto recoverable = [&](BlockAddr b) {
        for (SocketId s = 0; s < cfg.sockets; ++s) {
            if (std::binary_search(copiesBy[s].begin(), copiesBy[s].end(),
                                   b, ByBlock{}) ||
                sys.llc(s).countLines(b, isData) != 0) {
                return true;
            }
        }
        return false;
    };
    for (SocketId h = 0; h < cfg.sockets; ++h) {
        sys.memStore(h).forEachDestroyed([&](BlockAddr b) {
            if (dls) {
                // DLS has no entry-to-memory flows: memory data can
                // never be destroyed under the directoryless backend.
                out.push_back({"dls-memory-intact",
                               "memory block " + hex(b) +
                                   " destroyed under the directoryless "
                                   "backend"});
                return;
            }
            if (!recoverable(b)) {
                out.push_back(
                    {"corruption-safety",
                     "destroyed memory block " + hex(b) +
                         " has no cached copy anywhere in the system"});
            }
        });
    }

    return out;
}

void
assertInvariants(const CmpSystem &sys)
{
    const auto violations = checkInvariants(sys);
    if (violations.empty())
        return;
    for (const auto &v : violations)
        logMsg(LogLevel::Error, "%s: %s", v.rule.c_str(),
               v.detail.c_str());
    panic("%zu invariant violations", violations.size());
}

} // namespace zerodev
