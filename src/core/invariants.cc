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

using Held = std::pair<BlockAddr, Holders>; //!< sorted by block
using Tag = std::pair<BlockAddr, LlcLineKind>; //!< one per LLC line

template <typename T>
bool
byBlock(const T &a, const T &b)
{
    return a.first < b.first;
}

/** The block's entries of a by-block sorted vector. */
template <typename T>
std::pair<typename std::vector<T>::const_iterator,
          typename std::vector<T>::const_iterator>
entriesOf(const std::vector<T> &v, BlockAddr b)
{
    return std::equal_range(v.begin(), v.end(), T{b, {}}, byBlock<T>);
}

const Holders *
holdersOf(const std::vector<Held> &cached, BlockAddr b)
{
    const auto [lo, hi] = entriesOf(cached, b);
    return lo != hi ? &lo->second : nullptr;
}

/** Does the LLC hold a line for @p b whose kind satisfies @p want? */
template <typename Pred>
bool
llcHolds(const std::vector<Tag> &tags, BlockAddr b, Pred want)
{
    const auto [lo, hi] = entriesOf(tags, b);
    return std::any_of(lo, hi, [&](const Tag &t) { return want(t.second); });
}

/** A data-bearing line: a plain data line or a fused one. */
bool
carriesData(LlcLineKind k)
{
    return k == LlcLineKind::Data || k == LlcLineKind::FusedDe;
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

    // Per socket, the privately cached blocks and the LLC lines, as
    // vectors sorted by block (kept for the system-wide pass). Walks
    // over them visit blocks in ascending order, as the ordered maps
    // they replace did, so violations come out in the same order.
    std::vector<std::vector<Held>> cachedBy(cfg.sockets);
    std::vector<std::vector<Tag>> tagsBy(cfg.sockets);

    for (SocketId s = 0; s < cfg.sockets; ++s) {
        // Ground truth: which cores of this socket cache which blocks.
        // One entry per cached copy, then merged per block.
        std::vector<Held> &cached = cachedBy[s];
        std::size_t copies = 0;
        for (CoreId c = 0; c < cfg.coresPerSocket; ++c)
            copies += sys.privateCache(s, c).validBlocks();
        cached.reserve(copies);
        for (CoreId c = 0; c < cfg.coresPerSocket; ++c) {
            sys.privateCache(s, c).forEachBlock(
                [&](BlockAddr b, MesiState st) {
                    Holders h;
                    h.cores.set(c);
                    h.owners = st == MesiState::Modified ||
                               st == MesiState::Exclusive;
                    cached.emplace_back(b, h);
                });
        }
        std::sort(cached.begin(), cached.end(), byBlock<Held>);
        std::size_t merged = 0;
        for (const Held &copy : cached) {
            if (merged && cached[merged - 1].first == copy.first) {
                Holders &h = cached[merged - 1].second;
                h.cores |= copy.second.cores;
                h.owners += copy.second.owners;
            } else {
                cached[merged++] = copy;
            }
        }
        cached.resize(merged);

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
            for (const auto &[block, holders] : cached) {
                if (holders.owners > 1) {
                    violate("single-owner",
                            "block " + hex(block) +
                                " has multiple M/E owners");
                }
                if (holders.owners == 1 && holders.cores.count() != 1) {
                    violate("dls-swmr",
                            "block " + hex(block) +
                                " is owned M/E alongside other copies");
                }
            }
        }

        // 1. Tracking completeness: every privately cached block has a
        // directory entry (in-socket or housed in home memory) whose
        // sharer vector matches the caching cores exactly.
        for (const auto &[block, holders] : cached) {
            if (dls)
                break; // no tracking exists; rules 1-DLS above apply
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
                    continue;
                }
                entry = *seg;
            }
            if (entry.sharers != holders.cores) {
                violate("tracking-precision",
                        "socket " + std::to_string(s) + " block " +
                            hex(block) + " sharer vector mismatch");
            }
            if (holders.owners > 1) {
                violate("single-owner",
                        "block " + hex(block) + " has multiple M/E owners");
            }
            if (holders.owners == 1 && entry.state != DirState::Owned) {
                violate("owner-state",
                        "block " + hex(block) +
                            " owned privately but tracked as Shared");
            }
            if (holders.owners == 0 && entry.state == DirState::Owned) {
                violate("owner-state",
                        "block " + hex(block) +
                            " tracked as Owned but no core holds M/E");
            }
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
            const Holders *h = holdersOf(cached, block);
            if (!h || h->cores != e.sharers) {
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

        // 3. LLC line rules.
        const Llc &llc = sys.llc(s);
        std::vector<Tag> &tags = tagsBy[s];
        tags.reserve(llc.occupiedLines());
        llc.forEach([&](BlockAddr b, const LlcLine &l) {
            tags.emplace_back(b, l.kind);
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
        std::sort(tags.begin(), tags.end(), byBlock<Tag>);
        const auto llc_has_data = [&](BlockAddr b) {
            return llcHolds(tags, b, carriesData);
        };
        // At most two tag matches per block (block + spilled entry).
        for (auto run = tags.begin(); run != tags.end();) {
            const auto end =
                std::upper_bound(run, tags.end(), *run, byBlock<Tag>);
            if (end - run > 2) {
                violate("tag-duplication",
                        "block " + hex(run->first) + " matches " +
                            std::to_string(end - run) + " LLC lines");
            }
            run = end;
        }
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
            for (const auto &[block, holders] : cached) {
                if (holders.owners > 0 && llc_has_data(block)) {
                    violate("dls-llc-exclusion",
                            "M/E block " + hex(block) +
                                " still has an LLC data line");
                }
            }
        }

        // 4. Inclusion: every privately cached block is in the LLC.
        if (cfg.llcFlavor == LlcFlavor::Inclusive) {
            for (const auto &[block, holders] : cached) {
                (void)holders;
                if (!llc_has_data(block)) {
                    violate("inclusion",
                            "block " + hex(block) +
                                " cached privately but absent from an "
                                "inclusive LLC");
                }
            }
        }

        // 5. EPD: an M/E-owned block is not in the LLC as a data line.
        if (cfg.llcFlavor == LlcFlavor::Epd) {
            for (const auto &[block, holders] : cached) {
                if (holders.owners > 0 && llc_has_data(block)) {
                    Tracking trk = sys.peekTracking(s, block);
                    if (trk.found() &&
                        trk.where == TrackWhere::LlcFused) {
                        continue; // a fused line is not a usable copy
                    }
                    violate("epd-exclusive-private",
                            "M/E block " + hex(block) +
                                " resident in an EPD LLC");
                }
            }
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

        // 7. Memory-corruption safety: every destroyed home block (homed
        // at this socket) is still cached somewhere, or held dirty in
        // some LLC that will eventually write it back.
        // (Validated via the segments: a destroyed block must have at
        // least one live segment, an in-socket entry, or a dirty LLC
        // copy somewhere.)
        // Gather dirty LLC copies lazily below.
    }

    // 7 (system-wide pass).
    // A block is recoverable from any private copy or LLC data line.
    const auto recoverable = [&](BlockAddr b) {
        for (SocketId s = 0; s < cfg.sockets; ++s) {
            if (holdersOf(cachedBy[s], b) ||
                llcHolds(tagsBy[s], b, [](LlcLineKind k) {
                    return k == LlcLineKind::Data;
                })) {
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
