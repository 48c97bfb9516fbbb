#include "verify/differ.hh"

#include <algorithm>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "core/cmp_system.hh"
#include "core/invariants.hh"
#include "sim/snapshot.hh"
#include "workload/app_profiles.hh"
#include "workload/workload.hh"

namespace zerodev::verify
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

/**
 * Small-cache geometry (the tests' tiny config): 2 KB L1s, 4 KB L2,
 * 64 KB LLC over 2 banks. Conflicts, entry spills and corrupted-memory
 * flows all happen within a few thousand accesses, which is what makes
 * differential fuzzing productive.
 */
SystemConfig
smallConfig(std::uint32_t cores, std::uint32_t sockets)
{
    SystemConfig cfg;
    cfg.name = "verify-small";
    cfg.sockets = sockets;
    cfg.coresPerSocket = cores / sockets;
    cfg.l1i = CacheConfig{2 * 1024, 8, 3};
    cfg.l1d = CacheConfig{2 * 1024, 8, 3};
    cfg.l2 = CacheConfig{4 * 1024, 8, 8};
    cfg.llcSizeBytes = 64 * 1024;
    cfg.llcBanks = 2;
    // A tiny socket-directory cache stresses the backing flows.
    cfg.socketDirCacheSets = 8;
    cfg.socketDirCacheWays = 2;
    return cfg;
}

Variant
zdevVariant(const std::string &name, std::uint32_t cores,
            std::uint32_t sockets, double ratio, DirCachePolicy policy,
            LlcReplPolicy repl, LlcFlavor flavor)
{
    SystemConfig cfg = smallConfig(cores, sockets);
    applyZeroDev(cfg, ratio);
    cfg.dirCachePolicy = policy;
    cfg.llcReplPolicy = repl;
    cfg.llcFlavor = flavor;
    cfg.socketDirZeroDev = sockets > 1;
    return {name, cfg};
}

Variant
baseVariant(const std::string &name, std::uint32_t cores,
            std::uint32_t sockets, DirOrg org, double ratio,
            LlcFlavor flavor = LlcFlavor::NonInclusive)
{
    SystemConfig cfg = smallConfig(cores, sockets);
    cfg.dirOrg = org;
    cfg.directory.sizeRatio = ratio;
    cfg.llcFlavor = flavor;
    return {name, cfg};
}

/** The load-value an instance reports when it demonstrably served a
 *  request from destroyed memory data. Folding the block address in
 *  keeps two poisoned blocks from accidentally comparing equal. */
std::uint64_t
poisonValue(BlockAddr block)
{
    return 0xdead0000'00000000ull ^ block;
}

/** Per-instance lockstep state. */
struct Instance
{
    const Variant *variant = nullptr;
    std::unique_ptr<CmpSystem> sys;
    Cycle now = 0;
    /** Blocks whose data this instance has demonstrably corrupted. */
    std::unordered_set<BlockAddr> poisoned;
};

using ClassCounts =
    std::array<std::uint64_t,
               static_cast<std::size_t>(AccessClass::NumClasses)>;

/** Sum of the corrupted-recovery flow counters (any of them moving
 *  during an access means the protocol noticed the destroyed copy). */
std::uint64_t
recoveryFlows(const ProtocolStats &p)
{
    return p.corruptedResponses + p.corruptedReadMisses +
           p.lastCopyRestores;
}

/** The service class that completed a transaction: the first class
 *  whose count moved across it. */
AccessClass
firstChangedClass(const ClassCounts &pre, const ClassCounts &post)
{
    for (std::size_t k = 0; k < pre.size(); ++k) {
        if (post[k] != pre[k])
            return static_cast<AccessClass>(k);
    }
    return AccessClass::NumClasses;
}

/** Records one instance runs before the next takes over (a window also
 *  ends at every cadence point). The window buffers hold at most
 *  kWindow values per instance. */
constexpr std::uint64_t kWindow = 1024;

} // namespace

bool
DifferCheckpoint::save(const std::string &path, std::string *err) const
{
    Snapshot snap;
    SerialOut &out = snap.section("differ");
    out.u64(accessIndex);
    out.u32(static_cast<std::uint32_t>(instances.size()));
    for (const InstanceState &st : instances) {
        out.u64(st.system.size());
        out.raw(st.system.data(), st.system.size());
        out.u64(st.now);
        out.u64(st.poisoned.size());
        for (BlockAddr b : st.poisoned)
            out.u64(b);
    }
    out.u64(versions.size());
    for (const auto &[block, ver] : versions) {
        out.u64(block);
        out.u64(ver);
    }
    return snap.writeFile(path, err);
}

bool
DifferCheckpoint::load(const std::string &path, std::string *err)
{
    valid = false;
    instances.clear();
    versions.clear();

    Snapshot snap;
    if (!snap.readFile(path, err))
        return false;
    const std::vector<std::uint8_t> *bytes = snap.find("differ");
    if (!bytes) {
        if (err)
            *err = "snapshot has no differ section";
        return false;
    }
    SerialIn in(*bytes);
    accessIndex = in.u64();
    const std::uint32_t n = in.u32();
    for (std::uint32_t i = 0; i < n && in.ok(); ++i) {
        InstanceState st;
        const std::uint64_t size = in.u64();
        const std::uint8_t *image = in.raw(size); // null if truncated
        if (!image)
            break;
        st.system.assign(image, image + size);
        st.now = in.u64();
        const std::uint64_t poisoned = in.u64();
        for (std::uint64_t p = 0; p < poisoned && in.ok(); ++p)
            st.poisoned.push_back(in.u64());
        instances.push_back(std::move(st));
    }
    const std::uint64_t vn = in.u64();
    for (std::uint64_t v = 0; v < vn && in.ok(); ++v) {
        const BlockAddr block = in.u64();
        const std::uint64_t ver = in.u64();
        versions.emplace_back(block, ver);
    }
    if (!in.exhausted()) {
        if (err)
            *err = in.ok() ? "trailing bytes in differ section"
                           : in.error();
        return false;
    }
    valid = true;
    return true;
}

Differ::Differ(std::vector<Variant> variants, DifferOptions opt)
    : variants_(std::move(variants)), opt_(opt)
{
    if (variants_.empty())
        panic("Differ needs at least one variant");
    cores_ = variants_.front().cfg.sockets *
             variants_.front().cfg.coresPerSocket;
    for (const Variant &v : variants_) {
        if (v.cfg.sockets * v.cfg.coresPerSocket != cores_) {
            panic("variant '%s' disagrees on the total core count",
                  v.name.c_str());
        }
    }

    // Strict equivalence class: the paper claims ZeroDEV keeps the core
    // caches bit-identical to an unbounded directory. That holds for the
    // single-socket non-inclusive flavours (inclusive back-invalidations
    // and EPD deallocations legitimately change private contents;
    // sparse/SecDir/MgD baselines deliver DEVs). Multi-socket variants
    // are value-only: the socket-directory cache evicts on a schedule
    // that depends on LLC content, which ZeroDEV's in-LLC entries shift,
    // so remote copies are recalled at different points across variants.
    // The first strict variant heads the group.
    int head = -1;
    strictHead_.assign(variants_.size(), -1);
    for (std::size_t i = 0; i < variants_.size(); ++i) {
        const SystemConfig &cfg = variants_[i].cfg;
        const bool strict = cfg.protocol == ProtocolKind::MesiZeroDev &&
                            cfg.sockets == 1 &&
                            cfg.llcFlavor == LlcFlavor::NonInclusive &&
                            (cfg.dirOrg == DirOrg::Unbounded ||
                             cfg.dirOrg == DirOrg::ZeroDev);
        if (!strict)
            continue;
        if (head < 0)
            head = static_cast<int>(i);
        strictHead_[i] = head;
    }
}

DifferResult
Differ::run(const std::vector<TraceRecord> &stream) const
{
    return runImpl(stream, nullptr);
}

DifferResult
Differ::resume(const DifferCheckpoint &from,
               const std::vector<TraceRecord> &stream) const
{
    return runImpl(stream, &from);
}

DifferResult
Differ::runImpl(const std::vector<TraceRecord> &stream,
                const DifferCheckpoint *from) const
{
    DifferResult res;
    if (from) {
        if (!from->valid)
            panic("resuming the Differ from an invalid checkpoint");
        if (from->instances.size() != variants_.size()) {
            panic("checkpoint has %zu instances, differ has %zu",
                  from->instances.size(), variants_.size());
        }
        if (from->accessIndex > stream.size()) {
            panic("checkpoint is %llu records in, stream has only %zu",
                  static_cast<unsigned long long>(from->accessIndex),
                  stream.size());
        }
    }
    const std::uint64_t start = from ? from->accessIndex : 0;

    // Window buffers of the lockstep loop below, allocated before the
    // instances are built. expected[k]: the oracle value of record
    // lo+k; observed[i * width + k]: the value instance i reports for it.
    const std::size_t width = static_cast<std::size_t>(
        std::min<std::uint64_t>(kWindow, stream.size() - start));
    std::vector<std::uint64_t> expected(width);
    std::vector<std::uint64_t> observed(variants_.size() * width);

    std::vector<Instance> inst(variants_.size());
    for (std::size_t i = 0; i < variants_.size(); ++i) {
        inst[i].variant = &variants_[i];
        inst[i].sys = std::make_unique<CmpSystem>(variants_[i].cfg);
    }

    // Shadow value oracle: version[b] = number of stores to b so far.
    std::unordered_map<BlockAddr, std::uint64_t> version;

    if (from) {
        for (std::size_t i = 0; i < inst.size(); ++i) {
            const DifferCheckpoint::InstanceState &st =
                from->instances[i];
            SerialIn in(st.system);
            inst[i].sys->restoreState(in);
            if (!in.exhausted()) {
                panic("checkpoint instance '%s': %s",
                      variants_[i].name.c_str(),
                      in.ok() ? "trailing bytes" : in.error().c_str());
            }
            inst[i].now = st.now;
            inst[i].poisoned.insert(st.poisoned.begin(),
                                    st.poisoned.end());
        }
        for (const auto &[block, ver] : from->versions)
            version[block] = ver;
    }

    // Snapshot of every instance + the harness state, kept one cadence
    // behind the execution front so it is always pre-divergence.
    auto capture = [&](std::uint64_t done) {
        DifferCheckpoint &cp = res.checkpoint;
        cp.valid = true;
        cp.accessIndex = done;
        cp.instances.clear();
        cp.instances.reserve(inst.size());
        for (const Instance &in : inst) {
            DifferCheckpoint::InstanceState st;
            SerialOut out;
            in.sys->saveState(out);
            st.system = out.data();
            st.now = in.now;
            st.poisoned.assign(in.poisoned.begin(), in.poisoned.end());
            std::sort(st.poisoned.begin(), st.poisoned.end());
            cp.instances.push_back(std::move(st));
        }
        cp.versions.assign(version.begin(), version.end());
        std::sort(cp.versions.begin(), cp.versions.end());
    };

    auto diverge = [&](std::size_t i, std::uint64_t index,
                       const std::string &rule, const std::string &det) {
        res.divergence.found = true;
        res.divergence.rule = rule;
        res.divergence.detail = det;
        res.divergence.instance = variants_[i].name;
        res.divergence.accessIndex = index;
    };

    // One full consistency sweep: invariants on every instance, then the
    // strict-group private-cache comparison.
    using BlockState = std::pair<BlockAddr, MesiState>;
    std::vector<BlockState> a, b; // per-core contents, reused
    auto sweep = [&](std::uint64_t index, bool invariants,
                     bool core_state) -> bool {
        ++res.sweeps;
        if (invariants) {
            for (std::size_t i = 0; i < inst.size(); ++i) {
                const auto violations = checkInvariants(*inst[i].sys);
                if (!violations.empty()) {
                    diverge(i, index, "invariant",
                            violations.front().rule + ": " +
                                violations.front().detail);
                    return false;
                }
            }
        }
        if (!core_state)
            return true;
        for (std::size_t i = 0; i < inst.size(); ++i) {
            const int head = strictHead_[i];
            if (head < 0 || static_cast<std::size_t>(head) == i)
                continue;
            const SystemConfig &hc = variants_[head].cfg;
            const SystemConfig &ic = variants_[i].cfg;
            // E vs S grants can legitimately differ across socket
            // partitionings once forwarding is involved; within one
            // group the partitioning is identical, so exact MESI
            // equality is required.
            for (CoreId c = 0; c < cores_; ++c) {
                a.clear();
                b.clear();
                inst[head]
                    .sys->privateCache(c / hc.coresPerSocket,
                                       c % hc.coresPerSocket)
                    .forEachBlock([&](BlockAddr blk, MesiState st) {
                        a.emplace_back(blk, st);
                    });
                inst[i]
                    .sys->privateCache(c / ic.coresPerSocket,
                                       c % ic.coresPerSocket)
                    .forEachBlock([&](BlockAddr blk, MesiState st) {
                        b.emplace_back(blk, st);
                    });
                std::sort(a.begin(), a.end());
                std::sort(b.begin(), b.end());
                if (a == b)
                    continue;
                // Name the first differing block for the report.
                std::string det = "core " + std::to_string(c) +
                                  " diverges from " +
                                  variants_[head].name;
                for (std::size_t k = 0; k < std::max(a.size(), b.size());
                     ++k) {
                    if (k >= a.size() || k >= b.size() || a[k] != b[k]) {
                        const BlockState &d =
                            k < b.size() ? b[k]
                                         : a[std::min(k, a.size() - 1)];
                        det += " at block " + hex(d.first);
                        break;
                    }
                }
                diverge(i, index, "core-state", det);
                return false;
            }
        }
        return true;
    };

    // Windowed lockstep. Each window runs every instance in turn over
    // up to kWindow records, never past the next cadence point, so an
    // instance's working set stays in the host caches for a whole window
    // instead of being evicted by the other instances on every record.
    // The window is then resolved in (record, instance) order, so every
    // verdict is the one a record-by-record lockstep finds.
    for (std::uint64_t lo = start; lo < stream.size();) {
        std::uint64_t hi = std::min<std::uint64_t>(stream.size(), lo + width);
        const std::uint64_t cadences[] = {
            opt_.invariantCadence, opt_.coreStateCadence,
            opt_.snapshotCadence, opt_.progress ? opt_.progressCadence : 0};
        for (const std::uint64_t c : cadences) {
            if (c)
                hi = std::min(hi, (lo / c + 1) * c);
        }

        // The oracle depends on the stream alone: the value every load
        // must observe, after the record's own store.
        for (std::uint64_t idx = lo; idx < hi; ++idx) {
            const TraceRecord &rec = stream[idx];
            if (rec.core >= cores_) {
                // Resolve the records before it first, as a record-by-
                // record run would.
                if (idx == lo) {
                    panic("stream record %llu targets core %u of %u",
                          static_cast<unsigned long long>(idx), rec.core,
                          cores_);
                }
                hi = idx;
                break;
            }
            std::uint64_t &ver = version[rec.access.block];
            if (rec.access.type == AccessType::Store)
                ++ver;
            expected[idx - lo] = ver;
        }

        // Run each instance over the window. An instance stops at its
        // own first response or destroyed-data failure; the instances
        // after it then stop short of that record (cap), which in
        // lockstep they would never have reached. So the last failure
        // recorded is the earliest in (record, instance) order.
        std::uint64_t cap = hi;
        for (std::size_t i = 0; i < inst.size(); ++i) {
            Instance &in = inst[i];
            CmpSystem &sys = *in.sys;
            const SystemConfig &cfg = in.variant->cfg;
            std::uint64_t *obs = &observed[i * width];
            for (std::uint64_t idx = lo; idx < cap; ++idx) {
                const TraceRecord &rec = stream[idx];
                const AccessType type = rec.access.type;
                const BlockAddr block = rec.access.block;
                const CoreId core = rec.core;
                const SocketId home = sys.homeSocket(block);
                const bool destroyedPre =
                    sys.memStore(home).destroyed(block);
                // Only an access to destroyed data needs its service
                // class and recovery flows, so only it snapshots them.
                std::uint64_t recoveryPre = 0;
                ClassCounts classPre{};
                if (destroyedPre) {
                    recoveryPre = recoveryFlows(sys.protoStats());
                    classPre = sys.protoStats().classCount;
                }

                in.now = sys.access(core, type, block,
                                    in.now + rec.access.gap);

                // Per-access response contract: the requesting core must
                // end up with a copy, writable after a store.
                const MesiState st =
                    sys.privateCache(core / cfg.coresPerSocket,
                                     core % cfg.coresPerSocket)
                        .state(block);
                if (st == MesiState::Invalid) {
                    diverge(i, idx, "response",
                            "core " + std::to_string(core) +
                                " has no copy of " + hex(block) +
                                " after its own access");
                    cap = idx;
                    break;
                }
                if (type == AccessType::Store && st != MesiState::Modified) {
                    diverge(i, idx, "response",
                            "store by core " + std::to_string(core) +
                                " left " + hex(block) + " in state " +
                                toString(st));
                    cap = idx;
                    break;
                }

                // Destroyed-data safety: a transaction that touched a
                // block whose memory image is destroyed must either hit
                // a cached copy or run one of the corrupted-recovery
                // flows. Serving it straight from DRAM returns
                // directory-entry bits as data.
                if (destroyedPre &&
                    firstChangedClass(classPre,
                                      sys.protoStats().classCount) ==
                        AccessClass::Memory &&
                    recoveryFlows(sys.protoStats()) == recoveryPre) {
                    in.poisoned.insert(block);
                    diverge(i, idx, "destroyed-data",
                            "access to " + hex(block) +
                                " served from destroyed memory without a "
                                "recovery flow");
                    cap = idx;
                    break;
                }

                const std::uint64_t want = expected[idx - lo];
                std::uint64_t value = want;
                if (!in.poisoned.empty() && in.poisoned.count(block))
                    value = poisonValue(block);
                if (hook_.enabled && i == hook_.instance &&
                    type == AccessType::Load && block == hook_.block &&
                    want >= hook_.afterStores) {
                    value = want + 1;
                }
                obs[idx - lo] = value;
            }
        }

        // Resolve the window in lockstep order. The architectural-
        // invisibility oracle: every instance observed the same value
        // for each access all of them executed. A mismatch there comes
        // before any failure recorded above.
        for (std::uint64_t idx = lo; idx < cap; ++idx) {
            const std::size_t k = idx - lo;
            const std::uint64_t first = observed[k];
            for (std::size_t i = 1; i < inst.size(); ++i) {
                const std::uint64_t value = observed[i * width + k];
                if (value == first)
                    continue;
                const TraceRecord &rec = stream[idx];
                diverge(i, idx, "load-value",
                        toString(rec.access.type) + std::string(" of ") +
                            hex(rec.access.block) + " by core " +
                            std::to_string(rec.core) + " observed value " +
                            std::to_string(value) + ", " +
                            variants_[0].name + " observed " +
                            std::to_string(first));
                return finish(res, idx + 1);
            }
        }
        if (res.divergence.found)
            return finish(res, cap + 1);

        // Only the window's last record can be a cadence point.
        const std::uint64_t done = hi;
        const bool inv = opt_.invariantCadence &&
                         done % opt_.invariantCadence == 0;
        const bool cst = opt_.coreStateCadence &&
                         done % opt_.coreStateCadence == 0;
        if ((inv || cst) && !sweep(done - 1, inv, cst))
            return finish(res, done);
        if (opt_.snapshotCadence && done % opt_.snapshotCadence == 0)
            capture(done);
        if (opt_.progress && opt_.progressCadence &&
            done % opt_.progressCadence == 0) {
            opt_.progress(done);
        }
        lo = hi;
    }

    if (opt_.progress)
        opt_.progress(stream.size());

    if (!sweep(stream.empty() ? 0 : stream.size() - 1, true, true))
        return finish(res, stream.size());

    // Final image: for every block the stream touched, each instance
    // must still be able to produce the last stored value — from a
    // private cache, an LLC data line, or an intact memory copy — and
    // none may have poisoned it.
    if (opt_.finalImage) {
        std::vector<BlockAddr> retrievable; // sorted, per instance
        for (std::size_t i = 0; i < inst.size(); ++i) {
            const CmpSystem &sys = *inst[i].sys;
            const SystemConfig &cfg = inst[i].variant->cfg;
            const std::unordered_set<BlockAddr> &poisoned = inst[i].poisoned;
            retrievable.clear();
            for (SocketId s = 0; s < cfg.sockets; ++s) {
                for (CoreId c = 0; c < cfg.coresPerSocket; ++c) {
                    sys.privateCache(s, c).forEachBlock(
                        [&](BlockAddr b, MesiState) {
                            retrievable.push_back(b);
                        });
                }
                sys.llc(s).forEach([&](BlockAddr b, const LlcLine &l) {
                    if (l.kind == LlcLineKind::Data)
                        retrievable.push_back(b);
                });
            }
            std::sort(retrievable.begin(), retrievable.end());
            for (const auto &[block, ver] : version) {
                (void)ver;
                if (!poisoned.empty() && poisoned.count(block)) {
                    diverge(i, stream.size(), "final-image",
                            "block " + hex(block) +
                                " ends the run poisoned");
                    return finish(res, stream.size());
                }
                const SocketId home = sys.homeSocket(block);
                if (sys.memStore(home).destroyed(block) &&
                    !std::binary_search(retrievable.begin(),
                                        retrievable.end(), block)) {
                    diverge(i, stream.size(), "final-image",
                            "block " + hex(block) +
                                " is destroyed in memory with no "
                                "cached copy left");
                    return finish(res, stream.size());
                }
            }
        }
    }

    return finish(res, stream.size());
}

DifferResult
Differ::finish(DifferResult &res, std::uint64_t accesses)
{
    res.accesses = accesses;
    return res;
}

std::vector<Variant>
Differ::standardVariants(std::uint32_t cores)
{
    using P = DirCachePolicy;
    using R = LlcReplPolicy;
    using F = LlcFlavor;
    std::vector<Variant> v;
    v.push_back(baseVariant("unbounded", cores, 1, DirOrg::Unbounded, 1.0));
    v.push_back(baseVariant("sparse-1x", cores, 1, DirOrg::SparseNru, 1.0));
    v.push_back(
        baseVariant("sparse-8th", cores, 1, DirOrg::SparseNru, 0.125));
    v.push_back(zdevVariant("zdev-spillall", cores, 1, 0.125, P::SpillAll,
                            R::SpLru, F::NonInclusive));
    v.push_back(zdevVariant("zdev-fpss", cores, 1, 0.125, P::Fpss,
                            R::DataLru, F::NonInclusive));
    v.push_back(zdevVariant("zdev-fpss-splru", cores, 1, 0.125, P::Fpss,
                            R::SpLru, F::NonInclusive));
    v.push_back(zdevVariant("zdev-fuseall", cores, 1, 0.125, P::FuseAll,
                            R::DataLru, F::NonInclusive));
    v.push_back(zdevVariant("zdev-nodir", cores, 1, 0.0, P::Fpss,
                            R::DataLru, F::NonInclusive));
    v.push_back(zdevVariant("zdev-fpss-incl", cores, 1, 0.125, P::Fpss,
                            R::DataLru, F::Inclusive));
    v.push_back(zdevVariant("zdev-fpss-epd", cores, 1, 0.125, P::Fpss,
                            R::DataLru, F::Epd));
    if (cores >= 2 && cores % 2 == 0) {
        v.push_back(
            baseVariant("unbounded-2s", cores, 2, DirOrg::Unbounded, 1.0));
        v.push_back(zdevVariant("zdev-fpss-2s", cores, 2, 0.125, P::Fpss,
                                R::DataLru, F::NonInclusive));
        v.push_back(zdevVariant("zdev-fuseall-2s", cores, 2, 0.0,
                                P::FuseAll, R::DataLru,
                                F::NonInclusive));
    }
    // Rival protocol backends, appended last so the pre-backend variant
    // indices (pinned by CI fault injection and checked-in repros) are
    // preserved. Both join value-only equivalence classes: neither can
    // match MESI private-cache states (DLS has no E state, phase-priority
    // evicts on a different schedule), but the value oracle holds.
    {
        SystemConfig cfg = smallConfig(cores, 1);
        cfg.protocol = ProtocolKind::Dls;
        cfg.directory.sizeRatio = 1.0; // ignored: no directory exists
        v.push_back({"dls", cfg});
    }
    {
        SystemConfig cfg = smallConfig(cores, 1);
        cfg.protocol = ProtocolKind::PhasePriority;
        cfg.dirOrg = DirOrg::SparseNru;
        cfg.directory.sizeRatio = 0.125; // bounded: DEVs are the point
        v.push_back({"phasepri", cfg});
    }
    return v;
}

std::vector<Variant>
Differ::quickVariants(std::uint32_t cores)
{
    using P = DirCachePolicy;
    using R = LlcReplPolicy;
    using F = LlcFlavor;
    std::vector<Variant> v;
    v.push_back(baseVariant("unbounded", cores, 1, DirOrg::Unbounded, 1.0));
    v.push_back(zdevVariant("zdev-fpss", cores, 1, 0.125, P::Fpss,
                            R::DataLru, F::NonInclusive));
    v.push_back(zdevVariant("zdev-fuseall", cores, 1, 0.0, P::FuseAll,
                            R::DataLru, F::NonInclusive));
    return v;
}

std::vector<TraceRecord>
fuzzStream(std::uint64_t seed, std::uint32_t cores,
           std::uint64_t accesses)
{
    Rng rng(seed);
    std::vector<TraceRecord> out;
    out.reserve(accesses);

    // Structured traffic: one application profile drives all cores the
    // way the paper's multi-threaded workloads do.
    static const char *const kApps[] = {"fluidanimate", "canneal", "fft",
                                        "mcf", "streamcluster"};
    const AppProfile app =
        profileByName(kApps[rng.below(std::size(kApps))]);
    const Workload w = Workload::multiThreaded(app, cores, seed | 1);
    std::vector<ThreadGenerator> gens;
    for (std::uint32_t c = 0; c < cores; ++c)
        gens.push_back(w.makeGenerator(c));

    // 30% stores, 7% instruction fetches, the rest loads.
    const std::uint64_t storeBound = Rng::threshold(0.3);
    const std::uint64_t ifetchBound = Rng::threshold(0.37);
    auto randomAccess = [&](BlockAddr block) {
        TraceRecord rec;
        rec.core = static_cast<CoreId>(rng.below(cores));
        rec.access.block = block;
        rec.access.gap = static_cast<std::uint32_t>(rng.below(20));
        const std::uint64_t m = rng.draw53();
        rec.access.type = m < storeBound    ? AccessType::Store
                          : m < ifetchBound ? AccessType::Ifetch
                                            : AccessType::Load;
        return rec;
    };

    while (out.size() < accesses) {
        const std::uint64_t phaseLen =
            std::min<std::uint64_t>(512 + rng.below(1024),
                                    accesses - out.size());
        const std::uint64_t phase = rng.below(4);
        if (phase == 0) {
            // Same-set conflict storm over a hot pool.
            for (std::uint64_t i = 0; i < phaseLen; ++i)
                out.push_back(randomAccess(rng.below(96)));
        } else if (phase == 1) {
            // Capacity churn.
            for (std::uint64_t i = 0; i < phaseLen; ++i)
                out.push_back(randomAccess(4096 + rng.below(4096)));
        } else if (phase == 2) {
            // Directory-set storm: one set, many tags.
            for (std::uint64_t i = 0; i < phaseLen; ++i)
                out.push_back(randomAccess(16 * (1 + rng.below(256))));
        } else {
            // Structured application phase, round-robin over the cores.
            for (std::uint64_t i = 0; i < phaseLen; ++i) {
                const auto c = static_cast<CoreId>(out.size() % cores);
                out.push_back({c, gens[c].next()});
            }
        }
    }
    return out;
}

} // namespace zerodev::verify
