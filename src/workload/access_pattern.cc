#include "workload/access_pattern.hh"

#include "common/log.hh"

namespace zerodev
{

namespace
{
// Region strides chosen so that no two regions can ever overlap: each
// region gets a 2^24-block (1 GB) window.
constexpr BlockAddr kWindow = 1ull << 24;
constexpr BlockAddr kPrivateBase = 0x1ull << 32;
constexpr BlockAddr kSharedBase = 0x9ull << 32;
constexpr BlockAddr kCodeBase = 0xDull << 32;
constexpr BlockAddr kStreamBase = 0x11ull << 32;

/** Reuse skew inside a migratory chunk. */
const std::uint64_t kChunkSkew = Rng::threshold(0.3);
} // namespace

namespace
{

/** splitmix64 finaliser: decorrelates region bases. */
BlockAddr
scramble(BlockAddr x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Pseudo-random sub-window offset so that no two regions start at the
 *  same set-index alignment (aligned bases would pile every region's
 *  hot prefix onto the same cache and directory sets). */
BlockAddr
jitter(BlockAddr key, BlockAddr room)
{
    return scramble(key) % room;
}

} // namespace

RegionLayout::RegionLayout(std::uint32_t instance, std::uint32_t thread,
                           std::uint32_t app_id)
{
    // Each (instance, thread) pair gets a 2^20-block (64 MB) window for
    // its private and streaming data; instances get 16 M-block windows
    // for process-shared data; application binaries get their own code
    // windows (shared across rate-mode copies of the same binary). The
    // start of each region is jittered inside the first half of its
    // window (footprints fit in the second half), so set indices are
    // decorrelated across regions and instances.
    const BlockAddr slot = static_cast<BlockAddr>(instance) * 160 + thread;
    privateBase = kPrivateBase + slot * (1ull << 20) +
                  jitter(slot * 2 + 1, 1ull << 19);
    sharedBase = kSharedBase + static_cast<BlockAddr>(instance) * kWindow +
                 jitter(instance * 2 + 0x10001, kWindow / 4);
    codeBase = kCodeBase + static_cast<BlockAddr>(app_id) * kWindow +
               jitter(app_id * 2 + 0x20001, kWindow / 2);
    streamBase = kStreamBase + slot * (1ull << 20) +
                 jitter(slot * 2 + 0x30001, 1ull << 19);
}

ThreadGenerator::ThreadGenerator(const AppProfile &profile,
                                 const RegionLayout &layout,
                                 std::uint32_t thread,
                                 std::uint32_t threads, std::uint64_t seed)
    : layout_(layout),
      thread_(thread),
      threads_(threads == 0 ? 1 : threads),
      privateBlocks_(std::max<std::uint64_t>(profile.privateBlocks, 1)),
      hotBlocks_(std::min(std::max<std::uint64_t>(profile.hotBlocks, 1),
                          privateBlocks_)),
      sharedRoBlocks_(std::max<std::uint64_t>(profile.sharedRoBlocks, 1)),
      sharedRwBlocks_(std::max<std::uint64_t>(profile.sharedRwBlocks, 1)),
      chunkBlocks_(std::max<std::uint64_t>(sharedRwBlocks_ / threads_, 1)),
      codeBlocks_(std::max<std::uint64_t>(profile.codeBlocks, 1)),
      streamBlocks_(std::max<std::uint64_t>(profile.streamBlocks, 1)),
      epochLength_(profile.epochLength),
      coldRunBlocks_(std::max<std::uint32_t>(profile.coldRunBlocks, 1)),
      streamRepeat_(std::max<std::uint32_t>(profile.streamRepeat, 1)),
      gapBound_(profile.gapMean == 0 ? 0 : 2 * profile.gapMean + 1),
      hotT_(Rng::threshold(profile.hotFrac)),
      storeT_(Rng::threshold(profile.storeFrac)),
      rwStoreT_(Rng::threshold(profile.rwStoreFrac)),
      migratoryT_(Rng::threshold(profile.migratory)),
      zipfSkewT_(Rng::threshold(profile.zipfSkew)),
      roZipfSkewT_(Rng::threshold(profile.roZipfSkew)),
      rng_(seed * 0x9e3779b97f4a7c15ull + thread + 1)
{
    // Each bound is the threshold of a running double sum, added in
    // this order: a compare then decides exactly as m * 2^-53 < sum.
    double acc = profile.pIfetch;
    ifetchBound_ = Rng::threshold(acc);
    sharedRoBound_ = Rng::threshold(acc += profile.pSharedRo);
    sharedRwBound_ = Rng::threshold(acc += profile.pSharedRw);
    streamBound_ = Rng::threshold(acc += profile.pStream);
}

BlockAddr
ThreadGenerator::pickPrivate()
{
    if (rng_.chance(hotT_))
        return layout_.privateBase + rng_.zipfish(hotBlocks_, zipfSkewT_);
    // Cold sweep over the full private footprint, in run-aligned
    // spatial bursts (page-style locality).
    if (coldRemaining_ == 0) {
        coldPos_ = (rng_.below(privateBlocks_) / coldRunBlocks_) *
                   coldRunBlocks_;
        coldRemaining_ = coldRunBlocks_;
    }
    --coldRemaining_;
    return layout_.privateBase + (coldPos_++ % privateBlocks_);
}

BlockAddr
ThreadGenerator::pickSharedRo()
{
    return layout_.sharedBase + rng_.zipfish(sharedRoBlocks_, roZipfSkewT_);
}

BlockAddr
ThreadGenerator::pickSharedRw()
{
    if (migratoryT_ > 0 && rng_.chance(migratoryT_)) {
        // Migratory chunks rotate across threads every epoch: thread t
        // works on chunk (epoch + t) mod threads, so ownership of each
        // chunk migrates producer/consumer style.
        const std::uint64_t epoch = count_ / epochLength_;
        const std::uint64_t chunk = (epoch + thread_) % threads_;
        const std::uint64_t off =
            chunk * chunkBlocks_ + rng_.zipfish(chunkBlocks_, kChunkSkew);
        return layout_.sharedBase + kWindow / 2 + (off % sharedRwBlocks_);
    }
    return layout_.sharedBase + kWindow / 2 +
           rng_.zipfish(sharedRwBlocks_, roZipfSkewT_);
}

BlockAddr
ThreadGenerator::pickStream()
{
    const BlockAddr b =
        layout_.streamBase + ((streamPos_ / streamRepeat_) % streamBlocks_);
    ++streamPos_;
    return b;
}

BlockAddr
ThreadGenerator::pickCode()
{
    return layout_.codeBase + rng_.zipfish(codeBlocks_, roZipfSkewT_);
}

MemAccess
ThreadGenerator::next()
{
    ++count_;
    MemAccess a;
    a.gap = gapBound_ == 0
                ? 0
                : static_cast<std::uint32_t>(rng_.below(gapBound_));

    const std::uint64_t m = rng_.draw53();
    if (m < ifetchBound_) {
        a.type = AccessType::Ifetch;
        a.block = pickCode();
        return a;
    }
    if (m < sharedRoBound_) {
        a.type = AccessType::Load;
        a.block = pickSharedRo();
        return a;
    }
    if (m < sharedRwBound_) {
        a.type = rng_.chance(rwStoreT_) ? AccessType::Store
                                        : AccessType::Load;
        a.block = pickSharedRw();
        return a;
    }
    if (m < streamBound_) {
        a.type = rng_.chance(storeT_) ? AccessType::Store : AccessType::Load;
        a.block = pickStream();
        return a;
    }
    a.type = rng_.chance(storeT_) ? AccessType::Store : AccessType::Load;
    a.block = pickPrivate();
    return a;
}

} // namespace zerodev
