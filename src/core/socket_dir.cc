#include "core/socket_dir.hh"

#include <algorithm>
#include <vector>

#include "common/log.hh"

namespace zerodev
{

SocketDirectory::SocketDirectory(Backing backing, std::uint64_t sets,
                                 std::uint32_t ways, MemoryStore &ms)
    : backing_(backing), tags_(sets, ways), ms_(ms)
{
}

void
SocketDirectory::install(BlockAddr block)
{
    const std::size_t set = tags_.setOfAddr(block);
    const std::uint64_t tag = tags_.tagOfAddr(block);
    WayRef free_way = tags_.findFree(set);
    if (!free_way.found) {
        // Owned entries get the higher replacement priority (Section
        // III-D5): evicting them never corrupts a *shared* block's read
        // path.
        const std::uint32_t vway = tags_.victim(set, [&](const TagLine &l) {
            auto it = store_.find(l.block);
            const SocketDirState st = it == store_.end()
                                          ? SocketDirState::Invalid
                                          : it->second.state;
            switch (st) {
              case SocketDirState::Invalid: return 0;
              case SocketDirState::Owned: return 1;
              case SocketDirState::Shared: return 2;
              case SocketDirState::Corrupted: return 3;
            }
            return 2;
        });
        const TagLine &vline = tags_.line(set, vway);
        auto it = store_.find(vline.block);
        if (it != store_.end() && it->second.live()) {
            ++stats_.evictions;
            if (backing_ == Backing::DirEvictBit) {
                // House the entry in its own memory block and set the
                // block's DirEvict bit; the store keeps the payload (it
                // models both locations — the housed copy is
                // authoritative until re-fetched).
                ms_.storeSocketEntry(vline.block, it->second);
            }
            // MemoryBackup: the backup region always holds the entry;
            // nothing to write functionally.
        } else if (it != store_.end()) {
            store_.erase(it); // dead entries just vanish
        }
        tags_.release(set, vway);
        free_way = {set, vway, true};
    }
    tags_.occupy(set, free_way.way, tag);
    tags_.line(set, free_way.way).block = block;
    tags_.touch(set, free_way.way);
}

SocketDirectory::Access
SocketDirectory::access(BlockAddr block)
{
    ++stats_.lookups;
    const std::size_t set = tags_.setOfAddr(block);
    const std::uint64_t tag = tags_.tagOfAddr(block);
    const WayRef ref = tags_.find(set, tag, [&](const TagLine &l) {
        return l.block == block;
    });

    bool miss = !ref.found;
    bool housed = false;
    if (ref.found) {
        tags_.touch(set, ref.way);
    } else {
        ++stats_.misses;
        if (backing_ == Backing::DirEvictBit &&
            ms_.dirEvictBit(block)) {
            // Extract the housed entry back into the cache.
            auto entry = ms_.loadSocketEntry(block);
            ms_.clearSocketEntry(block);
            store_[block] = *entry;
            housed = true;
            ++stats_.housedFetches;
        } else if (backing_ == Backing::MemoryBackup &&
                   store_.count(block)) {
            ++stats_.backupFetches;
        }
        install(block);
    }
    return {store_[block], miss, housed};
}

SocketDirEntry
SocketDirectory::peek(BlockAddr block) const
{
    auto it = store_.find(block);
    if (it != store_.end())
        return it->second;
    if (backing_ == Backing::DirEvictBit) {
        auto housed = ms_.loadSocketEntry(block);
        if (housed)
            return *housed;
    }
    return SocketDirEntry{};
}

std::uint64_t
SocketDirectory::liveEntries() const
{
    std::uint64_t n = 0;
    for (const auto &[block, e] : store_) {
        if (e.live())
            ++n;
    }
    return n;
}


void
SocketDirectory::save(SerialOut &out) const
{
    out.u8(backing_ == Backing::DirEvictBit ? 1 : 0);
    tags_.save(out, [](SerialOut &o, std::size_t, std::uint32_t,
                       const TagLine &l) {
        o.u64(l.block);
    });
    std::vector<BlockAddr> keys;
    keys.reserve(store_.size());
    for (const auto &[block, e] : store_) {
        (void)e;
        keys.push_back(block);
    }
    std::sort(keys.begin(), keys.end());
    out.u64(keys.size());
    for (BlockAddr block : keys) {
        out.u64(block);
        saveEntry(out, store_.at(block));
    }
    out.u64(stats_.lookups);
    out.u64(stats_.misses);
    out.u64(stats_.evictions);
    out.u64(stats_.housedFetches);
    out.u64(stats_.backupFetches);
}

void
SocketDirectory::restore(SerialIn &in)
{
    const bool devBit = in.u8() != 0;
    if (!in.check(devBit == (backing_ == Backing::DirEvictBit),
                  "socket directory backing mismatch"))
        return;
    tags_.restore(in, [](SerialIn &i, std::size_t, std::uint32_t,
                         TagLine &l) {
        l.block = i.u64();
    });
    store_.clear();
    const std::uint64_t n = in.u64();
    for (std::uint64_t i = 0; i < n && in.ok(); ++i) {
        const BlockAddr block = in.u64();
        store_[block] = zerodev::loadSocketEntry(in);
    }
    stats_.lookups = in.u64();
    stats_.misses = in.u64();
    stats_.evictions = in.u64();
    stats_.housedFetches = in.u64();
    stats_.backupFetches = in.u64();
}

} // namespace zerodev
