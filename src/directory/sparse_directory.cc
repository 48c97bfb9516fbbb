#include "directory/sparse_directory.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/log.hh"

namespace zerodev
{

SparseDirectory::SparseDirectory(std::uint32_t slices,
                                 std::uint64_t sets_per_slice,
                                 std::uint32_t ways,
                                 bool replacement_disabled,
                                 std::uint32_t tag_partitions)
    : numSlices_(slices),
      setsPerSlice_(sets_per_slice),
      ways_(ways),
      replacementDisabled_(replacement_disabled),
      unbounded_(sets_per_slice == 0),
      tagPartitions_(tag_partitions)
{
    if (slices == 0 || !isPowerOfTwo(slices))
        fatal("sparse directory slice count %u must be a power of two",
              slices);
    if (tag_partitions != 0 && ways % tag_partitions != 0)
        fatal("%u directory ways do not divide into %u tag partitions",
              ways, tag_partitions);
    sliceShift_ = floorLog2(slices);
    if (!unbounded_) {
        if (!isPowerOfTwo(sets_per_slice))
            fatal("sparse directory sets/slice must be a power of two");
        setMask_ = sets_per_slice - 1;
        tagShift_ = sliceShift_ + floorLog2(sets_per_slice);
        slices_.reserve(slices);
        for (std::uint32_t i = 0; i < slices; ++i)
            slices_.emplace_back(sets_per_slice, ways);
    }
}

SparseDirectory
SparseDirectory::makeUnbounded(std::uint32_t slices)
{
    return SparseDirectory(slices, 0, 8, false);
}

std::uint32_t
SparseDirectory::sliceOf(BlockAddr block) const
{
    return static_cast<std::uint32_t>(block & (numSlices_ - 1));
}

std::size_t
SparseDirectory::setOf(BlockAddr block) const
{
    return static_cast<std::size_t>((block >> sliceShift_) & setMask_);
}

std::uint64_t
SparseDirectory::tagOfBlock(BlockAddr block) const
{
    return block >> tagShift_;
}

DirEntry *
SparseDirectory::find(BlockAddr block)
{
    ++stats_.lookups;
    if (unbounded_) {
        DirEntry *e = map_.find(block);
        if (e != nullptr)
            ++stats_.hits;
        return e;
    }
    Slice &slice = slices_[sliceOf(block)];
    const std::size_t set = setOf(block);
    const WayRef ref = slice.array.find(set, tagOfBlock(block));
    if (!ref.found)
        return nullptr;
    ++stats_.hits;
    slice.array.touch(set, ref.way);
    slice.nru.touch(set, ref.way);
    return &slice.array.line(set, ref.way).payload;
}

const DirEntry *
SparseDirectory::peek(BlockAddr block) const
{
    if (unbounded_)
        return map_.find(block);
    const Slice &slice = slices_[sliceOf(block)];
    const std::size_t set = setOf(block);
    const WayRef ref = slice.array.find(set, tagOfBlock(block));
    if (!ref.found)
        return nullptr;
    return &slice.array.line(set, ref.way).payload;
}

DirAllocResult
SparseDirectory::alloc(BlockAddr block, std::uint32_t domain)
{
    DirAllocResult res;
    ++stats_.allocs;

    if (unbounded_) {
        auto [entry, inserted] = map_.tryEmplace(block);
        if (!inserted)
            panic("directory entry for block %#llx already exists",
                  static_cast<unsigned long long>(block));
        res.entry = entry;
        ++live_;
        peak_ = std::max(peak_, live_);
        return res;
    }

    Slice &slice = slices_[sliceOf(block)];
    const std::size_t set = setOf(block);

    // Partitioned tags: allocation (and therefore eviction) is confined
    // to the requesting domain's way range; lookups stay set-wide.
    std::uint32_t way_first = 0;
    std::uint32_t way_count = ways_;
    if (tagPartitions_ != 0) {
        way_count = ways_ / tagPartitions_;
        way_first = (domain % tagPartitions_) * way_count;
    }

    WayRef free_way;
    if (tagPartitions_ == 0) {
        free_way = slice.array.findFree(set);
    } else {
        for (std::uint32_t w = way_first; w < way_first + way_count;
             ++w) {
            if (!slice.array.occupiedAt(set, w)) {
                free_way = {set, w, true};
                break;
            }
        }
    }
    if (!free_way.found) {
        if (replacementDisabled_) {
            // ZeroDEV: never evict a valid entry; the caller will
            // accommodate the new entry in the LLC (Section III-C4).
            ++stats_.refusals;
            --stats_.allocs;
            return res;
        }
        const std::uint32_t victim =
            tagPartitions_ == 0
                ? slice.nru.victim(set)
                : slice.nru.victimIn(set, way_first, way_count);
        res.evictedVictim = true;
        res.victimBlock = blockAt(sliceOf(block), set, victim);
        res.victimEntry = slice.array.line(set, victim).payload;
        ++stats_.evictions;
        slice.array.release(set, victim);
        slice.nru.reset(set, victim);
        --live_;
        free_way = {set, victim, true};
    }

    slice.array.occupy(set, free_way.way, tagOfBlock(block));
    Line &line = slice.array.line(set, free_way.way);
    line.payload.clear();
    slice.array.touch(set, free_way.way);
    slice.nru.touch(set, free_way.way);
    res.entry = &line.payload;
    ++live_;
    peak_ = std::max(peak_, live_);
    return res;
}

void
SparseDirectory::free(BlockAddr block)
{
    ++stats_.frees;
    if (unbounded_) {
        if (!map_.erase(block))
            panic("freeing absent directory entry");
        --live_;
        return;
    }
    Slice &slice = slices_[sliceOf(block)];
    const std::size_t set = setOf(block);
    const WayRef ref = slice.array.find(set, tagOfBlock(block));
    if (!ref.found)
        panic("freeing absent directory entry for block %#llx",
              static_cast<unsigned long long>(block));
    slice.array.release(set, ref.way);
    slice.nru.reset(set, ref.way);
    --live_;
}

std::uint64_t
SparseDirectory::liveEntries() const
{
    return live_;
}

void
SparseDirectory::save(SerialOut &out) const
{
    out.u32(numSlices_);
    out.u64(setsPerSlice_);
    out.u32(ways_);
    out.b(replacementDisabled_);
    out.b(unbounded_);
    if (unbounded_) {
        // Sorted so that restore -> re-serialize is byte-identical
        // regardless of the hash map's iteration order.
        std::vector<BlockAddr> keys;
        keys.reserve(map_.size());
        map_.forEach([&](BlockAddr block, const DirEntry &) {
            keys.push_back(block);
        });
        std::sort(keys.begin(), keys.end());
        out.u64(keys.size());
        for (BlockAddr block : keys) {
            out.u64(block);
            saveEntry(out, *map_.find(block));
        }
    } else {
        for (std::uint32_t i = 0; i < numSlices_; ++i) {
            slices_[i].array.save(out, [&](SerialOut &o, std::size_t s,
                                           std::uint32_t w, const Line &l) {
                o.u64(blockAt(i, s, w));
                saveEntry(o, l.payload);
            });
            slices_[i].nru.save(out);
        }
    }
    out.u64(live_);
    out.u64(peak_);
    out.u64(stats_.lookups);
    out.u64(stats_.hits);
    out.u64(stats_.allocs);
    out.u64(stats_.evictions);
    out.u64(stats_.refusals);
    out.u64(stats_.frees);
}

void
SparseDirectory::restore(SerialIn &in)
{
    if (!in.check(in.u32() == numSlices_ &&
                      in.u64() == setsPerSlice_ && in.u32() == ways_ &&
                      in.b() == replacementDisabled_ &&
                      in.b() == unbounded_,
                  "sparse directory geometry mismatch"))
        return;
    if (unbounded_) {
        map_.clear();
        const std::uint64_t n = in.u64();
        for (std::uint64_t i = 0; i < n && in.ok(); ++i) {
            const BlockAddr block = in.u64();
            map_[block] = loadEntry(in);
        }
    } else {
        for (std::uint32_t i = 0; i < numSlices_; ++i) {
            slices_[i].array.restore(in, [&](SerialIn &si, std::size_t s,
                                             std::uint32_t w, Line &l) {
                si.check(si.u64() == blockAt(i, s, w),
                         "sparse directory block does not match its "
                         "slice, set and tag");
                l.payload = loadEntry(si);
            });
            slices_[i].nru.restore(in);
        }
    }
    live_ = in.u64();
    peak_ = in.u64();
    std::uint64_t held = 0;
    if (unbounded_) {
        held = map_.size();
    } else {
        for (const Slice &slice : slices_)
            held += slice.array.occupiedCount();
    }
    if (!in.check(live_ == held && peak_ >= live_,
                  "sparse directory live and peak counts do not match "
                  "its lines"))
        return;
    stats_.lookups = in.u64();
    stats_.hits = in.u64();
    stats_.allocs = in.u64();
    stats_.evictions = in.u64();
    stats_.refusals = in.u64();
    stats_.frees = in.u64();
}

} // namespace zerodev
