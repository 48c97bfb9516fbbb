/**
 * @file
 * 2D mesh interconnect model (Table I: 1-cycle routing delay, 1-cycle link
 * latency per hop).
 *
 * The CMP is modelled as a tiled layout: tile i holds core i and LLC bank
 * (i mod banks). Latency between two tiles is the Manhattan hop count
 * times the per-hop cost. Contention inside the mesh is not modelled (the
 * paper's evaluation attributes queueing to the cache interface queues,
 * which our transaction latencies subsume); the mesh contributes latency
 * and distance-weighted traffic.
 */

#ifndef ZERODEV_INTERCONNECT_MESH_HH
#define ZERODEV_INTERCONNECT_MESH_HH

#include <cstdint>

#include "common/stats.hh"
#include "common/types.hh"

namespace zerodev
{

/** Accumulated traversal counts of one mesh (observability series). */
struct MeshStats
{
    std::uint64_t traversals = 0; //!< latency-costed tile-to-tile trips
    std::uint64_t hops = 0;       //!< total hops those trips covered
};

/** Geometry and latency of one socket's on-die mesh. */
class Mesh
{
  public:
    /**
     * @param tiles Number of mesh tiles (max of core count, bank count).
     * @param hop_cycles Per-hop cost (routing + link).
     */
    Mesh(std::uint32_t tiles, std::uint32_t hop_cycles);

    std::uint32_t numTiles() const { return tiles_; }
    std::uint32_t columns() const { return cols_; }
    std::uint32_t rows() const { return rows_; }

    /** Manhattan hop count between two tiles. */
    std::uint32_t hops(std::uint32_t from, std::uint32_t to) const;

    /** One-way latency in cycles between two tiles. Every call is one
     *  costed traversal, so the stats count real protocol trips. */
    Cycle
    latency(std::uint32_t from, std::uint32_t to) const
    {
        const std::uint32_t h = hops(from, to);
        hopHist_.record(h);
        return static_cast<Cycle>(h) * hopCycles_;
    }

    /** Traversal totals, derived from the hop histogram (one histogram
     *  update per traversal is the only hot-path accounting). */
    MeshStats
    stats() const
    {
        return {hopHist_.samples(), hopHist_.sum()};
    }

    /** Per-traversal hop-count distribution (feeds the latency-probe
     *  reporting; a traversal's cycles are hops * hopCycles). */
    const Histogram &hopHist() const { return hopHist_; }

    std::uint32_t hopCycles() const { return hopCycles_; }

    void clearStats() { hopHist_.clear(); }

    /** Tile of core @p c (one core per tile). */
    std::uint32_t tileOfCore(CoreId c) const { return c % tiles_; }

    /** Tile of LLC bank @p b (banks striped over tiles). */
    std::uint32_t tileOfBank(std::uint32_t b) const { return b % tiles_; }

    /** Average hop count over all ordered tile pairs (for reporting). */
    double averageHops() const;

    /** Snapshot the traversal counters + hop histogram (the mesh has no
     *  architectural state, but its stats feed resumed run reports). */
    void save(SerialOut &out) const;
    void restore(SerialIn &in);

  private:
    std::uint32_t tiles_;
    std::uint32_t cols_;
    std::uint32_t rows_;
    std::uint32_t hopCycles_;
    /** Largest Manhattan distance in a kMaxCores-tile mesh is well
     *  under 64; exact buckets keep every percentile precise. */
    mutable Histogram hopHist_{64};
};

} // namespace zerodev

#endif // ZERODEV_INTERCONNECT_MESH_HH
