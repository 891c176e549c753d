#include "matrix/partitioner.hh"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "common/math.hh"
#include "common/status.hh"

namespace copernicus {

std::vector<TileBucket>
bucketTiles(std::span<const Triplet> triplets, Index partitionSize,
            Index stripBegin, Index stripEnd, Index gridCols)
{
    // Tile ids are row-major positions local to the strip range, so
    // sorting ids sorts tiles by (tileRow, tileCol).
    const auto localIdOf = [&](const Triplet &t) {
        COPERNICUS_DCHECK(t.row / partitionSize >= stripBegin &&
                              t.row / partitionSize < stripEnd,
                          "triplet outside the bucketed strips");
        return static_cast<std::uint64_t>(t.row / partitionSize -
                                          stripBegin) *
                   gridCols +
               t.col / partitionSize;
    };
    const std::uint64_t grid =
        static_cast<std::uint64_t>(stripEnd - stripBegin) * gridCols;

    // Occupied tile ids plus the entry count of each. Counting over a
    // dense per-tile array is the O(nnz + grid) fast path; a hash map
    // plus one sort of the *occupied* ids (O(nnz + t log t)) covers
    // grids too large to allocate densely (huge hypersparse matrices
    // at small p).
    std::vector<std::pair<std::uint64_t, Index>> occupied;
    constexpr std::uint64_t denseGridLimit = 1ULL << 24;
    if (grid <= denseGridLimit) {
        std::vector<Index> counts(grid, 0);
        for (const Triplet &t : triplets)
            ++counts[localIdOf(t)];
        for (std::uint64_t id = 0; id < grid; ++id)
            if (counts[id] != 0)
                occupied.emplace_back(id, counts[id]);
    } else {
        std::unordered_map<std::uint64_t, Index> counts;
        counts.reserve(triplets.size());
        for (const Triplet &t : triplets)
            ++counts[localIdOf(t)];
        occupied.assign(counts.begin(), counts.end());
        std::sort(occupied.begin(), occupied.end());
    }

    // Stable scatter: the run is in canonical order, so every bucket
    // comes out sorted row-major in tile-local coordinates — exactly
    // the canonical nonzero stream the Tile constructor wants.
    std::unordered_map<std::uint64_t, std::size_t> slotOf;
    slotOf.reserve(occupied.size());
    std::vector<TileBucket> buckets(occupied.size());
    for (std::size_t i = 0; i < occupied.size(); ++i) {
        const std::uint64_t id = occupied[i].first;
        slotOf.emplace(id, i);
        buckets[i].tileRow = stripBegin + static_cast<Index>(id / gridCols);
        buckets[i].tileCol = static_cast<Index>(id % gridCols);
        buckets[i].nonzeros.reserve(occupied[i].second);
    }
    for (const Triplet &t : triplets) {
        buckets[slotOf.find(localIdOf(t))->second].nonzeros.push_back(
            {t.row % partitionSize, t.col % partitionSize, t.value});
    }
    return buckets;
}

Partitioning
partition(const TripletMatrix &matrix, Index partitionSize)
{
    fatalIf(partitionSize == 0, "partition size must be positive");
    panicIf(!matrix.finalized(), "partition() requires a finalized matrix");

    Partitioning result;
    result.partitionSize = partitionSize;
    result.gridRows =
        static_cast<Index>(ceilDiv(matrix.rows(), partitionSize));
    result.gridCols =
        static_cast<Index>(ceilDiv(matrix.cols(), partitionSize));
    const std::uint64_t grid =
        static_cast<std::uint64_t>(result.gridRows) * result.gridCols;

    // finalize() ordered the triplets row-major and dropped entries
    // that summed to zero, so one bucketing of the whole matrix yields
    // every genuinely non-zero tile.
    std::vector<TileBucket> buckets =
        bucketTiles(matrix.triplets(), partitionSize, 0, result.gridRows,
                    result.gridCols);
    result.tiles.reserve(buckets.size());
    for (TileBucket &bucket : buckets)
        result.tiles.emplace_back(partitionSize, bucket.tileRow,
                                  bucket.tileCol,
                                  std::move(bucket.nonzeros));
    result.zeroTiles = grid - result.tiles.size();
    return result;
}

} // namespace copernicus
