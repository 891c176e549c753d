/**
 * @file
 * Partitioner: split a sparse matrix into p x p tiles, eliding all-zero
 * tiles (Section 4.1: only non-zero partitions are compressed, transferred
 * and processed).
 */

#ifndef COPERNICUS_MATRIX_PARTITIONER_HH
#define COPERNICUS_MATRIX_PARTITIONER_HH

#include <cstddef>
#include <span>
#include <vector>

#include "matrix/tile.hh"
#include "matrix/triplet_matrix.hh"

namespace copernicus {

/** Result of partitioning one matrix at one partition size. */
struct Partitioning
{
    /** Partition edge length p used. */
    Index partitionSize = 0;

    /** Tiles of the partition grid, row-major. */
    Index gridRows = 0;
    Index gridCols = 0;

    /** The non-zero tiles, sorted by (tileRow, tileCol). */
    std::vector<Tile> tiles;

    /** Number of all-zero tiles that were elided. */
    std::size_t zeroTiles = 0;

    /** Total tiles in the grid (non-zero + elided). */
    std::size_t totalTiles() const { return tiles.size() + zeroTiles; }

    /** Fraction of tiles that contain at least one non-zero. */
    double
    nonZeroTileFraction() const
    {
        const std::size_t total = totalTiles();
        return total == 0 ? 0.0
                          : static_cast<double>(tiles.size()) / total;
    }
};

/** The non-zeros of one occupied tile, in canonical row-major order. */
struct TileBucket
{
    Index tileRow = 0;
    Index tileCol = 0;
    std::vector<TileNonzero> nonzeros;
};

/**
 * The partitioning kernel: bucket a canonical-order run of triplets
 * into per-tile non-zero streams.
 *
 * Every partitioner runs through this one function — partition() on
 * the whole matrix at once, the streaming partitioner
 * (store/stream_partitioner.hh) on one pass buffer at a time — so the
 * two produce the same tiles by construction. It returns buckets
 * rather than Tiles (each of which owns a dense p x p store) so that
 * a caller can free its triplets before it builds the first Tile.
 *
 * @param triplets Triplets in canonical (row, col) order, all inside
 *        tile-row strips [@p stripBegin, @p stripEnd).
 * @param partitionSize Edge length p of each tile.
 * @param stripBegin First tile-row strip the run covers.
 * @param stripEnd One past the last tile-row strip the run covers.
 * @param gridCols Tile columns of the partition grid.
 * @return One bucket per occupied tile, in (tileRow, tileCol) order.
 */
std::vector<TileBucket> bucketTiles(std::span<const Triplet> triplets,
                                    Index partitionSize,
                                    Index stripBegin, Index stripEnd,
                                    Index gridCols);

/**
 * Partition @p matrix into @p partitionSize x @p partitionSize tiles.
 *
 * Edge tiles of matrices whose dimension is not a multiple of the
 * partition size are zero-padded, matching the fixed-width hardware
 * buffers of the platform.
 *
 * @param matrix Finalized source matrix.
 * @param partitionSize Edge length p of each tile; must be positive.
 * @return Non-zero tiles plus grid bookkeeping.
 */
Partitioning partition(const TripletMatrix &matrix, Index partitionSize);

} // namespace copernicus

#endif // COPERNICUS_MATRIX_PARTITIONER_HH
