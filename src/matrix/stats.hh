/**
 * @file
 * Matrix- and partition-level sparsity statistics.
 *
 * PartitionStats reproduces the three quantities of Figure 3: average
 * partition density, average density of non-zero rows, and the average
 * fraction of non-zero rows per partition. MatrixStats summarizes the
 * whole-matrix structure used by the workload catalog and the format
 * advisor (bandwidth, diagonal count, row-length distribution).
 */

#ifndef COPERNICUS_MATRIX_STATS_HH
#define COPERNICUS_MATRIX_STATS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>

#include "matrix/partitioner.hh"
#include "matrix/triplet_matrix.hh"

namespace copernicus {

/** Whole-matrix structural statistics. */
struct MatrixStats
{
    Index rows = 0;
    Index cols = 0;
    std::size_t nnz = 0;

    /** nnz / (rows * cols). */
    double density = 0;

    /** Mean non-zeros per row. */
    double meanRowNnz = 0;

    /** Longest row, in non-zeros. */
    Index maxRowNnz = 0;

    /** Number of rows with at least one non-zero. */
    Index nonZeroRows = 0;

    /** Matrix bandwidth: max |i - j| over non-zeros (0 for diagonal). */
    Index bandwidth = 0;

    /** Number of distinct non-zero diagonals (i - j values). */
    Index nonZeroDiagonals = 0;

    /** Fraction of nnz that lie on the main diagonal. */
    double diagonalFraction = 0;

    /** True iff every non-zero sits on the main diagonal. */
    bool isDiagonal() const { return bandwidth == 0 && nnz > 0; }

    bool operator==(const MatrixStats &) const = default;
};

/** Compute MatrixStats for a finalized matrix. */
MatrixStats computeStats(const TripletMatrix &matrix);

/** Per-partition sparsity averages (Figure 3). */
struct PartitionStats
{
    Index partitionSize = 0;
    std::size_t nonZeroTiles = 0;
    std::size_t zeroTiles = 0;

    /** Fig. 3a: mean % of non-zero values per non-zero partition. */
    double avgPartitionDensity = 0;

    /** Fig. 3b: mean % of non-zero values within non-zero rows. */
    double avgRowDensity = 0;

    /** Fig. 3c: mean % of non-zero rows per non-zero partition. */
    double avgNonZeroRowFraction = 0;
};

/**
 * Row-length distribution: histogram[k] = number of rows with exactly
 * k non-zeros (k = 0 counts the empty rows).
 */
std::map<Index, std::size_t> rowNnzHistogram(const TripletMatrix &matrix);

/**
 * Tile-density distribution over the non-zero tiles: ten equal-width
 * density buckets, deciles[d] counting tiles whose density falls in
 * [d/10, (d+1)/10) (the last bucket is closed above).
 */
std::array<std::size_t, 10> tileDensityDeciles(const Partitioning &parts);

/** Compute PartitionStats from an existing partitioning. */
PartitionStats computePartitionStats(const Partitioning &parts);

/** Convenience overload: partition then compute. */
PartitionStats computePartitionStats(const TripletMatrix &matrix,
                                     Index partitionSize);

} // namespace copernicus

#endif // COPERNICUS_MATRIX_STATS_HH
