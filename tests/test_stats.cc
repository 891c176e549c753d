/**
 * @file
 * Unit tests for matrix and partition statistics (Figure 3 quantities).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "common/rng.hh"
#include "matrix/stats.hh"
#include "workloads/generators.hh"

namespace copernicus {
namespace {

TEST(MatrixStatsTest, DiagonalMatrix)
{
    Rng rng(1);
    const auto m = diagonalMatrix(16, rng);
    const auto stats = computeStats(m);
    EXPECT_EQ(stats.nnz, 16u);
    EXPECT_EQ(stats.bandwidth, 0u);
    EXPECT_EQ(stats.nonZeroDiagonals, 1u);
    EXPECT_DOUBLE_EQ(stats.diagonalFraction, 1.0);
    EXPECT_TRUE(stats.isDiagonal());
    EXPECT_EQ(stats.maxRowNnz, 1u);
    EXPECT_EQ(stats.nonZeroRows, 16u);
}

TEST(MatrixStatsTest, BandMatrixWidth4)
{
    Rng rng(2);
    const auto m = bandMatrix(32, 4, rng);
    const auto stats = computeStats(m);
    // k = 4 keeps |i - j| <= 2.
    EXPECT_EQ(stats.bandwidth, 2u);
    EXPECT_EQ(stats.nonZeroDiagonals, 5u);
    EXPECT_FALSE(stats.isDiagonal());
    EXPECT_EQ(stats.maxRowNnz, 5u);
}

TEST(MatrixStatsTest, EmptyMatrix)
{
    TripletMatrix m(8, 8);
    m.finalize();
    const auto stats = computeStats(m);
    EXPECT_EQ(stats.nnz, 0u);
    EXPECT_EQ(stats.nonZeroRows, 0u);
    EXPECT_EQ(stats.nonZeroDiagonals, 0u);
    EXPECT_FALSE(stats.isDiagonal());
    EXPECT_DOUBLE_EQ(stats.diagonalFraction, 0.0);
}

/** computeStats as it was with a std::set of diagonals: the reference
 *  for the bitmap version. */
MatrixStats
referenceStats(const TripletMatrix &matrix)
{
    MatrixStats stats;
    stats.rows = matrix.rows();
    stats.cols = matrix.cols();
    stats.nnz = matrix.nnz();
    stats.density = matrix.density();
    std::set<std::int64_t> diagonals;
    std::size_t diag_nnz = 0;
    std::vector<Index> row_nnz(matrix.rows(), 0);
    for (const auto &t : matrix.triplets()) {
        ++row_nnz[t.row];
        const std::int64_t d = static_cast<std::int64_t>(t.col) -
                               static_cast<std::int64_t>(t.row);
        diagonals.insert(d);
        diag_nnz += d == 0;
        stats.bandwidth =
            std::max(stats.bandwidth, static_cast<Index>(std::llabs(d)));
    }
    stats.nonZeroDiagonals = static_cast<Index>(diagonals.size());
    stats.diagonalFraction =
        stats.nnz == 0 ? 0.0
                       : static_cast<double>(diag_nnz) / stats.nnz;
    for (Index nnz : row_nnz) {
        stats.maxRowNnz = std::max(stats.maxRowNnz, nnz);
        stats.nonZeroRows += nnz != 0;
    }
    stats.meanRowNnz = stats.rows == 0
                           ? 0.0
                           : static_cast<double>(stats.nnz) / stats.rows;
    return stats;
}

/** Random rectangular matrix that also fills both corner diagonals. */
TripletMatrix
rectangularMatrix(Index rows, Index cols, std::size_t entries, Rng &rng)
{
    TripletMatrix m(rows, cols);
    m.add(rows - 1, 0, 1.0f);
    m.add(0, cols - 1, 1.0f);
    for (std::size_t i = 0; i < entries; ++i)
        m.add(Index(rng() % rows), Index(rng() % cols), 1.0f);
    m.finalize();
    return m;
}

TEST(MatrixStatsTest, DiagonalBitmapMatchesSetReference)
{
    Rng rng(0x57A7);
    std::vector<TripletMatrix> inputs;
    TripletMatrix empty(8, 8);
    empty.finalize();
    inputs.push_back(std::move(empty));
    TripletMatrix emptyRect(3, 11);
    emptyRect.finalize();
    inputs.push_back(std::move(emptyRect));
    TripletMatrix single(1, 1);
    single.add(0, 0, 2.0f);
    single.finalize();
    inputs.push_back(std::move(single));
    inputs.push_back(rectangularMatrix(7, 300, 200, rng));
    inputs.push_back(rectangularMatrix(300, 7, 200, rng));
    inputs.push_back(rectangularMatrix(1, 64, 10, rng));
    inputs.push_back(rectangularMatrix(64, 1, 10, rng));
    inputs.push_back(randomMatrix(200, 0.02, rng));
    inputs.push_back(bandMatrix(150, 9, rng));
    inputs.push_back(rmatGraph(512, 4000, rng));
    for (const TripletMatrix &m : inputs) {
        const MatrixStats got = computeStats(m);
        const MatrixStats want = referenceStats(m);
        EXPECT_TRUE(got == want)
            << m.rows() << "x" << m.cols() << " nnz " << m.nnz()
            << ": diagonals " << got.nonZeroDiagonals << " vs "
            << want.nonZeroDiagonals;
    }
}

TEST(MatrixStatsTest, MeanRowNnz)
{
    TripletMatrix m(4, 4);
    m.add(0, 0, 1.0f);
    m.add(0, 1, 1.0f);
    m.add(2, 3, 1.0f);
    m.finalize();
    const auto stats = computeStats(m);
    EXPECT_DOUBLE_EQ(stats.meanRowNnz, 3.0 / 4.0);
    EXPECT_EQ(stats.maxRowNnz, 2u);
    EXPECT_EQ(stats.nonZeroRows, 2u);
}

TEST(MatrixStatsTest, OffDiagonalBandwidth)
{
    TripletMatrix m(10, 10);
    m.add(0, 9, 1.0f);
    m.finalize();
    const auto stats = computeStats(m);
    EXPECT_EQ(stats.bandwidth, 9u);
    EXPECT_DOUBLE_EQ(stats.diagonalFraction, 0.0);
}

TEST(PartitionStatsTest, FullTileIsFullyDense)
{
    Rng rng(3);
    // A fully dense matrix: every partition metric must be exactly 1.
    TripletMatrix m(16, 16);
    for (Index r = 0; r < 16; ++r)
        for (Index c = 0; c < 16; ++c)
            m.add(r, c, 1.0f);
    m.finalize();
    const auto stats = computePartitionStats(m, 8);
    EXPECT_EQ(stats.nonZeroTiles, 4u);
    EXPECT_EQ(stats.zeroTiles, 0u);
    EXPECT_DOUBLE_EQ(stats.avgPartitionDensity, 1.0);
    EXPECT_DOUBLE_EQ(stats.avgRowDensity, 1.0);
    EXPECT_DOUBLE_EQ(stats.avgNonZeroRowFraction, 1.0);
}

TEST(PartitionStatsTest, SingleEntryTile)
{
    TripletMatrix m(8, 8);
    m.add(0, 0, 1.0f);
    m.finalize();
    const auto stats = computePartitionStats(m, 8);
    EXPECT_EQ(stats.nonZeroTiles, 1u);
    EXPECT_DOUBLE_EQ(stats.avgPartitionDensity, 1.0 / 64.0);
    // One non-zero row containing 1 of 8 values.
    EXPECT_DOUBLE_EQ(stats.avgRowDensity, 1.0 / 8.0);
    EXPECT_DOUBLE_EQ(stats.avgNonZeroRowFraction, 1.0 / 8.0);
}

TEST(PartitionStatsTest, RowDensityExceedsPartitionDensity)
{
    // Fig. 3's point: non-zero rows are denser than partitions overall.
    Rng rng(4);
    const auto m = randomMatrix(128, 0.02, rng);
    const auto stats = computePartitionStats(m, 16);
    EXPECT_GE(stats.avgRowDensity, stats.avgPartitionDensity);
}

TEST(PartitionStatsTest, DiagonalMatrixPartitionShape)
{
    Rng rng(5);
    const auto m = diagonalMatrix(64, rng);
    const auto stats = computePartitionStats(m, 16);
    // Only the 4 diagonal tiles are non-zero; each has every row
    // non-zero with exactly one value.
    EXPECT_EQ(stats.nonZeroTiles, 4u);
    EXPECT_EQ(stats.zeroTiles, 12u);
    EXPECT_DOUBLE_EQ(stats.avgNonZeroRowFraction, 1.0);
    EXPECT_DOUBLE_EQ(stats.avgRowDensity, 1.0 / 16.0);
    EXPECT_DOUBLE_EQ(stats.avgPartitionDensity, 1.0 / 16.0);
}

TEST(PartitionStatsTest, EmptyPartitioning)
{
    TripletMatrix m(16, 16);
    m.finalize();
    const auto stats = computePartitionStats(m, 8);
    EXPECT_EQ(stats.nonZeroTiles, 0u);
    EXPECT_DOUBLE_EQ(stats.avgPartitionDensity, 0.0);
}

TEST(HistogramTest, RowNnzHistogramCountsRows)
{
    TripletMatrix m(5, 5);
    m.add(0, 0, 1.0f);
    m.add(0, 1, 1.0f);
    m.add(1, 2, 1.0f);
    m.add(3, 3, 1.0f);
    m.finalize();
    const auto histogram = rowNnzHistogram(m);
    EXPECT_EQ(histogram.at(0), 2u); // rows 2 and 4 empty
    EXPECT_EQ(histogram.at(1), 2u); // rows 1 and 3
    EXPECT_EQ(histogram.at(2), 1u); // row 0
    std::size_t total = 0;
    for (const auto &[nnz, count] : histogram)
        total += count;
    EXPECT_EQ(total, 5u);
}

TEST(HistogramTest, DiagonalMatrixHistogram)
{
    Rng rng(7);
    const auto m = diagonalMatrix(32, rng);
    const auto histogram = rowNnzHistogram(m);
    ASSERT_EQ(histogram.size(), 1u);
    EXPECT_EQ(histogram.at(1), 32u);
}

TEST(HistogramTest, TileDensityDecilesPartitionTiles)
{
    // One fully dense tile and one single-entry tile.
    TripletMatrix m(16, 16);
    for (Index r = 0; r < 8; ++r)
        for (Index c = 0; c < 8; ++c)
            m.add(r, c, 1.0f);
    m.add(8, 8, 1.0f);
    m.finalize();
    const auto deciles = tileDensityDeciles(partition(m, 8));
    EXPECT_EQ(deciles[9], 1u); // the dense tile (density 1)
    EXPECT_EQ(deciles[0], 1u); // the single-entry tile (1/64)
    std::size_t total = 0;
    for (std::size_t count : deciles)
        total += count;
    EXPECT_EQ(total, 2u);
}

TEST(HistogramTest, DecilesSumToNonZeroTiles)
{
    Rng rng(8);
    const auto m = randomMatrix(96, 0.05, rng);
    const auto parts = partition(m, 16);
    const auto deciles = tileDensityDeciles(parts);
    std::size_t total = 0;
    for (std::size_t count : deciles)
        total += count;
    EXPECT_EQ(total, parts.tiles.size());
}

TEST(PartitionStatsTest, DensityDecreasesWithPartitionSizeForDiagonal)
{
    Rng rng(6);
    const auto m = diagonalMatrix(64, rng);
    const auto s8 = computePartitionStats(m, 8);
    const auto s32 = computePartitionStats(m, 32);
    EXPECT_GT(s8.avgPartitionDensity, s32.avgPartitionDensity);
}

} // namespace
} // namespace copernicus
