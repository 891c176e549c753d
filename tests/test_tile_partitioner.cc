/**
 * @file
 * Unit tests for Tile and the partitioner.
 */

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "common/rng.hh"
#include "kernels/spmv.hh"
#include "matrix/csr_matrix.hh"
#include "matrix/partitioner.hh"
#include "matrix/tile.hh"
#include "workloads/generators.hh"

namespace copernicus {
namespace {

TEST(TileTest, ConstructionAndAccess)
{
    Tile t(4, 2, 3);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.tileRow(), 2u);
    EXPECT_EQ(t.tileCol(), 3u);
    EXPECT_TRUE(t.empty());
    t(1, 2) = 5.0f;
    EXPECT_FLOAT_EQ(t(1, 2), 5.0f);
    EXPECT_FALSE(t.empty());
}

TEST(TileTest, ZeroSizeRejected)
{
    EXPECT_THROW(Tile(0), FatalError);
}

TEST(TileTest, BoundsChecked)
{
    Tile t(4);
    EXPECT_THROW(t(4, 0), PanicError);
    EXPECT_THROW(t(0, 4), PanicError);
}

TEST(TileTest, RowAndColumnStatistics)
{
    Tile t(4);
    t(0, 0) = 1.0f;
    t(0, 3) = 2.0f;
    t(2, 0) = 3.0f;
    EXPECT_EQ(t.nnz(), 3u);
    EXPECT_EQ(t.rowNnz(0), 2u);
    EXPECT_EQ(t.rowNnz(1), 0u);
    EXPECT_EQ(t.colNnz(0), 2u);
    EXPECT_EQ(t.nnzRows(), 2u);
    EXPECT_EQ(t.maxRowNnz(), 2u);
    EXPECT_EQ(t.maxColNnz(), 2u);
}

TEST(TileTest, EqualityIgnoresGridCoordinates)
{
    Tile a(2, 0, 0), b(2, 5, 7);
    a(0, 0) = 1.0f;
    b(0, 0) = 1.0f;
    EXPECT_TRUE(a == b);
    b(1, 1) = 2.0f;
    EXPECT_FALSE(a == b);
}

TEST(PartitionerTest, ExactGridNoPadding)
{
    TripletMatrix m(8, 8);
    m.add(0, 0, 1.0f);
    m.add(7, 7, 2.0f);
    m.finalize();
    const auto parts = partition(m, 4);
    EXPECT_EQ(parts.gridRows, 2u);
    EXPECT_EQ(parts.gridCols, 2u);
    EXPECT_EQ(parts.tiles.size(), 2u);
    EXPECT_EQ(parts.zeroTiles, 2u);
    EXPECT_EQ(parts.totalTiles(), 4u);
    EXPECT_DOUBLE_EQ(parts.nonZeroTileFraction(), 0.5);
}

TEST(PartitionerTest, PaddedEdgeTiles)
{
    TripletMatrix m(10, 10);
    m.add(9, 9, 1.0f);
    m.finalize();
    const auto parts = partition(m, 4);
    EXPECT_EQ(parts.gridRows, 3u);
    EXPECT_EQ(parts.gridCols, 3u);
    ASSERT_EQ(parts.tiles.size(), 1u);
    const Tile &tile = parts.tiles.front();
    EXPECT_EQ(tile.tileRow(), 2u);
    EXPECT_EQ(tile.tileCol(), 2u);
    EXPECT_FLOAT_EQ(tile(1, 1), 1.0f); // 9 % 4 == 1
}

TEST(PartitionerTest, TilesSortedInStreamingOrder)
{
    TripletMatrix m(8, 8);
    m.add(6, 1, 1.0f); // tile (1, 0)
    m.add(1, 6, 2.0f); // tile (0, 1)
    m.add(0, 0, 3.0f); // tile (0, 0)
    m.finalize();
    const auto parts = partition(m, 4);
    ASSERT_EQ(parts.tiles.size(), 3u);
    EXPECT_EQ(parts.tiles[0].tileRow(), 0u);
    EXPECT_EQ(parts.tiles[0].tileCol(), 0u);
    EXPECT_EQ(parts.tiles[1].tileRow(), 0u);
    EXPECT_EQ(parts.tiles[1].tileCol(), 1u);
    EXPECT_EQ(parts.tiles[2].tileRow(), 1u);
    EXPECT_EQ(parts.tiles[2].tileCol(), 0u);
}

TEST(PartitionerTest, ZeroPartitionSizeRejected)
{
    TripletMatrix m(4, 4);
    m.finalize();
    EXPECT_THROW(partition(m, 0), FatalError);
}

TEST(PartitionerTest, EmptyMatrixHasOnlyZeroTiles)
{
    TripletMatrix m(16, 16);
    m.finalize();
    const auto parts = partition(m, 8);
    EXPECT_TRUE(parts.tiles.empty());
    EXPECT_EQ(parts.zeroTiles, 4u);
    EXPECT_DOUBLE_EQ(parts.nonZeroTileFraction(), 0.0);
}

TEST(PartitionerTest, NnzConservedAcrossTiles)
{
    Rng rng(123);
    const auto m = randomMatrix(100, 0.05, rng);
    for (Index p : {8u, 16u, 32u}) {
        const auto parts = partition(m, p);
        std::size_t total = 0;
        for (const auto &tile : parts.tiles)
            total += tile.nnz();
        EXPECT_EQ(total, m.nnz()) << "partition size " << p;
    }
}

TEST(PartitionerTest, ValuesLandAtCorrectLocalCoordinates)
{
    Rng rng(321);
    const auto m = randomMatrix(40, 0.1, rng);
    const Index p = 16;
    const auto parts = partition(m, p);
    for (const auto &tile : parts.tiles) {
        for (Index r = 0; r < p; ++r) {
            for (Index c = 0; c < p; ++c) {
                const Index gr = tile.tileRow() * p + r;
                const Index gc = tile.tileCol() * p + c;
                const Value expected =
                    (gr < m.rows() && gc < m.cols()) ? m.at(gr, gc)
                                                     : Value(0);
                ASSERT_FLOAT_EQ(tile(r, c), expected);
            }
        }
    }
}

TEST(PartitionerTest, HypersparseGridPlacesEveryNonzero)
{
    // 5000 x 5000 = 25M tiles: past the 1 << 24 limit of the dense
    // per-tile count array, so counting goes through the hash map.
    const Index n = 40000;
    const Index p = 8;
    Rng rng(0xC0DE);
    TripletMatrix m(n, n);
    for (int k = 0; k < 3000; ++k)
        m.add(static_cast<Index>(rng.below(n)),
              static_cast<Index>(rng.below(n)),
              static_cast<Value>(1 + k % 7));
    // Several nonzeros in one tile, out of order, plus its neighbours.
    for (Index k = 0; k < 5; ++k)
        m.add(17 * p + (p - 1 - k), 4242 * p + k,
              static_cast<Value>(10 + k));
    m.add(17 * p, 4243 * p, 20.0f);
    m.add(18 * p, 4242 * p, 21.0f);
    m.finalize();

    const auto parts = partition(m, p);
    const std::uint64_t grid =
        static_cast<std::uint64_t>(parts.gridRows) * parts.gridCols;
    ASSERT_GT(grid, 1ULL << 24);
    EXPECT_EQ(parts.totalTiles(), grid);

    std::map<std::pair<Index, Index>, const Tile *> byCoord;
    for (const auto &tile : parts.tiles) {
        const std::pair<Index, Index> coord(tile.tileRow(),
                                            tile.tileCol());
        if (!byCoord.empty()) {
            ASSERT_LT(byCoord.rbegin()->first, coord)
                << "tiles out of (tileRow, tileCol) order";
        }
        byCoord.emplace(coord, &tile);
    }
    std::size_t total = 0;
    for (const auto &tile : parts.tiles)
        total += tile.nnz();
    EXPECT_EQ(total, m.nnz());
    for (const Triplet &t : m.triplets()) {
        const auto it = byCoord.find({t.row / p, t.col / p});
        ASSERT_NE(it, byCoord.end())
            << "nonzero (" << t.row << ", " << t.col << ") has no tile";
        ASSERT_FLOAT_EQ((*it->second)(t.row % p, t.col % p), t.value);
    }
}

TEST(PartitionerTest, EveryReturnedTileIsNonZero)
{
    Rng rng(55);
    const auto m = randomMatrix(64, 0.01, rng);
    const auto parts = partition(m, 8);
    for (const auto &tile : parts.tiles)
        EXPECT_GT(tile.nnz(), 0u);
}

TEST(PartitionerTest, RectangularMatrixGrid)
{
    // 20 x 50 matrix at p = 16: grid 2 x 4 with padded edges.
    TripletMatrix m(20, 50);
    m.add(19, 49, 3.0f);
    m.add(0, 20, 5.0f);
    m.finalize();
    const auto parts = partition(m, 16);
    EXPECT_EQ(parts.gridRows, 2u);
    EXPECT_EQ(parts.gridCols, 4u);
    ASSERT_EQ(parts.tiles.size(), 2u);
    EXPECT_FLOAT_EQ(parts.tiles[0](0, 4), 5.0f);  // tile (0,1)
    EXPECT_FLOAT_EQ(parts.tiles[1](3, 1), 3.0f);  // tile (1,3)
}

TEST(PartitionerTest, RectangularSpmvMatchesCsr)
{
    // Pruned-layer shapes are rectangular; the partitioned SpMV must
    // agree with the full-matrix CSR reference there too.
    Rng rng(99);
    const auto m = prunedLayer(24, 56, 0.15, rng);
    const CsrMatrix csr(m);
    std::vector<Value> x(56);
    for (auto &v : x)
        v = static_cast<Value>(rng.range(-1.0, 1.0));
    const auto expected = csr.multiply(x);
    const auto parts = partition(m, 16);
    const auto y = spmvPartitioned(parts, FormatKind::CSR, x);
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_NEAR(y[i], expected[i], 1e-3);
}

TEST(PartitionerTest, PartitionSizeLargerThanMatrix)
{
    TripletMatrix m(5, 5);
    m.add(2, 3, 1.0f);
    m.finalize();
    const auto parts = partition(m, 16);
    EXPECT_EQ(parts.gridRows, 1u);
    EXPECT_EQ(parts.gridCols, 1u);
    ASSERT_EQ(parts.tiles.size(), 1u);
    EXPECT_FLOAT_EQ(parts.tiles[0](2, 3), 1.0f);
}

} // namespace
} // namespace copernicus
