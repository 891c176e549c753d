/**
 * @file
 * Tile: one p x p partition of a sparse matrix.
 *
 * The paper applies every compression format to fixed-size partitions of
 * the original matrix (Section 4.1), never to the full matrix, so the
 * format codecs and decompressor models all operate on Tiles. Partition
 * sizes are small (8, 16 or 32), which keeps a dense p x p store cheap as
 * the exchange representation for decode and equality — but the *encode*
 * hot path is density-proportional: every tile carries a canonical
 * sorted-nonzero view (row-major (row, col, value) triplets) plus a
 * one-shot TileStats bundle (per-row/column histograms, maxima,
 * diagonal population) that the codecs, the size model and the schedule
 * feature extraction all share, so no consumer rescans the p^2 cells.
 *
 * The view is built once — eagerly by the partitioner (from the already
 * sorted triplet stream, O(nnz)) or lazily on first use (one dense scan)
 * — and cached. Concurrent const access is safe: the lazy build installs
 * the view with a compare-exchange, so racing readers agree on one
 * instance. Mutation through a non-const accessor invalidates the cache;
 * mutating a tile while other threads read it is a data race, exactly as
 * for any standard container.
 */

#ifndef COPERNICUS_MATRIX_TILE_HH
#define COPERNICUS_MATRIX_TILE_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <utility>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"

namespace copernicus {

/** One non-zero of a tile, in tile-local coordinates. */
struct TileNonzero
{
    Index row = 0;
    Index col = 0;
    Value value = 0;

    friend bool
    operator==(const TileNonzero &a, const TileNonzero &b)
    {
        return a.row == b.row && a.col == b.col && a.value == b.value;
    }
};

// Content fingerprints (the encode cache key, firstCopies()) hash the
// raw triplet array in one pass; that is only sound without padding.
static_assert(sizeof(TileNonzero) == 2 * sizeof(Index) + sizeof(Value),
              "TileNonzero must be packed for raw-byte hashing");

/**
 * Sparsity features of one tile, computed in one O(nnz + p) pass and
 * shared by every consumer (codecs, size model, schedule IR).
 */
struct TileStats
{
    /** Non-zero count. */
    Index nnz = 0;

    /** Non-zeros per row / per column; length p each. */
    std::vector<Index> rowNnz;
    std::vector<Index> colNnz;

    /**
     * Prefix sums of rowNnz into the canonical nonzero list: row r
     * occupies [rowStart[r], rowStart[r + 1]). Length p + 1.
     */
    std::vector<Index> rowStart;

    /** Longest row / column, in non-zeros. */
    Index maxRowNnz = 0;
    Index maxColNnz = 0;

    /** Rows / columns with at least one non-zero. */
    Index nnzRows = 0;
    Index nnzCols = 0;

    /** Populated diagonals (distinct col - row values). */
    Index nnzDiagonals = 0;
};

/** Square tile of a partitioned sparse matrix. */
class Tile
{
  public:
    /**
     * Construct a zero tile.
     *
     * @param size Partition edge length p (8, 16 or 32 in the paper).
     * @param tileRow Partition-grid row coordinate.
     * @param tileCol Partition-grid column coordinate.
     */
    explicit Tile(Index size, Index tileRow = 0, Index tileCol = 0)
        : p(size), tRow(tileRow), tCol(tileCol),
          store(static_cast<std::size_t>(size) * size, Value(0))
    {
        fatalIf(size == 0, "Tile size must be positive");
    }

    /**
     * Construct directly from the canonical nonzero stream (the
     * partitioner's O(nnz) path): @p nz must be sorted row-major with
     * in-range coordinates and non-zero values. The sparse view and
     * features are installed immediately — no dense rescan ever runs
     * for a tile built this way.
     */
    Tile(Index size, Index tileRow, Index tileCol,
         std::vector<TileNonzero> nz)
        : Tile(size, tileRow, tileCol)
    {
        for (const TileNonzero &e : nz) {
            COPERNICUS_DCHECK(e.row < p && e.col < p,
                              "Tile nonzero out of range");
            COPERNICUS_DCHECK(e.value != Value(0),
                              "Tile nonzero stream holds a zero");
            store[static_cast<std::size_t>(e.row) * p + e.col] = e.value;
        }
        cachedView.store(new SparseView(buildFeatures(p, std::move(nz))),
                         std::memory_order_release);
    }

    ~Tile() { delete cachedView.load(std::memory_order_relaxed); }

    Tile(const Tile &other)
        : p(other.p), tRow(other.tRow), tCol(other.tCol),
          store(other.store)
    {
        const SparseView *v =
            other.cachedView.load(std::memory_order_acquire);
        if (v != nullptr)
            cachedView.store(new SparseView(*v),
                             std::memory_order_release);
    }

    Tile(Tile &&other) noexcept
        : p(other.p), tRow(other.tRow), tCol(other.tCol),
          store(std::move(other.store))
    {
        cachedView.store(
            other.cachedView.exchange(nullptr,
                                      std::memory_order_acq_rel),
            std::memory_order_release);
    }

    Tile &
    operator=(const Tile &other)
    {
        if (this != &other) {
            Tile copy(other);
            *this = std::move(copy);
        }
        return *this;
    }

    Tile &
    operator=(Tile &&other) noexcept
    {
        if (this != &other) {
            p = other.p;
            tRow = other.tRow;
            tCol = other.tCol;
            store = std::move(other.store);
            delete cachedView.exchange(
                other.cachedView.exchange(nullptr,
                                          std::memory_order_acq_rel),
                std::memory_order_acq_rel);
        }
        return *this;
    }

    /** Partition edge length p. */
    Index size() const { return p; }

    /** Partition-grid row coordinate of this tile. */
    Index tileRow() const { return tRow; }

    /** Partition-grid column coordinate of this tile. */
    Index tileCol() const { return tCol; }

    /** Mutable element access, bounds-checked. */
    Value &
    operator()(Index row, Index col)
    {
        panicIf(row >= p || col >= p, "Tile access out of range");
        invalidateView();
        return store[static_cast<std::size_t>(row) * p + col];
    }

    /** Const element access, bounds-checked. */
    Value
    operator()(Index row, Index col) const
    {
        panicIf(row >= p || col >= p, "Tile access out of range");
        return store[static_cast<std::size_t>(row) * p + col];
    }

    /**
     * Mutable element access for decode inner loops: bounds are
     * checked in debug builds only (COPERNICUS_DCHECK).
     */
    Value &
    cell(Index row, Index col)
    {
        COPERNICUS_DCHECK(row < p && col < p,
                          "Tile access out of range");
        invalidateView();
        return store[static_cast<std::size_t>(row) * p + col];
    }

    /** Const element access, debug-checked only. */
    Value
    cell(Index row, Index col) const
    {
        COPERNICUS_DCHECK(row < p && col < p,
                          "Tile access out of range");
        return store[static_cast<std::size_t>(row) * p + col];
    }

    /**
     * The canonical nonzero stream: tile-local (row, col, value)
     * triplets sorted row-major. Built once and cached; the reference
     * stays valid until the tile is mutated.
     */
    const std::vector<TileNonzero> &nonzeros() const { return view().nz; }

    /** One-shot sparsity features, computed with the nonzero view. */
    const TileStats &features() const { return view().feat; }

    /** Number of non-zero elements. */
    Index nnz() const { return features().nnz; }

    /** Number of non-zero elements in @p row. */
    Index
    rowNnz(Index row) const
    {
        panicIf(row >= p, "Tile rowNnz out of range");
        return features().rowNnz[row];
    }

    /** Number of non-zero elements in @p col. */
    Index
    colNnz(Index col) const
    {
        panicIf(col >= p, "Tile colNnz out of range");
        return features().colNnz[col];
    }

    /** Number of rows with at least one non-zero. */
    Index nnzRows() const { return features().nnzRows; }

    /** Length of the longest row, in non-zeros. */
    Index maxRowNnz() const { return features().maxRowNnz; }

    /** Length of the longest column, in non-zeros. */
    Index maxColNnz() const { return features().maxColNnz; }

    /** True iff the tile holds no non-zero element. */
    bool empty() const { return nnz() == 0; }

    /** Raw row-major storage. */
    const std::vector<Value> &data() const { return store; }

    /**
     * Equality compares contents only, not grid coordinates. Every
     * priced tile is checked against its decoded copy, so identical
     * bytes short-circuit the element-wise comparison, which only
     * decides ties such as -0 vs +0.
     */
    friend bool
    operator==(const Tile &a, const Tile &b)
    {
        if (a.p != b.p || a.store.size() != b.store.size())
            return false;
        return a.store.empty() ||
               std::memcmp(a.store.data(), b.store.data(),
                           a.store.size() * sizeof(Value)) == 0 ||
               a.store == b.store;
    }

  private:
    /** The cached sparse representation: nonzeros + features. */
    struct SparseView
    {
        explicit SparseView(
            std::pair<std::vector<TileNonzero>, TileStats> built)
            : nz(std::move(built.first)), feat(std::move(built.second))
        {}

        std::vector<TileNonzero> nz;
        TileStats feat;
    };

    /** Feature pass shared by the dense and triplet build paths. */
    static std::pair<std::vector<TileNonzero>, TileStats>
    buildFeatures(Index p, std::vector<TileNonzero> nz)
    {
        TileStats feat;
        feat.nnz = static_cast<Index>(nz.size());
        feat.rowNnz.assign(p, 0);
        feat.colNnz.assign(p, 0);
        feat.rowStart.assign(static_cast<std::size_t>(p) + 1, 0);
        std::vector<char> diag(2 * static_cast<std::size_t>(p) - 1, 0);
        for (const TileNonzero &e : nz) {
            ++feat.rowNnz[e.row];
            ++feat.colNnz[e.col];
            diag[static_cast<std::size_t>(p) - 1 - e.row + e.col] = 1;
        }
        for (Index r = 0; r < p; ++r) {
            feat.rowStart[r + 1] = feat.rowStart[r] + feat.rowNnz[r];
            feat.maxRowNnz = std::max(feat.maxRowNnz, feat.rowNnz[r]);
            feat.nnzRows += feat.rowNnz[r] != 0;
        }
        for (Index c = 0; c < p; ++c) {
            feat.maxColNnz = std::max(feat.maxColNnz, feat.colNnz[c]);
            feat.nnzCols += feat.colNnz[c] != 0;
        }
        for (char present : diag)
            feat.nnzDiagonals += present != 0;
        return {std::move(nz), std::move(feat)};
    }

    /** Extract the sorted nonzero stream from the dense store. */
    std::vector<TileNonzero>
    scanStore() const
    {
        std::vector<TileNonzero> nz;
        for (Index r = 0; r < p; ++r) {
            const std::size_t base = static_cast<std::size_t>(r) * p;
            for (Index c = 0; c < p; ++c) {
                const Value v = store[base + c];
                if (v != Value(0))
                    nz.push_back({r, c, v});
            }
        }
        return nz;
    }

    /**
     * The cached view, built on first use. Concurrent builders race
     * benignly: both compute identical views and the compare-exchange
     * keeps exactly one.
     */
    const SparseView &
    view() const
    {
        const SparseView *v = cachedView.load(std::memory_order_acquire);
        if (v != nullptr)
            return *v;
        auto *built = new SparseView(buildFeatures(p, scanStore()));
        const SparseView *expected = nullptr;
        if (cachedView.compare_exchange_strong(
                expected, built, std::memory_order_acq_rel,
                std::memory_order_acquire)) {
            return *built;
        }
        delete built;
        return *expected;
    }

    /**
     * Drop the cached view before a write. Plain exchange: mutation
     * implies exclusive ownership (concurrent readers would already
     * race on the store itself).
     */
    void
    invalidateView()
    {
        if (cachedView.load(std::memory_order_relaxed) != nullptr)
            delete cachedView.exchange(nullptr,
                                       std::memory_order_acq_rel);
    }

    Index p;
    Index tRow;
    Index tCol;
    std::vector<Value> store;
    mutable std::atomic<const SparseView *> cachedView{nullptr};
};

} // namespace copernicus

#endif // COPERNICUS_MATRIX_TILE_HH
