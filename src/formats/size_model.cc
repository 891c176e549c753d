#include "formats/size_model.hh"

#include <algorithm>
#include <functional>

#include "common/status.hh"

namespace copernicus {

TileShape
measureTile(const Tile &tile, const FormatParams &params)
{
    const TileStats &feat = tile.features();
    TileShape shape;
    shape.p = tile.size();
    shape.nnz = feat.nnz;
    shape.maxRowNnz = feat.maxRowNnz;
    shape.maxColNnz = feat.maxColNnz;
    shape.nnzDiagonals = feat.nnzDiagonals;

    const Index p = tile.size();
    const auto &nz = tile.nonzeros();
    const std::vector<Index> &row_nnz = feat.rowNnz;

    // Non-zero BCSR blocks: mark each nonzero's block in one pass.
    const Index b = params.bcsrBlock;
    if (p % b == 0) {
        const Index grid = p / b;
        std::vector<char> blockSet(static_cast<std::size_t>(grid) * grid,
                                   0);
        for (const TileNonzero &e : nz)
            blockSet[static_cast<std::size_t>(e.row / b) * grid +
                     e.col / b] = 1;
        for (const char set : blockSet)
            shape.nnzBlocks += set != 0;
    }

    // Per-slice widths, plain and window-sorted.
    const Index c = params.sellSlice;
    if (p % c == 0) {
        for (Index base = 0; base < p; base += c) {
            Index width = 0;
            for (Index r = base; r < base + c; ++r)
                width = std::max(width, row_nnz[r]);
            shape.sliceWidths.push_back(width);
        }
    }
    const Index sigma = params.sellCsWindow;
    if (p % c == 0 && sigma % c == 0 && p % sigma == 0) {
        std::vector<Index> sorted = row_nnz;
        for (Index base = 0; base < p; base += sigma) {
            std::sort(sorted.begin() + base,
                      sorted.begin() + base + sigma,
                      std::greater<>());
        }
        for (Index base = 0; base < p; base += c) {
            Index width = 0;
            for (Index r = base; r < base + c; ++r)
                width = std::max(width, sorted[r]);
            shape.sortedSliceWidths.push_back(width);
        }
    }

    // ELL+COO overflow.
    const Index hybrid_width = std::min(params.ellCooWidth, p);
    for (Index r = 0; r < p; ++r)
        if (row_nnz[r] > hybrid_width)
            shape.ellCooOverflow += row_nnz[r] - hybrid_width;

    return shape;
}

StreamClassBytes
predictedStreamBytes(const TileShape &shape, FormatKind kind,
                     const FormatParams &params)
{
    const Bytes p = shape.p;
    const Bytes nnz = shape.nnz;
    StreamClassBytes out;
    switch (kind) {
      case FormatKind::Dense:
        out.value = p * p * valueBytes;
        return out;
      case FormatKind::CSR:
      case FormatKind::CSC:
        out.value = nnz * valueBytes;
        out.index = nnz * indexBytes;
        out.offset = p * indexBytes;
        return out;
      case FormatKind::BCSR: {
        const Bytes b = params.bcsrBlock;
        out.value = Bytes(shape.nnzBlocks) * b * b * valueBytes;
        out.index = Bytes(shape.nnzBlocks) * indexBytes;
        out.offset = (p / b) * indexBytes;
        return out;
      }
      case FormatKind::COO:
      case FormatKind::DOK:
        out.value = nnz * valueBytes;
        out.index = nnz * 2 * indexBytes;
        return out;
      case FormatKind::LIL:
        // One sentinel entry closes each column's packed list.
        out.value = (nnz + p) * valueBytes;
        out.index = (nnz + p) * indexBytes;
        return out;
      case FormatKind::ELL: {
        const Bytes width = std::max<Bytes>(
            std::min<Bytes>(params.ellMinWidth, p), shape.maxRowNnz);
        out.value = p * width * valueBytes;
        out.index = p * width * indexBytes;
        return out;
      }
      case FormatKind::SELL: {
        Bytes slots = 0;
        for (Index width : shape.sliceWidths)
            slots += Bytes(params.sellSlice) * width;
        out.value = slots * valueBytes;
        out.index = slots * indexBytes;
        out.offset = Bytes(shape.sliceWidths.size()) * indexBytes;
        return out;
      }
      case FormatKind::SELLCS: {
        Bytes slots = 0;
        for (Index width : shape.sortedSliceWidths)
            slots += Bytes(params.sellSlice) * width;
        out.value = slots * valueBytes;
        // colInx plus the row permutation.
        out.index = slots * indexBytes + p * indexBytes;
        out.offset = Bytes(shape.sortedSliceWidths.size()) * indexBytes;
        return out;
      }
      case FormatKind::DIA:
        out.value = Bytes(shape.nnzDiagonals) * p * valueBytes;
        // One 32-bit diagonal number per diagonal.
        out.offset = Bytes(shape.nnzDiagonals) * valueBytes;
        return out;
      case FormatKind::JDS:
        out.value = nnz * valueBytes;
        // colInx plus the row permutation.
        out.index = (nnz + p) * indexBytes;
        out.offset = (Bytes(shape.maxRowNnz) + 1) * indexBytes;
        return out;
      case FormatKind::ELLCOO: {
        const Bytes width = std::min<Bytes>(params.ellCooWidth, p);
        const Bytes overflow = shape.ellCooOverflow;
        out.value = (p * width + overflow) * valueBytes;
        out.index = p * width * indexBytes +
                    overflow * 2 * indexBytes;
        return out;
      }
      case FormatKind::BITMAP:
        out.value = nnz * valueBytes;
        out.index = (p * p + 7) / 8;
        return out;
    }
    panic("predictedStreamBytes: unknown format kind");
}

Bytes
predictedBytes(const TileShape &shape, FormatKind kind,
               const FormatParams &params)
{
    return predictedStreamBytes(shape, kind, params).total();
}

double
predictedUtilization(const TileShape &shape, FormatKind kind,
                     const FormatParams &params)
{
    const Bytes total = predictedBytes(shape, kind, params);
    return total == 0
               ? 0.0
               : static_cast<double>(Bytes(shape.nnz) * valueBytes) /
                     static_cast<double>(total);
}

} // namespace copernicus
