#include "formats/lil_format.hh"

namespace copernicus {

std::unique_ptr<EncodedTile>
LilCodec::encode(const Tile &tile) const
{
    const Index p = tile.size();
    const auto &nz = tile.nonzeros();
    const TileStats &feat = tile.features();
    // Height is the longest column plus one all-sentinel terminator row.
    const Index height = feat.maxColNnz + 1;
    auto encoded = std::make_unique<LilEncoded>(p, feat.nnz, height);
    // The row-major stream visits each column's rows in ascending
    // order, so per-column level counters reproduce the column scan.
    std::vector<Index> level(p, 0);
    for (const TileNonzero &e : nz) {
        const Index l = level[e.col]++;
        encoded->valueAt(l, e.col) = e.value;
        encoded->rowAt(l, e.col) = e.row;
    }
    return encoded;
}

TypedStreams
LilEncoded::typedStreams() const
{
    // One entry per non-zero plus one end marker per column, so both
    // streams are sized once, up front.
    const std::size_t entries = std::size_t(nnz()) + tileSize();
    TypedStreams out;
    StreamFill values =
        out.gather(StreamClass::Value, "values", entries * valueBytes);
    StreamFill rows =
        out.gather(StreamClass::Index, "rowInx", entries * indexBytes);
    // Column-major: each column's packed list, closed by one
    // end-marker entry (a zero value slot under the endMarker row).
    for (Index col = 0; col < tileSize(); ++col) {
        for (Index level = 0;; ++level) {
            const Index row = rowAt(level, col);
            rows.put(row);
            if (row == endMarker) {
                values.put(Value(0));
                break;
            }
            values.put(valueAt(level, col));
        }
    }
    return out;
}

Tile
LilCodec::decode(const EncodedTile &encoded) const
{
    const auto &lil = encodedAs<LilEncoded>(encoded, FormatKind::LIL);
    const Index p = lil.tileSize();
    Tile tile(p);
    for (Index c = 0; c < p; ++c) {
        for (Index level = 0; level < lil.height(); ++level) {
            const Index row = lil.rowAt(level, c);
            if (row == LilEncoded::endMarker)
                break;
            tile.cell(row, c) = lil.valueAt(level, c);
        }
    }
    return tile;
}

} // namespace copernicus
