#include "formats/dok_format.hh"

#include <algorithm>
#include <utility>

namespace copernicus {

std::unique_ptr<EncodedTile>
DokCodec::encode(const Tile &tile) const
{
    const auto &nz = tile.nonzeros();
    auto encoded = std::make_unique<DokEncoded>(tile.size(), tile.nnz());
    encoded->table.reserve(nz.size());
    for (const TileNonzero &e : nz)
        encoded->table.emplace(DokEncoded::key(e.row, e.col), e.value);
    return encoded;
}

TypedStreams
DokEncoded::typedStreams() const
{
    // Sorted (row, col) order: the packed key sorts row-major and keys
    // are unique, so one sort of the entries by key yields the
    // canonical COO ordering.
    std::vector<std::pair<std::uint64_t, Value>> entries(table.begin(),
                                                         table.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });

    TypedStreams out;
    StreamFill values = out.gather(StreamClass::Value, "values",
                                   entries.size() * valueBytes);
    StreamFill rows = out.gather(StreamClass::Index, "rowInx",
                                 entries.size() * indexBytes);
    StreamFill cols = out.gather(StreamClass::Index, "colInx",
                                 entries.size() * indexBytes);
    for (const auto &[key, value] : entries) {
        values.put(value);
        rows.put(static_cast<Index>(key >> 32));
        cols.put(static_cast<Index>(key & 0xffffffffULL));
    }
    return out;
}

Tile
DokCodec::decode(const EncodedTile &encoded) const
{
    const auto &dok = encodedAs<DokEncoded>(encoded, FormatKind::DOK);
    Tile tile(dok.tileSize());
    for (const auto &[key, value] : dok.table) {
        const Index row = static_cast<Index>(key >> 32);
        const Index col = static_cast<Index>(key & 0xffffffffULL);
        tile.cell(row, col) = value;
    }
    return tile;
}

} // namespace copernicus
