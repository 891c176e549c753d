/**
 * @file
 * DIA codec (Section 2, Figure 1h; decompression Listing 7).
 *
 * Each non-zero diagonal is stored as a fixed-length row of
 * diags[NUM_DIAGONALS][MAX_DIAGONAL_LEN]: one header element holding the
 * diagonal number followed by p value slots (shorter diagonals are
 * padded), exactly the buffer shape Listing 7 declares. The header and
 * padding are why DIA's bandwidth utilization is slightly below one even
 * for a pure diagonal matrix, approaching one as the partition grows.
 */

#ifndef COPERNICUS_FORMATS_DIA_FORMAT_HH
#define COPERNICUS_FORMATS_DIA_FORMAT_HH

#include <cstdint>

#include "formats/codec.hh"

namespace copernicus {

/** One stored diagonal: header number plus p padded value slots. */
struct DiaDiagonal
{
    /** Diagonal number: col - row (negative below the main diagonal). */
    std::int32_t number = 0;

    /** p value slots; slot index per Listing 7's DiaInxForRow. */
    std::vector<Value> values;
};

/** DIA-encoded tile. */
class DiaEncoded : public EncodedTile
{
  public:
    DiaEncoded(Index tileSize, Index nnz) : EncodedTile(tileSize, nnz) {}

    FormatKind kind() const override { return FormatKind::DIA; }

    std::vector<Bytes>
    streams() const override
    {
        // Each diagonal row is p+1 words (header + padded values).
        return {Bytes(diagonals.size()) * (p + 1) * valueBytes};
    }

    /** Header numbers and padded value slots as planar streams. */
    TypedStreams
    typedStreams() const override
    {
        std::size_t value_count = 0;
        for (const DiaDiagonal &d : diagonals)
            value_count += d.values.size();
        TypedStreams out;
        StreamFill values = out.gather(StreamClass::Value, "values",
                                       value_count * valueBytes);
        StreamFill headers =
            out.gather(StreamClass::Offset, "headers",
                       diagonals.size() * sizeof(DiaDiagonal::number));
        for (const DiaDiagonal &d : diagonals) {
            headers.put(d.number);
            values.put(d.values.data(), d.values.size());
        }
        return out;
    }

    /**
     * Value-slot index of @p row on diagonal @p d (Listing 7's
     * DiaInxForRow): position along the diagonal from its start.
     */
    static Index
    slotForRow(Index row, std::int32_t d)
    {
        return d < 0 ? static_cast<Index>(static_cast<std::int32_t>(row) +
                                          d)
                     : row;
    }

    /** True iff @p row intersects diagonal @p d in a p x p tile. */
    bool
    rowOnDiagonal(Index row, std::int32_t d) const
    {
        const auto r = static_cast<std::int32_t>(row);
        const auto size = static_cast<std::int32_t>(p);
        return d <= size - 1 - r && d >= -r;
    }

    /** Stored non-zero diagonals, ordered by diagonal number. */
    std::vector<DiaDiagonal> diagonals;
};

/** Codec for DIA. */
class DiaCodec : public FormatCodec
{
  public:
    FormatKind kind() const override { return FormatKind::DIA; }
    std::unique_ptr<EncodedTile> encode(const Tile &tile) const override;
    Tile decode(const EncodedTile &encoded) const override;
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_DIA_FORMAT_HH
