/**
 * @file
 * SELL-C-sigma codec (Section 2: "a variant of JDS that only sorts
 * rows within a window of sigma").
 *
 * Rows are sorted by descending non-zero count inside each
 * sigma-row window (the permutation is kept so decode can undo it),
 * then sliced ELL is applied with slice height C. Sorting packs rows
 * of similar length into the same slice, which trims SELL's padding
 * without JDS's global permutation cost.
 */

#ifndef COPERNICUS_FORMATS_SELLCS_FORMAT_HH
#define COPERNICUS_FORMATS_SELLCS_FORMAT_HH

#include "formats/codec.hh"
#include "formats/sell_format.hh"

namespace copernicus {

/** SELL-C-sigma-encoded tile. */
class SellCsEncoded : public EncodedTile
{
  public:
    /** Column-index value marking a padding slot. */
    static constexpr Index padMarker = ~Index(0);

    SellCsEncoded(Index tileSize, Index nnz, Index sliceHeight,
                  Index window)
        : EncodedTile(tileSize, nnz), c(sliceHeight), sigma(window)
    {}

    FormatKind kind() const override { return FormatKind::SELLCS; }

    std::vector<Bytes>
    streams() const override
    {
        Bytes value_bytes = 0;
        Bytes index_bytes = 0;
        for (const auto &slice : slices) {
            value_bytes += Bytes(slice.values.size()) * valueBytes;
            index_bytes += Bytes(slice.colInx.size()) * indexBytes;
        }
        // Width header per slice plus the permutation array.
        index_bytes += Bytes(slices.size() + perm.size()) * indexBytes;
        return {value_bytes, index_bytes};
    }

    TypedStreams
    typedStreams() const override
    {
        std::size_t value_count = 0;
        std::size_t index_count = 0;
        for (const auto &slice : slices) {
            value_count += slice.values.size();
            index_count += slice.colInx.size();
        }
        TypedStreams out;
        StreamFill values = out.gather(StreamClass::Value, "values",
                                       value_count * valueBytes);
        StreamFill colInx = out.gather(StreamClass::Index, "colInx",
                                       index_count * indexBytes);
        StreamFill widths = out.gather(StreamClass::Offset, "widths",
                                       slices.size() * indexBytes);
        for (const auto &slice : slices) {
            values.put(slice.values.data(), slice.values.size());
            colInx.put(slice.colInx.data(), slice.colInx.size());
            widths.put(slice.width);
        }
        out.view(StreamClass::Index, "perm", perm);
        return out;
    }

    /** Slice height C. */
    Index sliceHeight() const { return c; }

    /** Sorting-window height sigma. */
    Index window() const { return sigma; }

    /** perm[k] = original row stored at sorted position k. */
    std::vector<Index> perm;

    /** ELL slices over the permuted rows (reuses SELL's slice type). */
    std::vector<SellSlice> slices;

  private:
    Index c;
    Index sigma;
};

/** Codec for SELL-C-sigma. */
class SellCsCodec : public FormatCodec
{
  public:
    /**
     * @param sliceHeight Slice height C; must divide the tile size.
     * @param window Sorting window sigma; must be a multiple of
     *        sliceHeight and divide the tile size.
     */
    explicit SellCsCodec(Index sliceHeight = 4, Index window = 8);

    FormatKind kind() const override { return FormatKind::SELLCS; }
    std::unique_ptr<EncodedTile> encode(const Tile &tile) const override;
    Tile decode(const EncodedTile &encoded) const override;

    Index sliceHeight() const { return c; }
    Index window() const { return sigma; }

  private:
    Index c;
    Index sigma;
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_SELLCS_FORMAT_HH
