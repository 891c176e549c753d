/**
 * @file
 * Sliced ELL codec (Section 2's SELL variant).
 *
 * The tile is cut row-wise into slices of fixed height C; ELL is applied
 * per slice with the slice's own width, which trims the padding a single
 * global width would force. One width header per slice is the extra
 * metadata.
 */

#ifndef COPERNICUS_FORMATS_SELL_FORMAT_HH
#define COPERNICUS_FORMATS_SELL_FORMAT_HH

#include "formats/codec.hh"

namespace copernicus {

/** One ELL slice of a SELL encoding. */
struct SellSlice
{
    /** Compressed width of this slice (its longest row). */
    Index width = 0;

    /** sliceHeight x width values, rows pushed left, zero-padded. */
    std::vector<Value> values;

    /** sliceHeight x width column indices; padMarker pads. */
    std::vector<Index> colInx;
};

/** SELL-encoded tile. */
class SellEncoded : public EncodedTile
{
  public:
    /** Column-index value marking a padding slot. */
    static constexpr Index padMarker = ~Index(0);

    SellEncoded(Index tileSize, Index nnz, Index sliceHeight)
        : EncodedTile(tileSize, nnz), c(sliceHeight)
    {}

    FormatKind kind() const override { return FormatKind::SELL; }

    std::vector<Bytes>
    streams() const override
    {
        Bytes value_bytes = 0;
        Bytes index_bytes = 0;
        for (const auto &slice : slices) {
            value_bytes += Bytes(slice.values.size()) * valueBytes;
            index_bytes += Bytes(slice.colInx.size()) * indexBytes;
        }
        // One width header per slice.
        index_bytes += Bytes(slices.size()) * indexBytes;
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
        return out;
    }

    /** Slice height C. */
    Index sliceHeight() const { return c; }

    std::vector<SellSlice> slices;

  private:
    Index c;
};

/** Codec for SELL with configurable slice height (default 4). */
class SellCodec : public FormatCodec
{
  public:
    /** @param sliceHeight Slice height C; must divide the tile size. */
    explicit SellCodec(Index sliceHeight = 4);

    FormatKind kind() const override { return FormatKind::SELL; }
    std::unique_ptr<EncodedTile> encode(const Tile &tile) const override;
    Tile decode(const EncodedTile &encoded) const override;

    Index sliceHeight() const { return c; }

  private:
    Index c;
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_SELL_FORMAT_HH
