/**
 * @file
 * ELL+COO hybrid codec (Section 2's ELL+COO variant).
 *
 * The first `width` non-zeros of each row go into a fixed-width ELL
 * structure; anything beyond spills into a COO tuple list. This caps the
 * padding cost of pathologically long rows that plain ELL would have to
 * widen for.
 */

#ifndef COPERNICUS_FORMATS_ELLCOO_FORMAT_HH
#define COPERNICUS_FORMATS_ELLCOO_FORMAT_HH

#include "formats/codec.hh"

namespace copernicus {

/** ELL+COO-encoded tile. */
class EllCooEncoded : public EncodedTile
{
  public:
    /** Column-index value marking a padding slot. */
    static constexpr Index padMarker = ~Index(0);

    EllCooEncoded(Index tileSize, Index nnz, Index width)
        : EncodedTile(tileSize, nnz), w(width),
          values(static_cast<std::size_t>(tileSize) * width, Value(0)),
          colInx(static_cast<std::size_t>(tileSize) * width, padMarker)
    {}

    FormatKind kind() const override { return FormatKind::ELLCOO; }

    std::vector<Bytes>
    streams() const override
    {
        return {Bytes(values.size()) * valueBytes +
                    Bytes(colInx.size()) * indexBytes,
                Bytes(overflowValues.size()) *
                    (valueBytes + 2 * indexBytes)};
    }

    TypedStreams
    typedStreams() const override
    {
        TypedStreams out;
        out.view(StreamClass::Value, "values", values);
        out.view(StreamClass::Index, "colInx", colInx);
        out.view(StreamClass::Value, "overflowValues", overflowValues);
        out.view(StreamClass::Index, "overflowRows", overflowRows);
        out.view(StreamClass::Index, "overflowCols", overflowCols);
        return out;
    }

    /** Fixed ELL-part width. */
    Index width() const { return w; }

    Value &
    valueAt(Index row, Index slot)
    {
        return values[static_cast<std::size_t>(row) * w + slot];
    }

    Index &
    colAt(Index row, Index slot)
    {
        return colInx[static_cast<std::size_t>(row) * w + slot];
    }

    Value
    valueAt(Index row, Index slot) const
    {
        return values[static_cast<std::size_t>(row) * w + slot];
    }

    Index
    colAt(Index row, Index slot) const
    {
        return colInx[static_cast<std::size_t>(row) * w + slot];
    }

  private:
    Index w;

  public:
    /** ELL part. */
    std::vector<Value> values;
    std::vector<Index> colInx;

    /** COO overflow part. */
    std::vector<Index> overflowRows;
    std::vector<Index> overflowCols;
    std::vector<Value> overflowValues;
};

/** Codec for ELL+COO with configurable ELL width (default 2). */
class EllCooCodec : public FormatCodec
{
  public:
    /** @param width ELL-part width (clamped to the tile size). */
    explicit EllCooCodec(Index width = 2);

    FormatKind kind() const override { return FormatKind::ELLCOO; }
    std::unique_ptr<EncodedTile> encode(const Tile &tile) const override;
    Tile decode(const EncodedTile &encoded) const override;

    Index width() const { return w; }

  private:
    Index w;
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_ELLCOO_FORMAT_HH
