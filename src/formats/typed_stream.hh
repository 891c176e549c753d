/**
 * @file
 * Typed memory streams: the second-stage compression boundary.
 *
 * The legacy EncodedTile::streams() API reports opaque byte counts,
 * which is all the AXI transfer model needs. Second-stage compression
 * (src/compress) needs more: the actual serialized payload of each
 * stream, and a coarse class so index, offset and value streams can be
 * compressed with independently chosen codecs — they have very
 * different statistics (Qin et al., PAPERS.md).
 *
 * Every format therefore also reports typedStreams(): the same bytes
 * as streams(), split into labeled, classed, serialized payloads. The
 * invariant — enforced by the `streams` lint pass and the tier-1 tests
 * — is that the typed payload sizes sum to exactly the legacy
 * streams() total for every format: no bytes silently dropped or
 * double-counted by the migration.
 *
 * Serialization is the native little-endian in-memory image of each
 * array (the same bytes the DDR interface would move). The streams
 * are views, not copies:
 *  - a stream that is one contiguous array of the encoding (DENSE,
 *    CSR, CSC, COO, ELL, ...) is a std::as_bytes view over that array
 *    and stays valid while the encoded tile lives;
 *  - a format with non-contiguous storage (DOK's hash table, SELL's
 *    slices, BCSR's blocks, LIL's padded columns, DIA's diagonals)
 *    gathers the stream in a deterministic canonical order into
 *    storage the TypedStreams result owns, sized once up front; that
 *    view stays valid while the result lives.
 */

#ifndef COPERNICUS_FORMATS_TYPED_STREAM_HH
#define COPERNICUS_FORMATS_TYPED_STREAM_HH

#include <array>
#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"

namespace copernicus {

/** Coarse stream taxonomy for per-class compressor selection. */
enum class StreamClass : std::uint8_t
{
    Value,  ///< non-zero payload words (and in-block/padding zeros)
    Index,  ///< per-entry coordinates: column/row indices, masks, perms
    Offset, ///< structural headers: prefix sums, widths, diagonal numbers
};

/** Human-readable class label ("value", "index", "offset"). */
const char *streamClassName(StreamClass cls);

/** One serialized memory stream of an encoded tile, viewed in place. */
struct TypedStream
{
    StreamClass cls = StreamClass::Value;

    /** Static label, e.g. "values", "colInx" (never owned). */
    const char *name = "";

    /** Serialized payload, canonical order, native byte order. */
    std::span<const std::byte> bytes;

    Bytes size() const { return Bytes(bytes.size()); }
};

/**
 * Sequential writer over a gathered stream's storage. The storage is
 * sized once when the stream is declared, so put() never reallocates;
 * writing past the declared size is a (debug-checked) codec bug.
 */
class StreamFill
{
  public:
    explicit StreamFill(std::span<std::byte> storage)
        : at(storage.data()), end(storage.data() + storage.size())
    {}

    /** Append the raw bytes of @p count scalars at @p data. */
    template <typename T>
    void
    put(const T *data, std::size_t count)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        COPERNICUS_DCHECK(count * sizeof(T) <= std::size_t(end - at),
                          "gathered stream overruns its declared size");
        if (count != 0)
            std::memcpy(at, data, count * sizeof(T));
        at += count * sizeof(T);
    }

    /** Append the raw bytes of one scalar. */
    template <typename T>
    void
    put(const T &value)
    {
        put(&value, 1);
    }

  private:
    std::byte *at;
    std::byte *end;
};

/**
 * The typed streams of one encoded tile, in the format's stream order.
 * Move-only: gathered streams view storage this object owns.
 */
class TypedStreams
{
  public:
    /** Most streams any format declares (ELL+COO has five). */
    static constexpr std::size_t maxStreams = 5;

    /** View a contiguous scalar range of the encoding in place. */
    template <typename Range>
    void
    view(StreamClass cls, const char *name, const Range &range)
    {
        push(cls, name, std::as_bytes(std::span(range)));
    }

    /**
     * Declare a stream of exactly @p bytes serialized bytes, gathered
     * into storage this object owns; fill it through the returned
     * writer, in canonical order.
     */
    StreamFill
    gather(StreamClass cls, const char *name, std::size_t bytes)
    {
        owned.push_back(std::make_unique_for_overwrite<std::byte[]>(bytes));
        const std::span<std::byte> storage(owned.back().get(), bytes);
        push(cls, name, storage);
        return StreamFill(storage);
    }

    const TypedStream *begin() const { return list.data(); }
    const TypedStream *end() const { return list.data() + count; }
    std::size_t size() const { return count; }
    const TypedStream &operator[](std::size_t i) const { return list[i]; }

    /** Sum of the serialized payload sizes. */
    Bytes
    totalBytes() const
    {
        Bytes total = 0;
        for (const TypedStream &s : *this)
            total += s.size();
        return total;
    }

  private:
    void
    push(StreamClass cls, const char *name,
         std::span<const std::byte> bytes)
    {
        if (count == maxStreams)
            panic("an encoding declares more than maxStreams streams");
        list[count++] = TypedStream{cls, name, bytes};
    }

    std::array<TypedStream, maxStreams> list{};
    std::size_t count = 0;
    std::vector<std::unique_ptr<std::byte[]>> owned;
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_TYPED_STREAM_HH
