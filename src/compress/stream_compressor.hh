/**
 * @file
 * StreamCompressor: the roundtrip-verified byte-compressor interface.
 *
 * Two in-repo block-compressor families implement it — an LZ4-class
 * fast match-finder (lz4_block.hh) and an LZF-class fallback
 * (lzf_block.hh) — both zero-external-dependency, both exact: for
 * every input, decompress(compress(x)) == x byte-for-byte, and the
 * test suite fuzzes that contract across random, banded,
 * catalog-derived and adversarial streams.
 *
 * The interface is deliberately block-oriented (one shot per stream,
 * no streaming state): encoded-tile streams are small. Second-stage
 * selection (second_stage.hh) compresses each stream at most once per
 * allowed family, from a view over the encoded tile's own arrays, and
 * decompresses only the image it stores.
 */

#ifndef COPERNICUS_COMPRESS_STREAM_COMPRESSOR_HH
#define COPERNICUS_COMPRESS_STREAM_COMPRESSOR_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace copernicus {

/** Which byte-compressor produced a stored stream. */
enum class CompressionFamily : std::uint8_t
{
    Store = 0, ///< raw passthrough (compression lost or disabled)
    Lz4 = 1,
    Lzf = 2,
};

/** Human-readable family label ("store", "lz4", "lzf"). */
const char *compressionFamilyName(CompressionFamily family);

/** One block-compressor family. */
class StreamCompressor
{
  public:
    virtual ~StreamCompressor() = default;

    virtual CompressionFamily family() const = 0;

    /**
     * Append the compressed image of @p src to @p out.
     * @return the number of bytes appended. Never fails:
     * incompressible input degrades to a framed literal image.
     */
    virtual std::size_t compress(std::span<const std::byte> src,
                                 std::vector<std::byte> &out) const = 0;

    /**
     * Decode a compressed image into exactly @p dst.size() bytes.
     * @return true on success, false on a malformed block.
     */
    virtual bool decompress(std::span<const std::byte> src,
                            std::span<std::byte> dst) const = 0;
};

/** The process-wide LZ4-family compressor. */
const StreamCompressor &lz4Compressor();

/** The process-wide LZF-family compressor. */
const StreamCompressor &lzfCompressor();

/**
 * Compressor for @p family, or nullptr for Store (which has no codec:
 * stored bytes are the raw bytes).
 */
const StreamCompressor *compressorFor(CompressionFamily family);

} // namespace copernicus

#endif // COPERNICUS_COMPRESS_STREAM_COMPRESSOR_HH
