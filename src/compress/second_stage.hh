/**
 * @file
 * Second-stage stream compression: per-stream-class codec selection
 * over an encoded tile's typed streams.
 *
 * Copernicus charges every byte crossing the memory interface against
 * bandwidth utilization (Section 4.2). The first stage is the sparse
 * format itself; this module adds the optional second stage: each
 * typed stream (typed_stream.hh) is byte-compressed before the DDR
 * transfer model sees it. Index, offset and value streams have very
 * different statistics — offsets are near-monotone and highly
 * repetitive, indices are small-alphabet, values are mostly
 * incompressible floats — so the codec is chosen *per stream class*
 * (SMASH and Qin et al., PAPERS.md), with an automatic
 * try-both-pick-smaller mode and a STORE passthrough whenever
 * compression loses.
 *
 * Accounting contract: a STORE stream ships the raw serialized bytes
 * unchanged, so storedBytes() <= rawBytes() always, and disabling the
 * second stage is exactly the all-STORE policy. Compressed streams
 * pay a fixed per-stream container header (family + raw size) so the
 * model never undercounts framing.
 *
 * Selection contract: the stored image is always roundtrip-verified;
 * losing candidates and streams too short to win are never
 * decompressed. The codecs read the typed streams in place (views
 * over the encoded arrays, typed_stream.hh); nothing is copied except
 * the images kept on request.
 */

#ifndef COPERNICUS_COMPRESS_SECOND_STAGE_HH
#define COPERNICUS_COMPRESS_SECOND_STAGE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "compress/stream_compressor.hh"
#include "formats/encoded_tile.hh"
#include "formats/typed_stream.hh"

namespace copernicus {

/** Codec choice for one stream class. */
enum class SecondStageChoice : std::uint8_t
{
    Auto, ///< every family competes, the smallest wins (or STORE)
    Store,
    Lz4,
    Lzf,
};

/**
 * Per-stream-class selection policy. Defaults to Auto everywhere —
 * the measured-smallest choice per stream.
 */
struct CompressionPolicy
{
    SecondStageChoice value = SecondStageChoice::Auto;
    SecondStageChoice index = SecondStageChoice::Auto;
    SecondStageChoice offset = SecondStageChoice::Auto;

    SecondStageChoice forClass(StreamClass cls) const;
};

/**
 * Fixed container header charged to every non-STORE stream: one
 * family byte plus the 32-bit raw size the decoder needs.
 */
constexpr Bytes streamHeaderBytes = 5;

/**
 * Shortest streams each in-repo codec can beat STORE on; compressTile()
 * does not run a codec on a shorter stream. A compressed stream wins
 * only if image + streamHeaderBytes < n, i.e. the image is at most
 * n - 6 bytes.
 *
 * LZ4 (lz4_block.cc). A match never starts within the last 12 bytes,
 * so at n <= 12 the block is one literal run: image n + 1. A match
 * points backwards, so it starts at i >= 1, and it ends before the
 * 5 trailing literals; at n <= 15 a second match would have to start
 * at or after i + 4 >= 5 > n - 12, so there is at most one. Its block
 * is token + i literals + 2 offset bytes + final token + the n - i - k
 * remaining literals = n - k + 4 bytes for k matched bytes. Winning
 * needs k >= 10, but k <= n - 6 <= 9. (So the image is >= 10 bytes
 * and the stored size >= 15.)
 *
 * LZF (lzf_block.cc). Every literal run costs one control byte and
 * the first byte is always a literal, so image = n + runs +
 * sum(cost - k) over matches, where a match of k bytes costs 2 bytes
 * (k <= 8) or 3 (k >= 9). Winning needs sum(k - cost) >= 6 + runs
 * >= 7. At n <= 10 at most 9 bytes are matched: one match saves at
 * most 6 (k = 8 or k = 9), two or more save at most 9 - 4 = 5.
 *
 * Both bounds are tight: a run of 16 (LZ4) or 11 (LZF) equal bytes
 * wins. Compress.ShortStreamsNeverBeatStore checks the bounds and
 * their tightness exhaustively over small alphabets, so a codec
 * change fails that test instead of silently moving the bound.
 */
constexpr std::size_t lz4MinWinningBytes = 16;
constexpr std::size_t lzfMinWinningBytes = 11;

/** One stream after second-stage selection. */
struct CompressedStream
{
    StreamClass cls = StreamClass::Value;
    const char *name = "";
    CompressionFamily family = CompressionFamily::Store;

    /** Serialized (pre-compression) payload size. */
    Bytes rawBytes = 0;

    /** Compressed payload size (== rawBytes for STORE). */
    Bytes payloadBytes = 0;

    /**
     * Bytes that cross the memory interface: the payload plus the
     * container header for compressed streams; exactly the raw bytes
     * for STORE.
     */
    Bytes
    storedBytes() const
    {
        return family == CompressionFamily::Store
                   ? rawBytes
                   : payloadBytes + streamHeaderBytes;
    }

    /** Compressed image; kept only when requested (tests, benches). */
    std::vector<std::byte> payload;
};

/** Second-stage result for one encoded tile. */
struct TileCompression
{
    std::vector<CompressedStream> streams;

    Bytes rawBytes() const;
    Bytes storedBytes() const;

    /** Per-stream stored sizes, for the AXI streamline model. */
    std::vector<Bytes> storedStreamBytes() const;
};

/**
 * Run second-stage selection over @p tile's typed streams.
 *
 * Per stream, every family the policy allows compresses the stream
 * (unless it is too short to win, see lz4MinWinningBytes). The
 * images are then considered smallest first, LZ4 first on a tie: the
 * first that beats STORE and passes the roundtrip check (decompressed
 * and byte-compared against the raw payload) is stored. A candidate
 * that fails verification falls through to the next one, then to
 * STORE — a storage format that cannot prove it preserves the stream
 * never wins. This stores exactly what verifying every candidate and
 * keeping the strictly smallest would, while decompressing only the
 * image that is stored. With @p keepPayloads the stored images (raw
 * bytes for STORE) are retained on the result for inspection.
 */
TileCompression compressTile(const EncodedTile &tile,
                             const CompressionPolicy &policy = {},
                             bool keepPayloads = false);

} // namespace copernicus

#endif // COPERNICUS_COMPRESS_SECOND_STAGE_HH
