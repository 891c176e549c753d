#include "compress/second_stage.hh"

#include <cstring>
#include <span>
#include <utility>

#include "common/arena.hh"
#include "trace/span.hh"

namespace copernicus {

namespace {

/** One compressed candidate image awaiting selection. */
struct Candidate
{
    const StreamCompressor *compressor = nullptr;
    const std::vector<std::byte> *image = nullptr;
};

/**
 * Decompress @p image into arena scratch and byte-compare it against
 * @p raw. False if the image is malformed or does not reproduce the
 * stream.
 */
bool
roundtrips(const StreamCompressor &compressor,
           std::span<const std::byte> image, std::span<const std::byte> raw)
{
    Arena &arena = encodeArena();
    const ArenaScope scope(arena);
    std::byte *check = arena.alloc<std::byte>(raw.size());
    if (!compressor.decompress(image, {check, raw.size()}))
        return false;
    return raw.empty() ||
           std::memcmp(check, raw.data(), raw.size()) == 0;
}

} // namespace

SecondStageChoice
CompressionPolicy::forClass(StreamClass cls) const
{
    switch (cls) {
    case StreamClass::Value:
        return value;
    case StreamClass::Index:
        return index;
    case StreamClass::Offset:
        return offset;
    }
    return SecondStageChoice::Store;
}

Bytes
TileCompression::rawBytes() const
{
    Bytes total = 0;
    for (const CompressedStream &s : streams)
        total += s.rawBytes;
    return total;
}

Bytes
TileCompression::storedBytes() const
{
    Bytes total = 0;
    for (const CompressedStream &s : streams)
        total += s.storedBytes();
    return total;
}

std::vector<Bytes>
TileCompression::storedStreamBytes() const
{
    std::vector<Bytes> sizes;
    sizes.reserve(streams.size());
    for (const CompressedStream &s : streams)
        sizes.push_back(s.storedBytes());
    return sizes;
}

TileCompression
compressTile(const EncodedTile &tile, const CompressionPolicy &policy,
             bool keepPayloads)
{
    static SpanSlot &timing =
        SpanCollector::global().slot("compress.tile");
    const ScopedSpan span(timing);

    const TypedStreams typed = tile.typedStreams();
    TileCompression result;
    result.streams.reserve(typed.size());

    // Candidate images, reused across streams and tiles.
    thread_local std::vector<std::byte> lz4Image;
    thread_local std::vector<std::byte> lzfImage;
    for (const TypedStream &stream : typed) {
        CompressedStream out;
        out.cls = stream.cls;
        out.name = stream.name;
        out.rawBytes = stream.size();
        out.family = CompressionFamily::Store;
        out.payloadBytes = out.rawBytes;

        const SecondStageChoice choice = policy.forClass(stream.cls);
        const std::size_t n = stream.bytes.size();
        Candidate candidates[2];
        std::size_t count = 0;
        if ((choice == SecondStageChoice::Auto ||
             choice == SecondStageChoice::Lz4) &&
            n >= lz4MinWinningBytes) {
            lz4Image.clear();
            lz4Compressor().compress(stream.bytes, lz4Image);
            candidates[count++] = {&lz4Compressor(), &lz4Image};
        }
        if ((choice == SecondStageChoice::Auto ||
             choice == SecondStageChoice::Lzf) &&
            n >= lzfMinWinningBytes) {
            lzfImage.clear();
            lzfCompressor().compress(stream.bytes, lzfImage);
            candidates[count++] = {&lzfCompressor(), &lzfImage};
        }
        // Smallest image first, LZ4 first on a tie. The first that
        // beats STORE and roundtrips is stored; once one loses to
        // STORE, so does every later (larger) one.
        if (count == 2 &&
            candidates[1].image->size() < candidates[0].image->size())
            std::swap(candidates[0], candidates[1]);
        const Candidate *winner = nullptr;
        for (const Candidate &c : std::span(candidates, count)) {
            if (Bytes(c.image->size()) + streamHeaderBytes >= out.rawBytes)
                break;
            if (roundtrips(*c.compressor, *c.image, stream.bytes)) {
                winner = &c;
                break;
            }
        }
        if (winner != nullptr) {
            out.family = winner->compressor->family();
            out.payloadBytes = Bytes(winner->image->size());
        }
        if (keepPayloads) {
            const std::span<const std::byte> kept =
                winner != nullptr ? std::span<const std::byte>(*winner->image)
                                  : stream.bytes;
            out.payload.assign(kept.begin(), kept.end());
        }
        result.streams.push_back(std::move(out));
    }
    return result;
}

} // namespace copernicus
