/**
 * @file
 * Second-stage compressor tests: exact roundtrip fuzzing for both
 * block families across random, structured, catalog-derived and
 * adversarial inputs, decoder robustness on malformed images, and the
 * compressTile() selection/accounting contract.
 *
 * The fuzz bodies are deterministic (fixed Rng seeds) and also run
 * under the sanitizer builds — the tsan label puts them in the
 * concurrency lane, and the asan/ubsan CI jobs run the whole suite —
 * so decoder bounds handling is exercised with full instrumentation.
 */

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "compress/second_stage.hh"
#include "compress/stream_compressor.hh"
#include "formats/registry.hh"
#include "matrix/partitioner.hh"
#include "trace/span.hh"
#include "workloads/generators.hh"
#include "workloads/suite_catalog.hh"

namespace copernicus {
namespace {

std::vector<const StreamCompressor *>
families()
{
    return {&lz4Compressor(), &lzfCompressor()};
}

/** Compress, decompress, and require byte-exact recovery. */
void
expectRoundtrip(const StreamCompressor &compressor,
                std::span<const std::byte> input)
{
    std::vector<std::byte> compressed;
    const std::size_t written = compressor.compress(input, compressed);
    EXPECT_EQ(written, compressed.size());

    std::vector<std::byte> output(input.size(), std::byte(0x5C));
    ASSERT_TRUE(compressor.decompress(compressed, output))
        << "family " << compressionFamilyName(compressor.family())
        << " rejected its own image (input " << input.size()
        << " bytes)";
    if (!input.empty()) {
        EXPECT_EQ(0, std::memcmp(output.data(), input.data(),
                                 input.size()))
            << "family "
            << compressionFamilyName(compressor.family())
            << " corrupted a " << input.size() << "-byte input";
    }
}

std::vector<std::byte>
randomBytes(std::size_t n, Rng &rng)
{
    std::vector<std::byte> out(n);
    for (auto &b : out)
        b = std::byte(rng() & 0xff);
    return out;
}

TEST(Compress, EmptyInput)
{
    for (const StreamCompressor *compressor : families()) {
        std::vector<std::byte> compressed;
        EXPECT_EQ(0u, compressor->compress({}, compressed));
        EXPECT_TRUE(compressed.empty());
        EXPECT_TRUE(compressor->decompress(compressed, {}));
    }
}

TEST(Compress, AllZeroBlocks)
{
    for (const StreamCompressor *compressor : families()) {
        for (std::size_t n :
             {1u, 2u, 15u, 16u, 64u, 4096u, 70000u}) {
            const std::vector<std::byte> zeros(n, std::byte(0));
            expectRoundtrip(*compressor, zeros);
            // All-zero input is the best case; it must actually
            // compress once past the minimum match length.
            if (n >= 64) {
                std::vector<std::byte> compressed;
                compressor->compress(zeros, compressed);
                EXPECT_LT(compressed.size(), n / 4);
            }
        }
    }
}

TEST(Compress, IncompressibleRandom)
{
    Rng rng(0xF00DF00D);
    for (const StreamCompressor *compressor : families()) {
        for (std::size_t n : {1u, 7u, 13u, 255u, 4096u, 70000u}) {
            const auto input = randomBytes(n, rng);
            expectRoundtrip(*compressor, input);
            // Incompressible input degrades gracefully: bounded
            // literal-run framing, never unbounded expansion.
            std::vector<std::byte> compressed;
            compressor->compress(input, compressed);
            EXPECT_LE(compressed.size(), n + n / 16 + 8);
        }
    }
}

TEST(Compress, LargeBlocksPastSixtyFourKiB)
{
    // > 64 KiB exercises LZ4's 16-bit offset ceiling and LZF's
    // 8 KiB window wrap on one continuous input.
    Rng rng(0xBEEF);
    std::vector<std::byte> input;
    input.reserve(300000);
    // Repeating structure with embedded noise: long-range matches
    // exist but are interrupted, so offsets span the full range.
    for (std::size_t i = 0; i < 300000; ++i) {
        if (i % 97 == 0)
            input.push_back(std::byte(rng() & 0xff));
        else
            input.push_back(std::byte((i / 3) & 0xff));
    }
    for (const StreamCompressor *compressor : families())
        expectRoundtrip(*compressor, input);
}

TEST(Compress, FuzzMixedContent)
{
    Rng rng(0xCAFE);
    for (int round = 0; round < 60; ++round) {
        const std::size_t n = 1 + std::size_t(rng() % 3000);
        std::vector<std::byte> input(n);
        // Alphabet size sweeps from near-constant to full-random:
        // small alphabets make dense match structure, large ones
        // force literal runs.
        const unsigned alphabet = 1 + unsigned(rng() % 256);
        for (auto &b : input)
            b = std::byte(rng() % alphabet);
        for (const StreamCompressor *compressor : families())
            expectRoundtrip(*compressor, input);
    }
}

/** The tiles the encoded-stream fuzzers run over: p = 16 tiles of
 *  a random and a banded matrix. */
std::vector<Tile>
fuzzTiles()
{
    Rng rng(0x7E57);
    const TripletMatrix random = randomMatrix(128, 0.02, rng);
    const TripletMatrix band = bandMatrix(128, 4, rng);
    std::vector<Tile> tiles;
    for (const TripletMatrix *matrix : {&random, &band})
        for (Tile &tile : partition(*matrix, 16).tiles)
            tiles.push_back(std::move(tile));
    return tiles;
}

TEST(Compress, FuzzEncodedTileStreams)
{
    // The payloads the second stage actually sees: typed streams of
    // real encodings over random and banded matrices.
    const FormatRegistry &registry = defaultRegistry();
    for (const Tile &tile : fuzzTiles()) {
        for (FormatKind kind : {FormatKind::CSR, FormatKind::SELLCS,
                                FormatKind::JDS, FormatKind::BITMAP}) {
            const auto encoded = registry.codec(kind).encode(tile);
            for (const TypedStream &stream : encoded->typedStreams())
                for (const StreamCompressor *compressor : families())
                    expectRoundtrip(*compressor, stream.bytes);
        }
    }
}

/**
 * Reference selection: the verify-everything loop compressTile() used
 * before it verified only the stored image. Every allowed family
 * compresses and roundtrip-checks the stream; a verified candidate
 * replaces the current choice only if it is strictly smaller, so STORE
 * wins unless compression beats it and LZ4 wins ties.
 */
CompressedStream
referenceSelect(const TypedStream &stream, SecondStageChoice choice)
{
    CompressedStream out;
    out.cls = stream.cls;
    out.name = stream.name;
    out.rawBytes = stream.size();
    out.payloadBytes = out.rawBytes;
    out.payload.assign(stream.bytes.begin(), stream.bytes.end());
    for (const StreamCompressor *compressor : families()) {
        const bool allowed =
            choice == SecondStageChoice::Auto ||
            (choice == SecondStageChoice::Lz4 &&
             compressor->family() == CompressionFamily::Lz4) ||
            (choice == SecondStageChoice::Lzf &&
             compressor->family() == CompressionFamily::Lzf);
        if (!allowed)
            continue;
        std::vector<std::byte> image;
        compressor->compress(stream.bytes, image);
        std::vector<std::byte> check(stream.bytes.size());
        if (!compressor->decompress(image, check) ||
            !std::ranges::equal(check, stream.bytes))
            continue;
        if (Bytes(image.size()) + streamHeaderBytes < out.storedBytes()) {
            out.family = compressor->family();
            out.payloadBytes = Bytes(image.size());
            out.payload = std::move(image);
        }
    }
    return out;
}

TEST(Compress, SelectionMatchesTryEveryCandidate)
{
    const FormatRegistry &registry = defaultRegistry();
    const std::vector<Tile> tiles = fuzzTiles();
    std::size_t compared = 0;
    std::size_t compressed = 0;
    for (SecondStageChoice choice :
         {SecondStageChoice::Auto, SecondStageChoice::Lz4,
          SecondStageChoice::Lzf, SecondStageChoice::Store}) {
        CompressionPolicy policy;
        policy.value = policy.index = policy.offset = choice;
        for (const Tile &tile : tiles) {
            for (FormatKind kind : allFormats()) {
                const auto encoded = registry.codec(kind).encode(tile);
                const TypedStreams typed = encoded->typedStreams();
                const TileCompression comp =
                    compressTile(*encoded, policy, true);
                ASSERT_EQ(typed.size(), comp.streams.size());
                for (std::size_t i = 0; i < typed.size(); ++i) {
                    const CompressedStream want =
                        referenceSelect(typed[i], choice);
                    const CompressedStream &got = comp.streams[i];
                    ASSERT_EQ(want.family, got.family)
                        << formatName(kind) << " stream " << want.name;
                    ASSERT_EQ(want.payloadBytes, got.payloadBytes)
                        << formatName(kind) << " stream " << want.name;
                    ASSERT_EQ(want.payload, got.payload)
                        << formatName(kind) << " stream " << want.name;
                    ++compared;
                    compressed += got.family != CompressionFamily::Store;
                }
            }
        }
    }
    // The inputs must exercise both outcomes, or the test says little.
    EXPECT_GT(compressed, 0u);
    EXPECT_LT(compressed, compared);
}

/** Every string of length @p n over the letters 0 .. alphabet-1. */
template <typename Fn>
void
forEachString(std::size_t n, unsigned alphabet, Fn fn)
{
    std::vector<std::byte> s(n, std::byte(0));
    for (;;) {
        fn(std::span<const std::byte>(s));
        std::size_t i = 0;
        while (i < n && unsigned(s[i]) + 1 == alphabet)
            s[i++] = std::byte(0);
        if (i == n)
            return;
        s[i] = std::byte(unsigned(s[i]) + 1);
    }
}

/** Stored size if @p compressor's image of @p s were selected. */
std::size_t
compressedStoredBytes(const StreamCompressor &compressor,
                      std::span<const std::byte> s)
{
    std::vector<std::byte> image;
    compressor.compress(s, image);
    return image.size() + streamHeaderBytes;
}

/**
 * compressTile() never runs a codec on a stream shorter than its
 * minimum winning length. That skip is exact only if no such stream
 * can beat STORE: check every 2-letter string below the LZ4 bound,
 * every 3-letter string below the LZF bound, and every single-byte
 * run; and check that each bound is tight, so a codec change that
 * moves it fails here.
 */
TEST(Compress, ShortStreamsNeverBeatStore)
{
    const struct
    {
        const StreamCompressor *compressor;
        std::size_t minWinning;
        unsigned alphabet;
    } bounds[] = {{&lz4Compressor(), lz4MinWinningBytes, 2},
                  {&lzfCompressor(), lzfMinWinningBytes, 3}};
    for (const auto &bound : bounds) {
        const StreamCompressor &codec = *bound.compressor;
        const char *family = compressionFamilyName(codec.family());
        for (std::size_t n = 0; n < bound.minWinning; ++n) {
            forEachString(n, bound.alphabet,
                          [&](std::span<const std::byte> s) {
                              ASSERT_GE(compressedStoredBytes(codec, s), n)
                                  << family << " n=" << n;
                          });
            for (unsigned b = 0; b < 256; ++b) {
                const std::vector<std::byte> run(n, std::byte(b));
                ASSERT_GE(compressedStoredBytes(codec, run), n)
                    << family << " run of " << b << " n=" << n;
            }
        }
        // Tight: at the bound, a run of any one byte already wins.
        for (unsigned b = 0; b < 256; ++b) {
            const std::vector<std::byte> run(bound.minWinning,
                                             std::byte(b));
            EXPECT_LT(compressedStoredBytes(codec, run), bound.minWinning)
                << family << " run of " << b;
        }
    }
}

TEST(Compress, DecoderRejectsTruncatedImages)
{
    Rng rng(0xDEAD);
    const auto input = randomBytes(512, rng);
    for (const StreamCompressor *compressor : families()) {
        std::vector<std::byte> compressed;
        compressor->compress(input, compressed);
        std::vector<std::byte> output(input.size());
        for (std::size_t keep = 0; keep < compressed.size();
             keep += 1 + keep / 8) {
            const std::span<const std::byte> truncated(
                compressed.data(), keep);
            // Must fail cleanly: a truncated image can never fill
            // the full output exactly.
            EXPECT_FALSE(compressor->decompress(truncated, output));
        }
    }
}

TEST(Compress, DecoderSurvivesGarbageImages)
{
    // Random bytes as compressed input: any result is acceptable
    // except memory errors — the sanitizer builds are the real
    // assertion here; the loop just must not crash.
    Rng rng(0xBAD5EED);
    for (const StreamCompressor *compressor : families()) {
        for (int round = 0; round < 200; ++round) {
            const auto garbage =
                randomBytes(1 + std::size_t(rng() % 200), rng);
            std::vector<std::byte> output(rng() % 300);
            (void)compressor->decompress(garbage, output);
        }
    }
}

TEST(Compress, CompressTileNeverExceedsRawBytes)
{
    const FormatRegistry &registry = defaultRegistry();
    Rng rng(0x1234);
    const TripletMatrix matrix = randomMatrix(96, 0.05, rng);
    const Partitioning parts = partition(matrix, 16);
    for (const Tile &tile : parts.tiles) {
        for (FormatKind kind : paperFormats()) {
            const auto encoded = registry.codec(kind).encode(tile);
            const TileCompression comp = compressTile(*encoded);
            // STORE passthrough bounds the loss at zero.
            EXPECT_LE(comp.storedBytes(), comp.rawBytes());
            // Raw accounting covers the legacy stream sizes exactly.
            const auto streams = encoded->streams();
            EXPECT_EQ(comp.rawBytes(),
                      std::accumulate(streams.begin(), streams.end(),
                                      Bytes(0)));
        }
    }
}

/**
 * Stored bytes are a function of the tile alone: compressing the same
 * tiles in reverse order on one thread — so every match table starts
 * from a different history — must not change a single result.
 */
TEST(Compress, StoredBytesDoNotDependOnOrder)
{
    const FormatRegistry &registry = defaultRegistry();
    std::vector<std::unique_ptr<EncodedTile>> encoded;
    for (const SuiteMatrixInfo &entry : suiteCatalog()) {
        SuiteMatrixInfo scaled = entry;
        scaled.surrogateDim = 256;
        TripletMatrix matrix = scaled.generate(0xC0FFEE);
        matrix.finalize();
        for (const Tile &tile : partition(matrix, 16).tiles)
            for (FormatKind kind : paperFormats())
                encoded.push_back(registry.codec(kind).encode(tile));
    }

    std::vector<Bytes> forward(encoded.size());
    for (std::size_t i = 0; i < encoded.size(); ++i)
        forward[i] = compressTile(*encoded[i]).storedBytes();
    std::size_t differing = 0;
    for (std::size_t i = encoded.size(); i-- > 0;)
        differing +=
            compressTile(*encoded[i]).storedBytes() != forward[i];
    EXPECT_EQ(differing, 0u) << "of " << encoded.size() << " tiles";
}

TEST(Compress, StorePolicyIsIdentityAccounting)
{
    const FormatRegistry &registry = defaultRegistry();
    Rng rng(0xABCD);
    const TripletMatrix matrix = randomMatrix(64, 0.1, rng);
    const Partitioning parts = partition(matrix, 16);
    CompressionPolicy store;
    store.value = SecondStageChoice::Store;
    store.index = SecondStageChoice::Store;
    store.offset = SecondStageChoice::Store;
    for (const Tile &tile : parts.tiles) {
        const auto encoded =
            registry.codec(FormatKind::CSR).encode(tile);
        const TileCompression comp = compressTile(*encoded, store);
        // Disabling the second stage IS the all-STORE policy.
        EXPECT_EQ(comp.storedBytes(), comp.rawBytes());
        for (const CompressedStream &s : comp.streams)
            EXPECT_EQ(CompressionFamily::Store, s.family);
    }
}

TEST(Compress, KeptPayloadsDecompressToOriginal)
{
    const FormatRegistry &registry = defaultRegistry();
    Rng rng(0x5555);
    const TripletMatrix matrix = bandMatrix(128, 2, rng);
    const Partitioning parts = partition(matrix, 16);
    bool sawCompressed = false;
    for (const Tile &tile : parts.tiles) {
        const auto encoded =
            registry.codec(FormatKind::CSR).encode(tile);
        const auto typed = encoded->typedStreams();
        const TileCompression comp =
            compressTile(*encoded, CompressionPolicy{}, true);
        ASSERT_EQ(typed.size(), comp.streams.size());
        for (std::size_t i = 0; i < typed.size(); ++i) {
            const CompressedStream &s = comp.streams[i];
            EXPECT_EQ(typed[i].cls, s.cls);
            EXPECT_EQ(typed[i].size(), s.rawBytes);
            if (s.family == CompressionFamily::Store) {
                EXPECT_TRUE(std::ranges::equal(typed[i].bytes, s.payload));
                continue;
            }
            sawCompressed = true;
            // Compressed streams pay the container header and must
            // still beat STORE after it.
            EXPECT_EQ(s.payloadBytes + streamHeaderBytes,
                      s.storedBytes());
            EXPECT_LT(s.storedBytes(), s.rawBytes);
            std::vector<std::byte> output(s.rawBytes);
            const StreamCompressor *codec = compressorFor(s.family);
            ASSERT_NE(nullptr, codec);
            ASSERT_TRUE(codec->decompress(s.payload, output));
            EXPECT_TRUE(std::ranges::equal(typed[i].bytes, output));
        }
    }
    // Band-matrix CSR streams are highly repetitive; selection must
    // actually engage somewhere in the sweep.
    EXPECT_TRUE(sawCompressed);
}

TEST(Compress, TileIsOneLeafSpan)
{
    Rng rng(0x9999);
    const Partitioning parts = partition(randomMatrix(64, 0.05, rng), 16);
    const auto encoded =
        defaultRegistry().codec(FormatKind::CSR).encode(parts.tiles[0]);

    SpanCollector &collector = SpanCollector::global();
    collector.clear();
    collector.setEnabled(true);
    compressTile(*encoded);
    collector.setEnabled(false);

    std::uint64_t calls = 0;
    for (const SpanTotals &entry : collector.totals())
        if (entry.name == "compress.tile")
            calls = entry.calls;
    EXPECT_EQ(calls, 1u);
    // A leaf span never enters the ring.
    EXPECT_EQ(collector.recorded(), 0u);
    collector.clear();
}

} // namespace
} // namespace copernicus
