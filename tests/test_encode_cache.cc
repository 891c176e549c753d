/**
 * @file
 * EncodeCache contract tests: miss-then-hit memoisation, correctness
 * of cached encodings (round-trip), key separation across partition
 * sizes and codec hyperparameters, and eviction under a tiny byte
 * budget.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "formats/encode_cache.hh"
#include "formats/registry.hh"
#include "matrix/tile.hh"

using namespace copernicus;

namespace {

/** Deterministic tile with ~30% density. */
Tile
makeTile(Index p, std::uint64_t seed)
{
    Tile tile(p);
    Rng rng(seed);
    for (Index r = 0; r < p; ++r)
        for (Index c = 0; c < p; ++c)
            if (rng.chance(0.3))
                tile(r, c) = static_cast<Value>(rng.range(-1.0, 1.0));
    return tile;
}

/** Fresh state for every test; restores defaults afterwards. */
class EncodeCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override { cache().clear(); }

    void
    TearDown() override
    {
        cache().setMaxBytes(std::uint64_t(256) << 20);
        cache().clear();
    }

    static EncodeCache &cache() { return EncodeCache::global(); }
};

} // namespace

TEST_F(EncodeCacheTest, MissThenHitReturnsTheSameEncoding)
{
    const Tile tile = makeTile(16, 1);
    const auto before = cache().stats();

    const auto first =
        cache().encode(defaultRegistry(), FormatKind::CSR, tile);
    const auto afterMiss = cache().stats();
    EXPECT_EQ(afterMiss.misses, before.misses + 1);
    EXPECT_EQ(afterMiss.hits, before.hits);

    const auto second =
        cache().encode(defaultRegistry(), FormatKind::CSR, tile);
    const auto afterHit = cache().stats();
    EXPECT_EQ(afterHit.misses, afterMiss.misses);
    EXPECT_EQ(afterHit.hits, before.hits + 1);
    EXPECT_EQ(first.get(), second.get()); // memoised, not re-encoded
}

TEST_F(EncodeCacheTest, IdenticalTileContentsHitAcrossObjects)
{
    // Content addressing: two distinct Tile objects with equal values
    // (different grid coordinates) share one entry.
    Tile a = makeTile(8, 2);
    Tile b(8, /*tileRow=*/5, /*tileCol=*/9);
    for (Index r = 0; r < 8; ++r)
        for (Index c = 0; c < 8; ++c)
            b(r, c) = a(r, c);

    const auto first =
        cache().encode(defaultRegistry(), FormatKind::ELL, a);
    const auto second =
        cache().encode(defaultRegistry(), FormatKind::ELL, b);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_GE(cache().stats().hits, 1u);
}

TEST_F(EncodeCacheTest, KeysSeparatePartitionSizesFormatsAndParams)
{
    const auto before = cache().stats();

    // Same seed, different partition sizes: distinct entries.
    cache().encode(defaultRegistry(), FormatKind::CSR, makeTile(8, 3));
    cache().encode(defaultRegistry(), FormatKind::CSR, makeTile(16, 3));

    // Same tile, different format: distinct entries.
    cache().encode(defaultRegistry(), FormatKind::COO, makeTile(8, 3));

    // Same tile and format, different codec hyperparameters.
    FormatParams small;
    small.bcsrBlock = 2;
    const FormatRegistry custom(small);
    cache().encode(defaultRegistry(), FormatKind::BCSR, makeTile(8, 3));
    cache().encode(custom, FormatKind::BCSR, makeTile(8, 3));

    const auto after = cache().stats();
    EXPECT_EQ(after.misses, before.misses + 5);
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_GE(after.entries, 5u);
}

TEST_F(EncodeCacheTest, CachedEncodingsDecodeBackToTheTile)
{
    for (FormatKind kind :
         {FormatKind::Dense, FormatKind::CSR, FormatKind::BCSR,
          FormatKind::ELL, FormatKind::COO, FormatKind::DIA}) {
        const Tile tile = makeTile(16, 4);
        // Warm then hit: decode the *cached* encoding.
        cache().encode(defaultRegistry(), kind, tile);
        const auto cached =
            cache().encode(defaultRegistry(), kind, tile);
        EXPECT_EQ(defaultRegistry().codec(kind).decode(*cached), tile)
            << formatName(kind);
    }
}

TEST_F(EncodeCacheTest, TinyBudgetTriggersEvictionAndStaysCorrect)
{
    cache().setMaxBytes(16 * 1024); // 1 KiB per shard
    const auto before = cache().stats();
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        const Tile tile = makeTile(32, 100 + seed);
        const auto encoded =
            cache().encode(defaultRegistry(), FormatKind::CSR, tile);
        EXPECT_EQ(defaultRegistry().codec(FormatKind::CSR).decode(
                      *encoded),
                  tile);
    }
    const auto after = cache().stats();
    EXPECT_GT(after.evictions, before.evictions);
    // Whole-shard eviction runs before each over-budget insert, so at
    // most one (possibly oversized) entry survives per shard.
    EXPECT_LE(after.entries, 16u);
}
