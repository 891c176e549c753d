/**
 * @file
 * EncodeCache: a sharded, content-addressed memo of
 * encode(tile, format, params).
 *
 * The memo is not on the pricing path. timeTile() encodes with the
 * registry's codec directly, and its callers (runPipeline, runEventSim,
 * runParallel, planFormats) price each distinct tile once per call
 * through firstCopies() (pipeline/stream_pipeline.hh). Measured on the
 * catalog sweep, almost every memo hit was such a within-call
 * duplicate, and the process-wide table cost more in hashing, locking,
 * key copies and resident memory than it saved. Nothing in the library,
 * the serve daemon, the examples or the benches calls it either: its
 * only callers are perfbench's replay.cc and serve_mix.cc and the
 * tests. It goes once the benchmark stops replaying the per-tile loop
 * through it and measures the real Study path instead.
 *
 * Lookups hash the tile's canonical nonzero stream (FNV-1a over the
 * sorted (row, col, value) triplets — O(nnz), not O(p^2)) but hits are
 * verified by full stream comparison, so a hash collision can never
 * substitute a wrong encoding — results are bit-identical with the
 * cache on or off.
 *
 * Concurrency: the table is split into shards, each behind its own
 * mutex, so pool workers encoding different tiles rarely contend. Two
 * workers racing on the same missing key both encode (pure, identical
 * results) and the first insert wins.
 *
 * Memory: a byte budget (default 256 MiB, spread over the shards)
 * bounds the cache; a shard that exceeds its share is dropped
 * wholesale (counted as evictions) — a deliberately simple policy that
 * keeps the hot path to one hash + one map probe.
 */

#ifndef COPERNICUS_FORMATS_ENCODE_CACHE_HH
#define COPERNICUS_FORMATS_ENCODE_CACHE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/lock_order.hh"
#include "common/mutex.hh"
#include "common/thread_annotations.hh"
#include "formats/registry.hh"
#include "matrix/tile.hh"

namespace copernicus {

/** Process-wide memo of encoded tiles. */
class EncodeCache
{
  public:
    EncodeCache();
    EncodeCache(const EncodeCache &) = delete;
    EncodeCache &operator=(const EncodeCache &) = delete;

    /** The process-wide cache behind encodeCached(). */
    static EncodeCache &global();

    /**
     * encode(tile) through @p registry's codec for @p kind, memoised
     * on (tile contents, kind, registry params). Never returns null.
     */
    std::shared_ptr<const EncodedTile>
    encode(const FormatRegistry &registry, FormatKind kind,
           const Tile &tile);

    /** Drop every entry (stats and the byte budget are kept). */
    void clear();

    /**
     * Cap the total byte budget (tiles + encodings, approximate).
     * Applied per shard; an overfull shard is dropped wholesale.
     */
    void setMaxBytes(std::uint64_t bytes);

    /** Monotonic counters since process start. */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0; ///< shard drops

        /** Verified hits rejected by the grammar validator. */
        std::uint64_t validationBypasses = 0;
        std::uint64_t entries = 0;   ///< currently resident
        std::uint64_t bytes = 0;     ///< approximate resident bytes
    };
    Stats stats() const;

  private:
    struct Entry
    {
        FormatKind kind;
        FormatParams params;
        Index p = 0; ///< tile edge length of the key
        /** Canonical nonzero stream: hits are verified, never trusted. */
        std::vector<TileNonzero> key;
        std::shared_ptr<const EncodedTile> encoded;
        std::uint64_t bytes = 0;
    };

    struct Shard
    {
        mutable Mutex mutex{lock_rank::encodeCacheShard};
        std::unordered_map<std::uint64_t, std::vector<Entry>> table
            COPERNICUS_GUARDED_BY(mutex);
        std::uint64_t bytes COPERNICUS_GUARDED_BY(mutex) = 0;
        std::uint64_t entries COPERNICUS_GUARDED_BY(mutex) = 0;
    };

    static constexpr std::size_t shardCount = 16;

    std::vector<std::unique_ptr<Shard>> shards;
    std::atomic<std::uint64_t> budget;
    mutable std::atomic<std::uint64_t> hits{0};
    mutable std::atomic<std::uint64_t> misses{0};
    mutable std::atomic<std::uint64_t> evictions{0};
    mutable std::atomic<std::uint64_t> validationBypasses{0};
};

/** EncodeCache::global().encode(). */
std::shared_ptr<const EncodedTile>
encodeCached(const FormatRegistry &registry, FormatKind kind,
             const Tile &tile);

} // namespace copernicus

#endif // COPERNICUS_FORMATS_ENCODE_CACHE_HH
