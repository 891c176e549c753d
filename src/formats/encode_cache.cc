#include "formats/encode_cache.hh"

#include "common/fnv.hh"
#include "common/logging.hh"
#include "formats/validate.hh"

namespace copernicus {

namespace {

std::uint64_t
mixIndex(std::uint64_t hash, Index v)
{
    return fnv1a(&v, sizeof(v), hash);
}

std::uint64_t
keyHash(FormatKind kind, const FormatParams &params, const Tile &tile)
{
    std::uint64_t hash = fnvOffsetBasis;
    const auto kind_id = static_cast<std::uint32_t>(kind);
    hash = fnv1a(&kind_id, sizeof(kind_id), hash);
    hash = mixIndex(hash, params.bcsrBlock);
    hash = mixIndex(hash, params.ellMinWidth);
    hash = mixIndex(hash, params.sellSlice);
    hash = mixIndex(hash, params.ellCooWidth);
    hash = mixIndex(hash, params.sellCsWindow);
    hash = mixIndex(hash, tile.size());
    const std::vector<TileNonzero> &nz = tile.nonzeros();
    return fnv1a(nz.data(), nz.size() * sizeof(TileNonzero), hash);
}

bool
sameParams(const FormatParams &a, const FormatParams &b)
{
    return a.bcsrBlock == b.bcsrBlock &&
           a.ellMinWidth == b.ellMinWidth &&
           a.sellSlice == b.sellSlice &&
           a.ellCooWidth == b.ellCooWidth &&
           a.sellCsWindow == b.sellCsWindow;
}

std::uint64_t
entryBytes(const Tile &tile, const EncodedTile &encoded)
{
    // Key copy + encoding payload + container overhead, approximate.
    return std::uint64_t(tile.nnz()) * sizeof(TileNonzero) +
           encoded.totalBytes() + 128;
}

} // namespace

EncodeCache::EncodeCache() : budget(256ULL << 20)
{
    shards.reserve(shardCount);
    for (std::size_t i = 0; i < shardCount; ++i)
        shards.push_back(std::make_unique<Shard>());
}

EncodeCache &
EncodeCache::global()
{
    static EncodeCache cache;
    return cache;
}

void
EncodeCache::setMaxBytes(std::uint64_t bytes)
{
    budget.store(bytes, std::memory_order_relaxed);
}

void
EncodeCache::clear()
{
    for (const auto &shard : shards) {
        const MutexLock lock(shard->mutex);
        shard->table.clear();
        shard->bytes = 0;
        shard->entries = 0;
    }
}

std::shared_ptr<const EncodedTile>
EncodeCache::encode(const FormatRegistry &registry, FormatKind kind,
                    const Tile &tile)
{
    const FormatParams &params = registry.params();
    const std::uint64_t hash = keyHash(kind, params, tile);
    Shard &shard = *shards[hash % shardCount];

    std::shared_ptr<const EncodedTile> cached;
    {
        const MutexLock lock(shard.mutex);
        auto it = shard.table.find(hash);
        if (it != shard.table.end()) {
            for (const Entry &entry : it->second) {
                if (entry.kind == kind &&
                    sameParams(entry.params, params) &&
                    entry.p == tile.size() &&
                    entry.key == tile.nonzeros()) {
                    cached = entry.encoded;
                    break;
                }
            }
        }
    }
    if (cached != nullptr) {
        // A verified hit is still only trusted as far as its grammar:
        // a corrupted resident encoding is bypassed with a warning, not
        // handed back (debug builds / COPERNICUS_VALIDATE=1).
        if (grammarValidationEnabled()) {
            const GrammarReport report = validateEncodedTile(*cached);
            if (!report.ok()) {
                validationBypasses.fetch_add(1,
                                             std::memory_order_relaxed);
                warn("EncodeCache: cached " +
                     std::string(formatName(kind)) +
                     " encoding failed grammar validation; bypassing "
                     "the cache: " +
                     report.violations.front().toString());
                return registry.codec(kind).encode(tile);
            }
        }
        hits.fetch_add(1, std::memory_order_relaxed);
        return cached;
    }

    // Miss: encode outside the shard lock (the expensive part).
    misses.fetch_add(1, std::memory_order_relaxed);
    std::shared_ptr<const EncodedTile> encoded =
        registry.codec(kind).encode(tile);
    const std::uint64_t cost = entryBytes(tile, *encoded);

    const MutexLock lock(shard.mutex);
    if (shard.bytes + cost >
        budget.load(std::memory_order_relaxed) / shardCount) {
        shard.table.clear();
        shard.bytes = 0;
        shard.entries = 0;
        evictions.fetch_add(1, std::memory_order_relaxed);
    }
    std::vector<Entry> &bucket = shard.table[hash];
    // A racing worker may have inserted the same key meanwhile; its
    // encoding is bit-identical (encode is pure), so keep the first.
    for (const Entry &entry : bucket) {
        if (entry.kind == kind && sameParams(entry.params, params) &&
            entry.p == tile.size() && entry.key == tile.nonzeros()) {
            return entry.encoded;
        }
    }
    bucket.push_back(
        Entry{kind, params, tile.size(), tile.nonzeros(), encoded, cost});
    shard.bytes += cost;
    ++shard.entries;
    return encoded;
}

EncodeCache::Stats
EncodeCache::stats() const
{
    Stats out;
    out.hits = hits.load(std::memory_order_relaxed);
    out.misses = misses.load(std::memory_order_relaxed);
    out.evictions = evictions.load(std::memory_order_relaxed);
    out.validationBypasses =
        validationBypasses.load(std::memory_order_relaxed);
    for (const auto &shard : shards) {
        const MutexLock lock(shard->mutex);
        out.entries += shard->entries;
        out.bytes += shard->bytes;
    }
    return out;
}

std::shared_ptr<const EncodedTile>
encodeCached(const FormatRegistry &registry, FormatKind kind,
             const Tile &tile)
{
    return EncodeCache::global().encode(registry, kind, tile);
}

} // namespace copernicus
