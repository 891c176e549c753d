#include "replay.hh"

#include <cstdint>
#include <memory>
#include <optional>

#include "common.hh"
#include "common/thread_pool.hh"
#include "compress/second_stage.hh"
#include "formats/encode_cache.hh"
#include "fpga/power_model.hh"
#include "fpga/resource_model.hh"
#include "hls/axi.hh"
#include "hls/decompressor.hh"
#include "matrix/partitioner.hh"

namespace perfbench {

using namespace copernicus;

namespace {

/** Per design point: runPipeline's per-tile loop, call by call. */
ReplayRow
replayPipeline(const Partitioning &parts, FormatKind kind,
               const HlsConfig &config, const FormatRegistry &registry,
               Bytes &rawBytes, Bytes &storedBytes)
{
    const Span span(Layer::Pipeline);
    ReplayRow row;
    row.format = kind;
    row.partitionSize = parts.partitionSize;
    const Index p = parts.partitionSize;
    const Bytes outBytes = Bytes(p) * valueBytes;
    Cycles fillFirst = 0;
    Cycles drainLast = 0;
    for (const Tile &tile : parts.tiles) {
        const auto encoded = Tracer::leaf(Layer::Encode, [&] {
            return encodeCached(registry, kind, tile);
        });
        const DecompressResult decomp = Tracer::leaf(Layer::Walk, [&] {
            return simulateDecompression(*encoded, config);
        });
        if (!(decomp.decoded == tile))
            throw std::runtime_error(
                "perfbench: decompressor model corrupted a tile");
        std::vector<Bytes> streams = encoded->streams();
        Bytes tileBytes = encoded->totalBytes();
        if (config.secondStageCompression) {
            const TileCompression comp = Tracer::leaf(
                Layer::Compress, [&] { return compressTile(*encoded); });
            streams = comp.storedStreamBytes();
            tileBytes = comp.storedBytes();
            rawBytes += comp.rawBytes();
            storedBytes += comp.storedBytes();
        }
        if (config.streamVectorOperand)
            streams.push_back(Bytes(p) * valueBytes);
        const Cycles memory = transferCycles(streams, config);
        const Cycles compute = computeCycles(decomp, config);
        const Cycles write = writebackCycles(outBytes, config);
        if (row.partitions == 0)
            fillFirst = memory;
        drainLast = write;
        row.totalCycles += std::max(memory, std::max(compute, write));
        row.computeCycles += compute;
        row.totalBytes += tileBytes;
        ++row.partitions;
    }
    if (row.partitions > 0)
        row.totalCycles += fillFirst + drainLast;
    return row;
}

} // namespace

ReplayResult
replayStudy(const std::vector<const TripletMatrix *> &workloads,
            const StudyConfig &config, unsigned lanes)
{
    const FormatRegistry registry(config.formatParams);
    std::optional<ThreadPool> pool;
    if (lanes > 1)
        pool.emplace(lanes);
    const auto forEach = [&](std::size_t n,
                             const std::function<void(std::size_t)> &body) {
        if (pool) {
            pool->parallelFor(n, body);
        } else {
            for (std::size_t i = 0; i < n; ++i)
                body(i);
        }
    };

    const std::size_t nps = config.partitionSizes.size();
    std::vector<Partitioning> parts(workloads.size() * nps);
    forEach(parts.size(), [&](std::size_t i) {
        const Span span(Layer::Partition);
        parts[i] = partition(*workloads[i / nps], config.partitionSizes[i % nps]);
    });

    const std::size_t nfs = config.formats.size();
    ReplayResult result;
    result.rows.resize(parts.size() * nfs);
    std::vector<std::pair<Bytes, Bytes>> compressed(result.rows.size());
    forEach(result.rows.size(), [&](std::size_t i) {
        const Span span(Layer::Study);
        result.rows[i] = replayPipeline(
            parts[i / nfs], config.formats[i % nfs], config.hls, registry,
            compressed[i].first, compressed[i].second);
        // makeRow's model estimates, which Study attaches to each row.
        estimateResources(result.rows[i].format, result.rows[i].partitionSize);
        estimatePower(result.rows[i].format, result.rows[i].partitionSize);
    });
    for (const auto &[raw, stored] : compressed) {
        result.rawBytes += raw;
        result.storedBytes += stored;
    }
    return result;
}

std::size_t
replayMismatches(const ReplayResult &replay, const StudyResult &study,
                 bool bytesFed)
{
    if (replay.rows.size() != study.rows.size())
        return SIZE_MAX;
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < replay.rows.size(); ++i) {
        const ReplayRow &r = replay.rows[i];
        const StudyRow &s = study.rows[i];
        bool same = r.format == s.format &&
                    r.partitionSize == s.partitionSize &&
                    r.partitions == s.partitions &&
                    r.computeCycles == s.computeCycles;
        if (bytesFed)
            same = same && r.totalCycles == s.totalCycles &&
                   r.totalBytes == s.totalBytes;
        mismatches += same ? 0 : 1;
    }
    return mismatches;
}

} // namespace perfbench
