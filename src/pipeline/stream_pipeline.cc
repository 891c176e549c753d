#include "pipeline/stream_pipeline.hh"

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_map>

#include "common/fnv.hh"
#include "common/status.hh"
#include "compress/second_stage.hh"
#include "formats/validate.hh"
#include "hls/axi.hh"
#include "hls/decompressor.hh"

namespace copernicus {

PartitionTiming
timeTile(const Tile &tile, FormatKind kind, const HlsConfig &config,
         const FormatRegistry &registry)
{
    const auto encoded = registry.codec(kind).encode(tile);
    if (grammarValidationEnabled()) {
        const GrammarReport report = validateEncodedTile(*encoded);
        panicIf(!report.ok(),
                "pipeline: encoded tile violates its format grammar:\n" +
                    report.toString());
    }
    const auto decomp = simulateDecompression(*encoded, config);
    panicIf(!(decomp.decoded == tile),
            "pipeline: decompressor model corrupted a tile");

    // Both the multiplied vector segment and the partial output vector
    // streamed back are p values long.
    const Bytes vector_bytes = Bytes(tile.size()) * valueBytes;
    PartitionTiming timing;
    auto streams = encoded->streams();
    timing.totalBytes = encoded->totalBytes();
    if (config.secondStageCompression) {
        // The DDR interface sees post-compression stream images;
        // useful bytes are untouched, so utilization can only rise.
        const TileCompression comp = compressTile(*encoded);
        streams = comp.storedStreamBytes();
        timing.totalBytes = comp.storedBytes();
    }
    if (config.streamVectorOperand)
        streams.push_back(vector_bytes);
    timing.memoryCycles = transferCycles(streams, config);
    timing.decompressCycles = decomp.decompressCycles;
    timing.rowsProduced = decomp.rowsProduced;
    timing.computeCycles = computeCycles(decomp, config);
    timing.writeCycles = writebackCycles(vector_bytes, config);
    timing.sigma = sigmaOverhead(decomp, tile.size(), config);
    timing.usefulBytes = encoded->usefulBytes();
    return timing;
}

std::vector<std::size_t>
firstCopies(const Partitioning &parts, std::span<const FormatKind> perTile)
{
    const std::vector<Tile> &tiles = parts.tiles;
    fatalIf(!perTile.empty() && perTile.size() != tiles.size(),
            "firstCopies: one format per non-zero tile required");
    constexpr std::size_t none = std::numeric_limits<std::size_t>::max();

    std::vector<std::size_t> first(tiles.size());
    // Content hash -> the newest first copy with that hash; older first
    // copies that share the hash are chained through `older`.
    std::unordered_map<std::uint64_t, std::size_t> newest;
    newest.reserve(tiles.size());
    std::vector<std::size_t> older(tiles.size(), none);
    for (std::size_t i = 0; i < tiles.size(); ++i) {
        const std::vector<TileNonzero> &nz = tiles[i].nonzeros();
        const std::uint64_t hash =
            fnv1a(nz.data(), nz.size() * sizeof(TileNonzero));
        first[i] = i;
        const auto [it, fresh] = newest.try_emplace(hash, i);
        if (fresh)
            continue;
        for (std::size_t j = it->second; j != none; j = older[j]) {
            if ((perTile.empty() || perTile[j] == perTile[i]) &&
                tiles[j].size() == tiles[i].size() &&
                tiles[j].nonzeros() == nz) {
                first[i] = j;
                break;
            }
        }
        if (first[i] == i) {
            older[i] = it->second;
            it->second = i;
        }
    }
    return first;
}

std::vector<PartitionTiming>
timeTiles(const Partitioning &parts, std::span<const FormatKind> perTile,
          const HlsConfig &config, const FormatRegistry &registry)
{
    fatalIf(perTile.size() != parts.tiles.size(),
            "timeTiles: one format per non-zero tile required");
    const std::vector<std::size_t> first = firstCopies(parts, perTile);
    std::vector<PartitionTiming> timings;
    timings.reserve(first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        timings.push_back(first[i] == i
                              ? timeTile(parts.tiles[i], perTile[i],
                                         config, registry)
                              : timings[first[i]]);
    }
    return timings;
}

namespace {

/**
 * Shared core: stream tiles with a per-tile format lookup, tracing
 * into scope "pipeline.<label>.p<p>".
 */
PipelineResult
runImpl(const Partitioning &parts,
        const std::vector<FormatKind> &perTile, const HlsConfig &config,
        const FormatRegistry &registry, TraceSink *sink,
        std::string_view label)
{
    TraceSink *trace = resolveTraceSink(sink);
    if (trace != nullptr) {
        trace->beginScope("pipeline." + std::string(label) + ".p" +
                          std::to_string(parts.partitionSize));
    }
    PipelineResult result;
    result.partitionSize = parts.partitionSize;
    result.partitions = timeTiles(parts, perTile, config, registry);

    double balance_sum = 0;
    double sigma_sum = 0;
    Cycles fill_first = 0;
    Cycles drain_last = 0;
    // Steady-state clock for the emitted timeline: the first read is
    // exposed, then each partition's slot advances by its bottleneck.
    Cycles trace_clock = 0;
    for (std::size_t i = 0; i < result.partitions.size(); ++i) {
        const PartitionTiming &timing = result.partitions[i];
        result.totalMemoryCycles += timing.memoryCycles;
        result.totalComputeCycles += timing.computeCycles;
        result.totalBytes += timing.totalBytes;
        result.totalUsefulBytes += timing.usefulBytes;
        result.totalCycles += timing.bottleneckCycles();
        balance_sum += timing.computeCycles == 0
                           ? 0.0
                           : static_cast<double>(timing.memoryCycles) /
                                 static_cast<double>(timing.computeCycles);
        sigma_sum += timing.sigma;

        if (i == 0)
            fill_first = timing.memoryCycles;
        drain_last = timing.writeCycles;

        if (trace != nullptr) {
            if (i == 0)
                trace_clock = fill_first;
            const std::string name = partitionEventName(i);
            trace->durationEvent(
                "read", name, trace_clock,
                trace_clock + timing.memoryCycles);
            trace->durationEvent(
                "compute", name, trace_clock,
                trace_clock + timing.computeCycles);
            trace->durationEvent(
                "write", name, trace_clock,
                trace_clock + timing.writeCycles);
            const Cycles slot_end =
                trace_clock + timing.bottleneckCycles();
            trace->counterEvent("sigma", slot_end, timing.sigma);
            trace->counterEvent(
                "bw_util", slot_end,
                timing.totalBytes == 0
                    ? 0.0
                    : static_cast<double>(timing.usefulBytes) /
                          static_cast<double>(timing.totalBytes));
            trace_clock = slot_end;
        }
    }

    if (!result.partitions.empty()) {
        // Steady state costs max(stage) per partition; the first
        // partition's read and the last one's write are exposed.
        result.totalCycles += fill_first + drain_last;
        const auto count = static_cast<double>(result.partitions.size());
        result.balanceRatio = balance_sum / count;
        result.meanSigma = sigma_sum / count;
    }

    result.seconds = static_cast<double>(result.totalCycles) *
                     config.secondsPerCycle();
    result.throughputBytesPerSec =
        result.seconds == 0.0
            ? 0.0
            : static_cast<double>(result.totalBytes) / result.seconds;
    result.bandwidthUtilization =
        result.totalBytes == 0
            ? 0.0
            : static_cast<double>(result.totalUsefulBytes) /
                  static_cast<double>(result.totalBytes);
    return result;
}

} // namespace

PipelineResult
runPipeline(const Partitioning &parts, FormatKind kind,
            const HlsConfig &config, const FormatRegistry &registry,
            TraceSink *sink)
{
    const std::vector<FormatKind> per_tile(parts.tiles.size(), kind);
    PipelineResult result = runImpl(parts, per_tile, config, registry,
                                    sink, formatName(kind));
    result.format = kind;
    return result;
}

PipelineResult
runPipelineMixed(const Partitioning &parts,
                 const std::vector<FormatKind> &perTile,
                 const HlsConfig &config, const FormatRegistry &registry,
                 TraceSink *sink)
{
    fatalIf(perTile.size() != parts.tiles.size(),
            "runPipelineMixed: one format per non-zero tile required");
    PipelineResult result = runImpl(parts, perTile, config, registry,
                                    sink, "mixed");

    // Report the majority format for summary displays.
    std::map<FormatKind, std::size_t> counts;
    for (FormatKind kind : perTile)
        ++counts[kind];
    std::size_t best = 0;
    for (const auto &[kind, count] : counts) {
        if (count > best) {
            best = count;
            result.format = kind;
        }
    }
    return result;
}

} // namespace copernicus
