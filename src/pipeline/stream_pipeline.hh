/**
 * @file
 * The three-stage streaming pipeline of Figure 2: memory-read, compute
 * (decompress + dot), memory-write, evaluated over the non-zero
 * partitions of a matrix.
 *
 * Stages are pipelined across partitions, so in steady state each
 * partition costs the maximum of its three stage latencies and the whole
 * run adds one fill and one drain. The simulator reports per-partition
 * breakdowns and the aggregate metrics Section 4.2 defines: memory and
 * compute latency, balance ratio, throughput and memory-bandwidth
 * utilization.
 */

#ifndef COPERNICUS_PIPELINE_STREAM_PIPELINE_HH
#define COPERNICUS_PIPELINE_STREAM_PIPELINE_HH

#include <cstddef>
#include <span>
#include <vector>

#include "formats/registry.hh"
#include "hls/hls_config.hh"
#include "matrix/partitioner.hh"
#include "trace/trace_sink.hh"

namespace copernicus {

/** Latency breakdown for one non-zero partition. */
struct PartitionTiming
{
    /** Memory-read stage: transfer of the compressed partition. */
    Cycles memoryCycles = 0;

    /** Compute stage: decompression plus dot products. */
    Cycles computeCycles = 0;

    /** Memory-write stage: streaming the partial result back. */
    Cycles writeCycles = 0;

    /** Decompression share of the compute stage. */
    Cycles decompressCycles = 0;

    /** Rows handed to the dot engine. */
    Index rowsProduced = 0;

    /** sigma (Eq. 1) of this partition. */
    double sigma = 0;

    /** Bytes of this partition crossing the read interface. */
    Bytes totalBytes = 0;

    /** Value-payload bytes of this partition. */
    Bytes usefulBytes = 0;

    /** Stage bound of the partition in steady state. */
    Cycles
    bottleneckCycles() const
    {
        return std::max(memoryCycles,
                        std::max(computeCycles, writeCycles));
    }
};

/** Aggregate result of streaming one matrix through the platform. */
struct PipelineResult
{
    /** Format the partitions were encoded in. */
    FormatKind format = FormatKind::Dense;

    /** Partition size p. */
    Index partitionSize = 0;

    /** Per-partition breakdowns, in streaming order. */
    std::vector<PartitionTiming> partitions;

    /** End-to-end cycles including pipeline fill and drain. */
    Cycles totalCycles = 0;

    /** Sum of memory-read cycles. */
    Cycles totalMemoryCycles = 0;

    /** Sum of compute cycles. */
    Cycles totalComputeCycles = 0;

    /** Bytes transferred in (data + metadata). */
    Bytes totalBytes = 0;

    /** Value-payload bytes transferred in. */
    Bytes totalUsefulBytes = 0;

    /** Mean of per-partition memory/compute ratios (Section 4.2). */
    double balanceRatio = 0;

    /** Mean per-partition sigma. */
    double meanSigma = 0;

    /** End-to-end seconds at the configured clock. */
    double seconds = 0;

    /** Bytes processed per second (Section 4.2's throughput). */
    double throughputBytesPerSec = 0;

    /** usefulBytes / totalBytes. */
    double bandwidthUtilization = 0;
};

/**
 * The cost of one partition (Section 4.2): memory-read latency of its
 * compressed streams, compute = decompression + dot products,
 * write-back of the partial result, and sigma. This is the one place a
 * tile is priced: runPipeline(), runPipelineMixed(), runEventSim() and
 * runParallel() schedule its stages, and planFormats() scores
 * candidates with it, so every HlsConfig knob reaches all of them.
 *
 * In order: encode with the registry's codec (no memo: the callers
 * price each distinct tile once per call, see timeTiles()), check the
 * tile grammar when enabled, walk the decompressor (panicking if it
 * does not reproduce @p tile), apply second-stage compression when
 * `config.secondStageCompression` is set, add the p-value vector
 * operand as one more read stream when `config.streamVectorOperand` is
 * set, then charge transfer, compute and write-back cycles.
 *
 * @param tile Non-zero partition; its size() is the partition size p.
 * @param kind Format the partition is encoded in.
 * @param config Platform parameters.
 * @param registry Codec source.
 * @return Stage cycles, sigma and bytes of the partition.
 */
PartitionTiming timeTile(const Tile &tile, FormatKind kind,
                         const HlsConfig &config,
                         const FormatRegistry &registry);

/**
 * For each tile of @p parts, the index of the first tile with the same
 * canonical nonzero stream and, when @p perTile is given (one format
 * per tile), the same format. A first copy maps to itself.
 *
 * Band and stencil matrices repeat one tile down the diagonal, and a
 * tile's cost depends only on its contents and format, so a caller can
 * price each first copy once and copy the result to its duplicates.
 * Tiles are keyed by FNV-1a over nonzeros(), and every match is
 * confirmed by a full nonzeros() comparison, so a hash collision never
 * merges two different tiles.
 *
 * @return first[i] <= i for every tile i.
 */
std::vector<std::size_t>
firstCopies(const Partitioning &parts,
            std::span<const FormatKind> perTile = {});

/**
 * timeTile() for every tile of @p parts, tile i in format
 * @p perTile[i], in streaming order. Each distinct (contents, format)
 * pair is priced once per call (firstCopies()) — grammar check,
 * decoder round trip and second-stage compression included — and its
 * duplicates get a copy of its timing.
 */
std::vector<PartitionTiming> timeTiles(const Partitioning &parts,
                                       std::span<const FormatKind> perTile,
                                       const HlsConfig &config,
                                       const FormatRegistry &registry);

/**
 * Stream every non-zero partition of @p parts through the platform with
 * tiles encoded in @p kind.
 *
 * @param parts Partitioning of the operand matrix.
 * @param kind Compression format under study.
 * @param config Platform parameters.
 * @param registry Codec source (paper defaults).
 * @param sink Timeline sink, resolved by resolveTraceSink(): null
 *        falls back to activeTraceSink(), and `&noTraceSink()` forces
 *        tracing off — the parallel sweep paths pass it so workers
 *        never touch the single-threaded writer. The analytic model
 *        has no exact event times, so partitions are laid out on a
 *        steady-state clock — each slot advances by its bottleneck stage — with
 *        sigma and bw_util counters per partition. Never affects the
 *        returned metrics.
 * @return Aggregate and per-partition metrics.
 */
PipelineResult runPipeline(const Partitioning &parts, FormatKind kind,
                           const HlsConfig &config = HlsConfig(),
                           const FormatRegistry &registry =
                               defaultRegistry(),
                           TraceSink *sink = nullptr);

/**
 * Stream with a per-partition format choice (one entry per non-zero
 * tile, in streaming order). The result's `format` field reports the
 * most frequent choice; per-partition formats drive everything else.
 *
 * This models an accelerator whose decompress stage instantiates
 * several decoders and selects per partition — the natural extension
 * of the paper's study once the per-format trade-offs are known.
 */
PipelineResult runPipelineMixed(const Partitioning &parts,
                                const std::vector<FormatKind> &perTile,
                                const HlsConfig &config = HlsConfig(),
                                const FormatRegistry &registry =
                                    defaultRegistry(),
                                TraceSink *sink = nullptr);

} // namespace copernicus

#endif // COPERNICUS_PIPELINE_STREAM_PIPELINE_HH
