#include "core/scheduler.hh"

#include <limits>

#include "common/status.hh"
#include "common/thread_pool.hh"
#include "formats/encode_cache.hh"
#include "formats/validate.hh"
#include "hls/axi.hh"
#include "hls/decompressor.hh"
#include "trace/span.hh"

namespace copernicus {

namespace {

/** Argmin of the objective over the candidates, for one tile. */
FormatKind
chooseFormat(const Tile &tile, const std::vector<FormatKind> &candidates,
             SchedulerObjective objective, const HlsConfig &config,
             const FormatRegistry &registry, Bytes outBytes)
{
    FormatKind best = candidates.front();
    auto best_score = std::numeric_limits<double>::infinity();
    for (FormatKind kind : candidates) {
        const auto encoded = encodeCached(registry, kind, tile);
        if (grammarValidationEnabled()) {
            const GrammarReport report = validateEncodedTile(*encoded);
            panicIf(!report.ok(),
                    "scheduler: encoded tile violates its format "
                    "grammar:\n" +
                        report.toString());
        }
        double score = 0;
        switch (objective) {
          case SchedulerObjective::Bottleneck: {
            const auto decomp = simulateDecompression(*encoded, config);
            const Cycles memory =
                transferCycles(encoded->streams(), config);
            const Cycles compute = computeCycles(decomp, config);
            const Cycles write = writebackCycles(outBytes, config);
            score = static_cast<double>(
                std::max(memory, std::max(compute, write)));
            break;
          }
          case SchedulerObjective::Compute: {
            const auto decomp = simulateDecompression(*encoded, config);
            score = static_cast<double>(computeCycles(decomp, config));
            break;
          }
          case SchedulerObjective::Bytes:
            score = static_cast<double>(encoded->totalBytes());
            break;
        }
        if (score < best_score) {
            best_score = score;
            best = kind;
        }
    }
    return best;
}

} // namespace

FormatPlan
planFormats(const Partitioning &parts,
            const std::vector<FormatKind> &candidates,
            SchedulerObjective objective, const HlsConfig &config,
            const FormatRegistry &registry, unsigned jobs)
{
    fatalIf(candidates.empty(),
            "planFormats needs at least one candidate format");

    const ScopedSpan span("scheduler.plan", "scheduler");
    FormatPlan plan;
    const std::size_t n = parts.tiles.size();
    plan.perTile.resize(n, candidates.front());
    const Bytes out_bytes = Bytes(parts.partitionSize) * valueBytes;

    // Every tile's choice is independent and lands in its own indexed
    // slot, so the fan-out is deterministic; nested calls (e.g. from a
    // parallel Study) fall back to a serial loop inside the pool.
    const auto choose = [&](std::size_t i) {
        plan.perTile[i] = chooseFormat(parts.tiles[i], candidates,
                                       objective, config, registry,
                                       out_bytes);
    };
    if (effectiveJobs(jobs) > 1 && n > 1) {
        ThreadPool::global().parallelFor(n, choose);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            choose(i);
    }

    for (FormatKind kind : plan.perTile)
        ++plan.histogram[kind];
    return plan;
}

PipelineResult
runAdaptive(const Partitioning &parts,
            const std::vector<FormatKind> &candidates,
            SchedulerObjective objective, const HlsConfig &config,
            const FormatRegistry &registry, unsigned jobs)
{
    const FormatPlan plan = planFormats(parts, candidates, objective,
                                        config, registry, jobs);
    return runPipelineMixed(parts, plan.perTile, config, registry);
}

} // namespace copernicus
