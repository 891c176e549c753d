#include "core/scheduler.hh"

#include <limits>

#include "common/status.hh"
#include "common/thread_pool.hh"
#include "trace/span.hh"

namespace copernicus {

namespace {

/**
 * Argmin of the objective over the candidates, for one tile, scored
 * with the cost the pipeline charges (timeTile).
 */
FormatKind
chooseFormat(const Tile &tile, const std::vector<FormatKind> &candidates,
             SchedulerObjective objective, const HlsConfig &config,
             const FormatRegistry &registry)
{
    FormatKind best = candidates.front();
    auto best_score = std::numeric_limits<double>::infinity();
    for (FormatKind kind : candidates) {
        const PartitionTiming timing =
            timeTile(tile, kind, config, registry);
        double score = 0;
        switch (objective) {
          case SchedulerObjective::Bottleneck:
            score = static_cast<double>(timing.bottleneckCycles());
            break;
          case SchedulerObjective::Compute:
            score = static_cast<double>(timing.computeCycles);
            break;
          case SchedulerObjective::Bytes:
            score = static_cast<double>(timing.totalBytes);
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

    // Only first copies are scored; a duplicate tile takes its first
    // copy's choice. Every choice is independent and lands in its own
    // indexed slot, so the fan-out is deterministic; nested calls (e.g.
    // from a parallel Study) fall back to a serial loop inside the pool.
    const std::vector<std::size_t> first = firstCopies(parts);
    std::vector<std::size_t> distinct;
    for (std::size_t i = 0; i < n; ++i) {
        if (first[i] == i)
            distinct.push_back(i);
    }
    const auto choose = [&](std::size_t k) {
        const std::size_t i = distinct[k];
        plan.perTile[i] = chooseFormat(parts.tiles[i], candidates,
                                       objective, config, registry);
    };
    if (effectiveJobs(jobs) > 1 && distinct.size() > 1) {
        ThreadPool::global().parallelFor(distinct.size(), choose);
    } else {
        for (std::size_t k = 0; k < distinct.size(); ++k)
            choose(k);
    }
    for (std::size_t i = 0; i < n; ++i)
        plan.perTile[i] = plan.perTile[first[i]];

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
