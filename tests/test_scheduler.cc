/**
 * @file
 * Tests for per-partition adaptive format selection and the mixed
 * pipeline.
 */

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "common/rng.hh"
#include "common/status.hh"
#include "cost_configs.hh"
#include "core/scheduler.hh"
#include "workloads/generators.hh"

namespace copernicus {
namespace {

Partitioning
sampleParts(double density = 0.05)
{
    Rng rng(77);
    return partition(randomMatrix(128, density, rng), 16);
}

TEST(MixedPipelineTest, LengthMismatchIsFatal)
{
    const auto parts = sampleParts();
    std::vector<FormatKind> short_plan(parts.tiles.size() - 1,
                                       FormatKind::CSR);
    EXPECT_THROW(runPipelineMixed(parts, short_plan), FatalError);
}

TEST(MixedPipelineTest, UniformPlanMatchesFixedPipeline)
{
    const auto parts = sampleParts();
    const std::vector<FormatKind> plan(parts.tiles.size(),
                                       FormatKind::COO);
    const auto mixed = runPipelineMixed(parts, plan);
    const auto fixed = runPipeline(parts, FormatKind::COO);
    EXPECT_EQ(mixed.totalCycles, fixed.totalCycles);
    EXPECT_EQ(mixed.totalBytes, fixed.totalBytes);
    EXPECT_EQ(mixed.format, FormatKind::COO);
}

TEST(MixedPipelineTest, MajorityFormatReported)
{
    const auto parts = sampleParts();
    ASSERT_GE(parts.tiles.size(), 3u);
    std::vector<FormatKind> plan(parts.tiles.size(), FormatKind::CSR);
    plan[0] = FormatKind::DIA;
    const auto result = runPipelineMixed(parts, plan);
    EXPECT_EQ(result.format, FormatKind::CSR);
}

TEST(PlanFormatsTest, EmptyCandidatesIsFatal)
{
    const auto parts = sampleParts();
    EXPECT_THROW(planFormats(parts, {}), FatalError);
}

TEST(PlanFormatsTest, SingleCandidateIsChosenEverywhere)
{
    const auto parts = sampleParts();
    const auto plan = planFormats(parts, {FormatKind::LIL});
    EXPECT_EQ(plan.perTile.size(), parts.tiles.size());
    for (FormatKind kind : plan.perTile)
        EXPECT_EQ(kind, FormatKind::LIL);
    EXPECT_EQ(plan.histogram.at(FormatKind::LIL), parts.tiles.size());
}

TEST(PlanFormatsTest, HistogramSumsToTileCount)
{
    const auto parts = sampleParts();
    const auto plan = planFormats(parts, paperFormats());
    std::size_t total = 0;
    for (const auto &[kind, count] : plan.histogram)
        total += count;
    EXPECT_EQ(total, parts.tiles.size());
}

TEST(PlanFormatsTest, BytesObjectivePicksSmallestEncoding)
{
    // "Smallest" is what the pipeline moves per tile under the config:
    // the stored bytes once second-stage compression is on. The
    // stencil's repeated tiles must each get their own best choice.
    const std::vector<std::pair<const char *, Partitioning>> inputs = {
        {"random", sampleParts()},
        {"stencil (repeated tiles)", partition(stencil2d(16, 16), 16)}};
    for (const auto &[input, parts] : inputs) {
        for (const auto &[label, config] : costConfigs()) {
            const auto plan = planFormats(parts, paperFormats(),
                                          SchedulerObjective::Bytes, config);
            std::map<FormatKind, PipelineResult> fixed;
            for (FormatKind kind : paperFormats())
                fixed.emplace(kind, runPipeline(parts, kind, config));
            for (std::size_t i = 0; i < parts.tiles.size(); ++i) {
                const Bytes chosen =
                    fixed.at(plan.perTile[i]).partitions[i].totalBytes;
                for (FormatKind kind : paperFormats()) {
                    const Bytes other =
                        fixed.at(kind).partitions[i].totalBytes;
                    EXPECT_LE(chosen, other)
                        << input << ", " << label << ": tile " << i
                        << " chose " << formatName(plan.perTile[i])
                        << " but " << formatName(kind) << " is smaller";
                }
            }
        }
    }
}

TEST(AdaptiveTest, NeverWorseThanEveryFixedChoice)
{
    // The adaptive bottleneck plan must beat-or-match the best fixed
    // format on total steady cycles (it optimizes exactly that,
    // tile by tile).
    for (const auto &[label, config] : costConfigs()) {
        for (double density : {0.02, 0.2}) {
            const auto parts = sampleParts(density);
            const auto adaptive =
                runAdaptive(parts, paperFormats(),
                            SchedulerObjective::Bottleneck, config);
            for (FormatKind kind : paperFormats()) {
                const auto fixed = runPipeline(parts, kind, config);
                EXPECT_LE(adaptive.totalCycles, fixed.totalCycles)
                    << label << ", density " << density << " vs "
                    << formatName(kind);
            }
        }
    }
}

TEST(AdaptiveTest, MixedStructurePicksDifferentFormats)
{
    // A matrix that is diagonal in one corner and dense random in
    // another should not get a single uniform answer under the bytes
    // objective.
    Rng rng(88);
    TripletMatrix m(64, 64);
    for (Index i = 0; i < 32; ++i)
        m.add(i, i, 1.0f); // diagonal tiles
    for (Index r = 32; r < 64; ++r)
        for (Index c = 32; c < 64; ++c)
            if (rng.chance(0.6))
                m.add(r, c, 1.0f); // dense tiles
    m.finalize();
    const auto parts = partition(m, 16);
    const auto plan = planFormats(parts, paperFormats(),
                                  SchedulerObjective::Bytes);
    EXPECT_GE(plan.histogram.size(), 2u);
}

TEST(AdaptiveTest, ComputeObjectiveMinimizesComputeCycles)
{
    const auto parts = sampleParts(0.1);
    const auto plan = planFormats(parts, paperFormats(),
                                  SchedulerObjective::Compute);
    const auto adaptive = runPipelineMixed(parts, plan.perTile);
    for (FormatKind kind : paperFormats()) {
        const auto fixed = runPipeline(parts, kind);
        EXPECT_LE(adaptive.totalComputeCycles,
                  fixed.totalComputeCycles)
            << formatName(kind);
    }
}

} // namespace
} // namespace copernicus
