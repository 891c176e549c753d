/**
 * @file
 * The platform configs the per-tile cost tests loop over.
 */

#ifndef COPERNICUS_TESTS_COST_CONFIGS_HH
#define COPERNICUS_TESTS_COST_CONFIGS_HH

#include <utility>
#include <vector>

#include "hls/hls_config.hh"

namespace copernicus {

/**
 * Platform configs that change the per-tile cost: the default, the
 * vector operand streamed on a single streamline, and second-stage
 * compression. Every simulator and the scheduler must charge a tile
 * the same under each.
 */
inline std::vector<std::pair<const char *, HlsConfig>>
costConfigs()
{
    HlsConfig vector_operand;
    vector_operand.streamlines = 1;
    vector_operand.streamVectorOperand = true;
    HlsConfig compressed;
    compressed.secondStageCompression = true;
    return {{"default", HlsConfig()},
            {"vector operand", vector_operand},
            {"second stage", compressed}};
}

} // namespace copernicus

#endif // COPERNICUS_TESTS_COST_CONFIGS_HH
