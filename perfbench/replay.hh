/**
 * @file
 * The traced replay of a Study sweep: the same calls Study::run makes
 * per design point (partition, then per tile encodeCached,
 * simulateDecompression, compressTile and the stream model), each
 * wrapped in a span of its layer. The replayed totals must equal the
 * Study's rows, which is checked by the callers, so the ledger is known
 * to describe the work the untraced path did.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <string>
#include <utility>
#include <vector>

#include "core/study.hh"

namespace perfbench {

/** One replayed design point, in Study::run's row order. */
struct ReplayRow
{
    copernicus::FormatKind format = copernicus::FormatKind::Dense;
    copernicus::Index partitionSize = 0;
    copernicus::Cycles totalCycles = 0;
    copernicus::Cycles computeCycles = 0;
    copernicus::Bytes totalBytes = 0;
    std::size_t partitions = 0;
};

struct ReplayResult
{
    std::vector<ReplayRow> rows;
    /** Second-stage totals over every compressed tile. */
    copernicus::Bytes rawBytes = 0;
    copernicus::Bytes storedBytes = 0;
};

/**
 * Replay Study::run over @p workloads (registration order) at
 * @p lanes execution lanes with the sweep of @p config.
 */
ReplayResult
replayStudy(const std::vector<const copernicus::TripletMatrix *> &workloads,
            const copernicus::StudyConfig &config, unsigned lanes);

/**
 * Rows of @p replay that disagree with @p study, or SIZE_MAX when the
 * row sets differ. With @p bytesFed false only the statistics that
 * second-stage byte counts do not feed are compared (format, p,
 * partitions, compute cycles); otherwise total cycles and bytes too.
 */
std::size_t replayMismatches(const ReplayResult &replay,
                             const copernicus::StudyResult &study,
                             bool bytesFed);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
