/**
 * @file
 * Exporters for host-side timing: the span aggregate as the "profile"
 * StatGroup, and thread-pool lane spans as a trace scope. The timing
 * itself is ScopedSpan (trace/span.hh); `--profile` on the CLI and the
 * benches enables SpanCollector::global() and dumps ProfileStats.
 */

#ifndef COPERNICUS_TRACE_PROFILE_HH
#define COPERNICUS_TRACE_PROFILE_HH

#include <iosfwd>
#include <memory>
#include <vector>

#include "common/stat_group.hh"
#include "common/thread_pool.hh"
#include "trace/span.hh"
#include "trace/trace_sink.hh"

namespace copernicus {

/**
 * The span aggregate exported as a StatGroup named "profile": per span
 * name `<name>.calls`, `<name>.seconds` and `<name>.max_seconds`, so
 * the profile dump shares the text and JSON machinery of every other
 * stat.
 */
class ProfileStats
{
  public:
    explicit ProfileStats(const SpanCollector &collector =
                              SpanCollector::global());

    const StatGroup &group() const { return grp; }

    void dump(std::ostream &out) const { grp.dump(out); }
    void dumpJson(std::ostream &out) const { grp.dumpJson(out); }

  private:
    StatGroup grp;
    std::vector<std::unique_ptr<ScalarStat>> owned;
};

/**
 * Emit collected thread-pool lane spans into @p sink as one trace
 * scope ("thread_pool") with one track per worker lane — the Chrome
 * trace then shows what each pool lane executed over wall-clock time
 * (microseconds in the viewer's "us" field). Spans are collected when
 * ThreadPool::setLaneRecording(true) is on; the CLI and benches enable
 * it under --trace and call this just before serialising.
 */
void emitWorkerLanes(TraceSink &sink,
                     const std::vector<ThreadPool::LaneSpan> &spans);

} // namespace copernicus

#endif // COPERNICUS_TRACE_PROFILE_HH
