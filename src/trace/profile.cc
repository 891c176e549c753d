#include "trace/profile.hh"

namespace copernicus {

ProfileStats::ProfileStats(const SpanCollector &collector)
    : grp("profile")
{
    auto add = [this](const std::string &name, const char *desc,
                      double value) {
        auto stat = std::make_unique<ScalarStat>(grp, name, desc);
        *stat = value;
        owned.push_back(std::move(stat));
    };
    for (const SpanTotals &entry : collector.totals()) {
        add(entry.name + ".calls", "times the scope was entered",
            static_cast<double>(entry.calls));
        add(entry.name + ".seconds", "total wall-clock seconds inside",
            entry.seconds);
        add(entry.name + ".max_seconds", "longest single entry",
            entry.maxSeconds);
    }
}

void
emitWorkerLanes(TraceSink &sink,
                const std::vector<ThreadPool::LaneSpan> &spans)
{
    if (spans.empty())
        return;
    sink.beginScope("thread_pool");
    for (const ThreadPool::LaneSpan &span : spans) {
        sink.durationEvent("worker" + std::to_string(span.worker),
                           "task", span.startUs, span.endUs);
    }
}


} // namespace copernicus
