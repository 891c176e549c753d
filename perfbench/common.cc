#include "common.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

using copernicus::JsonValue;

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
peakRssMb(const std::string &pid)
{
    std::ifstream status("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

const JsonValue &
spec()
{
    static const JsonValue doc = [] {
        std::ifstream in("perfbench/spec.json");
        if (!in)
            throw std::runtime_error(
                "perfbench: cannot read perfbench/spec.json (run from "
                "the repository root)");
        std::stringstream text;
        text << in.rdbuf();
        JsonValue parsed;
        if (!copernicus::parseJson(text.str(), parsed) ||
            !parsed.isObject())
            throw std::runtime_error(
                "perfbench: perfbench/spec.json is not a JSON object");
        return parsed;
    }();
    return doc;
}

double
specNumber(std::string_view workload, std::string_view key)
{
    const JsonValue *w = spec().find("workloads");
    const JsonValue *entry = w != nullptr ? w->find(workload) : nullptr;
    const JsonValue *value = entry != nullptr ? entry->find(key) : nullptr;
    if (value == nullptr || !value->isNumber())
        throw std::runtime_error("perfbench: spec.json lacks workloads." +
                                 std::string(workload) + "." +
                                 std::string(key));
    return value->number;
}

std::string_view
layerName(Layer layer)
{
    static constexpr std::array<std::string_view, layerCount> names = {
        "workloads.generate", "store.hash",     "store.cbm_write",
        "store.stream_partition", "matrix.stats", "matrix.partition",
        "formats.encode",     "hls.decompress_walk", "compress.tile",
        "pipeline",           "core.plan",      "core.study",
        "core.advise",        "bench",
    };
    return names[static_cast<std::size_t>(layer)];
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

namespace {

struct LocalSlot
{
    void *state = nullptr;
    std::uint64_t generation = 0;
};

thread_local LocalSlot localSlot;

} // namespace

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

Tracer::ThreadState &
Tracer::local()
{
    const std::uint64_t gen = generation.load();
    if (localSlot.state == nullptr || localSlot.generation != gen) {
        const std::lock_guard<std::mutex> lock(threadsMutex);
        threads.push_back(std::make_unique<ThreadState>());
        threads.back()->id = static_cast<std::uint32_t>(threads.size());
        localSlot.state = threads.back().get();
        localSlot.generation = gen;
    }
    return *static_cast<ThreadState *>(localSlot.state);
}

void
Tracer::reset()
{
    const std::lock_guard<std::mutex> lock(threadsMutex);
    threads.clear();
    ++generation;
    epoch = Clock::now();
}

void
Tracer::addLeaf(Layer layer, Clock::duration elapsed)
{
    ThreadState &ts = local();
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count();
    const auto i = static_cast<std::size_t>(layer);
    ts.leafNs[i] += ns;
    ++ts.leafCalls[i];
    if (!ts.open.empty())
        ts.records[ts.open.back()].childNs += ns;
}

Tracer::Span::Span(Layer layer)
{
    Tracer &t = instance();
    if (!t.enabled())
        return;
    active = true;
    ThreadState &ts = t.local();
    Record rec;
    rec.layer = layer;
    rec.thread = ts.id;
    rec.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t.epoch)
                      .count();
    rec.endNs = rec.startNs;
    rec.childNs = 0;
    rec.parent = ts.open.empty() ? -1
                                 : static_cast<std::int64_t>(ts.open.back());
    ts.records.push_back(rec);
    ts.open.push_back(ts.records.size() - 1);
}

Tracer::Span::~Span()
{
    if (!active)
        return;
    Tracer &t = instance();
    ThreadState &ts = t.local();
    Record &rec = ts.records[ts.open.back()];
    ts.open.pop_back();
    rec.endNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - t.epoch)
                    .count();
    if (rec.parent >= 0)
        ts.records[static_cast<std::size_t>(rec.parent)].childNs +=
            rec.endNs - rec.startNs;
}

Tracer::LayerTotals
Tracer::totals() const
{
    const std::lock_guard<std::mutex> lock(threadsMutex);
    LayerTotals out;
    for (const auto &ts : threads) {
        for (const Record &rec : ts->records) {
            const auto i = static_cast<std::size_t>(rec.layer);
            out.selfSeconds[i] +=
                static_cast<double>(rec.endNs - rec.startNs - rec.childNs) *
                1e-9;
            ++out.calls[i];
        }
        out.spans += ts->records.size();
        for (std::size_t i = 0; i < layerCount; ++i) {
            out.selfSeconds[i] += static_cast<double>(ts->leafNs[i]) * 1e-9;
            out.calls[i] += ts->leafCalls[i];
        }
    }
    return out;
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("perfbench: cannot write " + path);
    const std::lock_guard<std::mutex> lock(threadsMutex);
    out << "{\"traceEvents\": [";
    bool first = true;
    for (const auto &ts : threads) {
        for (const Record &rec : ts->records) {
            if (!first)
                out << ",\n";
            first = false;
            out << "{\"name\": \"" << layerName(rec.layer)
                << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << rec.thread
                << ", \"ts\": ";
            copernicus::writeJsonNumber(
                out, static_cast<double>(rec.startNs) / 1e3);
            out << ", \"dur\": ";
            copernicus::writeJsonNumber(
                out, static_cast<double>(rec.endNs - rec.startNs) / 1e3);
            out << ", \"args\": {\"self_us\": ";
            copernicus::writeJsonNumber(
                out,
                static_cast<double>(rec.endNs - rec.startNs - rec.childNs) /
                    1e3);
            out << "}}";
        }
    }
    out << "],\n\"leaves\": {";
    first = true;
    for (std::size_t i = 0; i < layerCount; ++i) {
        std::int64_t ns = 0;
        std::uint64_t calls = 0;
        for (const auto &ts : threads) {
            ns += ts->leafNs[i];
            calls += ts->leafCalls[i];
        }
        if (calls == 0)
            continue;
        if (!first)
            out << ", ";
        first = false;
        out << '"' << layerName(static_cast<Layer>(i))
            << "\": {\"calls\": " << calls << ", \"seconds\": ";
        copernicus::writeJsonNumber(out, static_cast<double>(ns) * 1e-9);
        out << '}';
    }
    out << "}}\n";
}

void
reportLedger(Outcome &out, const Tracer::LayerTotals &totals,
             double tracedWallSeconds, double tracedTotalSeconds,
             double untracedSeconds)
{
    const auto self = [&](Layer l) {
        return totals.selfSeconds[static_cast<std::size_t>(l)];
    };
    const auto perCall = [&](Layer l, double scale) {
        const std::uint64_t calls = totals.calls[static_cast<std::size_t>(l)];
        return calls == 0 ? 0.0
                          : self(l) / static_cast<double>(calls) * scale;
    };
    out.set("workloads.generate_ms", perCall(Layer::Generate, 1e3), "ms");
    out.set("store.hash_ms", perCall(Layer::Hash, 1e3), "ms");
    out.set("store.cbm_write_s", self(Layer::CbmWrite), "s");
    out.set("store.stream_partition_s", self(Layer::StreamPartition), "s");
    out.set("matrix.stats_ms", perCall(Layer::Stats, 1e3), "ms");
    out.set("matrix.partition_ms", perCall(Layer::Partition, 1e3), "ms");
    out.set("formats.encode_s", self(Layer::Encode), "s");
    out.set("hls.decompress_walk_s", self(Layer::Walk), "s");
    out.set("compress.tile_s", self(Layer::Compress), "s");
    out.set("pipeline.self_s", self(Layer::Pipeline), "s");
    out.set("core.plan_ms", perCall(Layer::Plan, 1e3), "ms");
    out.set("core.study_s", self(Layer::Study), "s");
    out.set("core.advise_us", perCall(Layer::Advise, 1e6), "us");
    out.set("bench.glue_s", self(Layer::Bench), "s");

    double covered = 0;
    for (std::size_t i = 0; i < layerCount; ++i)
        if (static_cast<Layer>(i) != Layer::Bench)
            covered += totals.selfSeconds[i];
    out.set("trace.covered_frac",
            tracedTotalSeconds > 0 ? covered / tracedTotalSeconds : 0,
            "frac");
    out.set("trace.overhead_frac",
            untracedSeconds > 0 ? tracedWallSeconds / untracedSeconds - 1
                                : 0,
            "frac");
    out.set("trace.spans", static_cast<double>(totals.spans), "count");
    out.set("trace.replay_s", tracedWallSeconds, "s");
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"workloads.generate_ms", "ms"},
        {"store.hash_ms", "ms"},
        {"store.cbm_write_s", "s"},
        {"store.stream_partition_s", "s"},
        {"store.source_scans", "count"},
        {"store.peak_buffered_nnz", "count"},
        {"matrix.stats_ms", "ms"},
        {"matrix.partition_ms", "ms"},
        {"formats.encode_s", "s"},
        {"formats.encode_cache_hit_frac", "frac"},
        {"formats.encode_cache_hits", "count"},
        {"formats.encode_cache_misses", "count"},
        {"formats.encode_cache_evictions", "count"},
        {"hls.decompress_walk_s", "s"},
        {"compress.tile_s", "s"},
        {"compress.stored_over_raw", "frac"},
        {"compress.history_dependent_rows", "count"},
        {"pipeline.self_s", "s"},
        {"core.plan_ms", "ms"},
        {"core.study_s", "s"},
        {"core.advise_us", "us"},
        {"serve.handler_ms.ping", "ms"},
        {"serve.handler_ms.advise", "ms"},
        {"serve.handler_ms.plan_formats", "ms"},
        {"serve.handler_ms.run_study", "ms"},
        {"serve.outside_handler_ms", "ms"},
        {"serve.ping_rtt_ms", "ms"},
        {"serve.rejected", "count"},
        {"serve.memo_hit_frac", "frac"},
        {"serve.memo_hits", "count"},
        {"serve.memo_misses", "count"},
        {"serve.memo_evictions", "count"},
        {"serve.advise_hot_p50_ms", "ms"},
        {"serve.advise_fresh_p50_ms", "ms"},
        {"serve.plan_hot_p50_ms", "ms"},
        {"serve.plan_fresh_p50_ms", "ms"},
        {"serve.study_p50_ms", "ms"},
        {"serve.goodput_rps", "1/s"},
        {"serve.failed_frac", "frac"},
        {"serve.generator_late_max_ms", "ms"},
        {"bench.glue_s", "s"},
        {"trace.covered_frac", "frac"},
        {"trace.overhead_frac", "frac"},
        {"trace.spans", "count"},
        {"trace.replay_s", "s"},
    };
    return names;
}

const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"throughput_per_s", "1/s"},
        {"p50_ms", "ms"},
        {"p90_ms", "ms"},
    };
    return names;
}

} // namespace perfbench
