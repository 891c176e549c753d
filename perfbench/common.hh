/**
 * @file
 * Shared plumbing of the benchmark driver: the command line, the
 * result line, order statistics, peak-RSS probes, the recorded spec
 * (perfbench/spec.json) and the span tracer of the traced run.
 *
 * The tracer lives in the benchmark, not in the library: every span is
 * opened around a call into a public function of one layer, so the
 * per-layer ledger needs no instrumentation inside src/.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** What the driver passed on the command line. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    /** Directory (inside the checkout) for sockets, containers, traces. */
    std::string scratch = ".bench_build";
};

/** One metric of the result line. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/** What a workload hands back to main(). */
struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    /** Failed correctness checks, one line each (stderr). */
    std::vector<std::string> problems;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            correct = false;
            problems.push_back(what);
        }
    }

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }
};

/** Linear-interpolated quantile (q in [0,1]); 0 for an empty set. */
double quantile(std::vector<double> values, double q);

inline double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

/** VmHWM of @p pid ("self" for this process), in MiB; 0 if unknown. */
double peakRssMb(const std::string &pid = "self");

/** The recorded benchmark definition (perfbench/spec.json). */
const copernicus::JsonValue &spec();

/** spec()[workload][key] as a number; throws if absent. */
double specNumber(std::string_view workload, std::string_view key);

/** 64-bit finalizer (splitmix64) for order-independent checksums. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

// ---------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------

/**
 * The layers of the ledger, named after the library's modules. Bench
 * is the benchmark's own glue (input synthesis, tile consumers); it is
 * traced so its time is visible, but it is not a program layer and
 * does not count towards coverage.
 */
enum class Layer : std::uint8_t
{
    Generate,        ///< workloads: generators, matrixFromSpec
    Hash,            ///< store: contentHashOf
    CbmWrite,        ///< store: CbmWriter
    StreamPartition, ///< store: forEachTileStreaming
    Stats,           ///< matrix: computeStats
    Partition,       ///< matrix: partition
    Encode,          ///< formats: encodeCached
    Walk,            ///< hls: simulateDecompression
    Compress,        ///< compress: compressTile
    Pipeline,        ///< pipeline: the per-tile stream model
    Plan,            ///< core: planFormats
    Study,           ///< core: one design point / sweep orchestration
    Advise,          ///< core: advise
    Bench,           ///< the benchmark's own glue (not a layer)
    Count
};

inline constexpr std::size_t layerCount =
    static_cast<std::size_t>(Layer::Count);

std::string_view layerName(Layer layer);

/**
 * Span recorder of the traced run. Spans (layer, thread, start, end,
 * parent) are kept in per-thread memory and written when the run ends.
 * Per-tile calls, which would number in the millions, are recorded as
 * leaves: their time and count fold into the enclosing span and the
 * per-layer totals instead of becoming records of their own.
 *
 * A layer's self time is its spans' durations minus the part their
 * child spans and leaves cover. When the tracer is disabled a span
 * costs one branch.
 */
class Tracer
{
  public:
    static Tracer &instance();

    void setEnabled(bool on) { enabled_.store(on); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** Forget every span and total (between replays). */
    void reset();

    struct LayerTotals
    {
        std::array<double, layerCount> selfSeconds{};
        std::array<std::uint64_t, layerCount> calls{};
        std::uint64_t spans = 0;
    };
    LayerTotals totals() const;

    /** Write every span as a Chrome trace_event document. */
    void writeChromeTrace(const std::string &path) const;

    class Span
    {
      public:
        explicit Span(Layer layer);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        bool active = false;
    };

    /** Time one leaf call of @p layer (one per tile, say). */
    template <typename F>
    static auto
    leaf(Layer layer, F &&fn)
    {
        Tracer &t = instance();
        if (!t.enabled())
            return fn();
        const Clock::time_point start = Clock::now();
        auto result = fn();
        t.addLeaf(layer, Clock::now() - start);
        return result;
    }

  private:
    struct Record
    {
        Layer layer;
        std::uint32_t thread;
        std::int64_t startNs;
        std::int64_t endNs;
        std::int64_t childNs;
        std::int64_t parent; ///< index in the same thread's list, or -1
    };

    struct ThreadState
    {
        std::uint32_t id = 0;
        std::vector<Record> records;
        std::vector<std::size_t> open; ///< indices of open records
        std::array<std::int64_t, layerCount> leafNs{};
        std::array<std::uint64_t, layerCount> leafCalls{};
    };

    ThreadState &local();
    void addLeaf(Layer layer, Clock::duration elapsed);

    std::atomic<bool> enabled_{false};
    Clock::time_point epoch = Clock::now();
    mutable std::mutex threadsMutex;
    std::vector<std::unique_ptr<ThreadState>> threads;
    /** Bumped by reset() so stale thread-local pointers re-register. */
    std::atomic<std::uint64_t> generation{1};
};

using Span = Tracer::Span;

/**
 * Put the traced run's shared ledger metrics on @p out: per-layer self
 * time (seconds), calls, the coverage share of @p tracedTotalSeconds
 * (lane-seconds of the traced replay) and the tracing overhead of the
 * replay against @p untracedSeconds.
 */
void reportLedger(Outcome &out, const Tracer::LayerTotals &totals,
                  double tracedWallSeconds, double tracedTotalSeconds,
                  double untracedSeconds);

/**
 * Every per-layer metric name with its unit, in BENCHMARK.json order.
 * A traced run reports each one; a layer a workload does not exercise
 * reads 0.
 */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/** Every end-to-end metric name with its unit. */
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();

// Workloads: each returns its outcome with every metric of the mode.
Outcome runCatalogSweep(const Args &args);
Outcome runServeMix(const Args &args, const std::string &daemonPath);
Outcome runCbmStream(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
