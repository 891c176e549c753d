/**
 * @file
 * Host-side span recording: the one primitive that times the
 * library's own wall-clock work, as opposed to the *modelled* cycle
 * counts everywhere else.
 *
 * A span is one named interval. Every span folds into a per-name
 * aggregate (calls, seconds, max seconds) that ProfileStats exports as
 * the "profile" StatGroup. There are two kinds:
 *
 *  - a *tree* span is also attributed to a trace (request) and to a
 *    parent span, so the spans of one request assemble into a tree:
 *    client call → server request → queue wait → handler → study
 *    phases → per-design-point encodes, across whatever threads the
 *    thread pool scattered them over (common/trace_context carries
 *    the parent identity into pool tasks). Tree spans enter the
 *    bounded ring in SpanCollector.
 *  - a *leaf* span (per-tile encodes, second-stage compression) folds
 *    into its name's aggregate only: no ring slot, no lock, no
 *    allocation per call — the call site caches its SpanSlot in a
 *    function-local static and the fold is three relaxed atomics.
 *
 * SpanCollector::setEnabled() is the only switch. A disabled span
 * costs one relaxed atomic load, so the instrumentation stays in the
 * library's hot paths unconditionally.
 */

#ifndef COPERNICUS_TRACE_SPAN_HH
#define COPERNICUS_TRACE_SPAN_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/lock_order.hh"
#include "common/mutex.hh"
#include "common/thread_annotations.hh"
#include "common/trace_context.hh"

namespace copernicus {

/** One completed span: a tree edge plus an interval. */
struct SpanRecord
{
    std::uint64_t traceId = 0;
    std::uint64_t spanId = 0;
    std::uint64_t parentSpanId = 0; ///< 0 = root of its trace
    std::string name;               ///< "study.partition", ...
    std::string track;              ///< display grouping: "serve", "study", ...
    std::uint64_t startUs = 0;      ///< observeNowUs() timestamps
    std::uint64_t endUs = 0;

    /** The record as one compact JSON object (ids in hex). */
    void writeJson(std::ostream &out) const;
};

/** Every span that reported one name, folded. */
struct SpanTotals
{
    std::string name;
    std::uint64_t calls = 0;
    double seconds = 0;
    double maxSeconds = 0;
};

class SpanCollector;

/**
 * The running aggregate of one span name in relaxed atomics, so a
 * leaf span folds in without a lock. A collector owns its slots and
 * never erases one, so a reference from SpanCollector::slot() stays
 * valid for the collector's lifetime.
 */
class SpanSlot
{
  public:
    explicit SpanSlot(SpanCollector &owner) : owner(&owner) {}

    SpanSlot(const SpanSlot &) = delete;
    SpanSlot &operator=(const SpanSlot &) = delete;

  private:
    friend class SpanCollector;
    friend class ScopedSpan;

    /** Fold one interval of @p nanos. */
    void add(std::uint64_t nanos);

    SpanCollector *owner;
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> nanos{0};
    std::atomic<std::uint64_t> maxNanos{0};
};

/**
 * Process-wide bounded ring of completed tree spans plus the per-name
 * aggregate of every span.
 *
 * record() and snapshot() are mutex-guarded with short critical
 * sections (one slot move / one vector copy); when the ring laps,
 * the oldest spans are overwritten and dropped() counts them, so a
 * long-lived daemon keeps the most recent history without unbounded
 * growth — the same always-on posture as the flight recorder.
 */
class SpanCollector
{
  public:
    /** The collector every tree span reports to by default. */
    static SpanCollector &global();

    SpanCollector() = default;
    SpanCollector(const SpanCollector &) = delete;
    SpanCollector &operator=(const SpanCollector &) = delete;

    void
    setEnabled(bool enabled)
    {
        on.store(enabled, std::memory_order_relaxed);
    }

    bool
    enabled() const
    {
        return on.load(std::memory_order_relaxed);
    }

    /** Resize the ring (drops current contents). Capacity >= 1. */
    void setCapacity(std::size_t capacity);

    /** Add @p span to the ring and fold it into its name's slot. */
    void record(SpanRecord span);

    /**
     * The aggregate slot for @p name, created on first use. A leaf
     * call site caches it:
     *
     *     static SpanSlot &timing = SpanCollector::global().slot("x");
     *     const ScopedSpan span(timing);
     */
    SpanSlot &slot(std::string_view name);

    /** Every name with at least one call, sorted by name. */
    std::vector<SpanTotals> totals() const;

    /** Every retained span, oldest first. */
    std::vector<SpanRecord> snapshot() const;

    /** The retained spans of one trace, oldest first. */
    std::vector<SpanRecord> spansForTrace(std::uint64_t traceId) const;

    /** Spans recorded since construction/clear (retained or not). */
    std::uint64_t recorded() const;

    /** Spans overwritten by ring wrap-around. */
    std::uint64_t dropped() const;

    /**
     * Drop every retained span and zero the counters and the
     * aggregate (the enabled state is kept).
     */
    void clear();

  private:
    SpanSlot &slotLocked(std::string_view name)
        COPERNICUS_REQUIRES(mutex);

    std::atomic<bool> on{false};
    mutable Mutex mutex{lock_rank::spanCollector};
    /** size() < capacity until first lap */
    std::vector<SpanRecord> ring COPERNICUS_GUARDED_BY(mutex);
    std::size_t capacity COPERNICUS_GUARDED_BY(mutex) = 4096;
    /** next overwrite slot once full */
    std::size_t head COPERNICUS_GUARDED_BY(mutex) = 0;
    std::uint64_t total COPERNICUS_GUARDED_BY(mutex) = 0;
    std::map<std::string, SpanSlot, std::less<>> slots
        COPERNICUS_GUARDED_BY(mutex);
};

/**
 * RAII span: measures from construction to destruction and folds the
 * interval into its collector's aggregate. When the collector is
 * disabled at construction, no clock is read.
 */
class ScopedSpan
{
  public:
    /**
     * A tree span, on the shared observability clock: parents itself
     * under the thread's current TraceContext (starting a fresh trace
     * when there is none), makes itself the current context so nested
     * spans become its children, and enters the ring.
     */
    ScopedSpan(std::string_view name, std::string_view track,
               SpanCollector &collector = SpanCollector::global())
        : sink(&collector)
    {
        if (!sink->enabled())
            return;
        active = true;
        saved = currentTraceContext();
        record.traceId = saved.valid() ? saved.traceId : newTraceId();
        record.spanId = newSpanId();
        record.parentSpanId = saved.valid() ? saved.spanId : 0;
        record.name = std::string(name);
        record.track = std::string(track);
        record.startUs = observeNowUs();
        setCurrentTraceContext({record.traceId, record.spanId});
    }

    /**
     * A leaf span: nanosecond steady-clock interval folded into
     * @p slot only. It neither enters the ring nor changes the
     * thread's trace context.
     */
    explicit ScopedSpan(SpanSlot &slot) : sink(slot.owner)
    {
        if (!sink->enabled())
            return;
        leaf = &slot;
        leafStart = std::chrono::steady_clock::now();
    }

    ~ScopedSpan()
    {
        if (leaf != nullptr) {
            leaf->add(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - leafStart)
                    .count()));
            return;
        }
        if (!active)
            return;
        setCurrentTraceContext(saved);
        record.endUs = observeNowUs();
        sink->record(std::move(record));
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** This span's identity (invalid for a leaf or when off). */
    TraceContext
    context() const
    {
        return active ? TraceContext{record.traceId, record.spanId}
                      : TraceContext{};
    }

  private:
    SpanCollector *sink;
    SpanRecord record;
    TraceContext saved;
    bool active = false;
    SpanSlot *leaf = nullptr;
    std::chrono::steady_clock::time_point leafStart;
};

} // namespace copernicus

#endif // COPERNICUS_TRACE_SPAN_HH
