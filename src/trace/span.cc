#include "trace/span.hh"

#include <ostream>

#include "common/json.hh"
#include "common/status.hh"

namespace copernicus {

void
SpanRecord::writeJson(std::ostream &out) const
{
    out << "{\"trace_id\": ";
    writeJsonString(out, traceIdToHex(traceId));
    out << ", \"span_id\": ";
    writeJsonString(out, traceIdToHex(spanId));
    out << ", \"parent_span_id\": ";
    writeJsonString(out, traceIdToHex(parentSpanId));
    out << ", \"name\": ";
    writeJsonString(out, name);
    out << ", \"track\": ";
    writeJsonString(out, track);
    out << ", \"start_us\": " << startUs << ", \"end_us\": " << endUs
        << '}';
}

void
SpanSlot::add(std::uint64_t interval)
{
    calls.fetch_add(1, std::memory_order_relaxed);
    nanos.fetch_add(interval, std::memory_order_relaxed);
    std::uint64_t seen = maxNanos.load(std::memory_order_relaxed);
    while (interval > seen &&
           !maxNanos.compare_exchange_weak(seen, interval,
                                           std::memory_order_relaxed)) {
    }
}

SpanCollector &
SpanCollector::global()
{
    static SpanCollector collector;
    return collector;
}

void
SpanCollector::setCapacity(std::size_t newCapacity)
{
    fatalIf(newCapacity == 0, "SpanCollector capacity must be >= 1");
    const MutexLock lock(mutex);
    ring.clear();
    capacity = newCapacity;
    head = 0;
    total = 0;
}

void
SpanCollector::record(SpanRecord span)
{
    const MutexLock lock(mutex);
    slotLocked(span.name).add((span.endUs - span.startUs) * 1000);
    ++total;
    if (ring.size() < capacity) {
        ring.push_back(std::move(span));
        return;
    }
    ring[head] = std::move(span);
    head = (head + 1) % capacity;
}

SpanSlot &
SpanCollector::slot(std::string_view name)
{
    const MutexLock lock(mutex);
    return slotLocked(name);
}

SpanSlot &
SpanCollector::slotLocked(std::string_view name)
{
    auto it = slots.find(name);
    if (it == slots.end())
        it = slots.try_emplace(std::string(name), *this).first;
    return it->second;
}

std::vector<SpanTotals>
SpanCollector::totals() const
{
    const MutexLock lock(mutex);
    std::vector<SpanTotals> out;
    for (const auto &[name, slot] : slots) {
        const std::uint64_t calls =
            slot.calls.load(std::memory_order_relaxed);
        if (calls == 0)
            continue;
        out.push_back(
            {name, calls,
             static_cast<double>(
                 slot.nanos.load(std::memory_order_relaxed)) * 1e-9,
             static_cast<double>(
                 slot.maxNanos.load(std::memory_order_relaxed)) * 1e-9});
    }
    return out;
}

std::vector<SpanRecord>
SpanCollector::snapshot() const
{
    const MutexLock lock(mutex);
    std::vector<SpanRecord> spans;
    spans.reserve(ring.size());
    // Once the ring has lapped, head is the oldest retained slot.
    for (std::size_t i = 0; i < ring.size(); ++i)
        spans.push_back(ring[(head + i) % ring.size()]);
    return spans;
}

std::vector<SpanRecord>
SpanCollector::spansForTrace(std::uint64_t traceId) const
{
    std::vector<SpanRecord> spans;
    for (SpanRecord &span : snapshot()) {
        if (span.traceId == traceId)
            spans.push_back(std::move(span));
    }
    return spans;
}

std::uint64_t
SpanCollector::recorded() const
{
    const MutexLock lock(mutex);
    return total;
}

std::uint64_t
SpanCollector::dropped() const
{
    const MutexLock lock(mutex);
    return total - ring.size();
}

void
SpanCollector::clear()
{
    const MutexLock lock(mutex);
    ring.clear();
    head = 0;
    total = 0;
    for (auto &[name, slot] : slots) {
        slot.calls.store(0, std::memory_order_relaxed);
        slot.nanos.store(0, std::memory_order_relaxed);
        slot.maxNanos.store(0, std::memory_order_relaxed);
    }
}

} // namespace copernicus
