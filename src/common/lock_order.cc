#include "common/lock_order.hh"

#include <algorithm>
#include <array>
#include <cstddef>

#include "common/status.hh"

namespace copernicus {

const std::vector<LockLevel> &
lockOrderRegistry()
{
    static const std::vector<LockLevel> registry = {
        {"serve.loop", lock_rank::serveLoop},
        {"serve.tx", lock_rank::serveTx},
        {"serve.streams", lock_rank::serveStreams},
        {"serve.admit", lock_rank::serveAdmit},
        {"serve.memo", lock_rank::serveMemo},
        {"serve.inflight", lock_rank::serveInflight},
        {"serve.spans", lock_rank::serveSpans},
        {"study.cache", lock_rank::studyCache},
        {"store.sweep_journal", lock_rank::sweepJournal},
        {"encode_cache.shard", lock_rank::encodeCacheShard},
        {"stat.distribution", lock_rank::statDistribution},
        {"trace.span_collector", lock_rank::spanCollector},
        {"trace.flight_recorder", lock_rank::flightRecorder},
    };
    return registry;
}

namespace {

#if !defined(NDEBUG) || defined(COPERNICUS_DEBUG_CHECKS)
constexpr bool orderChecks = true;
#else
constexpr bool orderChecks = false;
#endif

/**
 * Ranks held by the calling thread, acquisition order. Trivially
 * destructible on purpose: thread_locals with destructors die before
 * the main thread's atexit hooks run, and those hooks still lock. Ranks
 * only increase while held, so the depth is bounded by the rank count.
 */
constexpr std::size_t maxHeldRanks = 32;
thread_local std::array<int, maxHeldRanks> heldRanks;
thread_local std::size_t heldCount = 0;

} // namespace

void
noteLockAcquired(int rank)
{
    if (!orderChecks || rank <= 0)
        return;
    const int held = currentMaxHeldRank();
    panicIf(held >= rank,
            "lock-order violation: acquiring rank " +
                std::to_string(rank) + " while holding rank " +
                std::to_string(held) +
                " (locks must be taken in strictly increasing rank "
                "order; see common/lock_order.hh)");
    panicIf(heldCount == maxHeldRanks,
            "lock-order check: too many ranked locks held at once");
    heldRanks[heldCount++] = rank;
}

void
noteLockReleased(int rank)
{
    if (!orderChecks || rank <= 0)
        return;
    for (std::size_t i = heldCount; i-- > 0;) {
        if (heldRanks[i] == rank) {
            std::copy(heldRanks.begin() + i + 1,
                      heldRanks.begin() + heldCount,
                      heldRanks.begin() + i);
            --heldCount;
            return;
        }
    }
}

int
currentMaxHeldRank()
{
    if (!orderChecks || heldCount == 0)
        return 0;
    return *std::max_element(heldRanks.begin(),
                             heldRanks.begin() + heldCount);
}

} // namespace copernicus
