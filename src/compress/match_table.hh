/**
 * @file
 * Single-probe match table shared by the LZ4-class and LZF-class block
 * compressors.
 *
 * Each compressor keeps one table per thread and never clears it
 * between calls: a memset per stream would cost more than compressing
 * a short tile stream. Entries are tagged instead. A call over n bytes
 * stores base + i + 1 for position i, accepts only entries above its
 * own base, and then advances the base by n + 1. An entry left by an
 * earlier call is therefore never a candidate, so the compressed bytes
 * depend only on the input, not on what the thread compressed before.
 * The table is cleared only when the base would wrap.
 */

#ifndef COPERNICUS_COMPRESS_MATCH_TABLE_HH
#define COPERNICUS_COMPRESS_MATCH_TABLE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace copernicus {

template <unsigned HashBits>
class MatchTable
{
  public:
    /** Start one compress call over @p n input bytes. */
    void
    begin(std::size_t n)
    {
        constexpr std::uint32_t limit =
            std::numeric_limits<std::uint32_t>::max();
        if (n >= limit - next) {
            slots.fill(0);
            next = 0;
        }
        base = next;
        next += static_cast<std::uint32_t>(n) + 1;
    }

    /**
     * Record position @p i under hash @p h. Returns the position this
     * call stored there before, or @p i when there is none (a
     * candidate at the cursor is never a match).
     */
    std::size_t
    exchange(std::uint32_t h, std::size_t i)
    {
        const std::uint32_t previous = slots[h];
        slots[h] = base + static_cast<std::uint32_t>(i) + 1;
        return previous > base ? previous - base - 1 : i;
    }

  private:
    std::array<std::uint32_t, std::size_t(1) << HashBits> slots{};
    std::uint32_t base = 0;
    std::uint32_t next = 0;
};

} // namespace copernicus

#endif // COPERNICUS_COMPRESS_MATCH_TABLE_HH
