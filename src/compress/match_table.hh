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
 *
 * The two helpers below are the codecs' inner loops: extending a match
 * and replaying one. Both are exact replacements for the byte-at-a-time
 * loops they stand for, so images and decoded bytes do not change.
 */

#ifndef COPERNICUS_COMPRESS_MATCH_TABLE_HH
#define COPERNICUS_COMPRESS_MATCH_TABLE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

/**
 * Length of the common prefix of @p a and @p b, at most @p limit bytes;
 * both ranges must hold @p limit readable bytes. Compares eight bytes
 * at a time: the first differing byte of a little-endian word is its
 * lowest set byte of a ^ b.
 */
inline std::size_t
commonPrefix(const std::uint8_t *a, const std::uint8_t *b,
             std::size_t limit)
{
    static_assert(std::endian::native == std::endian::little);
    std::size_t len = 0;
    while (len + 8 <= limit) {
        std::uint64_t wa;
        std::uint64_t wb;
        std::memcpy(&wa, a + len, 8);
        std::memcpy(&wb, b + len, 8);
        if (wa != wb)
            return len + std::countr_zero(wa ^ wb) / 8;
        len += 8;
    }
    while (len < limit && a[len] == b[len])
        ++len;
    return len;
}

/**
 * Append a match: @p len bytes at @p out, each equal to the byte
 * @p offset before it (offset >= 1 bytes already written). When the
 * match overlaps its source, the written bytes repeat with period
 * @p offset, so whole periods can be copied from the source without
 * overlap, the copyable span doubling each round.
 */
inline void
copyMatch(std::uint8_t *out, std::size_t offset, std::size_t len)
{
    const std::uint8_t *from = out - offset;
    std::size_t done = 0;
    while (done < len) {
        const std::size_t chunk = std::min(len - done, offset + done);
        std::memcpy(out + done, from, chunk);
        done += chunk;
    }
}

} // namespace copernicus

#endif // COPERNICUS_COMPRESS_MATCH_TABLE_HH
