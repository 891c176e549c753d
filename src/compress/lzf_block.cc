#include "compress/lzf_block.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "compress/match_table.hh"

namespace copernicus {

namespace {

constexpr std::size_t minMatch = 3;
constexpr std::size_t maxMatch = 264; // 7 + 255 + 2
constexpr std::size_t maxOffset = 8192;
constexpr std::size_t maxLiteralRun = 32;

constexpr unsigned hashBits = 12;

std::uint32_t
read24(const std::uint8_t *p)
{
    return std::uint32_t(p[0]) | (std::uint32_t(p[1]) << 8) |
           (std::uint32_t(p[2]) << 16);
}

std::uint32_t
hash3(std::uint32_t sequence)
{
    return (sequence * 2654435761u) >> (32 - hashBits);
}

void
flushLiterals(std::vector<std::byte> &out, const std::uint8_t *literals,
              std::size_t len)
{
    while (len != 0) {
        const std::size_t run =
            len < maxLiteralRun ? len : maxLiteralRun;
        out.push_back(std::byte(run - 1));
        const std::size_t at = out.size();
        out.resize(at + run);
        std::memcpy(out.data() + at, literals, run);
        literals += run;
        len -= run;
    }
}

void
emitMatch(std::vector<std::byte> &out, std::size_t offset,
          std::size_t len)
{
    const std::size_t stored = len - 2;
    const std::size_t off = offset - 1;
    if (stored < 7) {
        out.push_back(std::byte((stored << 5) | (off >> 8)));
    } else {
        out.push_back(std::byte((7u << 5) | (off >> 8)));
        out.push_back(std::byte(stored - 7));
    }
    out.push_back(std::byte(off & 0xff));
}

} // namespace

std::size_t
lzfCompress(std::span<const std::byte> src, std::vector<std::byte> &out)
{
    const std::size_t begin = out.size();
    const std::size_t n = src.size();
    if (n == 0)
        return 0;
    const auto *in = reinterpret_cast<const std::uint8_t *>(src.data());
    out.reserve(begin + n + n / maxLiteralRun + 4);

    std::size_t anchor = 0;
    if (n >= minMatch) {
        thread_local MatchTable<hashBits> table;
        table.begin(n);
        const std::size_t searchEnd = n - minMatch;
        std::size_t i = 0;
        while (i <= searchEnd) {
            const std::uint32_t seq = read24(in + i);
            const std::size_t match = table.exchange(hash3(seq), i);
            if (match >= i || i - match > maxOffset ||
                read24(in + match) != seq) {
                ++i;
                continue;
            }
            const std::size_t len =
                minMatch + commonPrefix(in + match + minMatch,
                                        in + i + minMatch,
                                        std::min(maxMatch, n - i) -
                                            minMatch);
            flushLiterals(out, in + anchor, i - anchor);
            emitMatch(out, i - match, len);
            i += len;
            anchor = i;
        }
    }
    flushLiterals(out, in + anchor, n - anchor);
    return out.size() - begin;
}

bool
lzfDecompress(std::span<const std::byte> src, std::span<std::byte> dst)
{
    const auto *in = reinterpret_cast<const std::uint8_t *>(src.data());
    const auto *inEnd = in + src.size();
    auto *out = reinterpret_cast<std::uint8_t *>(dst.data());
    auto *const outBegin = out;
    auto *const outEnd = out + dst.size();

    while (in < inEnd) {
        const std::uint8_t ctrl = *in++;
        if (ctrl < 0x20) {
            const std::size_t run = std::size_t(ctrl) + 1;
            if (run > std::size_t(inEnd - in) ||
                run > std::size_t(outEnd - out))
                return false;
            std::memcpy(out, in, run);
            in += run;
            out += run;
            continue;
        }
        std::size_t len = ctrl >> 5;
        if (len == 7) {
            if (in >= inEnd)
                return false;
            len += *in++;
        }
        len += 2;
        if (in >= inEnd)
            return false;
        const std::size_t offset =
            ((std::size_t(ctrl) & 0x1f) << 8 | *in++) + 1;
        if (offset > std::size_t(out - outBegin) ||
            len > std::size_t(outEnd - out))
            return false;
        copyMatch(out, offset, len);
        out += len;
    }
    return out == outEnd;
}

} // namespace copernicus
