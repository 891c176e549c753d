/**
 * @file
 * cbm_stream: the out-of-core path. Set-up synthesizes a seeded matrix
 * and writes it as a .cbm container with CbmWriter, never holding the
 * matrix in memory; the measured unit is one forEachTileStreaming pass
 * over the container (opened with CbmReader) at p = 1024 that consumes
 * every tile. Only store and the partitioner work here; formats and the
 * models do nothing.
 *
 * The matrix is a 7-wide band plus two "rail" diagonals per 1024-row
 * strip at seeded columns, with seeded values, so tiles appear on and
 * off the diagonal and the partitioner needs several passes over the
 * source within its buffer bound. Every seed gives (nearly) the same
 * non-zero count, so runs of different seeds do the same work.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common.hh"
#include "common/rng.hh"
#include "store/container.hh"
#include "store/stream_partitioner.hh"

namespace perfbench {

using namespace copernicus;

namespace {

constexpr std::string_view name = "cbm_stream";
constexpr Index stripRows = 1024;

/** Order-independent fingerprint of a non-zero set. */
struct Checksum
{
    std::uint64_t nnz = 0;
    std::uint64_t sum = 0;

    void
    add(Index row, Index col, Value value)
    {
        std::uint32_t bits;
        std::memcpy(&bits, &value, sizeof bits);
        sum += mix64(((static_cast<std::uint64_t>(row) << 32) | col) ^
                     mix64(bits));
        ++nnz;
    }

    bool
    operator==(const Checksum &o) const
    {
        return nnz == o.nnz && sum == o.sum;
    }
};

struct Container
{
    std::string path;
    Index dim = 0;
    Checksum expected;
};

/**
 * Synthesize the seeded matrix strip by strip and append it to a
 * CbmWriter; returns the dimension and the checksum the streamed tiles
 * must reproduce.
 */
Container
writeContainer(const std::string &path, std::uint64_t seed,
               std::uint64_t nnzTarget)
{
    constexpr Index halfWidth = 3;
    constexpr std::size_t rails = 2;
    const auto dim = static_cast<Index>(
        nnzTarget / (2 * halfWidth + 1 + rails) / stripRows * stripRows);
    Container c;
    c.path = path;
    c.dim = dim;
    Rng rng(seed);
    CbmWriter writer(path, dim, dim, /*epoch=*/seed);
    std::vector<Triplet> block;
    std::vector<Index> cols;
    for (Index strip = 0; strip < dim / stripRows; ++strip) {
        Tracer::leaf(Layer::Bench, [&] {
            Index railBase[rails];
            for (auto &base : railBase)
                base = static_cast<Index>(rng.below(dim));
            block.clear();
            for (Index i = 0; i < stripRows; ++i) {
                const Index r = strip * stripRows + i;
                cols.clear();
                const Index lo = r >= halfWidth ? r - halfWidth : 0;
                const Index hi = std::min(r + halfWidth, dim - 1);
                for (Index col = lo; col <= hi; ++col)
                    cols.push_back(col);
                for (std::size_t k = 0; k < rails; ++k)
                    cols.push_back((railBase[k] + i) % dim);
                std::sort(cols.begin(), cols.end());
                cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
                for (Index col : cols) {
                    const auto value =
                        static_cast<Value>(0.5 + rng.uniform());
                    block.push_back({r, col, value});
                    c.expected.add(r, col, value);
                }
            }
            return 0;
        });
        Tracer::leaf(Layer::CbmWrite, [&] {
            for (const Triplet &t : block)
                writer.append(t);
            return 0;
        });
    }
    Tracer::leaf(Layer::CbmWrite, [&] { return writer.finish(); });
    return c;
}

struct Pass
{
    double seconds = 0;
    Checksum seen;
    StreamPartitionStats stats;
};

Pass
streamPass(const Container &c)
{
    Pass pass;
    const Index p = static_cast<Index>(specNumber(name, "partition_size"));
    const Clock::time_point start = Clock::now();
    const CbmReader reader(c.path);
    {
        const Span span(Layer::StreamPartition);
        pass.stats = forEachTileStreaming(
            reader, p, StreamPartitionOptions{}, [&](Tile &&tile) {
                Tracer::leaf(Layer::Bench, [&] {
                    const Index rowBase = tile.tileRow() * p;
                    const Index colBase = tile.tileCol() * p;
                    for (const TileNonzero &nz : tile.nonzeros())
                        pass.seen.add(rowBase + nz.row, colBase + nz.col,
                                      nz.value);
                    return 0;
                });
            });
    }
    pass.seconds = secondsSince(start);
    return pass;
}

void
checkPass(Outcome &out, const Container &c, const Pass &pass)
{
    ++out.attempted;
    const bool ok = pass.seen == c.expected;
    if (!ok)
        ++out.failed;
    out.check(pass.seen.nnz == c.expected.nnz,
              "cbm_stream: streamed tile nnz " + std::to_string(pass.seen.nnz) +
                  " != container nnz " + std::to_string(c.expected.nnz));
    out.check(ok, "cbm_stream: streamed tile checksum differs from the one "
                  "recorded when the container was written");
}

} // namespace

Outcome
runCbmStream(const Args &args)
{
    Outcome out;
    const auto nnzTarget =
        static_cast<std::uint64_t>(specNumber(name, "nnz_target"));
    const std::string path =
        args.scratch + "/perfbench-" + std::to_string(::getpid()) + ".cbm";
    struct Remove
    {
        const std::string &path;
        ~Remove() { std::remove(path.c_str()); }
    } remove{path};

    if (!args.trace) {
        std::vector<double> setups;
        Container c;
        for (int i = 0; i < static_cast<int>(specNumber(name, "setup_repeats"));
             ++i) {
            const Clock::time_point start = Clock::now();
            c = writeContainer(path, args.seed, nnzTarget);
            setups.push_back(secondsSince(start));
        }
        std::vector<double> passMs;
        std::vector<double> rates;
        const Clock::time_point start = Clock::now();
        double last = 0;
        do {
            const Pass pass = streamPass(c);
            checkPass(out, c, pass);
            last = pass.seconds;
            passMs.push_back(pass.seconds * 1e3);
            rates.push_back(static_cast<double>(pass.seen.nnz) / pass.seconds);
        } while (secondsSince(start) + last <= args.seconds);
        out.set("setup_s", median(setups), "s");
        out.set("peak_rss_mb", peakRssMb(), "MB");
        out.set("throughput_per_s", median(rates), "1/s");
        out.set("p50_ms", quantile(passMs, 0.5), "ms");
        out.set("p90_ms", quantile(passMs, 0.9), "ms");
        return out;
    }

    Tracer &tracer = Tracer::instance();
    tracer.reset();
    const Container c = writeContainer(path, args.seed, nnzTarget);
    const Pass untraced = streamPass(c);
    checkPass(out, c, untraced);

    tracer.setEnabled(true);
    const Clock::time_point replayStart = Clock::now();
    const Container traced = [&] {
        const Span span(Layer::CbmWrite);
        return writeContainer(path, args.seed, nnzTarget);
    }();
    const Pass pass = streamPass(traced);
    const double replaySeconds = secondsSince(replayStart);
    tracer.setEnabled(false);
    checkPass(out, traced, pass);

    // Overhead compares the traced pass with the untraced one; the
    // write is replayed only to split its time between the writer and
    // the synthesizer.
    reportLedger(out, tracer.totals(), pass.seconds, replaySeconds,
                 untraced.seconds);
    out.set("store.source_scans", static_cast<double>(pass.stats.sourceScans),
            "count");
    out.set("store.peak_buffered_nnz",
            static_cast<double>(pass.stats.peakBufferedNnz), "count");
    tracer.writeChromeTrace(args.scratch + "/perfbench-trace-cbm_stream.json");
    return out;
}

} // namespace perfbench
