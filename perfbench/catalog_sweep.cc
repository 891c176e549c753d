/**
 * @file
 * catalog_sweep: the paper reproduction. One Study::run over the 20
 * Table-1 surrogates x the 8 paper formats x p in {8, 16, 32}, once
 * with second-stage compression off and once with it on (the fig10
 * pair), each from a cleared encode cache at a fixed lane count.
 * Generating the catalog is set-up; the sweep is the measured unit.
 *
 * The inputs are the paper's fixed catalog, registered in Table-1 order,
 * whatever the seed: the digests recorded in spec.json pin the rows,
 * and a seeded registration order made the peak RSS of a run move 10%
 * with the seed (against 3% for a fixed order).
 */

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common.hh"
#include "common/fnv.hh"
#include "formats/encode_cache.hh"
#include "replay.hh"
#include "workloads/suite_catalog.hh"

namespace perfbench {

using namespace copernicus;

namespace {

constexpr std::string_view name = "catalog_sweep";

struct Catalog
{
    std::vector<std::string> ids;
    std::vector<TripletMatrix> matrices;
};

Catalog
generateCatalog(std::uint64_t seed)
{
    Catalog cat;
    for (const SuiteMatrixInfo &info : suiteCatalog()) {
        const Span span(Layer::Generate);
        cat.ids.push_back(info.id);
        cat.matrices.push_back(info.generate(seed));
    }
    return cat;
}

StudyConfig
sweepConfig(bool compressed)
{
    StudyConfig cfg;
    cfg.partitionSizes = {8, 16, 32};
    cfg.formats = paperFormats();
    cfg.jobs = static_cast<unsigned>(specNumber(name, "lanes"));
    cfg.hls.secondStageCompression = compressed;
    return cfg;
}

/**
 * Digest of the simulated statistics of @p result, independent of the
 * registration order: rows are sorted by (workload, format, p) first.
 * With @p modelOnly, only the statistics second-stage byte counts do
 * not feed (sigma, compute cycles, partitions).
 */
std::string
rowsDigest(const StudyResult &result, bool modelOnly)
{
    std::vector<const StudyRow *> rows;
    for (const StudyRow &row : result.rows)
        rows.push_back(&row);
    std::sort(rows.begin(), rows.end(), [](const StudyRow *a, const StudyRow *b) {
        return std::tie(a->workload, a->format, a->partitionSize) <
               std::tie(b->workload, b->format, b->partitionSize);
    });
    std::uint64_t h = fnvOffsetBasis;
    for (const StudyRow *row : rows) {
        h = fnv1a(row->workload.data(), row->workload.size(), h);
        const std::string_view format = formatName(row->format);
        h = fnv1a(format.data(), format.size(), h);
        h = fnv1aValue(row->partitionSize, h);
        h = fnv1aValue(row->meanSigma, h);
        h = fnv1aValue(row->computeCycles, h);
        h = fnv1aValue(static_cast<std::uint64_t>(row->partitions), h);
        if (modelOnly)
            continue;
        h = fnv1aValue(row->totalCycles, h);
        h = fnv1aValue(row->seconds, h);
        h = fnv1aValue(row->memoryCycles, h);
        h = fnv1aValue(row->balanceRatio, h);
        h = fnv1aValue(row->throughput, h);
        h = fnv1aValue(row->bandwidthUtilization, h);
        h = fnv1aValue(row->totalBytes, h);
    }
    char text[17];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(h));
    return text;
}

struct Sweep
{
    StudyResult result;
    double seconds = 0;
    std::uint64_t tileEvals = 0;
};

Sweep
runSweep(const Catalog &cat, bool compressed)
{
    EncodeCache::global().clear();
    Study study(sweepConfig(compressed));
    for (std::size_t i = 0; i < cat.ids.size(); ++i)
        study.addWorkload(cat.ids[i], cat.matrices[i]);
    Sweep sweep;
    const Clock::time_point start = Clock::now();
    sweep.result = study.run();
    sweep.seconds = secondsSince(start);
    for (const StudyRow &row : sweep.result.rows)
        sweep.tileEvals += row.partitions;
    return sweep;
}

std::string
recorded(std::string_view key)
{
    return spec().find("workloads")->find(name)->stringOr(key, "");
}

/**
 * The correctness checks of one off/on pair.
 *
 * Every statistic of the compression-off half must reproduce the
 * recorded digest. The compression-on half is held to the statistics
 * its stored byte counts do not feed, plus stored <= raw per design
 * point: at this commit lz4Compress keeps a never-cleared thread-local
 * match table, so a tile's compressed size depends on what its thread
 * compressed before, and the byte-fed statistics change with the
 * registration order and the lane schedule. The traced run counts the
 * design points this moves (compress.history_dependent_rows).
 */
void
checkPair(Outcome &out, const Sweep &off, const Sweep &on)
{
    const std::string digestOff = rowsDigest(off.result, false);
    const std::string digestOnModel = rowsDigest(on.result, true);
    out.check(digestOff == recorded("digest_off"),
              "catalog_sweep: compression-off rows digest " + digestOff +
                  " != recorded " + recorded("digest_off"));
    out.check(digestOnModel == recorded("digest_on_model"),
              "catalog_sweep: compression-on model digest " + digestOnModel +
                  " != recorded " + recorded("digest_on_model"));
    bool bytesOk = off.result.rows.size() == on.result.rows.size();
    for (std::size_t i = 0; bytesOk && i < off.result.rows.size(); ++i)
        bytesOk = on.result.rows[i].totalBytes <= off.result.rows[i].totalBytes;
    out.check(bytesOk, "catalog_sweep: a design point moved more bytes "
                       "with second-stage compression on than off");
}

} // namespace

Outcome
runCatalogSweep(const Args &args)
{
    Outcome out;
    const auto surrogateSeed =
        static_cast<std::uint64_t>(specNumber(name, "surrogate_seed"));

    if (!args.trace) {
        std::vector<double> setups;
        Catalog cat;
        for (int i = 0; i < static_cast<int>(specNumber(name, "setup_repeats"));
             ++i) {
            const Clock::time_point start = Clock::now();
            cat = generateCatalog(surrogateSeed);
            setups.push_back(secondsSince(start));
        }

        std::vector<double> unitsMs;
        std::vector<double> pairRates;
        const Clock::time_point start = Clock::now();
        double pairSeconds = 0;
        do {
            const Sweep off = runSweep(cat, false);
            const Sweep on = runSweep(cat, true);
            checkPair(out, off, on);
            out.attempted += off.result.rows.size() + on.result.rows.size();
            unitsMs.push_back(off.seconds * 1e3);
            unitsMs.push_back(on.seconds * 1e3);
            pairSeconds = off.seconds + on.seconds;
            pairRates.push_back(
                static_cast<double>(off.tileEvals + on.tileEvals) / pairSeconds);
        } while (secondsSince(start) + pairSeconds <= args.seconds);

        out.set("setup_s", median(setups), "s");
        out.set("peak_rss_mb", peakRssMb(), "MB");
        out.set("throughput_per_s", median(pairRates), "1/s");
        out.set("p50_ms", quantile(unitsMs, 0.5), "ms");
        out.set("p90_ms", quantile(unitsMs, 0.9), "ms");
        return out;
    }

    // Traced run: the untraced pair first (the path the end-to-end
    // metrics time, and the encode-cache counters), then the same sweep
    // replayed call by call under spans.
    Tracer &tracer = Tracer::instance();
    tracer.reset();
    tracer.setEnabled(true);
    const Catalog cat = generateCatalog(surrogateSeed);
    tracer.setEnabled(false);
    const Tracer::LayerTotals genTotals = tracer.totals();

    const EncodeCache::Stats before = EncodeCache::global().stats();
    const Sweep off = runSweep(cat, false);
    const Sweep on = runSweep(cat, true);
    const EncodeCache::Stats after = EncodeCache::global().stats();
    checkPair(out, off, on);
    out.attempted += off.result.rows.size() + on.result.rows.size();

    std::vector<const TripletMatrix *> workloads;
    for (const TripletMatrix &m : cat.matrices)
        workloads.push_back(&m);
    const unsigned lanes = static_cast<unsigned>(specNumber(name, "lanes"));
    tracer.reset();
    tracer.setEnabled(true);
    const Clock::time_point replayStart = Clock::now();
    EncodeCache::global().clear();
    const ReplayResult replayOff = replayStudy(workloads, sweepConfig(false), lanes);
    EncodeCache::global().clear();
    const ReplayResult replayOn = replayStudy(workloads, sweepConfig(true), lanes);
    const double replaySeconds = secondsSince(replayStart);
    tracer.setEnabled(false);
    out.check(replayMismatches(replayOff, off.result, true) == 0 &&
                  replayMismatches(replayOn, on.result, false) == 0,
              "catalog_sweep: the traced replay disagrees with Study::run");
    out.set("compress.history_dependent_rows",
            static_cast<double>(replayMismatches(replayOn, on.result, true)),
            "count");

    Tracer::LayerTotals totals = tracer.totals();
    // Generation is set-up, outside the replayed sweep; it is reported
    // from its own traced pass and kept out of the coverage share.
    const auto gen = static_cast<std::size_t>(Layer::Generate);
    totals.selfSeconds[gen] = genTotals.selfSeconds[gen];
    totals.calls[gen] = genTotals.calls[gen];
    Tracer::LayerTotals covered = totals;
    covered.selfSeconds[gen] = 0;
    reportLedger(out, covered, replaySeconds, replaySeconds * lanes,
                 off.seconds + on.seconds);
    out.set("workloads.generate_ms",
            totals.calls[gen] == 0
                ? 0
                : totals.selfSeconds[gen] / totals.calls[gen] * 1e3,
            "ms");

    const double hits = static_cast<double>(after.hits - before.hits);
    const double misses = static_cast<double>(after.misses - before.misses);
    out.set("formats.encode_cache_hits", hits, "count");
    out.set("formats.encode_cache_misses", misses, "count");
    out.set("formats.encode_cache_hit_frac",
            hits + misses > 0 ? hits / (hits + misses) : 0, "frac");
    out.set("formats.encode_cache_evictions",
            static_cast<double>(after.evictions - before.evictions), "count");
    out.set("compress.stored_over_raw",
            replayOn.rawBytes > 0 ? static_cast<double>(replayOn.storedBytes) /
                                        static_cast<double>(replayOn.rawBytes)
                                  : 0,
            "frac");
    tracer.writeChromeTrace(args.scratch + "/perfbench-trace-catalog_sweep.json");
    return out;
}

} // namespace perfbench
