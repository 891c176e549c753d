/**
 * @file
 * Golden parity suite for the sparse-native encode hot path.
 *
 * The partition -> feature -> encode pipeline was rewritten in PR 5 to
 * iterate only the non-zero structure. The hard contract of that
 * rewrite is *bit-identical* StudyResult output: these tests pin
 * `StudyResult::writeCsv` against golden CSVs generated from the seed
 * dense-scan implementation (commit 1e2eed7), across random matrices
 * spanning the paper's density range, band matrices, catalog
 * surrogates, every format, p in {8, 16, 32} and jobs in {1, 4}.
 *
 * A second golden, study_parity_compressed.csv, runs the same study
 * with second-stage compression on, pinning the stored bytes,
 * bandwidth utilization and memory cycles of every format under the
 * default CompressionPolicy.
 *
 * Regenerate the goldens (only ever from a known-good tree) with
 *   COPERNICUS_REGEN_GOLDEN=1 ./test_encode_parity
 * which rewrites both CSVs under tests/golden/ in the source tree.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/rng.hh"
#include "core/study.hh"
#include "workloads/generators.hh"
#include "workloads/suite_catalog.hh"

namespace {

using namespace copernicus;

constexpr Index parityDim = 256;

std::string
goldenPath(bool compressed = false)
{
    return std::string(COPERNICUS_GOLDEN_DIR) +
           (compressed ? "/study_parity_compressed.csv"
                       : "/study_parity.csv");
}

Study
makeParityStudy(unsigned jobs, bool compressed)
{
    StudyConfig cfg;
    cfg.partitionSizes = {8, 16, 32};
    cfg.formats = allFormats();
    cfg.jobs = jobs;
    cfg.hls.secondStageCompression = compressed;
    Study study(std::move(cfg));

    const std::vector<double> densities = {0.0001, 0.001, 0.01, 0.1,
                                           0.5};
    for (std::size_t i = 0; i < densities.size(); ++i) {
        std::uint64_t sm = 0xC0FFEE + i;
        Rng rng(splitMix64(sm));
        std::ostringstream name;
        name << "rand_d" << densities[i];
        study.addWorkload(name.str(),
                          randomMatrix(parityDim, densities[i], rng));
    }
    const std::vector<Index> widths = {1, 8};
    for (std::size_t i = 0; i < widths.size(); ++i) {
        std::uint64_t sm = 0xBA5D00 + i;
        Rng rng(splitMix64(sm));
        study.addWorkload("band_w" + std::to_string(widths[i]),
                          bandMatrix(parityDim, widths[i], rng));
    }
    const auto &catalog = suiteCatalog();
    for (std::size_t i = 0; i < 2 && i < catalog.size(); ++i) {
        SuiteMatrixInfo scaled = catalog[i];
        scaled.surrogateDim = parityDim;
        study.addWorkload("cat_" + scaled.id,
                          scaled.generate(0xC0FFEE));
    }
    return study;
}

std::string
runParityCsv(unsigned jobs, bool compressed = false)
{
    std::ostringstream out;
    makeParityStudy(jobs, compressed).run().writeCsv(out);
    return out.str();
}

std::string
loadGolden(bool compressed = false)
{
    const std::string path = goldenPath(compressed);
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

bool
regenRequested()
{
    const char *env = std::getenv("COPERNICUS_REGEN_GOLDEN");
    return env != nullptr && env[0] == '1';
}

/** Line-wise diff summary so a mismatch is debuggable, not a blob. */
void
expectCsvEqual(const std::string &got, const std::string &golden)
{
    if (got == golden)
        return;
    std::istringstream a(got), b(golden);
    std::string la, lb;
    std::size_t line = 0;
    while (std::getline(a, la) && std::getline(b, lb)) {
        ++line;
        ASSERT_EQ(la, lb) << "first CSV mismatch at line " << line;
    }
    FAIL() << "CSV row count differs from golden (got "
           << std::count(got.begin(), got.end(), '\n') << " vs "
           << std::count(golden.begin(), golden.end(), '\n')
           << " lines)";
}

TEST(EncodeParity, StudyCsvMatchesSeedGoldenSerial)
{
    const std::string csv = runParityCsv(1);
    if (regenRequested()) {
        std::ofstream out(goldenPath());
        ASSERT_TRUE(out.good()) << "cannot write " << goldenPath();
        out << csv;
        GTEST_SKIP() << "regenerated " << goldenPath();
    }
    expectCsvEqual(csv, loadGolden());
}

TEST(EncodeParity, StudyCsvMatchesSeedGoldenParallel)
{
    if (regenRequested())
        GTEST_SKIP() << "regen mode";
    expectCsvEqual(runParityCsv(4), loadGolden());
}

TEST(EncodeParity, CompressedStudyCsvMatchesGolden)
{
    const std::string serial = runParityCsv(1, true);
    if (regenRequested()) {
        std::ofstream out(goldenPath(true));
        ASSERT_TRUE(out.good()) << "cannot write " << goldenPath(true);
        out << serial;
        GTEST_SKIP() << "regenerated " << goldenPath(true);
    }
    const std::string golden = loadGolden(true);
    expectCsvEqual(serial, golden);
    expectCsvEqual(runParityCsv(4, true), golden);
}

} // namespace
