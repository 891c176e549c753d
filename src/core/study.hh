/**
 * @file
 * Study: the top-level characterization driver.
 *
 * A Study owns a set of named workloads and evaluates every requested
 * (format, partition size) pair over each of them, producing the rows
 * behind the paper's figures: per-design-point sigma, latency split,
 * balance ratio, throughput, bandwidth utilization, resources and
 * power. The bench binaries are thin wrappers that configure a Study
 * and print one table each.
 */

#ifndef COPERNICUS_CORE_STUDY_HH
#define COPERNICUS_CORE_STUDY_HH

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/summary.hh"
#include "fpga/power_model.hh"
#include "fpga/resource_model.hh"
#include "hls/hls_config.hh"
#include "matrix/triplet_matrix.hh"
#include "pipeline/stream_pipeline.hh"

namespace copernicus {

class SweepJournal;

/** What a Study evaluates. */
struct StudyConfig
{
    /** Partition sizes to sweep (paper: 8, 16, 32). */
    std::vector<Index> partitionSizes = {8, 16, 32};

    /** Formats to sweep (paper's eight by default). */
    std::vector<FormatKind> formats = paperFormats();

    /** Platform parameters. */
    HlsConfig hls;

    /** Codec hyperparameters. */
    FormatParams formatParams;

    /**
     * Execution lanes for run(): 0 = auto (COPERNICUS_JOBS / --jobs
     * override / hardware concurrency), 1 = serial, N = a pool of N
     * lanes for this sweep. Design points are pure and land in indexed
     * row slots, so the rows are bit-identical at any setting
     * (asserted by tests/test_parallel_study.cc). Per-partition
     * pipeline *traces* are only emitted on serial runs; parallel runs
     * report worker lanes instead.
     */
    unsigned jobs = 0;

    /**
     * Cooperative cancellation hook for long sweeps. run() calls it at
     * partition boundaries — before each design point starts streaming
     * its partitioning, never mid-partition — and throws CancelledError
     * as soon as it returns true; rows already evaluated are discarded.
     * The serve daemon wires its per-request deadline through this.
     * Must be thread-safe at jobs > 1 (workers poll it concurrently);
     * empty (the default) means never cancelled.
     */
    std::function<bool()> cancelCheck;

    /**
     * Optional checkpoint journal (store/sweep_journal.hh). When set,
     * run() skips design points the journal already holds — restoring
     * their rows verbatim — and records each freshly evaluated row as
     * soon as it finishes, so a killed sweep resumes mid-flight with
     * byte-identical output. The caller binds the journal to the
     * workload set and config (JournalIdentity) before handing it
     * over; Study trusts that binding.
     */
    std::shared_ptr<SweepJournal> journal;
};

/** One evaluated design point over one workload. */
struct StudyRow
{
    std::string workload;
    FormatKind format = FormatKind::Dense;
    Index partitionSize = 0;

    /** Mean per-partition sigma (Eq. 1). */
    double meanSigma = 0;

    /** End-to-end cycles / seconds for the whole matrix. */
    Cycles totalCycles = 0;
    double seconds = 0;

    /** Stage totals. */
    Cycles memoryCycles = 0;
    Cycles computeCycles = 0;

    /** Mean per-partition memory/compute ratio. */
    double balanceRatio = 0;

    /** Bytes per second. */
    double throughput = 0;

    /** Useful/total transferred bytes. */
    double bandwidthUtilization = 0;

    /** Bytes transferred (data + metadata). */
    Bytes totalBytes = 0;

    /** Non-zero partitions processed. */
    std::size_t partitions = 0;

    /** Resource and power estimates for this design point. */
    ResourceEstimate resources;
    PowerEstimate power;
};

/** All rows of a finished study. */
struct StudyResult
{
    std::vector<StudyRow> rows;

    /** Rows restricted to one partition size. */
    std::vector<StudyRow> atPartition(Index p) const;

    /**
     * Write every row as CSV (workload, format, p, sigma, cycles,
     * seconds, memory/compute cycles, balance, throughput, bw-util,
     * bytes, partitions, resources, power).
     */
    void writeCsv(std::ostream &out) const;

    /** Write CSV to @p path. */
    void writeCsvFile(const std::string &path) const;

    /**
     * Aggregate to one FormatMetrics per format (used by Fig. 14):
     * sigma/balance/bandwidth are averaged across rows, seconds and
     * bytes summed, throughput recomputed from the sums, power
     * averaged.
     */
    std::vector<FormatMetrics> aggregateByFormat() const;
};

/** Named-workload characterization driver. */
class Study
{
  public:
    explicit Study(StudyConfig config = StudyConfig());

    /** Register a workload; names must be unique. */
    void addWorkload(const std::string &name, TripletMatrix matrix);

    /** Number of registered workloads. */
    std::size_t workloads() const { return matrices.size(); }

    /**
     * Combined identity hash of the registered workload set — each
     * workload's name folded with its triplet content hash, in
     * registration order. This is the matrixHash a SweepJournal's
     * JournalIdentity binds to.
     */
    std::uint64_t workloadSetIdentity() const;

    /** Evaluate every (workload, format, partition size) triple. */
    StudyResult run() const;

    /** Evaluate one triple (workload must be registered). */
    StudyRow evaluate(const std::string &workload, FormatKind kind,
                      Index partitionSize) const;

    const StudyConfig &config() const { return cfg; }

  private:
    StudyRow makeRow(const std::string &workload,
                     const Partitioning &parts, FormatKind kind,
                     TraceSink *sink) const;

    StudyConfig cfg;
    FormatRegistry registry;
    std::vector<std::pair<std::string, TripletMatrix>> matrices;
};

} // namespace copernicus

#endif // COPERNICUS_CORE_STUDY_HH
