// Shared plumbing of the repository benchmark: command-line options, sample
// statistics, the per-run report (metrics, correctness gates, operation
// counts) and its JSON rendering, run metadata, and the fold of the Chrome
// trace_event spans into a per-layer self/inclusive table.
//
// A workload fills one Report. End-to-end metrics are measured with tracing
// off; per-layer metrics come from a separate traced pass plus replays of
// the nested layer calls on the workload's own inputs (see README.md).
#ifndef DPMM_PERFBENCH_HARNESS_H_
#define DPMM_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/metrics.h"
#include "util/stopwatch.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string commit = "unknown";
  std::string build_type = "unknown";
};

/// Timing samples in one unit; summaries use linear-interpolated quantiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t size() const { return values_.size(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Sum() const;
  /// batch_item_ms is a mean, not a median: a batch's cost sums a few
  /// discrete cases (misses in a served batch, PCG iteration counts), so
  /// its median jumps between levels from run to run.
  double Mean() const {
    return values_.empty() ? 0 : Sum() / static_cast<double>(size());
  }
  /// The highest of p99.9/p99/p95/p90/p75/p50 that has at least ten samples
  /// beyond it; returns its label ("p99") and writes the value. Empty label
  /// when fewer than twenty samples exist.
  std::string Tail(double* value) const;

 private:
  std::vector<double> values_;
};

/// Whether to repeat set-up once more, given the set-up times so far:
/// setup_s is the median over the repetitions.
/// An untraced run sets up at least 7 times and until 0.5 s of set-up has
/// passed, so a set-up of a millisecond still gets a steady median; a traced
/// run sets up once per pass.
bool MoreSetup(const Options& options, const Samples& setup_s);

/// One run's results: metrics (by name), correctness gates, operation counts.
class Report {
 public:
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
  /// A sample distribution behind a metric: recorded in the run record with
  /// its count, median and tail percentile.
  void Distribution(const std::string& name, const Samples& samples,
                    const std::string& unit);
  /// A correctness gate; a failing gate counts as one failed operation.
  void Gate(bool ok, const std::string& what);
  void Attempted(std::uint64_t n = 1) { attempted_ += n; }
  void Failed(const std::string& what);
  void Note(const std::string& key, const std::string& json_value);

  bool correct() const { return gate_failures_.empty() && failed_ == 0; }

  /// The contract line: {"correct", "attempted", "failed", "metrics"} with
  /// exactly the end-to-end metrics (untraced run) or the per-layer ones
  /// (traced); one the run did not measure (an idle layer, or a workload
  /// that failed early) reads 0.
  std::string ResultJson(bool trace) const;
  /// Everything: metadata, both metric sets, distributions, gates, notes.
  std::string RecordJson(const Options& options, const std::string& meta) const;
  void PrintSummary(bool trace) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> end_to_end_;
  std::map<std::string, Metric> layer_;
  std::vector<std::string> distributions_;  // rendered JSON members
  std::vector<std::string> gate_failures_;
  std::size_t gates_passed_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// Median milliseconds of a fixed single-thread job that uses no library
/// code (multiply-adds streamed over an 8 MiB buffer). It moves only with
/// the host's speed, so a shift between result sets that it shares is the
/// host's, not the code's.
double HostProbeMs();
/// Peak resident set size of this process, in MB.
double PeakRssMb();
/// JSON object of run metadata: host, CPU model, nproc, DPMM_THREADS,
/// commit, build type, seed, workload, seconds, trace flag.
std::string RunMetadata(const Options& options);
/// Sets DPMM_THREADS to `threads` unless the caller's environment set it;
/// must run before the first parallel region. Returns the value in force.
int ConfigurePoolThreads(int threads);
int HardwareThreads();

/// Removes a directory tree (a workload's temporary store).
void RemoveTree(const std::string& path);
/// Total bytes of the regular files under `path`.
std::uint64_t TreeBytes(const std::string& path);

/// The traced run's spans folded per category (layer): inclusive time of
/// the outermost spans of each category and self time (duration minus the
/// part covered by child spans on the same thread). Returns a JSON object
/// and prints the table.
std::string FoldTrace(const std::string& chrome_json, double wall_ns);

/// What a workload's traced pass hands back to TracedPass.
struct TracedRun {
  bool ok = false;
  double design_s = 0;  // the Design the pass timed (set-up or in the run)
  int iterations = 0;   // its solver iterations
  double op_p50 = 0;    // same measure as the untraced pass's op p50
};

/// Turns tracing on, runs `pass` and times it, then reports the per-layer
/// metrics every workload shares: the folded layer table (as a note),
/// util.thread_pool.region_share, optimize.design_ns,
/// optimize.solver_iterations and trace.overhead_pct (the traced op p50
/// against `plain_op_p50`, the untraced pass's). Returns the pass's ok.
bool TracedPass(double plain_op_p50, const std::function<TracedRun()>& pass,
                Report* report);

/// Registry histogram snapshot by name (zeroes when never registered).
dpmm::HistogramSnapshot RegistryHistogram(const std::string& name);
std::uint64_t RegistryCounter(const std::string& name);

/// Workload entry points: each fills the report for one run.
void RunDesignRelease3d(const Options& options, Report* report);
void RunServeZipf2d(const Options& options, Report* report);
void RunLedgerStoreChurn(const Options& options, Report* report);

/// Every end-to-end / per-layer metric name with its unit. Each run reports
/// exactly these (per-layer: zero where the workload leaves a layer idle).
using MetricNames = std::vector<std::pair<std::string, std::string>>;
const MetricNames& EndToEndMetricNames();
const MetricNames& LayerMetricNames();

}  // namespace perfbench

#endif  // DPMM_PERFBENCH_HARNESS_H_
