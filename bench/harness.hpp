#pragma once

/// Shared harness for the figure benches: each bench binary regenerates one
/// table/figure from the paper's evaluation section (see DESIGN.md's
/// experiment index). Output is the same series the paper plots, as an
/// aligned text table plus optional CSV.

#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace mwsim::bench {

/// Description of one throughput figure (throughput vs. client count, one
/// curve per configuration).
struct FigureSpec {
  const char* id;     // e.g. "Figure 5"
  const char* title;  // e.g. "Online bookstore throughput, shopping mix"
  /// What the paper reports, for side-by-side reading of the output.
  const char* paperExpectation;
  core::App app = core::App::Bookstore;
  int mix = 1;
  std::vector<int> clients;
  /// Client counts probed to locate each configuration's peak (CPU figures).
  std::vector<int> peakCandidates;
  /// Configurations to run (defaults to all six).
  std::vector<core::Configuration> configs = core::allConfigurations();
};

/// Common CLI options for all benches:
///   --measure-sec N   measurement window (default 60)
///   --rampup-sec N    ramp-up (default: the core ExperimentParams default)
///   --seed N
///   --jobs N          worker threads for independent sweep points
///                     (default 1 = sequential; 0 = one per hardware thread).
///                     Output is byte-identical for every jobs value.
///   --quick           halve the sweep points
///   --csv             also emit CSV
///   --full-scale      paper-sized database history tables
///   --breakdown       per-tier latency attribution tables (throughput
///                     figures: at the largest client count; CPU figures:
///                     at each configuration's located peak)
///   --trace-out FILE  Chrome-trace/Perfetto JSON for the first
///                     configuration's traced point (with metrics on, the
///                     stream also carries the sampled counter tracks)
///   --metrics-out FILE  metrics JSON (series + verdict) for the first
///                     configuration's peak point
///   --no-metrics      attach no metrics report and print no verdicts
///                     (every run still samples; results are unchanged);
///                     rejected together with --metrics-out
struct BenchOptions {
  double measureSec = 60;
  /// Single source of truth is ExperimentParams::rampUp; this only exists
  /// so --rampup-sec can override it.
  double rampUpSec = sim::toSeconds(core::ExperimentParams{}.rampUp);
  std::uint64_t seed = 1;
  int jobs = 1;
  bool quick = false;
  bool csv = false;
  bool fullScale = false;
  bool breakdown = false;
  bool noMetrics = false;
  std::string traceOut;
  std::string metricsOut;

  bool tracing() const { return breakdown || !traceOut.empty(); }
  bool metrics() const { return obs::kEnabled && !noMetrics; }

  static BenchOptions parse(int argc, char** argv);
  core::ExperimentParams baseParams(const FigureSpec& spec) const;
  /// SweepOptions carrying --jobs plus a stderr per-point progress printer.
  core::SweepOptions sweepOptions() const;
};

/// Prints the per-tier attribution table for one traced point (the
/// --breakdown output). Used by the figure runners and the table benches.
void printBreakdown(const char* configName, int clients, const trace::Report& report);

/// Prints a scenario run's whole-run trajectory (stats::TimeSeries) as a
/// table: one row per bucket with ok-throughput, errors, shed arrivals and
/// response-time stats. Used by the scenario benches (ext_flash_crowd,
/// ext_failover).
void printTimeSeries(const char* label, const stats::TimeSeries& series);

/// Writes Chrome-trace JSON to `path` (stderr note on success/failure).
/// When `metrics` is non-null, the stream also carries the sampled series
/// as Perfetto counter tracks.
void writeTraceFile(const std::string& path, const trace::Report& report,
                    const obs::MetricsReport* metrics = nullptr);

/// Writes the --metrics-out JSON (series + verdict) to `path`.
void writeMetricsFile(const std::string& path, const obs::MetricsReport& report);

/// Prints one "verdict[<label>]: ..." line for a run's bottleneck verdict;
/// silently does nothing when the run carried no metrics.
void printVerdict(const char* label, int clients, const core::ExperimentResult& result);

/// Runs a throughput-vs-clients figure: one curve per configuration.
int runThroughputFigure(const FigureSpec& spec, int argc, char** argv);

/// Runs a CPU-utilization-at-peak figure: finds each configuration's peak
/// over `peakCandidates` and prints per-machine CPU (and web NIC) at it.
int runCpuFigure(const FigureSpec& spec, int argc, char** argv);

}  // namespace mwsim::bench
