#pragma once

/// Shared harness for the figure benches: each bench binary regenerates one
/// table/figure from the paper's evaluation section (see DESIGN.md's
/// experiment index). Output is the same series the paper plots, as an
/// aligned text table plus optional CSV.

#include <string>
#include <vector>

#include "bench/cli.hpp"
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

  /// The bench's --help summary.
  std::string summary() const { return std::string(id) + ": " + title; }
};

/// The common bench flags beyond the five every bench reads (--measure-sec,
/// --rampup-sec, --seed, --jobs and --full-scale). A bench or's together the
/// ones it reads; BenchOptions::declare holds each flag's name and help line.
enum CommonFlags : unsigned {
  kQuick = 1u << 0,
  kCsv = 1u << 1,
  kBreakdown = 1u << 2,
  kTraceOut = 1u << 3,
  kMetricsOut = 1u << 4,
  kNoMetrics = 1u << 5,
};

/// Values of the common bench flags. The defaults are the field values.
struct BenchOptions {
  double measureSec = 60;
  /// Single source of truth is ExperimentParams::rampUp; this only exists
  /// so --rampup-sec can override it.
  double rampUpSec = sim::toSeconds(core::ExperimentParams{}.rampUp);
  std::uint64_t seed = 1;
  /// 0 on the command line means one per hardware thread; parse() resolves it.
  unsigned jobs = 1;
  bool quick = false;
  bool csv = false;
  bool fullScale = false;
  bool breakdown = false;
  bool noMetrics = false;
  std::string traceOut;
  std::string metricsOut;

  bool tracing() const { return breakdown || !traceOut.empty(); }
  bool metrics() const { return obs::kEnabled && !noMetrics; }

  /// Declares the five flags every bench reads and those in `extra` (a
  /// CommonFlags mask) on `parser`, each filling its field.
  void declare(cli::Parser& parser, unsigned extra);
  /// declare(), then cli::Parser::parse, which exits on bad input or --help.
  void parse(cli::Parser& parser, int argc, char** argv, unsigned extra);
  /// parse() for a bench with no flags of its own.
  static BenchOptions parse(std::string summary, int argc, char** argv, unsigned extra = 0);
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
