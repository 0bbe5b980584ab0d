#include "bench/harness.hpp"

#include <cstdio>

#include "core/parallel.hpp"
#include "obs/analyzer.hpp"
#include "stats/report.hpp"

namespace mwsim::bench {

namespace {

std::vector<int> thin(const std::vector<int>& points) {
  if (points.size() <= 3) return points;
  std::vector<int> out;
  for (std::size_t i = 0; i < points.size(); i += 2) out.push_back(points[i]);
  if (out.back() != points.back()) out.push_back(points.back());
  return out;
}

void printHeader(const FigureSpec& spec, const BenchOptions& opts) {
  std::printf("== %s: %s ==\n", spec.id, spec.title);
  std::printf("paper: %s\n", spec.paperExpectation);
  // The jobs count deliberately stays out of stdout: output is byte-identical
  // for any --jobs value, so it goes to stderr with the progress lines.
  std::printf("(measure %.0fs, ramp-up %.0fs, seed %llu%s)\n\n", opts.measureSec,
              opts.rampUpSec, static_cast<unsigned long long>(opts.seed),
              opts.fullScale ? ", full-scale database" : "");
  if (opts.jobs > 1) std::fprintf(stderr, "  (--jobs %u worker threads)\n", opts.jobs);
  std::fflush(stdout);
}

}  // namespace

void BenchOptions::declare(cli::Parser& parser, unsigned extra) {
  parser.add("--measure-sec", measureSec, "measurement window, simulated seconds")
      .add("--rampup-sec", rampUpSec, "ramp-up before the window, simulated seconds")
      .add("--seed", seed, "root seed; every point derives its own from it")
      .add("--jobs", jobs, "worker threads for independent points, 0 = one per hardware thread")
      .add("--full-scale", fullScale, "paper-sized database history tables");
  if (extra & kQuick) parser.add("--quick", quick, "halve the sweep points");
  if (extra & kCsv) parser.add("--csv", csv, "also print the results as CSV");
  if (extra & kBreakdown) {
    parser.add("--breakdown", breakdown, "print per-tier latency attribution tables");
  }
  if (extra & kTraceOut) {
    parser.add("--trace-out", traceOut,
               "write the first configuration's traced point as Chrome-trace JSON");
  }
  if (extra & kMetricsOut) {
    parser.add("--metrics-out", metricsOut,
               "write the first configuration's peak-point metrics and verdict as JSON");
  }
  if (extra & kNoMetrics) {
    parser.add("--no-metrics", noMetrics, "print no bottleneck verdicts (results are unchanged)");
  }
  parser.check([this] {
    return noMetrics && !metricsOut.empty()
               ? std::string("--no-metrics and --metrics-out conflict: --metrics-out writes "
                             "the report that --no-metrics drops")
               : std::string();
  });
}

void BenchOptions::parse(cli::Parser& parser, int argc, char** argv, unsigned extra) {
  declare(parser, extra);
  parser.parse(argc, argv);
  if (jobs == 0) jobs = static_cast<unsigned>(core::defaultJobCount());
}

BenchOptions BenchOptions::parse(std::string summary, int argc, char** argv, unsigned extra) {
  BenchOptions opts;
  cli::Parser parser(std::move(summary));
  opts.parse(parser, argc, argv, extra);
  return opts;
}

void printBreakdown(const char* configName, int clients, const trace::Report& report) {
  std::printf("\nper-tier latency attribution: %s at %d clients\n", configName, clients);
  if (report.traces == 0) {
    std::printf("  (no traces collected)\n");
    return;
  }
  const double n = static_cast<double>(report.traces);
  stats::TextTable table({"tier", "spans/req", "cpu-service", "cpu-queue", "lock-wait",
                          "net-transfer", "other", "total ms/req"});
  auto addRow = [&](const std::string& name, double spansPerReq,
                    const std::array<sim::Duration, trace::kCategoryCount>& excl) {
    std::vector<std::string> row{name, stats::fmt(spansPerReq, 1)};
    sim::Duration total = 0;
    for (std::size_t c = 0; c < trace::kCategoryCount; ++c) {
      row.push_back(stats::fmt(static_cast<double>(excl[c]) / n / 1e6, 2));
      total += excl[c];
    }
    row.push_back(stats::fmt(static_cast<double>(total) / n / 1e6, 2));
    table.addRow(std::move(row));
  };
  double totalSpansPerReq = 0;
  for (const trace::TierStats& tier : report.tiers) {
    if (tier.spans == 0) continue;
    totalSpansPerReq += static_cast<double>(tier.spans) / n;
    addRow(tier.name, static_cast<double>(tier.spans) / n, tier.exclNs);
  }
  addRow("(all tiers)", totalSpansPerReq, report.exclNs);
  std::printf("%s", table.str().c_str());
  std::printf("end-to-end: mean %.1f ms, p90 %.1f ms over %llu traced interactions\n",
              report.endToEndSec.mean() * 1e3, report.endToEndSec.percentile(90) * 1e3,
              static_cast<unsigned long long>(report.traces));
  std::fflush(stdout);
}

void printTimeSeries(const char* label, const stats::TimeSeries& series) {
  std::printf("\ntrajectory: %s (bucket %.0fs)\n", label,
              sim::toSeconds(series.interval()));
  stats::TextTable table({"t (s)", "ok/min", "errors", "shed", "mean RT ms", "max RT ms"});
  const auto& buckets = series.buckets();
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const auto& b = buckets[i];
    table.addRow({stats::fmt(sim::toSeconds(series.bucketStart(i)), 0),
                  stats::fmt(series.okPerMinute(i), 0),
                  std::to_string(b.errors), std::to_string(b.shed),
                  stats::fmt(b.meanResponseSec() * 1e3, 1),
                  stats::fmt(b.maxResponseSec * 1e3, 1)});
  }
  std::printf("%s", table.str().c_str());
  std::fflush(stdout);
}

void writeTraceFile(const std::string& path, const trace::Report& report,
                    const obs::MetricsReport* metrics) {
  const std::string extra =
      metrics != nullptr ? obs::counterTrackEvents(*metrics) : std::string();
  const std::string json = trace::chromeTraceJson(report, extra);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "  cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "  wrote %zu traces%s to %s\n", report.retained.size(),
               extra.empty() ? "" : " + counter tracks", path.c_str());
}

void writeMetricsFile(const std::string& path, const obs::MetricsReport& report) {
  const std::string json = obs::metricsJson(report);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "  cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "  wrote metrics JSON to %s\n", path.c_str());
}

void printVerdict(const char* label, int clients, const core::ExperimentResult& result) {
  if (!result.metrics) return;
  std::printf("  verdict[%s at %d clients]: %s\n", label, clients,
              result.metrics->verdict.oneLine().c_str());
  std::fflush(stdout);
}

core::SweepOptions BenchOptions::sweepOptions() const {
  core::SweepOptions sweep;
  sweep.jobs = static_cast<int>(jobs);
  sweep.onResult = [](std::size_t, const core::ExperimentParams& params,
                      const core::ExperimentResult& result) {
    std::fprintf(stderr, "  [%s %d clients] %.0f ipm\n",
                 core::configurationName(params.config), params.clients,
                 result.throughputIpm);
  };
  return sweep;
}

core::ExperimentParams BenchOptions::baseParams(const FigureSpec& spec) const {
  core::ExperimentParams params;
  params.app = spec.app;
  params.mix = spec.mix;
  params.seed = seed;
  params.rampUp = sim::fromSeconds(rampUpSec);
  params.measure = sim::fromSeconds(measureSec);
  params.rampDown = sim::fromSeconds(5);
  if (fullScale) {
    params.bookstoreScale = 1.0;
    params.auctionHistoryScale = 1.0;
    params.bbsHistoryScale = 1.0;
  }
  // The metrics report is attached by default, so every figure bench prints
  // its bottleneck verdict; every run samples either way.
  params.metrics.enabled = metrics();
  return params;
}

int runThroughputFigure(const FigureSpec& spec, int argc, char** argv) {
  const BenchOptions opts =
      BenchOptions::parse(spec.summary(), argc, argv,
                          kQuick | kCsv | kBreakdown | kTraceOut | kMetricsOut | kNoMetrics);
  printHeader(spec, opts);

  const std::vector<int> points = opts.quick ? thin(spec.clients) : spec.clients;

  std::vector<std::string> headers{"clients"};
  for (auto c : spec.configs) headers.push_back(core::configurationName(c));
  stats::TextTable table(headers);
  stats::CsvWriter csv(headers);

  // Points are built by hand (in sweepGrid's config-major order, via the
  // same pointParams) so tracing can be switched on per point: results are
  // unchanged either way, only observed.
  const core::ExperimentParams base = opts.baseParams(spec);
  std::vector<core::ExperimentParams> flatPoints;
  flatPoints.reserve(spec.configs.size() * points.size());
  for (auto config : spec.configs) {
    for (int clients : points) {
      core::ExperimentParams p = core::pointParams(base, config, clients);
      if (opts.tracing() && clients == points.back()) {
        p.trace.enabled = true;
        // Verbatim span trees are only kept where JSON will be exported.
        p.trace.maxRetainedTraces =
            (!opts.traceOut.empty() && config == spec.configs.front()) ? 2000 : 0;
      }
      flatPoints.push_back(p);
    }
  }
  const auto flat = core::runMany(flatPoints, opts.sweepOptions());
  std::vector<std::vector<core::ExperimentResult>> grid(spec.configs.size());
  for (std::size_t ci = 0; ci < spec.configs.size(); ++ci) {
    grid[ci].assign(flat.begin() + static_cast<std::ptrdiff_t>(ci * points.size()),
                    flat.begin() + static_cast<std::ptrdiff_t>((ci + 1) * points.size()));
  }
  std::vector<std::vector<double>> curves(spec.configs.size());
  for (std::size_t ci = 0; ci < spec.configs.size(); ++ci) {
    for (const auto& result : grid[ci]) curves[ci].push_back(result.throughputIpm);
  }

  for (std::size_t p = 0; p < points.size(); ++p) {
    std::vector<std::string> row{std::to_string(points[p])};
    for (std::size_t ci = 0; ci < spec.configs.size(); ++ci) {
      row.push_back(stats::fmt(curves[ci][p], 0));
    }
    table.addRow(row);
    csv.addRow(row);
  }
  std::printf("%s\n", table.str().c_str());

  std::printf("peak throughput (interactions/min):\n");
  std::vector<std::size_t> peakIdx(spec.configs.size(), 0);
  for (std::size_t ci = 0; ci < spec.configs.size(); ++ci) {
    double best = 0;
    int bestClients = 0;
    for (std::size_t p = 0; p < points.size(); ++p) {
      if (curves[ci][p] > best) {
        best = curves[ci][p];
        bestClients = points[p];
        peakIdx[ci] = p;
      }
    }
    std::printf("  %-22s %6.0f ipm at %d clients\n",
                core::configurationName(spec.configs[ci]), best, bestClients);
  }
  if (!flat.empty() && flat.front().metrics) {
    std::printf("\nbottleneck verdicts at peak:\n");
    for (std::size_t ci = 0; ci < spec.configs.size(); ++ci) {
      printVerdict(core::configurationName(spec.configs[ci]), points[peakIdx[ci]],
                   grid[ci][peakIdx[ci]]);
    }
  }
  if (!opts.metricsOut.empty() && grid.front()[peakIdx.front()].metrics) {
    writeMetricsFile(opts.metricsOut, *grid.front()[peakIdx.front()].metrics);
  }
  if (opts.breakdown) {
    for (std::size_t ci = 0; ci < spec.configs.size(); ++ci) {
      if (grid[ci].back().trace) {
        printBreakdown(core::configurationName(spec.configs[ci]), points.back(),
                       *grid[ci].back().trace);
      }
    }
  }
  if (!opts.traceOut.empty() && grid.front().back().trace) {
    writeTraceFile(opts.traceOut, *grid.front().back().trace,
                   grid.front().back().metrics.get());
  }
  if (opts.csv) std::printf("\nCSV:\n%s", csv.str().c_str());
  return 0;
}

int runCpuFigure(const FigureSpec& spec, int argc, char** argv) {
  const BenchOptions opts = BenchOptions::parse(
      spec.summary(), argc, argv, kQuick | kBreakdown | kTraceOut | kMetricsOut | kNoMetrics);
  printHeader(spec, opts);

  stats::TextTable table({"configuration", "peak ipm", "clients", "WebServer", "Database",
                          "Servlet", "EJB", "web NIC Mb/s"});

  const std::vector<int> candidates =
      opts.quick ? thin(spec.peakCandidates) : spec.peakCandidates;

  // Same manual point construction as runThroughputFigure: every candidate
  // is traced (aggregates only) so the breakdown can be reported at
  // whichever candidate turns out to be the peak.
  const core::ExperimentParams base = opts.baseParams(spec);
  std::vector<core::ExperimentParams> flatPoints;
  flatPoints.reserve(spec.configs.size() * candidates.size());
  for (auto config : spec.configs) {
    for (int clients : candidates) {
      core::ExperimentParams p = core::pointParams(base, config, clients);
      if (opts.tracing()) {
        p.trace.enabled = true;
        p.trace.maxRetainedTraces =
            (!opts.traceOut.empty() && config == spec.configs.front()) ? 2000 : 0;
      }
      flatPoints.push_back(p);
    }
  }
  const auto flat = core::runMany(flatPoints, opts.sweepOptions());
  std::vector<std::vector<core::ExperimentResult>> grid(spec.configs.size());
  for (std::size_t ci = 0; ci < spec.configs.size(); ++ci) {
    grid[ci].assign(flat.begin() + static_cast<std::ptrdiff_t>(ci * candidates.size()),
                    flat.begin() +
                        static_cast<std::ptrdiff_t>((ci + 1) * candidates.size()));
  }

  std::vector<core::ExperimentResult> peaks;
  std::vector<int> peakClients;
  for (std::size_t ci = 0; ci < spec.configs.size(); ++ci) {
    const auto config = spec.configs[ci];
    core::ExperimentResult best;
    int bestClients = 0;
    // Same first-strict-maximum scan as the sequential loop used.
    for (std::size_t p = 0; p < candidates.size(); ++p) {
      if (grid[ci][p].throughputIpm > best.throughputIpm) {
        best = grid[ci][p];
        bestClients = candidates[p];
      }
    }
    auto cell = [&](const char* machine) -> std::string {
      const auto* u = best.machine(machine);
      return u ? stats::fmt(u->cpuUtilization * 100.0, 0) + "%" : "-";
    };
    const auto* web = best.machine("WebServer");
    table.addRow({core::configurationName(config), stats::fmt(best.throughputIpm, 0),
                  std::to_string(bestClients), cell("WebServer"), cell("Database"),
                  cell("Servlet Container"), cell("EJB Server"),
                  web ? stats::fmt(web->nicMbps, 1) : "-"});
    peaks.push_back(best);
    peakClients.push_back(bestClients);
  }
  std::printf("%s", table.str().c_str());
  if (!peaks.empty() && peaks.front().metrics) {
    std::printf("\nbottleneck verdicts at peak:\n");
    for (std::size_t ci = 0; ci < spec.configs.size(); ++ci) {
      printVerdict(core::configurationName(spec.configs[ci]), peakClients[ci],
                   peaks[ci]);
    }
  }
  if (!opts.metricsOut.empty() && !peaks.empty() && peaks.front().metrics) {
    writeMetricsFile(opts.metricsOut, *peaks.front().metrics);
  }
  if (opts.breakdown) {
    for (std::size_t ci = 0; ci < spec.configs.size(); ++ci) {
      if (peaks[ci].trace) {
        printBreakdown(core::configurationName(spec.configs[ci]), peakClients[ci],
                       *peaks[ci].trace);
      }
    }
  }
  if (!opts.traceOut.empty() && !peaks.empty() && peaks.front().trace) {
    writeTraceFile(opts.traceOut, *peaks.front().trace, peaks.front().metrics.get());
  }
  return 0;
}

}  // namespace mwsim::bench
