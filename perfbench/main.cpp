/// Host-time benchmark of the mwsim simulator: runs one workload (a fixed
/// set of experiment points) through core::runExperiment repeatedly for a
/// given number of seconds, checks every point's output, and prints the
/// metrics as a table followed by one JSON line. See README.md.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/dataset_cache.hpp"
#include "core/experiment.hpp"
#include "layer_trace.hpp"

namespace {

using namespace mwsim;
using perfbench::Counts;
using perfbench::Layer;
using perfbench::Span;
using perfbench::StmtClass;

// ---------------------------------------------------------------- workloads

struct PointSpec {
  core::Configuration config;
  int mix;
  /// The bottleneck the paper names for this configuration.
  const char* verdict;
};

struct Workload {
  const char* name;
  core::App app;
  int clients;
  std::vector<PointSpec> points;
};

/// Samples (client populations) an untraced run measures, each repeated as
/// often as the run's time allows.
constexpr std::uint64_t kSamples = 3;

const std::vector<Workload>& workloads() {
  using C = core::Configuration;
  static const std::vector<Workload> all = {
      // TPC-W scans: the SQL executor dominates.
      {"bookstore_browsing", core::App::Bookstore, 700,
       {{C::WsPhpDb, 0, "Database/cpu"}, {C::WsServletDbSync, 0, "Database/cpu"}}},
      // Largest dataset, writes beside reads: clone, teardown and writes.
      {"auction_bidding", core::App::Auction, 1100,
       {{C::WsPhpDb, 1, "WebServer/cpu"},
        {C::WsServletSepDbSync, 1, "Servlet Container/cpu"}}},
      // CMP entity beans: a flood of cheap statements, kernel dispatch dominates.
      {"bbs_ejb", core::App::BulletinBoard, 2000,
       {{C::WsServletEjbDb, 0, "EJB Server/cpu"}, {C::WsServletEjbDb, 1, "EJB Server/cpu"}}},
  };
  return all;
}

// ---------------------------------------------------------------------- CLI

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 45;
  bool trace = false;
  double rampUpSec = 5;
  double measureSec = 15;
  int clients = 0;  // 0: the workload's own client count
  std::string traceDir;  // traced runs write <dir>/<workload>.json
};

constexpr const char* kUsage =
    "usage: mwsim_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
    "                       [--rampup-sec S] [--measure-sec S] [--clients N]\n"
    "                       [--trace-dir DIR]\n"
    "workloads: bookstore_browsing, auction_bidding, bbs_ejb\n";

[[noreturn]] void usageError(const std::string& message) {
  std::fprintf(stderr, "mwsim_perfbench: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

double positiveNumber(std::string_view flag, std::string_view text) {
  double v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size() || !std::isfinite(v) || v <= 0) {
    usageError(std::string(flag) + " needs a positive number, got '" + std::string(text) + "'");
  }
  return v;
}

std::uint64_t unsignedNumber(std::string_view flag, std::string_view text) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size()) {
    usageError(std::string(flag) + " needs a whole number, got '" + std::string(text) + "'");
  }
  return v;
}

int positiveInt(std::string_view flag, std::string_view text) {
  const std::uint64_t v = unsignedNumber(flag, text);
  if (v == 0 || v > 1'000'000) {
    usageError(std::string(flag) + " needs a whole number from 1 to 1000000");
  }
  return static_cast<int>(v);
}

Options parseOptions(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--help") {
      std::printf("%s", kUsage);
      std::exit(0);
    }
    if (i + 1 >= argc) usageError("missing value for " + std::string(flag));
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      opts.workload = nullptr;
      for (const Workload& w : workloads()) {
        if (value == w.name) opts.workload = &w;
      }
      if (opts.workload == nullptr) usageError("unknown workload '" + std::string(value) + "'");
    } else if (flag == "--seed") {
      opts.seed = unsignedNumber(flag, value);
    } else if (flag == "--seconds") {
      opts.seconds = positiveNumber(flag, value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usageError("--trace takes 0 or 1");
      opts.trace = value == "1";
    } else if (flag == "--rampup-sec") {
      opts.rampUpSec = positiveNumber(flag, value);
    } else if (flag == "--measure-sec") {
      opts.measureSec = positiveNumber(flag, value);
    } else if (flag == "--clients") {
      opts.clients = positiveInt(flag, value);
    } else if (flag == "--trace-dir") {
      opts.traceDir = value;
    } else {
      usageError("unknown flag '" + std::string(flag) + "'");
    }
  }
  if (opts.workload == nullptr) usageError("--workload is required");
  return opts;
}

// ------------------------------------------------------------------ helpers

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set of this process (VmHWM), in MiB.
double peakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// FNV-1a over the bit patterns of a point's simulated results.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void digestResult(Digest& d, const core::ExperimentResult& r) {
  d.u64(r.interactions);
  d.u64(r.readWriteInteractions);
  d.u64(r.queries);
  d.f64(r.throughputIpm);
  d.f64(r.meanResponseSeconds);
  d.f64(r.p90ResponseSeconds);
  for (const stats::MachineUsage& u : r.usage) {
    d.str(u.name);
    d.f64(u.cpuUtilization);
    d.f64(u.nicMbps);
    d.f64(u.nicUtilization);
    d.u64(u.nicPackets);
    d.u64(static_cast<std::uint64_t>(u.memoryBytes));
  }
  d.u64(r.lockAcquisitions);
  d.u64(r.contendedLockAcquisitions);
  d.f64(r.lockWaitSeconds);
  d.f64(r.lockManagerWaitSeconds);
}

// ------------------------------------------------------------------ running

/// Parameters of one point of sample `sample`. Every sample clones the
/// dataset of --seed; each runs its own simulation streams (sample 0 those
/// of --seed itself), so a run times many client populations, not one.
core::ExperimentParams pointParams(const Options& opts, const PointSpec& spec,
                                   std::uint64_t sample) {
  core::ExperimentParams base;
  base.app = opts.workload->app;
  base.mix = spec.mix;
  base.seed = opts.seed;
  base.rampUp = sim::fromSeconds(opts.rampUpSec);
  base.measure = sim::fromSeconds(opts.measureSec);
  base.rampDown = sim::fromSeconds(5);
  base.metrics.enabled = obs::kEnabled;
  const int clients = opts.clients > 0 ? opts.clients : opts.workload->clients;
  base.dataSeed = core::pointParams(base, spec.config, clients).dataSeed;
  if (sample != 0) base.seed = sim::deriveSeed(opts.seed, sample);
  return core::pointParams(base, spec.config, clients);
}

/// Times the first DatasetCache::get of the workload's dataset (schema,
/// populate, one clone) at least five times and for at least three seconds,
/// emptying the cache before each; the last prototype stays cached for the
/// points. The first repetition runs on fresh process memory and takes 1.3 to
/// 1.9 times as long as the others, so the median falls among the warm ones.
/// The three seconds spread the 0.2 s bulletin-board set-up over more than
/// one of the host's bursts.
std::vector<double> timeSetup(const Options& opts) {
  const core::ExperimentParams p = pointParams(opts, opts.workload->points.front(), 0);
  const double scale = p.app == core::App::Bookstore ? p.bookstoreScale
                       : p.app == core::App::Auction ? p.auctionHistoryScale
                                                     : p.bbsHistoryScale;
  std::vector<double> out;
  const auto start = std::chrono::steady_clock::now();
  while (out.size() < 5 || secondsSince(start) < 3.0) {
    core::DatasetCache::global().clear();
    const auto t0 = std::chrono::steady_clock::now();
    const db::Database clone = core::DatasetCache::global().get(p.app, scale, p.dataSeed);
    out.push_back(secondsSince(t0));
  }
  std::fprintf(stderr, "  set-up:");
  for (const double s : out) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, " s\n");
  return out;
}

/// One run of every point of the workload with one sample's seeds.
struct Pass {
  std::uint64_t sample = 0;
  double wallS = 0;
  std::vector<double> pointS;  // host seconds of each point
  std::uint64_t digest = 0;
  std::uint64_t interactions = 0;  // in the measurement windows
  std::uint64_t queries = 0;
  std::uint64_t databaseBytes = 0;
  int failed = 0;
  Counts counts;
  std::size_t spanBegin = 0;
  std::size_t spanEnd = 0;
};

/// Empty when the point's output is what the paper predicts.
std::string checkPoint(const core::ExperimentResult& r, const PointSpec& spec) {
  if (r.webErrors != 0) return std::to_string(r.webErrors) + " web errors";
  if (r.interactions == 0) return "no interactions completed";
  if (!r.metrics) return "no metrics report";
  if (r.metrics->verdict.resource != spec.verdict) {
    return "bottleneck " + r.metrics->verdict.resource + ", expected " + spec.verdict;
  }
  return {};
}

Pass runPass(const Options& opts, std::uint64_t sample, bool traced, bool describe) {
  Pass pass;
  pass.sample = sample;
  pass.spanBegin = perfbench::spans().size();
  Digest digest;
  perfbench::setTracing(traced);
  const auto t0 = std::chrono::steady_clock::now();
  for (const PointSpec& spec : opts.workload->points) {
    const auto pointStart = std::chrono::steady_clock::now();
    const core::ExperimentParams params = pointParams(opts, spec, sample);
    const char* config = core::configurationName(spec.config);
    const char* mix = core::mixName(params.app, params.mix);
    std::string problem;
    try {
      const core::ExperimentResult r = core::runExperiment(params);
      digestResult(digest, r);
      pass.interactions += r.interactions;
      pass.queries += r.queries;
      pass.databaseBytes += r.databaseBytes;
      problem = checkPoint(r, spec);
      if (describe) {
        std::printf("  point %s %s %d clients: %llu interactions, %.1f ipm, verdict %s\n",
                    config, mix, params.clients,
                    static_cast<unsigned long long>(r.interactions), r.throughputIpm,
                    r.metrics ? r.metrics->verdict.resource.c_str() : "-");
      }
    } catch (const std::exception& e) {
      problem = std::string("threw: ") + e.what();
    }
    pass.pointS.push_back(secondsSince(pointStart));
    if (!problem.empty()) {
      ++pass.failed;
      std::fprintf(stderr, "FAILED point %s %s, sample %llu: %s\n", config, mix,
                   static_cast<unsigned long long>(sample), problem.c_str());
    }
  }
  pass.wallS = secondsSince(t0);
  perfbench::setTracing(false);
  pass.digest = digest.value();
  pass.counts = perfbench::takeCounts();
  pass.spanEnd = perfbench::spans().size();
  std::fprintf(stderr, "  sample %llu %s: %.3f s (points", static_cast<unsigned long long>(sample),
               traced ? "traced" : "untraced", pass.wallS);
  for (const double s : pass.pointS) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "), %llu interactions\n",
               static_cast<unsigned long long>(pass.interactions));
  return pass;
}

/// Parse and plan calls happen once per distinct statement in a process
/// (the statement and plan caches), so they stay out of pass comparisons.
Counts withoutParsePlan(Counts c) {
  c.calls[static_cast<int>(Layer::Parse)] = 0;
  c.calls[static_cast<int>(Layer::Plan)] = 0;
  return c;
}

// ---------------------------------------------------------------- the trace

/// Per-layer host seconds of one traced pass, from its spans.
struct LayerTimes {
  double run = 0, datasetGet = 0, wiringTeardown = 0;
  double exec = 0, select = 0, write = 0, parse = 0, plan = 0;
  double simRun = 0, dispatchSelf = 0, pumpGap = 0, analyze = 0;
};

LayerTimes layerTimes(const std::vector<Span>& spans, std::size_t begin, std::size_t end) {
  LayerTimes t;
  double runSelf = 0;
  // Gaps between consecutive runUntil calls inside one runExperiment (one
  // Simulation per run) are the metrics pump sampling between its steps.
  std::int32_t lastParent = -1;
  std::int64_t lastEnd = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const Span& s = spans[i];
    const double self = static_cast<double>(s.selfNs()) * 1e-9;
    const double dur = static_cast<double>(s.durNs()) * 1e-9;
    switch (s.layer) {
      case Layer::Run:
        t.run += dur;
        runSelf += self;
        break;
      case Layer::DatasetGet: t.datasetGet += dur; break;
      case Layer::Populate: break;  // set-up only
      case Layer::Parse: t.parse += dur; break;
      case Layer::Plan: t.plan += dur; break;
      case Layer::Exec:
        t.exec += self;
        if (s.stmt == StmtClass::Select) t.select += self;
        if (s.stmt == StmtClass::Write) t.write += self;
        break;
      case Layer::RunUntil:
        t.simRun += dur;
        t.dispatchSelf += self;
        if (s.parent == lastParent && s.parent >= 0) {
          t.pumpGap += static_cast<double>(s.startNs - lastEnd) * 1e-9;
        }
        lastParent = s.parent;
        lastEnd = s.endNs;
        break;
      case Layer::Analyze: t.analyze += dur; break;
    }
  }
  t.wiringTeardown = runSelf - t.pumpGap;
  return t;
}

/// Writes spans [0, end) as Chrome-trace JSON (loadable in Perfetto).
bool writeTrace(const std::string& path, const std::vector<Span>& spans, std::size_t end) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin = end == 0 ? 0 : spans.front().startNs;
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < end; ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"point\":%u}}",
                 i == 0 ? "" : ",", perfbench::layerName(s.layer),
                 static_cast<double>(s.startNs - origin) * 1e-3,
                 static_cast<double>(s.durNs()) * 1e-3, i, s.parent, s.point);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Set-up and process-wide figures of a traced run.
struct RunFigures {
  double populateS = 0;
  double parseS = 0, planS = 0;
  std::uint64_t parses = 0, plans = 0;
};

/// The per-layer metrics of one sample, from its traced pass `t` (whose
/// spans gave `lt`) and the untraced pass `u` of the same sample.
std::vector<Metric> layerMetrics(const LayerTimes& lt, const Pass& t, const Pass& u,
                                 const RunFigures& run) {
  const Counts& c = t.counts;
  const double statements = static_cast<double>(c.of(Layer::Exec));
  const double events = static_cast<double>(c.events);
  const double gets = static_cast<double>(c.of(Layer::DatasetGet));
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"core.run_s", lt.run, "s"},
      {"core.dataset_get_s", lt.datasetGet, "s"},
      {"core.dataset_mib", n(t.databaseBytes) / gets / (1024.0 * 1024.0), "MiB"},
      {"core.wiring_teardown_s", lt.wiringTeardown, "s"},
      {"apps.populate_s", run.populateS, "s"},
      {"db.exec_s", lt.exec, "s"},
      {"db.statements", statements, "count"},
      {"db.exec_us_per_stmt", lt.exec / statements * 1e6, "us"},
      {"db.select_s", lt.select, "s"},
      {"db.selects", n(c.selects), "count"},
      {"db.write_s", lt.write, "s"},
      {"db.writes", n(c.writes), "count"},
      {"db.rows_examined", n(c.rowsExamined), "count"},
      {"db.rows_sorted", n(c.rowsSorted), "count"},
      {"db.rows_modified", n(c.rowsModified), "count"},
      {"db.rows_returned", n(c.rowsReturned), "count"},
      {"db.returned_per_examined", n(c.rowsReturned) / n(c.rowsExamined), "ratio"},
      {"db.parse_s", run.parseS, "s"},
      {"db.parses", n(run.parses), "count"},
      {"db.plan_s", run.planS, "s"},
      {"db.plans", n(run.plans), "count"},
      {"sim.run_s", lt.simRun, "s"},
      {"sim.events", events, "count"},
      {"sim.dispatch_self_s", lt.dispatchSelf, "s"},
      {"sim.ns_per_event", lt.dispatchSelf / events * 1e9, "ns"},
      {"obs.pump_gap_s", lt.pumpGap, "s"},
      {"obs.analyze_s", lt.analyze, "s"},
      {"mw.queries_per_interaction", n(t.queries) / n(t.interactions), "ratio"},
      {"bench.trace_overhead_pct", (t.wallS / u.wallS - 1.0) * 100.0, "%"},
  };
}

/// Shortest text that reads back as exactly `v`.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parseOptions(argc, argv);
  const Workload& w = *opts.workload;
  std::printf("perfbench %s, seed %llu: %zu points at %d clients, windows %g/%g/5 s, %s\n",
              w.name, static_cast<unsigned long long>(opts.seed), w.points.size(),
              opts.clients > 0 ? opts.clients : w.clients, opts.rampUpSec, opts.measureSec,
              opts.trace ? "traced and untraced passes" : "untraced passes");

  // Set-up, before any point. Traced runs trace it too, for apps.populate_s.
  perfbench::setTracing(opts.trace);
  const std::vector<double> setup = timeSetup(opts);
  perfbench::setTracing(false);
  const std::size_t setupSpans = perfbench::spans().size();
  const Counts setupCounts = perfbench::takeCounts();

  // Measured passes until the next would overrun --seconds, each a run of
  // one sample's points. Untraced runs cycle through the workload's samples,
  // completing at least one round. Traced runs run every sample twice,
  // traced then untraced; the first traced pass has the cold statement cache,
  // so it shows the parse and plan work.
  std::vector<Pass> passes;
  const auto start = std::chrono::steady_clock::now();
  const std::size_t passesPerSample = opts.trace ? 2 : 1;
  for (std::size_t i = 0;; ++i) {
    const std::uint64_t sample = opts.trace ? i / 2 : i % kSamples;
    passes.push_back(runPass(opts, sample, opts.trace && i % 2 == 0, i == 0));
    if (passes.size() % passesPerSample != 0) continue;
    if (!opts.trace && passes.size() < kSamples) continue;
    std::vector<double> walls;
    for (const Pass& p : passes) walls.push_back(p.wallS);
    const double next = median(walls) * static_cast<double>(passesPerSample);
    if (secondsSince(start) + next > opts.seconds) break;
  }

  // Output checks. Every point passes checkPoint; every pass of a sample
  // reproduces the sample's first pass exactly (simulated results, kernel
  // events, ExecStats totals), so a traced pass matches the untraced one;
  // and every wrapped entry point was seen, since a wrap that never fires
  // (say the function became inline) leaves its layer blind.
  bool identical = true;
  int attempted = 0;
  int failed = 0;
  std::size_t repeats = 0;
  Counts total;  // calls over the measured passes
  std::vector<const Pass*> first;  // each sample's first pass
  for (const Pass& p : passes) {
    attempted += static_cast<int>(w.points.size());
    failed += p.failed;
    for (int l = 0; l < perfbench::kLayerCount; ++l) total.calls[l] += p.counts.calls[l];
    if (p.sample >= first.size()) {
      first.push_back(&p);
      continue;
    }
    const Pass& f = *first[p.sample];
    ++repeats;
    if (f.digest != p.digest) {
      std::fprintf(stderr, "FAILED: sample %llu digest differs between passes\n",
                   static_cast<unsigned long long>(p.sample));
      identical = false;
    }
    if (!(withoutParsePlan(f.counts) == withoutParsePlan(p.counts))) {
      std::fprintf(stderr, "FAILED: sample %llu events or ExecStats differ between passes\n",
                   static_cast<unsigned long long>(p.sample));
      identical = false;
    }
  }
  bool covered = true;
  for (int l = 0; l < perfbench::kLayerCount; ++l) {
    if (total.calls[l] + setupCounts.calls[l] == 0) {
      std::fprintf(stderr, "FAILED: no calls seen through %s\n",
                   perfbench::layerName(static_cast<Layer>(l)));
      covered = false;
    }
  }
  bool correct = identical && covered && failed == 0;
  std::printf("digest %016llx (sample 0)%s\n",
              static_cast<unsigned long long>(passes.front().digest),
              repeats == 0 ? ""
              : identical  ? ", reproduced by every repeated pass"
                           : ", NOT reproduced by every repeated pass");

  std::vector<Metric> metrics;
  if (!opts.trace) {
    // Host interference only ever adds time, in bursts that come and go
    // within a run, so each point counts at its fastest pass. A sample's
    // time is the sum of its points' fastest; wall_s is the mean over the
    // samples, which evens out the work that differs between populations.
    std::vector<double> best(first.size() * w.points.size(), HUGE_VAL);
    for (const Pass& p : passes) {
      for (std::size_t j = 0; j < p.pointS.size(); ++j) {
        double& b = best[p.sample * w.points.size() + j];
        b = std::min(b, p.pointS[j]);
      }
    }
    double wall = 0;
    double interactions = 0;
    for (const double b : best) wall += b;
    for (const Pass* f : first) interactions += static_cast<double>(f->interactions);
    wall /= static_cast<double>(first.size());
    interactions /= static_cast<double>(first.size());
    metrics = {
        {"wall_s", wall, "s"},
        {"sim_interactions_per_s", interactions / wall, "interactions/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mib", peakRssMib(), "MiB"},
    };
  } else {
    const std::vector<Span>& spans = perfbench::spans();
    RunFigures run;
    std::vector<double> populate;
    for (std::size_t i = 0; i < setupSpans; ++i) {
      if (spans[i].layer == Layer::Populate) populate.push_back(spans[i].durNs() * 1e-9);
    }
    run.populateS = median(populate);
    run.parses = total.of(Layer::Parse);
    run.plans = total.of(Layer::Plan);
    std::vector<LayerTimes> times;
    for (std::size_t i = 0; i < passes.size(); i += 2) {
      times.push_back(layerTimes(spans, passes[i].spanBegin, passes[i].spanEnd));
      run.parseS += times.back().parse;
      run.planS += times.back().plan;
    }
    // Each metric is the median over samples.
    std::vector<std::vector<Metric>> perSample;
    for (std::size_t i = 0; i < passes.size(); i += 2) {
      perSample.push_back(layerMetrics(times[i / 2], passes[i], passes[i + 1], run));
    }
    metrics = perSample.front();
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      std::vector<double> v;
      for (const auto& sample : perSample) v.push_back(sample[m].value);
      metrics[m].value = median(v);
    }
    if (!opts.traceDir.empty()) {
      // Set-up plus the first (cold) traced pass; later passes repeat it.
      const std::string path = opts.traceDir + "/" + w.name + ".json";
      std::error_code ec;
      std::filesystem::create_directories(opts.traceDir, ec);
      if (!ec && writeTrace(path, spans, passes.front().spanEnd)) {
        std::fprintf(stderr, "wrote %zu spans to %s\n", passes.front().spanEnd, path.c_str());
      } else {
        std::fprintf(stderr, "FAILED: cannot write %s\n", path.c_str());
        correct = false;
      }
    }
  }

  std::printf("%zu samples in %zu passes, %.1f s measured\n", first.size(), passes.size(),
              secondsSince(start));
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-28s %14d count (of %d points attempted)\n", "points_failed", failed,
              attempted);

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
