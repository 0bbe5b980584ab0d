#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "stats/histogram.hpp"
#include "trace/span.hpp"

namespace mwsim::trace {

/// Run-level tracing knobs, carried in ExperimentParams. Tracing changes
/// nothing about the simulated system: all observations are of virtual time
/// already decided by the scheduler.
struct Options {
  bool enabled = false;
  /// How many complete span trees to keep verbatim for the Chrome-trace
  /// exporter (the aggregates below always cover every measured trace).
  std::size_t maxRetainedTraces = 2000;
};

/// A span flattened out of its Trace for retention/export. `parent` is an
/// index into the owning RetainedTrace's span vector, -1 for the root.
struct RetainedSpan {
  std::string name;
  int parent = -1;
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  std::array<sim::Duration, kCategoryCount> excl{};
};

struct RetainedTrace {
  std::string interaction;
  int clientId = 0;
  std::vector<RetainedSpan> spans;
};

/// Aggregate over every span of one tier ("web", "db", ...).
struct TierStats {
  std::string name;
  std::uint64_t spans = 0;
  std::array<sim::Duration, kCategoryCount> exclNs{};
  stats::Histogram inclusiveSec;  // per-span inclusive time, in seconds
};

/// Aggregate over every traced interaction of one type ("Home", "BuyNow"...).
struct InteractionStats {
  std::string name;
  std::uint64_t count = 0;
  std::array<sim::Duration, kCategoryCount> exclNs{};  // summed over the tree
  stats::Histogram endToEndSec;
};

struct Report {
  std::uint64_t traces = 0;
  std::array<sim::Duration, kCategoryCount> exclNs{};
  stats::Histogram endToEndSec;
  std::vector<TierStats> tiers;                // canonical tier order
  std::vector<InteractionStats> interactions;  // sorted by name
  std::vector<RetainedTrace> retained;
};

/// Receives completed span trees from the client farm (measurement phase
/// only) and folds them into per-tier and per-interaction aggregates.
/// One Collector belongs to one Simulation, so aggregation order — and
/// therefore every float sum and histogram — is deterministic.
class Collector {
 public:
  explicit Collector(Options options) : options_(options) {}
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Whether this run collects traces.
  bool enabled() const noexcept { return options_.enabled; }
  /// Mirrors WorkloadStats::setMeasuring: traces completed outside the
  /// measurement window are dropped, so aggregates match reported stats.
  void setMeasuring(bool on) noexcept { measuring_ = on; }
  bool measuring() const noexcept { return measuring_; }

  void add(Trace&& trace);

  Report report() const { return report_; }

 private:
  int tierIndex(const char* name);
  int interactionIndex(const std::string& name);

  Options options_;
  bool measuring_ = false;
  Report report_;
};

/// Serializes retained traces as Chrome-trace/Perfetto JSON ("X" complete
/// events, microsecond timestamps; tid = simulated client id).
/// `extraEvents` is an optional comma-joined fragment of additional events
/// appended to the traceEvents array — the metrics layer injects its
/// counter ("C") tracks through it (see obs::counterTrackEvents).
std::string chromeTraceJson(const Report& report, const std::string& extraEvents = {});

}  // namespace mwsim::trace
