#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "stats/histogram.hpp"

namespace mwsim::obs {

/// Always true: every build compiles the metrics layer in. Kept only
/// because the host-time benchmark (perfbench/main.cpp) still reads it to
/// set `metrics.enabled`; drop it with that reader.
inline constexpr bool kEnabled = true;

/// The metrics pump's sampling period: paper §4.5 samples every second
/// with sysstat, and so do we.
inline constexpr sim::Duration kSamplePeriod = sim::kSecond;

/// Run-level metrics knob, carried in ExperimentParams. Every run is
/// observed through the registry and the pump (machine usage comes from
/// their snapshots); `enabled` only decides whether the sampled report and
/// its bottleneck verdict are attached to the result. Observation never
/// changes simulated results: every instrument reads state the scheduler
/// already decided, and the pump samples *between* kernel steps (see
/// MetricsPump).
struct Options {
  bool enabled = false;
};

/// Monotonic event counter (the per-run statement and plan cache counts).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// What kind of saturable resource a utilization series measures. The
/// bottleneck analyzer only considers kinds that can be "the wall": CPUs,
/// NIC links, locks, and the cluster write stream. Pool occupancy and
/// plain rates are exported for plots but excluded from verdicts — a full
/// process pool means requests are *inside* the server, not that the pool
/// itself is the binding resource.
enum class ResourceKind { Cpu, Nic, Lock, Stream, Pool, Rate };

inline const char* resourceKindName(ResourceKind k) {
  switch (k) {
    case ResourceKind::Cpu: return "cpu";
    case ResourceKind::Nic: return "nic";
    case ResourceKind::Lock: return "lock";
    case ResourceKind::Stream: return "stream";
    case ResourceKind::Pool: return "pool";
    case ResourceKind::Rate: return "rate";
  }
  return "?";
}

inline bool verdictCandidate(ResourceKind k) {
  return k == ResourceKind::Cpu || k == ResourceKind::Nic ||
         k == ResourceKind::Lock || k == ResourceKind::Stream;
}

/// Per-simulation instrument registry.
///
/// One registry belongs to one run (mirroring trace::Collector). Every
/// instrument is a pull probe: each component keeps its own counts and
/// busy integrals, and registers the probes that read them next to that
/// state (`addProbes(MetricsRegistry&)` on the database server, the
/// cluster, the web server, the load balancer and the open-loop farm;
/// obs::addMachineProbes for machines). The one exception is the four
/// per-run statement/plan cache counters below, which the middleware bumps
/// through sim::Simulation::metrics() because the caches themselves are
/// shared by every run in the process.
///
/// Register everything before the pump takes its first sample: the pump
/// snapshots the full instrument list each tick, so late registration
/// would misalign the series.
class MetricsRegistry {
 public:
  // --- Well-known middleware counters (zero-lookup hook sites) -----------
  Counter stmtCacheHit;    // db.stmt_cache.hit
  Counter stmtCacheMiss;   // db.stmt_cache.miss
  Counter planCacheHit;    // db.plan_cache.hit
  Counter planCacheMiss;   // db.plan_cache.miss

  MetricsRegistry() {
    registerCounter("db.stmt_cache.hit", &stmtCacheHit);
    registerCounter("db.stmt_cache.miss", &stmtCacheMiss);
    registerCounter("db.plan_cache.hit", &planCacheHit);
    registerCounter("db.plan_cache.miss", &planCacheMiss);
  }
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Summarizes a distribution recorded elsewhere (the workload's response
  /// times) under `name`; `hist` must outlive the pump.
  void addHistogram(std::string name, const stats::Histogram& hist) {
    histograms_.push_back({std::move(name), &hist});
  }

  // --- Pull probes, sampled by the pump ----------------------------------
  struct GaugeProbe {
    std::string name;
    std::function<double()> read;
  };
  /// `read` returns a monotone count; the pump snapshots it as is.
  struct CounterProbe {
    std::string name;
    std::function<std::uint64_t()> read;
  };
  /// `cumulative` returns a monotone busy integral in unit-seconds; the
  /// pump differentiates it into per-interval utilization of `capacity`
  /// units. Kind Rate reuses the machinery for plain rates (grants/s,
  /// Mbit/s) with capacity 1.
  struct UtilizationProbe {
    std::string name;
    ResourceKind kind;
    double capacity;
    std::function<double()> cumulative;
  };
  /// Exact Little's-law triple for one resource: the time integral of
  /// jobs-in-system, completions, and the cumulative sojourn of completed
  /// jobs — L = dIntegral/dt, lambda = dCompleted/dt, W = dSojourn /
  /// dCompleted over any snapshot-aligned window.
  struct LittleProbe {
    std::string name;
    std::function<double()> jobIntegralSeconds;
    std::function<std::uint64_t()> completed;
    std::function<double()> sojournSeconds;
  };

  void addGaugeProbe(std::string name, std::function<double()> read) {
    gaugeProbes_.push_back({std::move(name), std::move(read)});
  }
  void addCounterProbe(std::string name, std::function<std::uint64_t()> read) {
    counters_.push_back({std::move(name), std::move(read)});
  }
  void addUtilizationProbe(std::string name, ResourceKind kind, double capacity,
                           std::function<double()> cumulative) {
    utilProbes_.push_back({std::move(name), kind, capacity, std::move(cumulative)});
  }
  void addLittleProbe(std::string name, std::function<double()> jobIntegralSeconds,
                      std::function<std::uint64_t()> completed,
                      std::function<double()> sojournSeconds) {
    littleProbes_.push_back({std::move(name), std::move(jobIntegralSeconds),
                             std::move(completed), std::move(sojournSeconds)});
  }

  // --- Per-run cache identity --------------------------------------------
  // The statement/plan caches are process-global and shared across the
  // worker threads of a parallel sweep, so "was it cached already?" is
  // nondeterministic. First use *within this run* is the deterministic
  // signal: the run's statement stream depends only on its seed.
  void recordStatementUse(const void* stmt) {
    (stmtSeen_.insert(stmt).second ? stmtCacheMiss : stmtCacheHit).add(1);
  }
  void recordPlanUse(const void* plan) {
    (planSeen_.insert(plan).second ? planCacheMiss : planCacheHit).add(1);
  }

  // --- Pump/report access -------------------------------------------------
  struct NamedHistogram {
    std::string name;
    const stats::Histogram* value;
  };
  const std::vector<CounterProbe>& counters() const noexcept { return counters_; }
  const std::vector<GaugeProbe>& gaugeProbes() const noexcept { return gaugeProbes_; }
  const std::vector<UtilizationProbe>& utilizationProbes() const noexcept {
    return utilProbes_;
  }
  const std::vector<LittleProbe>& littleProbes() const noexcept { return littleProbes_; }
  const std::vector<NamedHistogram>& histograms() const noexcept { return histograms_; }

 private:
  void registerCounter(std::string name, const Counter* c) {
    addCounterProbe(std::move(name), [c] { return c->value(); });
  }

  std::vector<CounterProbe> counters_;
  std::vector<GaugeProbe> gaugeProbes_;
  std::vector<UtilizationProbe> utilProbes_;
  std::vector<LittleProbe> littleProbes_;
  std::vector<NamedHistogram> histograms_;
  std::unordered_set<const void*> stmtSeen_;
  std::unordered_set<const void*> planSeen_;
};

}  // namespace mwsim::obs
