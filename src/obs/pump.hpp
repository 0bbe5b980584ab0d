#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace mwsim::obs {

/// Periodic sampler: the one way a run is observed. Machine usage, the
/// bottleneck verdict and the --metrics-out series all come from its
/// snapshots.
///
/// The pump deliberately does NOT spawn a simulated process. A sampling
/// coroutine would insert wake-up events into the kernel queue, perturbing
/// (time, seq) dispatch order. Instead the caller steps the kernel:
///
///   pump.runTo(t);   // = runUntil(next sample instant); sample(); repeat
///
/// `Simulation::runUntil(t)` runs every event with timestamp <= t and then
/// advances the clock to exactly t, so splitting one big runUntil into
/// period-sized steps dispatches the same events in the same order — the
/// pump only ever *reads* between steps.
///
/// Snapshot 0 is the baseline taken at construction. runTo() also
/// snapshots its target, so a window edge between two ticks is sampled
/// exactly and the interval ending there is partial.
class MetricsPump {
 public:
  MetricsPump(sim::Simulation& simulation, MetricsRegistry& registry)
      : sim_(simulation), registry_(registry) {
    utilCum_.resize(registry.utilizationProbes().size());
    gaugeVals_.resize(registry.gaugeProbes().size());
    counterCum_.resize(registry.counters().size());
    littleIntegral_.resize(registry.littleProbes().size());
    littleCompleted_.resize(registry.littleProbes().size());
    littleSojourn_.resize(registry.littleProbes().size());
    sample();  // baseline
    next_ = sim_.now() + kSamplePeriod;
  }
  MetricsPump(const MetricsPump&) = delete;
  MetricsPump& operator=(const MetricsPump&) = delete;

  /// Advances the simulation to `target`, sampling at every whole period
  /// and at `target` itself.
  void runTo(sim::SimTime target) {
    while (next_ <= target) {
      sim_.runUntil(next_);
      sample();
      next_ += kSamplePeriod;
    }
    sim_.runUntil(target);
    finish();
  }

  /// Records the interval since the last snapshot, if the clock moved past
  /// it (a caller that also advanced the simulation itself). Recording
  /// twice at one instant records nothing.
  void finish() {
    if (sim_.now() > times_.back()) sample();
  }

  std::size_t sampleCount() const noexcept { return times_.size(); }
  const std::vector<sim::SimTime>& times() const noexcept { return times_; }

  /// Copies everything sampled so far into a self-contained report
  /// (instrument pointers die with the simulation; the report must not).
  MetricsReport buildReport(sim::SimTime windowStart, sim::SimTime windowEnd) const {
    MetricsReport r;
    r.period = kSamplePeriod;
    r.windowStart = windowStart;
    r.windowEnd = windowEnd;
    r.times = times_;
    const auto& utils = registry_.utilizationProbes();
    for (std::size_t i = 0; i < utils.size(); ++i) {
      r.utilization.push_back({utils[i].name, utils[i].kind, utils[i].capacity,
                               utilCum_[i]});
    }
    const auto& gauges = registry_.gaugeProbes();
    for (std::size_t i = 0; i < gauges.size(); ++i) {
      r.gauges.push_back({gauges[i].name, gaugeVals_[i]});
    }
    const auto& counters = registry_.counters();
    for (std::size_t i = 0; i < counters.size(); ++i) {
      r.counters.push_back({counters[i].name, counterCum_[i]});
    }
    const auto& littles = registry_.littleProbes();
    for (std::size_t i = 0; i < littles.size(); ++i) {
      r.little.push_back({littles[i].name, littleIntegral_[i], littleCompleted_[i],
                          littleSojourn_[i]});
    }
    for (const auto& h : registry_.histograms()) {
      const stats::Histogram& hist = *h.value;
      r.histograms.push_back({h.name, hist.count(), hist.mean(), hist.percentile(50),
                              hist.percentile(90), hist.percentile(99), hist.min(),
                              hist.max()});
    }
    return r;
  }

 private:
  void sample() {
    times_.push_back(sim_.now());
    const auto& utils = registry_.utilizationProbes();
    for (std::size_t i = 0; i < utils.size(); ++i) {
      utilCum_[i].push_back(utils[i].cumulative());
    }
    const auto& gauges = registry_.gaugeProbes();
    for (std::size_t i = 0; i < gauges.size(); ++i) {
      gaugeVals_[i].push_back(gauges[i].read());
    }
    const auto& counters = registry_.counters();
    for (std::size_t i = 0; i < counters.size(); ++i) {
      counterCum_[i].push_back(counters[i].read());
    }
    const auto& littles = registry_.littleProbes();
    for (std::size_t i = 0; i < littles.size(); ++i) {
      littleIntegral_[i].push_back(littles[i].jobIntegralSeconds());
      littleCompleted_[i].push_back(littles[i].completed());
      littleSojourn_[i].push_back(littles[i].sojournSeconds());
    }
  }

  sim::Simulation& sim_;
  MetricsRegistry& registry_;
  sim::SimTime next_ = 0;
  std::vector<sim::SimTime> times_;
  std::vector<std::vector<double>> utilCum_;
  std::vector<std::vector<double>> gaugeVals_;
  std::vector<std::vector<std::uint64_t>> counterCum_;
  std::vector<std::vector<double>> littleIntegral_;
  std::vector<std::vector<std::uint64_t>> littleCompleted_;
  std::vector<std::vector<double>> littleSojourn_;
};

}  // namespace mwsim::obs
