#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "middleware/application.hpp"
#include "middleware/failure.hpp"
#include "middleware/policy.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"

namespace mwsim::mw {

/// Deterministic replica selection with in-flight accounting. Selection
/// depends only on the sequence of pick/arrive/depart calls, which the
/// single-threaded simulation kernel orders deterministically.
class ReplicaPicker {
 public:
  /// Returned by the masked pick() when no healthy replica exists.
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  ReplicaPicker(std::size_t replicas, Dispatch policy)
      : policy_(policy), inflight_(replicas, 0) {
    assert(replicas > 0);
  }

  std::size_t pick() {
    if (policy_ == Dispatch::RoundRobin) {
      const std::size_t i = next_;
      next_ = (next_ + 1) % inflight_.size();
      return i;
    }
    std::size_t best = 0;
    for (std::size_t i = 1; i < inflight_.size(); ++i) {
      if (inflight_[i] < inflight_[best]) best = i;
    }
    return best;
  }

  /// Health-aware variant: skips replicas whose mask entry is false, or
  /// returns kNone when none is healthy. With every replica healthy the
  /// selection sequence is bit-identical to pick() — round-robin takes the
  /// cursor's replica and advances by one; least-outstanding scans all.
  std::size_t pick(const std::vector<char>& healthy) {
    const std::size_t n = inflight_.size();
    assert(healthy.size() == n);
    if (policy_ == Dispatch::RoundRobin) {
      for (std::size_t step = 0; step < n; ++step) {
        const std::size_t i = (next_ + step) % n;
        if (healthy[i]) {
          next_ = (i + 1) % n;
          return i;
        }
      }
      return kNone;
    }
    std::size_t best = kNone;
    for (std::size_t i = 0; i < n; ++i) {
      if (healthy[i] && (best == kNone || inflight_[i] < inflight_[best])) best = i;
    }
    return best;
  }

  void arrive(std::size_t i) { ++inflight_[i]; }
  void depart(std::size_t i) { --inflight_[i]; }
  int inflight(std::size_t i) const { return inflight_[i]; }

 private:
  Dispatch policy_;
  std::size_t next_ = 0;
  std::vector<int> inflight_;
};

/// Fans requests out over per-replica content generators (one ServletEngine
/// or EjbGenerator per servlet-container replica). The experiment wiring
/// bypasses this wrapper when there is only one replica, so single-replica
/// topologies stay event-identical to the legacy construction.
class DispatchingGenerator final : public DynamicContentGenerator {
 public:
  DispatchingGenerator(std::vector<DynamicContentGenerator*> children, Dispatch policy)
      : children_(std::move(children)), picker_(children_.size(), policy) {}

  sim::Task<Page> generate(const Request& request) override {
    const std::size_t i = picker_.pick();
    picker_.arrive(i);
    Inflight guard{&picker_, i};
    Page page = co_await children_[i]->generate(request);
    co_return page;
  }

 private:
  struct Inflight {
    ReplicaPicker* picker;
    std::size_t index;
    ~Inflight() { picker->depart(index); }
  };

  std::vector<DynamicContentGenerator*> children_;
  ReplicaPicker picker_;
};

/// Failover knobs for the load balancer. The zero-valued default (no
/// deadline; retries inert because nothing throws ReplicaDown without
/// scenario events) reproduces the legacy balancer exactly.
struct FailoverPolicy {
  /// Per-request deadline stamped onto dispatched requests (0 = none).
  sim::Duration requestTimeout = 0;
  /// Reroute attempts after a replica dies under a request.
  int requestRetries = 2;
};

/// L4 load balancer in front of replicated web servers, and — when a
/// scenario injects failures — the failover point: it tracks replica
/// health (crash/recover events update it via scenario::Timeline), skips
/// down replicas, stamps deadlines, and reroutes requests that die with a
/// replica, within the retry budget. Requests that exhaust the budget, time
/// out, or find no healthy replica complete with an error page rather than
/// throwing: client sessions must observe failures, not crash the run.
///
/// The experiment wiring hands the client farm a WebServer directly when
/// there is one replica and no failure scenario, so legacy topologies stay
/// event-identical to the pre-scenario construction.
class LoadBalancer final : public HttpService {
 public:
  LoadBalancer(sim::Simulation& simulation, std::vector<HttpService*> replicas,
               Dispatch policy, FailoverPolicy failover = {})
      : sim_(simulation),
        replicas_(std::move(replicas)),
        healthy_(replicas_.size(), 1),
        picker_(replicas_.size(), policy),
        failover_(failover) {}

  /// Scenario hook: marks a replica up or down for dispatch.
  void setHealthy(std::size_t i, bool healthy) {
    const char next = healthy ? 1 : 0;
    if (healthy_.at(i) == next) return;
    healthy_.at(i) = next;
    ++healthFlips_;
  }
  bool healthy(std::size_t i) const { return healthy_.at(i) != 0; }

  /// Requests answered with the balancer's own error page (budget
  /// exhausted, timed out, or no healthy replica).
  std::uint64_t errorCount() const noexcept { return errors_; }
  /// Attempts abandoned because the serving replica crashed mid-request.
  std::uint64_t rerouteCount() const noexcept { return reroutes_; }
  /// Requests that observed their deadline pass.
  std::uint64_t timeoutCount() const noexcept { return timeouts_; }

  /// Registers a per-replica in-flight gauge (`lb/inflight.<name>`, with
  /// `replicaNames` in replica order) and counter probes over this
  /// balancer's counts: health changes (each crash or recovery that took
  /// effect), reroutes, timeouts and error pages.
  void addProbes(obs::MetricsRegistry& registry,
                 const std::vector<std::string>& replicaNames) const {
    assert(replicaNames.size() == replicas_.size());
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      registry.addGaugeProbe("lb/inflight." + replicaNames[i], [this, i] {
        return static_cast<double>(picker_.inflight(i));
      });
    }
    registry.addCounterProbe("lb.health_flips", [this] { return healthFlips_; });
    registry.addCounterProbe("lb.reroutes", [this] { return reroutes_; });
    registry.addCounterProbe("lb.timeouts", [this] { return timeouts_; });
    registry.addCounterProbe("lb.errors", [this] { return errors_; });
  }

  sim::Task<InteractionResult> serve(const Request& request) override {
    Request routed = request;
    if (failover_.requestTimeout > 0) {
      routed.deadline = sim_.now() + failover_.requestTimeout;
    }
    int attempts = 1 + (failover_.requestRetries > 0 ? failover_.requestRetries : 0);
    while (attempts-- > 0) {
      const std::size_t i = picker_.pick(healthy_);
      if (i == ReplicaPicker::kNone) break;  // whole web tier is down
      picker_.arrive(i);
      Inflight guard{&picker_, i};
      try {
        InteractionResult result = co_await replicas_[i]->serve(routed);
        co_return result;
      } catch (const ReplicaDown&) {
        // The replica died under this request: its partial work is lost
        // (the simulated time it burned stands); reroute if budget remains.
        ++reroutes_;
      } catch (const RequestTimeout&) {
        // The deadline covers the whole interaction; retrying cannot help.
        ++timeouts_;
        break;
      }
    }
    ++errors_;
    co_return errorPage();
  }

 private:
  struct Inflight {
    ReplicaPicker* picker;
    std::size_t index;
    ~Inflight() { picker->depart(index); }
  };

  static InteractionResult errorPage() {
    Page page;
    page.htmlBytes = 600;  // same terse body as the web server's 500 page
    page.error = true;
    return InteractionResult{page, page.htmlBytes};
  }

  sim::Simulation& sim_;
  std::vector<HttpService*> replicas_;
  std::vector<char> healthy_;
  ReplicaPicker picker_;
  FailoverPolicy failover_;
  std::uint64_t errors_ = 0;
  std::uint64_t reroutes_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t healthFlips_ = 0;
};

}  // namespace mwsim::mw
