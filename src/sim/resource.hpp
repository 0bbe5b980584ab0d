#pragma once

#include <cassert>
#include <coroutine>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "sim/ring_queue.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace mwsim::sim {

class Resource;

/// RAII ownership of one unit of a Resource. Releases on destruction;
/// release() releases early.
class [[nodiscard]] ResourceHold {
 public:
  ResourceHold() noexcept = default;
  explicit ResourceHold(Resource* r) noexcept : resource_(r) {}
  ResourceHold(ResourceHold&& other) noexcept
      : resource_(std::exchange(other.resource_, nullptr)) {}
  ResourceHold& operator=(ResourceHold&& other) noexcept;
  ResourceHold(const ResourceHold&) = delete;
  ResourceHold& operator=(const ResourceHold&) = delete;
  ~ResourceHold() { release(); }

  void release() noexcept;
  bool holds() const noexcept { return resource_ != nullptr; }

 private:
  Resource* resource_ = nullptr;
};

/// FIFO counting resource (process pools, connection pools, mutexes).
///
/// `co_await resource.acquire()` blocks the coroutine until a unit is free
/// and returns a ResourceHold. Grants are strictly FIFO: a new arrival never
/// overtakes a queued waiter.
class Resource {
 public:
  /// `waitCategory` is the trace category charged for time spent queued on
  /// this resource. Mutexes and locks default to LockWait; pools whose wait
  /// is really queueing for compute (process/thread pools) pass CpuQueue,
  /// and NIC links pass NetTransfer.
  Resource(Simulation& sim, int capacity, std::string name = {},
           trace::Category waitCategory = trace::Category::LockWait)
      : sim_(sim), capacity_(capacity), name_(std::move(name)),
        waitCategory_(waitCategory), mcId_(sim.nextLockId()) {
    assert(capacity > 0);
  }
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  struct Awaiter {
    Resource& res;
    bool suspended = false;

    bool await_ready() const noexcept {
      return res.waiters_.empty() && res.inUse_ < res.capacity_;
    }
    void await_suspend(std::coroutine_handle<> h) {
      suspended = true;
      trace::Span* span = res.sim_.currentSpan();
      if (span != nullptr) res.sim_.setCurrentSpan(nullptr);  // cleared at suspension
      res.waiters_.push_back(
          Waiter{h, res.sim_.now(), span, res.sim_.mcActor()});
      if (res.sim_.mcObserver() != nullptr) [[unlikely]] res.mcOnQueued();
    }
    ResourceHold await_resume() noexcept {
      // When resumed from the wait queue, release() already reserved the
      // unit; on the fast path we take it here.
      if (!suspended) {
        res.take();
        if (res.sim_.mcObserver() != nullptr) [[unlikely]] res.mcOnFastGrant();
      }
      ++res.acquisitions_;
      return ResourceHold(&res);
    }
  };

  /// Awaitable acquisition of one unit.
  Awaiter acquire() { return Awaiter{*this}; }

  /// Releases one unit; normally called by ResourceHold.
  void release() noexcept;

  int capacity() const noexcept { return capacity_; }
  int inUse() const noexcept { return inUse_; }
  std::size_t queueLength() const noexcept { return waiters_.size(); }
  const std::string& name() const noexcept { return name_; }

  /// Integral of in-use units over time, in unit-seconds (for utilization).
  double busyUnitSeconds() const noexcept;
  std::uint64_t acquisitions() const noexcept { return acquisitions_; }
  Duration totalWait() const noexcept { return totalWait_; }

  /// Stable identity for model-checking descriptors and lock-op streams.
  std::uint64_t mcId() const noexcept { return mcId_; }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    SimTime enqueued;
    trace::Span* span = nullptr;
    std::uint64_t actor = 0;  // mc::Alternative actor; 0 outside MC runs
  };

  void take() noexcept;
  void updateIntegral() const noexcept;
  // Model-checking cold paths: queue/grant lock-op emission and the
  // waiter-grant choice point (which waiter a freed unit goes to — FIFO is
  // one legal order of many; Java monitors, say, promise none).
  void mcOnQueued() noexcept;
  void mcOnFastGrant() noexcept;
  std::size_t mcChooseGrant();

  Simulation& sim_;
  int capacity_;
  int inUse_ = 0;
  std::string name_;
  trace::Category waitCategory_ = trace::Category::LockWait;
  RingQueue<Waiter> waiters_;
  std::uint64_t acquisitions_ = 0;
  Duration totalWait_ = 0;
  mutable SimTime lastUpdate_ = 0;
  mutable double busyIntegral_ = 0.0;
  std::uint64_t mcId_ = 0;
};

/// A mutual-exclusion lock is a capacity-1 resource.
using Mutex = Resource;

/// Lazily created named mutexes — used by the servlet engine to model Java
/// `synchronized` blocks keyed by application-level lock names.
class NamedMutexSet {
 public:
  explicit NamedMutexSet(Simulation& sim) : sim_(sim) {}

  Mutex& get(const std::string& name) {
    auto it = mutexes_.find(name);
    if (it == mutexes_.end()) {
      it = mutexes_.emplace(name, std::make_unique<Mutex>(sim_, 1, name)).first;
    }
    return *it->second;
  }

 private:
  Simulation& sim_;
  std::unordered_map<std::string, std::unique_ptr<Mutex>> mutexes_;
};

}  // namespace mwsim::sim
