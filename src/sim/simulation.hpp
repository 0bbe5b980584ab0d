#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mc/choice.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "trace/span.hpp"

namespace mwsim {
namespace obs {
class MetricsRegistry;
}  // namespace obs
}  // namespace mwsim

namespace mwsim::sim {

class Simulation;

namespace detail {

/// Fire-and-forget driver coroutine for a top-level simulated process.
/// The frame is owned by the Simulation and destroyed either when the
/// process completes or at Simulation::shutdown().
struct RootPromise;

struct RootTask {
  using promise_type = RootPromise;
  std::coroutine_handle<RootPromise> handle;
};

struct RootPromise {
  Simulation* sim = nullptr;
  std::uint64_t id = 0;

  RootTask get_return_object() {
    return RootTask{std::coroutine_handle<RootPromise>::from_promise(*this)};
  }
  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<RootPromise> h) const noexcept;
    void await_resume() const noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }
  void return_void() noexcept {}
  void unhandled_exception() noexcept;
};

}  // namespace detail

/// Single-threaded discrete-event simulation kernel.
///
/// All simulated activities are coroutines spawned with spawn(); they make
/// progress only when the kernel resumes them from the event queue, so the
/// whole simulation is deterministic for a fixed seed.
///
/// Events live in a hierarchical timer wheel (EventQueue) and dispatch in
/// exact (time, scheduling-seq) order — the same total order as a binary
/// heap keyed that way, proven by tests/scheduler_equiv_test.cpp. The hot
/// scheduling paths (coroutine resumption, raw member calls) carry their
/// payload inline in a small trivially-copyable Event; only ad-hoc
/// std::function callbacks touch the pooled closure slots.
///
/// Lifetime rule: destroy (or shutdown()) the Simulation while every object
/// its suspended coroutines reference (resources, servers, databases) is
/// still alive. The Experiment runner does this automatically.
class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1);
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  SimTime now() const noexcept { return now_; }

  /// Schedules a callback `delay` nanoseconds from now (delay >= 0).
  /// `span` is the trace span to make current while the callback runs —
  /// the resumption half of the capture/restore protocol that keeps the
  /// ambient current span correct across coroutine suspensions.
  void schedule(Duration delay, std::function<void()> fn, trace::Span* span = nullptr);

  /// Schedules a callback at the current simulated time, after all
  /// already-queued events for this instant.
  void post(std::function<void()> fn, trace::Span* span = nullptr) {
    schedule(0, std::move(fn), span);
  }

  /// Fast path: resumes `h` `delay` nanoseconds from now. Identical
  /// ordering semantics to schedule() — it consumes the same seq counter —
  /// without the type-erased closure.
  void scheduleResume(Duration delay, std::coroutine_handle<> h,
                      trace::Span* span = nullptr) {
    assert(delay >= 0 && "cannot schedule events in the past");
    Event ev;
    ev.time = now_ + delay;
    ev.seq = nextSeq_++;
    ev.setSpanKind(span, Event::Kind::Resume);
    ev.pay.handle = h;
    queue_.push(ev);
    if (mcActive()) [[unlikely]] mcRecordMeta(ev.seq);
  }

  /// Fast path: resumes `h` at the current instant, after everything
  /// already queued for it.
  void postResume(std::coroutine_handle<> h, trace::Span* span = nullptr) {
    scheduleResume(0, h, span);
  }

  /// Fast path: calls `fn(ctx, seq)` `delay` nanoseconds from now, where
  /// `seq` is the scheduled event's unique sequence number (also returned
  /// here). For kernel components (e.g. the CPU's completion events) that
  /// would otherwise rebuild a closure per event; the returned seq doubles
  /// as a never-recycled generation token for recognizing superseded
  /// events at dispatch.
  std::uint64_t scheduleCall(Duration delay, void (*fn)(void*, std::uint64_t),
                             void* ctx) {
    assert(delay >= 0 && "cannot schedule events in the past");
    Event ev;
    ev.time = now_ + delay;
    ev.seq = nextSeq_++;
    ev.setSpanKind(nullptr, Event::Kind::Call);
    ev.pay.call = {fn, ctx};
    queue_.push(ev);
    if (mcActive()) [[unlikely]] mcRecordMeta(ev.seq);
    return ev.seq;
  }

  /// The span of the request whose coroutine chain is currently executing,
  /// or null when tracing is off / no traced request is running. Maintained
  /// by SpanScope (open/close) and by every primitive's suspend/resume
  /// path; the dispatcher resets it around each event.
  trace::Span* currentSpan() const noexcept { return currentSpan_; }
  void setCurrentSpan(trace::Span* s) noexcept { currentSpan_ = s; }

  /// Awaitable that suspends the current coroutine for `d` nanoseconds.
  /// The elapsed time is attributed to the current span (if any) under
  /// `cat`: a pure delay's duration is known up front, so attribution
  /// happens at suspension and the span pointer rides on the event.
  struct DelayAwaiter {
    Simulation& sim;
    Duration d;
    trace::Category cat = trace::Category::Other;
    bool await_ready() const noexcept { return d <= 0; }
    void await_suspend(std::coroutine_handle<> h) const {
      trace::Span* span = sim.currentSpan_;
      if (span) {
        span->add(cat, d);
        // Every suspension clears the ambient span (the resume path
        // republishes it), so the dispatcher touches it only for traced
        // events — see dispatchOne().
        sim.currentSpan_ = nullptr;
      }
      sim.scheduleResume(d, h, span);
    }
    void await_resume() const noexcept {}
  };
  DelayAwaiter delay(Duration d, trace::Category cat = trace::Category::Other) {
    return DelayAwaiter{*this, d, cat};
  }

  /// Reschedules the current coroutine behind all events queued for "now".
  DelayAwaiter yield() { return DelayAwaiter{*this, 1}; }

  /// Starts a top-level simulated process. The process begins executing at
  /// the current simulated time (it is queued, not run inline).
  void spawn(Task<> task);

  /// Runs until the event queue is empty. Rethrows the first exception that
  /// escaped any spawned process.
  void run();

  /// Runs all events with timestamp <= t, then advances the clock to t.
  void runUntil(SimTime t);

  /// Destroys every still-suspended top-level process. Call before the
  /// objects those processes reference are destroyed.
  void shutdown();

  /// Number of live (unfinished) top-level processes.
  std::size_t liveProcesses() const noexcept { return roots_.size(); }

  /// Total events processed, for kernel benchmarking.
  std::uint64_t eventsProcessed() const noexcept { return eventsProcessed_; }

  /// Events currently pending in the timer wheel (for the metrics pump's
  /// kernel.events gauge).
  std::uint64_t pendingEvents() const noexcept { return queue_.size(); }

  /// Per-simulation metrics registry, or null when none is attached (bare
  /// kernels and tests). Mirrors the mc::KernelObserver pattern: components
  /// reach it through their Simulation reference.
  obs::MetricsRegistry* metrics() const noexcept { return metrics_; }
  void setMetrics(obs::MetricsRegistry* m) noexcept { metrics_ = m; }

  /// Kernel-level random source (components should derive their own).
  Rng& rng() noexcept { return rng_; }

  std::uint64_t seed() const noexcept { return seed_; }

  /// --- Model-checking hooks (src/mc/) -------------------------------------
  ///
  /// With a ChoiceStrategy installed, the kernel turns its two fixed
  /// tie-breaking rules (same-timestamp dispatch order, lock waiter-grant
  /// order) into explicit choice points; with a KernelObserver installed it
  /// additionally streams dispatch boundaries and lock ops, tracking which
  /// top-level actor each event belongs to. Both default to null, in which
  /// case every hook below collapses to one predictable branch and the
  /// kernel behaves exactly as before (bit-identical dispatch order).
  void setModelChecking(mc::ChoiceStrategy* strategy,
                        mc::KernelObserver* observer) noexcept {
    mcStrategy_ = strategy;
    mcObserver_ = observer;
  }
  bool mcActive() const noexcept {
    return mcStrategy_ != nullptr || mcObserver_ != nullptr;
  }
  mc::ChoiceStrategy* mcStrategy() const noexcept { return mcStrategy_; }
  mc::KernelObserver* mcObserver() const noexcept { return mcObserver_; }

  /// Actor (1 + root process id) whose coroutine chain is currently
  /// executing; 0 between events or outside model checking. Newly scheduled
  /// events inherit it, which is how grant events and delay expiries get
  /// attributed to the process that will run when they dispatch.
  std::uint64_t mcActor() const noexcept { return mcCurrentActor_; }

  /// Stable identity for a lock/resource, assigned in construction order —
  /// identical across run-from-start replays of the same scenario, unlike
  /// heap addresses.
  std::uint64_t nextLockId() noexcept { return nextLockId_++; }

  /// Overrides the descriptor recorded for the *next* scheduled event (the
  /// lock code calls this right before postResume()-ing a granted waiter,
  /// so the grant event carries the waiter's actor and the lock's id).
  void mcTagNextEvent(std::uint64_t actor, std::uint64_t object, mc::Op op) {
    mcTag_ = mc::Alternative{actor, object, op};
    mcTagArmed_ = true;
  }

  void mcEmit(const mc::LockOp& op) {
    if (mcObserver_ != nullptr) mcObserver_->onLockOp(op);
  }

  /// Claims a unique component name within this simulation. Machines claim
  /// their names at construction so a topology that accidentally creates two
  /// machines with one name fails loudly instead of silently aliasing their
  /// usage/traffic records.
  void claimName(const std::string& name) {
    if (!claimedNames_.insert(name).second) {
      throw std::invalid_argument("duplicate machine name in one simulation: " + name);
    }
  }

 private:
  friend struct detail::RootPromise;

  void onRootFinished(std::uint64_t id);
  void onRootException(std::exception_ptr e) { pendingError_ = std::move(e); }
  void dispatchOne();
  void runPayload(const Event& ev);
  void maybeRethrow();
  void mcRecordMeta(std::uint64_t seq);
  Event mcPop();
  void mcBeginDispatch(const Event& ev);
  void mcEndDispatch();

  SimTime now_ = 0;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t nextRootId_ = 0;
  std::uint64_t eventsProcessed_ = 0;
  std::uint64_t seed_;
  Rng rng_;
  EventQueue queue_;
  std::unordered_map<std::uint64_t, std::coroutine_handle<detail::RootPromise>> roots_;
  std::exception_ptr pendingError_;
  trace::Span* currentSpan_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unordered_set<std::string> claimedNames_;
  // Model-checking state; cold unless setModelChecking() installed hooks.
  mc::ChoiceStrategy* mcStrategy_ = nullptr;
  mc::KernelObserver* mcObserver_ = nullptr;
  std::uint64_t mcCurrentActor_ = 0;
  std::uint64_t nextLockId_ = 1;
  bool mcTagArmed_ = false;
  mc::Alternative mcTag_{};
  std::unordered_map<std::uint64_t, mc::Alternative> mcMeta_;  // seq -> descriptor
  std::vector<Event> mcTies_;                                  // scratch
  std::vector<mc::Alternative> mcAlts_;                        // scratch
#ifndef NDEBUG
  // Dispatch-order guard: (time, seq) must be strictly increasing, which
  // both proves the wheel never reorders and that no event (seq values are
  // unique) is ever dispatched twice. Relaxed to time-monotonicity when a
  // mc::ChoiceStrategy is reordering same-timestamp events (dispatchOne).
  SimTime lastDispatchTime_ = -1;
  std::uint64_t lastDispatchSeq_ = 0;
#endif
};

}  // namespace mwsim::sim
