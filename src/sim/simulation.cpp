#include "sim/simulation.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace mwsim::sim {

namespace detail {

namespace {
/// Drives a user Task to completion inside a sim-owned frame.
RootTask driveRoot(Task<> task) { co_await std::move(task); }
}  // namespace

void RootPromise::FinalAwaiter::await_suspend(
    std::coroutine_handle<RootPromise> h) const noexcept {
  RootPromise& p = h.promise();
  assert(p.sim != nullptr);
  // Removes the root from the registry and destroys this (suspended) frame.
  p.sim->onRootFinished(p.id);
}

void RootPromise::unhandled_exception() noexcept {
  if (sim) sim->onRootException(std::current_exception());
}

}  // namespace detail

Simulation::Simulation(std::uint64_t seed)
    : seed_(seed), rng_(deriveSeed(seed, /*tag=*/0)) {}

Simulation::~Simulation() { shutdown(); }

void Simulation::schedule(Duration delay, std::function<void()> fn, trace::Span* span) {
  assert(delay >= 0 && "cannot schedule events in the past");
  Event ev;
  ev.time = now_ + delay;
  ev.seq = nextSeq_++;
  ev.setSpanKind(span, Event::Kind::Closure);
  ev.pay.closure = queue_.storeClosure(std::move(fn));
  queue_.push(ev);
  if (mcActive()) [[unlikely]] mcRecordMeta(ev.seq);
}

void Simulation::spawn(Task<> task) {
  detail::RootTask root = detail::driveRoot(std::move(task));
  auto handle = root.handle;
  const std::uint64_t id = nextRootId_++;
  handle.promise().sim = this;
  handle.promise().id = id;
  roots_.emplace(id, handle);
  // Actor ids are 1 + root id so 0 can mean "no actor" in descriptors.
  if (mcActive()) [[unlikely]] mcTagNextEvent(id + 1, 0, mc::Op::Spawn);
  scheduleResume(0, handle);
}

void Simulation::onRootFinished(std::uint64_t id) {
  auto it = roots_.find(id);
  assert(it != roots_.end());
  auto handle = it->second;
  roots_.erase(it);
  handle.destroy();
}

void Simulation::runPayload(const Event& ev) {
  switch (ev.kind()) {
    case Event::Kind::Resume:
      ev.pay.handle.resume();
      break;
    case Event::Kind::Call:
      ev.pay.call.fn(ev.pay.call.ctx, ev.seq);
      break;
    case Event::Kind::Closure:
      queue_.takeClosure(ev.pay.closure)();
      break;
  }
}

void Simulation::dispatchOne() {
  const bool mc = mcActive();
  const Event ev = mc ? mcPop() : queue_.pop();
  assert(ev.time >= now_);
#ifndef NDEBUG
  // Dispatch-order guard: with no strategy installed, (time, seq) must be
  // strictly increasing. A choice strategy legitimately reorders seq within
  // one timestamp, so under one only time monotonicity can be asserted.
  assert((mcStrategy_ != nullptr ? ev.time >= lastDispatchTime_
                                 : (ev.time > lastDispatchTime_ ||
                                    (ev.time == lastDispatchTime_ &&
                                     ev.seq > lastDispatchSeq_))) &&
         "event dispatched out of order or twice");
  lastDispatchTime_ = ev.time;
  lastDispatchSeq_ = ev.seq;
#endif
  now_ = ev.time;
  ++eventsProcessed_;
  if (mc) [[unlikely]] mcBeginDispatch(ev);
  // Ambient-span contract: currentSpan_ is null between events (every
  // suspension point clears it after capturing), so only traced events —
  // a small minority even in traced runs — pay the publish/clear stores.
  if (trace::Span* span = ev.span(); span != nullptr) {
    currentSpan_ = span;
    runPayload(ev);
    currentSpan_ = nullptr;
    if (mc) [[unlikely]] mcEndDispatch();
    return;
  }
  runPayload(ev);
  if (mc) [[unlikely]] mcEndDispatch();
}

void Simulation::mcRecordMeta(std::uint64_t seq) {
  mc::Alternative a = mcTagArmed_
                          ? mcTag_
                          : mc::Alternative{mcCurrentActor_, 0, mc::Op::Other};
  mcTagArmed_ = false;
  mcMeta_.insert_or_assign(seq, a);
}

/// Choice-aware pop: removes the whole set of events tied at the earliest
/// timestamp (they all live in the near_ heap after advance(), so the set is
/// complete), lets the strategy pick one, and re-pushes the rest. Re-pushing
/// at the last popped time is legal — push() only requires non-decreasing
/// times — and they land back in near_ ahead of the migration frontier.
Event Simulation::mcPop() {
  if (mcStrategy_ == nullptr) return queue_.pop();
  mcTies_.clear();
  queue_.popTies(mcTies_);
  std::size_t pick = 0;
  if (mcTies_.size() > 1) {
    mcAlts_.clear();
    for (const Event& e : mcTies_) {
      auto it = mcMeta_.find(e.seq);
      mcAlts_.push_back(it != mcMeta_.end() ? it->second : mc::Alternative{});
    }
    pick = mcStrategy_->choose(mc::ChoiceKind::EventTieBreak, mcAlts_.data(),
                               mcAlts_.size());
    assert(pick < mcTies_.size());
  }
  const Event ev = mcTies_[pick];
  for (std::size_t i = 0; i < mcTies_.size(); ++i) {
    if (i != pick) queue_.push(mcTies_[i]);
  }
  return ev;
}

void Simulation::mcBeginDispatch(const Event& ev) {
  mc::Alternative t{};
  if (auto it = mcMeta_.find(ev.seq); it != mcMeta_.end()) {
    t = it->second;
    mcMeta_.erase(it);
  }
  mcCurrentActor_ = t.actor;
  if (mcObserver_ != nullptr) mcObserver_->onDispatchStart(t);
}

void Simulation::mcEndDispatch() {
  if (mcObserver_ != nullptr) mcObserver_->onDispatchEnd();
  mcCurrentActor_ = 0;
}

void Simulation::maybeRethrow() {
  if (pendingError_) {
    std::exception_ptr e = std::exchange(pendingError_, nullptr);
    std::rethrow_exception(e);
  }
}

void Simulation::run() {
  while (!queue_.empty()) {
    dispatchOne();
    maybeRethrow();
  }
}

void Simulation::runUntil(SimTime t) {
  while (!queue_.empty() && queue_.nextTime() <= t) {
    dispatchOne();
    maybeRethrow();
  }
  if (t > now_) now_ = t;
}

void Simulation::shutdown() {
  // Destroying a frame may (via destructors) finish other roots; iterate on a
  // drained copy and re-check membership through the live map.
  while (!roots_.empty()) {
    auto it = roots_.begin();
    auto handle = it->second;
    roots_.erase(it);
    handle.destroy();
  }
  // Drop queued events; they may reference destroyed frames.
  queue_.clear();
}

}  // namespace mwsim::sim
