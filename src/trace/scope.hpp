#pragma once

#include "sim/simulation.hpp"
#include "trace/span.hpp"

namespace mwsim::trace {

/// RAII span guard for one tier of a request's journey.
///
/// Construction opens a span and makes it the simulation's current span;
/// destruction closes it (stamps `end`) and restores the parent. Scopes live
/// in coroutine frames, so they nest in LIFO order along each request's
/// coroutine chain; the simulation primitives keep the current span correct
/// across suspensions by capturing it at suspend and restoring it at resume.
///
/// The child-scope form is a no-op when no traced request is running (the
/// ambient current span is null), so instrumented middleware costs one
/// pointer test per tier for untraced requests.
class [[nodiscard]] SpanScope {
 public:
  /// Root form: opens the root span of `trace`. Passing a null trace makes
  /// the whole scope a no-op (the client farms' untraced interactions).
  SpanScope(sim::Simulation& sim, Trace* trace, const char* name) : sim_(sim) {
    if (trace != nullptr) {
      prev_ = sim_.currentSpan();
      span_ = trace->open(name, prev_, sim_.now());
      sim_.setCurrentSpan(span_);
    }
  }

  /// Child form: opens a child of the current span, if any.
  SpanScope(sim::Simulation& sim, const char* name) : sim_(sim) {
    prev_ = sim_.currentSpan();
    if (prev_ != nullptr) {
      span_ = prev_->trace->open(name, prev_, sim_.now());
      sim_.setCurrentSpan(span_);
    }
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  ~SpanScope() {
    if (span_ != nullptr) {
      span_->end = sim_.now();
      sim_.setCurrentSpan(prev_);
    }
  }

  Span* span() const noexcept { return span_; }

 private:
  sim::Simulation& sim_;
  Span* span_ = nullptr;
  Span* prev_ = nullptr;
};

}  // namespace mwsim::trace
