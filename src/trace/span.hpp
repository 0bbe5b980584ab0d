#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "sim/time.hpp"

namespace mwsim::trace {

/// Where one nanosecond of a request's life went. Every simulated
/// suspension attributes its full elapsed time to exactly one category of
/// exactly one span, so the categories of a span tree sum to the root
/// span's end-to-end duration with no gaps and no double counting.
enum class Category : std::uint8_t {
  CpuService,   // CPU demand actually served (the work the tier asked for)
  CpuQueue,     // extra time on a CPU due to processor sharing, plus
                // waiting for a bounded worker pool slot
  LockWait,     // blocked on a lock (table locks, Java monitors, LOCK_open)
  NetTransfer,  // NIC queueing + serialization + switch propagation
  Other,        // modeled fixed delays (client turnaround and the like)
};

inline constexpr std::size_t kCategoryCount = 5;

inline const char* categoryName(Category c) {
  switch (c) {
    case Category::CpuService: return "cpu-service";
    case Category::CpuQueue: return "cpu-queue";
    case Category::LockWait: return "lock-wait";
    case Category::NetTransfer: return "net-transfer";
    case Category::Other: return "other";
  }
  return "?";
}

class Trace;

/// One node of a per-request span tree: a tier or sub-operation ("web",
/// "servlet", "db", ...) with its lifetime in virtual time and its
/// *exclusive* time split by category. Exclusive means time the request
/// spent here while no child span was open; a parent never re-counts a
/// child's time, so summing `excl` over a whole tree gives the root's
/// end-to-end latency exactly.
struct Span {
  const char* name = "";  // static string; spans never own their names
  Trace* trace = nullptr;
  Span* parent = nullptr;
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  std::array<sim::Duration, kCategoryCount> excl{};

  /// Attribution hook used by the simulation primitives. Hot path when
  /// tracing is on: a single add into a preallocated slot, no allocation,
  /// no virtual time observed beyond what the caller already knows.
  void add(Category c, sim::Duration d) noexcept {
    excl[static_cast<std::size_t>(c)] += d;
  }

  sim::Duration inclusiveNs() const noexcept { return end - start; }
  sim::Duration exclusiveTotalNs() const noexcept {
    sim::Duration t = 0;
    for (sim::Duration d : excl) t += d;
    return t;
  }
};

/// The span tree of one client interaction. Spans live in a deque so that
/// raw Span pointers (held by suspended awaiters inside the simulation
/// primitives and by child spans) stay valid as spans are appended, and
/// survive moving the Trace into the collector.
class Trace {
 public:
  Trace(std::string interaction, int clientId)
      : interaction_(std::move(interaction)), clientId_(clientId) {}
  Trace(Trace&&) = default;
  Trace& operator=(Trace&&) = default;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Appends a span. Runs inside middleware coroutines (never inside the
  /// scheduler's event dispatch), so allocation here is acceptable.
  Span* open(const char* name, Span* parent, sim::SimTime now) {
    Span& s = spans_.emplace_back();
    s.name = name;
    s.trace = this;
    s.parent = parent;
    s.start = now;
    return &s;
  }

  const std::deque<Span>& spans() const noexcept { return spans_; }
  const Span* root() const noexcept { return spans_.empty() ? nullptr : &spans_.front(); }
  const std::string& interaction() const noexcept { return interaction_; }
  int clientId() const noexcept { return clientId_; }

 private:
  std::deque<Span> spans_;
  std::string interaction_;
  int clientId_ = 0;
};

}  // namespace mwsim::trace
