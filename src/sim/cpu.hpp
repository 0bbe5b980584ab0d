#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace mwsim::sim {

/// Processor-sharing CPU with `cores` cores.
///
/// `co_await cpu.consume(work)` charges `work` nanoseconds of CPU demand.
/// All active jobs share the cores equally (each job runs at rate
/// min(1, cores / n)), which is the standard model for a timeslicing OS
/// scheduler under many concurrent requests.
///
/// Implementation uses the classic virtual-time trick: a counter V advances
/// at the common per-job service rate; each job completes when V reaches its
/// arrival V plus its demand, so arrivals/departures cost O(log n).
class CpuResource {
 public:
  CpuResource(Simulation& sim, int cores, std::string name = {})
      : sim_(sim), cores_(cores), name_(std::move(name)) {
    assert(cores > 0);
  }
  CpuResource(const CpuResource&) = delete;
  CpuResource& operator=(const CpuResource&) = delete;

  struct Awaiter {
    CpuResource& cpu;
    Duration work;
    bool await_ready() const noexcept { return work <= 0; }
    void await_suspend(std::coroutine_handle<> h) { cpu.addJob(work, h); }
    void await_resume() const noexcept {}
  };

  /// Per-job bookkeeping. `span`/`enqueued`/`work` exist so that, at
  /// completion, elapsed wall (virtual) time can be split into pure service
  /// (= demand) and processor-sharing slowdown (= queueing) and attributed
  /// to the job's request span.
  struct Job {
    std::coroutine_handle<> handle;
    trace::Span* span = nullptr;
    Duration work = 0;
    SimTime enqueued = 0;
  };

  /// Heap entry: jobs complete in ascending virtual finish time, FIFO on
  /// exactly equal finish (seq is the arrival order, the tie-break the
  /// multimap this replaces provided via insertion order).
  struct PendingJob {
    double vfinish;
    std::uint64_t seq;
    Job job;

    /// Functor (not a function pointer) so the heap algorithms inline it.
    struct Later {
      bool operator()(const PendingJob& a, const PendingJob& b) const noexcept {
        return a.vfinish != b.vfinish ? a.vfinish > b.vfinish : a.seq > b.seq;
      }
    };
    static constexpr Later later = {};
  };

  /// Awaitable that completes after `work` ns of CPU demand has been served.
  Awaiter consume(Duration work) { return Awaiter{*this, work}; }

  int cores() const noexcept { return cores_; }
  int activeJobs() const noexcept { return static_cast<int>(jobs_.size()); }
  const std::string& name() const noexcept { return name_; }

  /// Integral of busy cores over time, in core-seconds (for utilization).
  double busyCoreSeconds() const noexcept;
  std::uint64_t jobsCompleted() const noexcept { return completed_; }

  /// Integral of jobs-in-system over time, in job-seconds: L for a
  /// Little's-law check is this divided by the window length. Folded at
  /// the same instants as the busy integral, so it is exact, not sampled.
  double jobIntegralSeconds() const noexcept {
    busyCoreSeconds();  // folds both integrals up to now
    return queueIntegral_;
  }
  /// Cumulative sojourn (enqueue -> completion) of completed jobs, in
  /// seconds: W is this divided by jobsCompleted().
  double sojournSeconds() const noexcept { return sojournSeconds_; }

 private:
  friend struct Awaiter;

  void addJob(Duration work, std::coroutine_handle<> h);
  void onCompletionEvent(std::uint64_t seq);
  std::vector<Job> takeScratch();
  void returnScratch(std::vector<Job> v);
  void advance() noexcept;
  double rate() const noexcept {
    const std::size_t n = jobs_.size();
    if (n == 0) return 0.0;
    const double r = static_cast<double>(cores_) / static_cast<double>(n);
    return r < 1.0 ? r : 1.0;
  }
  void scheduleNextCompletion();

  Simulation& sim_;
  int cores_;
  std::string name_;
  // Binary min-heap on (vfinish, seq): the flat, pooled replacement for a
  // node-per-job multimap — arrivals and departures reuse the vector's
  // storage instead of allocating.
  std::vector<PendingJob> jobs_;
  /// Recycled batch buffers for onCompletionEvent — a pool rather than a
  /// single member because resumed jobs can reenter the CPU.
  std::vector<std::vector<Job>> scratchPool_;
  std::uint64_t jobSeq_ = 0;
  double v_ = 0.0;  // virtual per-job service received, in seconds
  SimTime lastUpdate_ = 0;
  mutable double busyIntegral_ = 0.0;  // core-seconds
  mutable SimTime lastIntegralUpdate_ = 0;
  mutable double queueIntegral_ = 0.0;  // job-seconds
  double sojournSeconds_ = 0.0;
  /// Event seq of the live completion event; any completion event whose
  /// seq differs was superseded by a later arrival/departure and is
  /// ignored at dispatch. Seqs are unique for the simulation's lifetime,
  /// so a stale event can never be mistaken for the live one.
  static constexpr std::uint64_t kNoCompletion = ~std::uint64_t{0};
  std::uint64_t completionSeq_ = kNoCompletion;
  std::uint64_t completed_ = 0;
};

}  // namespace mwsim::sim
