#include "sim/cpu.hpp"

#include <algorithm>
#include <vector>

namespace mwsim::sim {

namespace {
// Tolerance when comparing virtual times: one simulated nanosecond of
// service at full rate.
constexpr double kVEpsilon = 2e-9;
}  // namespace

void CpuResource::advance() noexcept {
  const SimTime now = sim_.now();
  // Both integrals already folded up to this instant: nothing can accrue
  // over a zero-length interval, so the early-out is bit-identical.
  if (now == lastUpdate_ && now == lastIntegralUpdate_) return;
  busyCoreSeconds();  // folds busy time up to now into the integral
  const double dt = toSeconds(now - lastUpdate_);
  if (dt > 0.0) v_ += dt * rate();
  lastUpdate_ = now;
}

double CpuResource::busyCoreSeconds() const noexcept {
  const SimTime now = sim_.now();
  const double dt = toSeconds(now - lastIntegralUpdate_);
  if (dt > 0.0) {
    const int busy = jobs_.size() < static_cast<std::size_t>(cores_)
                         ? static_cast<int>(jobs_.size())
                         : cores_;
    busyIntegral_ += dt * busy;
    // The job count is constant between event dispatches, so folding at
    // the same instants as the busy integral makes this exact.
    queueIntegral_ += dt * static_cast<double>(jobs_.size());
    lastIntegralUpdate_ = now;
  }
  return busyIntegral_;
}

void CpuResource::addJob(Duration work, std::coroutine_handle<> h) {
  advance();
  Job job{h, sim_.currentSpan(), work, sim_.now()};
  if (job.span != nullptr) sim_.setCurrentSpan(nullptr);  // cleared at suspension
  jobs_.push_back(PendingJob{v_ + toSeconds(work), jobSeq_++, job});
  std::push_heap(jobs_.begin(), jobs_.end(), PendingJob::later);
  scheduleNextCompletion();
}

void CpuResource::scheduleNextCompletion() {
  if (jobs_.empty()) {
    completionSeq_ = kNoCompletion;
    return;
  }
  const double target = jobs_.front().vfinish;
  const double r = rate();
  assert(r > 0.0);
  // NB: keep this exact division sequence — rewriting it as `* n / cores`
  // changes double rounding, which shifts completion event times by a
  // nanosecond and breaks bit-identical replay of seeded experiments.
  double dtSeconds = (target - v_) / r;
  if (dtSeconds < 0.0) dtSeconds = 0.0;
  // Round up one ns so v_ is guaranteed to have passed the target when the
  // completion event fires.
  const Duration dt = fromSeconds(dtSeconds) + 1;
  completionSeq_ = sim_.scheduleCall(
      dt,
      [](void* self, std::uint64_t seq) {
        static_cast<CpuResource*>(self)->onCompletionEvent(seq);
      },
      this);
}

void CpuResource::onCompletionEvent(std::uint64_t seq) {
  if (seq != completionSeq_) return;  // superseded by a later arrival/departure
  advance();
  // A resumed job may reenter this CPU (consume again completes 0-work
  // jobs inline via a 1 ns event), so the batch buffer must be per-call;
  // the pool keeps steady-state completions allocation-free anyway.
  std::vector<Job> finished = takeScratch();
  while (!jobs_.empty() && jobs_.front().vfinish <= v_ + kVEpsilon) {
    std::pop_heap(jobs_.begin(), jobs_.end(), PendingJob::later);
    finished.push_back(jobs_.back().job);
    jobs_.pop_back();
  }
  completed_ += finished.size();
  for (const Job& job : finished) {
    sojournSeconds_ += toSeconds(sim_.now() - job.enqueued);
  }
  scheduleNextCompletion();
  for (const Job& job : finished) {
    if (job.span != nullptr) {
      const Duration elapsed = sim_.now() - job.enqueued;
      // Batched completions within kVEpsilon (and the +1ns event round-up)
      // can make elapsed differ slightly from the ideal; clamp so service
      // never exceeds either demand or elapsed, and the split stays exact.
      const Duration service = elapsed < job.work ? elapsed : job.work;
      job.span->add(trace::Category::CpuService, service);
      job.span->add(trace::Category::CpuQueue, elapsed - service);
      sim_.setCurrentSpan(job.span);
      job.handle.resume();
      sim_.setCurrentSpan(nullptr);
    } else {
      job.handle.resume();
    }
  }
  returnScratch(std::move(finished));
}

std::vector<CpuResource::Job> CpuResource::takeScratch() {
  if (scratchPool_.empty()) return {};
  std::vector<Job> v = std::move(scratchPool_.back());
  scratchPool_.pop_back();
  return v;
}

void CpuResource::returnScratch(std::vector<Job> v) {
  v.clear();
  scratchPool_.push_back(std::move(v));
}

}  // namespace mwsim::sim
