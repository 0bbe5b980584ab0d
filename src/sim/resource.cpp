#include "sim/resource.hpp"

namespace mwsim::sim {

ResourceHold& ResourceHold::operator=(ResourceHold&& other) noexcept {
  if (this != &other) {
    release();
    resource_ = std::exchange(other.resource_, nullptr);
  }
  return *this;
}

void ResourceHold::release() noexcept {
  if (Resource* r = std::exchange(resource_, nullptr)) r->release();
}

void Resource::take() noexcept {
  updateIntegral();
  ++inUse_;
  assert(inUse_ <= capacity_);
}

void Resource::release() noexcept {
  updateIntegral();
  assert(inUse_ > 0);
  --inUse_;
  if (!waiters_.empty() && inUse_ < capacity_) {
    // Waiter-grant choice point: FIFO (index 0) by default; a model-checking
    // strategy may hand the unit to any waiter.
    std::size_t pick = 0;
    if (sim_.mcStrategy() != nullptr && waiters_.size() > 1) [[unlikely]] {
      pick = mcChooseGrant();
    }
    Waiter w = waiters_.takeAt(pick);
    // Reserve the unit for the waiter so a new arrival cannot steal it
    // between now and the waiter's resumption.
    ++inUse_;
    totalWait_ += sim_.now() - w.enqueued;
    if (w.span != nullptr) w.span->add(waitCategory_, sim_.now() - w.enqueued);
    if (sim_.mcObserver() != nullptr) [[unlikely]] {
      sim_.mcTagNextEvent(w.actor, mcId_, mc::Op::AcquireGrant);
      sim_.mcEmit({mc::LockOp::Kind::AcquireGrant, mcId_, w.actor, sim_.now(),
                   0, 0, 0, sim_.now() - w.enqueued});
    }
    sim_.postResume(w.handle, w.span);
  } else if (sim_.mcObserver() != nullptr) [[unlikely]] {
    sim_.mcEmit({mc::LockOp::Kind::Release, mcId_, sim_.mcActor(), sim_.now(),
                 0, 0, 0, 0});
  }
}

void Resource::mcOnQueued() noexcept {
  sim_.mcEmit({mc::LockOp::Kind::AcquireRequest, mcId_, sim_.mcActor(),
               sim_.now(), 0, static_cast<int>(waiters_.size()), inUse_, 0});
}

void Resource::mcOnFastGrant() noexcept {
  sim_.mcEmit({mc::LockOp::Kind::AcquireGrant, mcId_, sim_.mcActor(),
               sim_.now(), 0, 0, inUse_, 0});
}

std::size_t Resource::mcChooseGrant() {
  std::vector<mc::Alternative> alts;
  alts.reserve(waiters_.size());
  for (std::size_t i = 0; i < waiters_.size(); ++i) {
    alts.push_back({waiters_[i].actor, mcId_, mc::Op::AcquireGrant});
  }
  const std::size_t pick = sim_.mcStrategy()->choose(
      mc::ChoiceKind::ResourceGrant, alts.data(), alts.size());
  assert(pick < waiters_.size());
  return pick;
}

void Resource::updateIntegral() const noexcept {
  const SimTime now = sim_.now();
  // Same-instant transitions (batched completions, chained acquire/release)
  // accrue exactly zero, so the skip is bit-identical to the += 0.0.
  if (now == lastUpdate_) return;
  busyIntegral_ += toSeconds(now - lastUpdate_) * inUse_;
  lastUpdate_ = now;
}

double Resource::busyUnitSeconds() const noexcept {
  updateIntegral();
  return busyIntegral_;
}

}  // namespace mwsim::sim
