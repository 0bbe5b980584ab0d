#include "sim/rwlock.hpp"

#include <vector>

namespace mwsim::sim {

LockHold& LockHold::operator=(LockHold&& other) noexcept {
  if (this != &other) {
    release();
    lock_ = std::exchange(other.lock_, nullptr);
    write_ = other.write_;
  }
  return *this;
}

void LockHold::release() noexcept {
  if (RwLock* l = std::exchange(lock_, nullptr)) l->unlock(write_);
}

void RwLock::unlock(bool write) noexcept {
  if (write) {
    assert(activeWriter_);
    activeWriter_ = false;
  } else {
    assert(activeReaders_ > 0);
    --activeReaders_;
  }
  if (sim_.mcObserver() != nullptr) [[unlikely]] {
    sim_.mcEmit({write ? mc::LockOp::Kind::WriteRelease
                       : mc::LockOp::Kind::ReadRelease,
                 mcId_, sim_.mcActor(), sim_.now(), writersWaiting_,
                 queuedReaders(), activeReaders_, 0});
  }
  grantNext();
}

/// Grants waiters_[index] (removing it from the queue), updates the lock
/// state, and schedules the waiter's resumption. The caller has already
/// checked eligibility. index 0 is the plain FIFO path and stays O(1).
void RwLock::grantWaiter(std::size_t index) noexcept {
  Waiter w = waiters_.takeAt(index);
  if (w.write) {
    activeWriter_ = true;
    --writersWaiting_;
  } else {
    ++activeReaders_;
  }
  totalWait_ += sim_.now() - w.enqueued;
  if (w.span != nullptr) w.span->add(trace::Category::LockWait, sim_.now() - w.enqueued);
  if (sim_.mcObserver() != nullptr) [[unlikely]] {
    sim_.mcTagNextEvent(w.actor, mcId_,
                        w.write ? mc::Op::WriteGrant : mc::Op::ReadGrant);
    sim_.mcEmit({w.write ? mc::LockOp::Kind::WriteGrant
                         : mc::LockOp::Kind::ReadGrant,
                 mcId_, w.actor, sim_.now(), writersWaiting_, queuedReaders(),
                 activeReaders_, sim_.now() - w.enqueued});
  }
  sim_.postResume(w.handle, w.span);
}

void RwLock::grantNext() noexcept {
  if (activeWriter_) return;
  if (readerPreference_) [[unlikely]] {
    grantReaderPreference();
    return;
  }
  // Writer priority: the queue is FIFO, but a waiting writer at the head
  // blocks all readers behind it until the lock is free.
  while (!waiters_.empty()) {
    if (waiters_.front().write) {
      if (activeReaders_ > 0) return;  // writer must wait for readers to drain
      // Writer-grant choice point: with several writers waiting, which one
      // gets the lock is real nondeterminism (MyISAM promises writers beat
      // readers, not writer FIFO). Default: the head writer, as before.
      std::size_t pick = 0;
      if (sim_.mcStrategy() != nullptr && writersWaiting_ > 1) [[unlikely]] {
        pick = mcChooseWriter();
      }
      grantWaiter(pick);
      return;  // exclusive: nothing else can be granted
    }
    // Grant a reader and continue granting consecutive readers.
    grantWaiter(0);
  }
}

/// Mutated discipline (test-only): queued readers are granted first
/// regardless of position; a writer gets the lock only when no reader is
/// active or queued. Together with the await_ready bypass this recreates the
/// classic writer-starvation bug the model checker must detect.
void RwLock::grantReaderPreference() noexcept {
  std::size_t i = 0;
  while (i < waiters_.size()) {
    if (waiters_[i].write) {
      ++i;
    } else {
      grantWaiter(i);  // removal shifts the next candidate into slot i
    }
  }
  if (activeReaders_ == 0 && !waiters_.empty()) {
    assert(waiters_.front().write);
    grantWaiter(0);
  }
}

void RwLock::mcOnQueued(bool write) noexcept {
  sim_.mcEmit({write ? mc::LockOp::Kind::WriteRequest
                     : mc::LockOp::Kind::ReadRequest,
               mcId_, sim_.mcActor(), sim_.now(), writersWaiting_,
               queuedReaders(), activeReaders_, 0});
}

void RwLock::mcOnFastGrant(bool write) noexcept {
  sim_.mcEmit({write ? mc::LockOp::Kind::WriteGrant
                     : mc::LockOp::Kind::ReadGrant,
               mcId_, sim_.mcActor(), sim_.now(), writersWaiting_,
               queuedReaders(), activeReaders_, 0});
}

std::size_t RwLock::mcChooseWriter() {
  std::vector<mc::Alternative> alts;
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < waiters_.size(); ++i) {
    if (waiters_[i].write) {
      alts.push_back({waiters_[i].actor, mcId_, mc::Op::WriteGrant});
      indices.push_back(i);
    }
  }
  const std::size_t pick = sim_.mcStrategy()->choose(
      mc::ChoiceKind::RwLockGrant, alts.data(), alts.size());
  assert(pick < indices.size());
  return indices[pick];
}

}  // namespace mwsim::sim
