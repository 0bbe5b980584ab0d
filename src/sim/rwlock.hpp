#pragma once

#include <cassert>
#include <coroutine>
#include <string>
#include <utility>

#include "sim/ring_queue.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace mwsim::sim {

class RwLock;

/// RAII ownership of a read or write lock on an RwLock.
class [[nodiscard]] LockHold {
 public:
  LockHold() noexcept = default;
  LockHold(RwLock* lock, bool write) noexcept : lock_(lock), write_(write) {}
  LockHold(LockHold&& other) noexcept
      : lock_(std::exchange(other.lock_, nullptr)), write_(other.write_) {}
  LockHold& operator=(LockHold&& other) noexcept;
  LockHold(const LockHold&) = delete;
  LockHold& operator=(const LockHold&) = delete;
  ~LockHold() { release(); }

  void release() noexcept;
  bool holds() const noexcept { return lock_ != nullptr; }
  bool isWrite() const noexcept { return write_; }

 private:
  RwLock* lock_ = nullptr;
  bool write_ = false;
};

/// Reader-writer lock with writer priority — the semantics of MySQL/MyISAM
/// table locks: once a writer is waiting, newly arriving readers queue
/// behind it. This is the mechanism behind the paper's database
/// lock-contention results (Figures 5, 9).
class RwLock {
 public:
  explicit RwLock(Simulation& sim, std::string name = {})
      : sim_(sim), name_(std::move(name)), mcId_(sim.nextLockId()) {}
  RwLock(const RwLock&) = delete;
  RwLock& operator=(const RwLock&) = delete;

  struct Awaiter {
    RwLock& lock;
    bool write;
    bool suspended = false;

    bool await_ready() const noexcept {
      if (write) return !lock.activeWriter_ && lock.activeReaders_ == 0;
      // Under the (test-only) reader-preference mutation, arriving readers
      // ignore waiting writers — the starvation bug the model checker must
      // be able to catch.
      return !lock.activeWriter_ &&
             (lock.writersWaiting_ == 0 || lock.readerPreference_);
    }
    void await_suspend(std::coroutine_handle<> h) {
      suspended = true;
      if (write) ++lock.writersWaiting_;
      ++lock.contended_;
      trace::Span* span = lock.sim_.currentSpan();
      if (span != nullptr) lock.sim_.setCurrentSpan(nullptr);  // cleared at suspension
      lock.waiters_.push_back(
          Waiter{h, write, lock.sim_.now(), span, lock.sim_.mcActor()});
      if (lock.sim_.mcObserver() != nullptr) [[unlikely]] {
        lock.mcOnQueued(write);
      }
    }
    LockHold await_resume() noexcept {
      // When resumed from the queue, grantNext() already updated the lock
      // state; on the fast path we take the lock here.
      if (!suspended) {
        lock.take(write);
        if (lock.sim_.mcObserver() != nullptr) [[unlikely]] {
          lock.mcOnFastGrant(write);
        }
      }
      ++(write ? lock.writeAcquisitions_ : lock.readAcquisitions_);
      return LockHold(&lock, write);
    }
  };

  /// Awaitable shared (read) acquisition.
  Awaiter lockRead() { return Awaiter{*this, /*write=*/false}; }
  /// Awaitable exclusive (write) acquisition.
  Awaiter lockWrite() { return Awaiter{*this, /*write=*/true}; }

  void unlock(bool write) noexcept;

  int activeReaders() const noexcept { return activeReaders_; }
  bool activeWriter() const noexcept { return activeWriter_; }
  std::size_t queueLength() const noexcept { return waiters_.size(); }
  const std::string& name() const noexcept { return name_; }

  std::uint64_t readAcquisitions() const noexcept { return readAcquisitions_; }
  std::uint64_t writeAcquisitions() const noexcept { return writeAcquisitions_; }
  /// Number of acquisitions that had to wait.
  std::uint64_t contendedAcquisitions() const noexcept { return contended_; }
  Duration totalWait() const noexcept { return totalWait_; }

  /// Stable identity for model-checking descriptors and lock-op streams.
  std::uint64_t mcId() const noexcept { return mcId_; }

  /// Test-only seeded mutation: drops writer priority (arriving readers
  /// bypass waiting writers, and releases grant queued readers over queued
  /// writers). Exists so tests/mc_test.cpp can prove the model checker
  /// *fails* on a lock that starves writers — never enable it elsewhere.
  void enableReaderPreferenceMutation() noexcept { readerPreference_ = true; }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    bool write;
    SimTime enqueued;
    trace::Span* span = nullptr;
    std::uint64_t actor = 0;  // mc::Alternative actor; 0 outside MC runs
  };

  void take(bool write) noexcept {
    if (write) {
      assert(!activeWriter_ && activeReaders_ == 0);
      activeWriter_ = true;
    } else {
      assert(!activeWriter_);
      ++activeReaders_;
    }
  }
  void grantNext() noexcept;
  void grantReaderPreference() noexcept;
  void grantWaiter(std::size_t index) noexcept;
  // Model-checking cold paths: request/grant lock-op emission and the
  // writer-grant choice point (which of several waiting writers gets the
  // lock — MyISAM promises writers beat readers, not writer FIFO).
  void mcOnQueued(bool write) noexcept;
  void mcOnFastGrant(bool write) noexcept;
  std::size_t mcChooseWriter();
  int queuedReaders() const noexcept {
    return static_cast<int>(waiters_.size()) - writersWaiting_;
  }

  Simulation& sim_;
  std::string name_;
  int activeReaders_ = 0;
  bool activeWriter_ = false;
  int writersWaiting_ = 0;
  bool readerPreference_ = false;
  RingQueue<Waiter> waiters_;
  std::uint64_t readAcquisitions_ = 0;
  std::uint64_t writeAcquisitions_ = 0;
  std::uint64_t contended_ = 0;
  Duration totalWait_ = 0;
  std::uint64_t mcId_ = 0;
};

}  // namespace mwsim::sim
