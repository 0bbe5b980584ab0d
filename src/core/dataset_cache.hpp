#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "db/database.hpp"

namespace mwsim::core {

enum class App;  // experiment.hpp

/// Process-wide cache of populated databases.
///
/// Populating a paper-scale database is the most expensive part of a short
/// run, and every point of a sweep starts from the same initial content:
/// only (app, scale knob, population seed) determine it. The cache builds
/// each such prototype once, and a run works on a private copy of it.
///
/// Copies are recycled: get() hands out a checkpointed copy, put() rolls its
/// writes back (db::Database::rollback) and pools it for the next get() of
/// the same key. A run writes a few thousand rows of a dataset whose
/// clone-plus-free costs a large share of a short run, so undoing the writes
/// is far cheaper than copying the dataset per point. A rolled-back copy is
/// state-identical to the prototype, so it behaves exactly like a fresh
/// clone. Copies are cloned only while the pool for a key is empty, so the
/// pool holds at most one copy per database backend that ran concurrently;
/// they live until clear().
///
/// Thread-safe: concurrent get()s for the same key block on one build
/// (tracked as a shared_future) while builds for other keys proceed; pool
/// hand-outs and returns happen under the cache mutex, so each copy belongs
/// to one run at a time. The prototype itself is immutable after
/// construction.
class DatasetCache {
 public:
  static DatasetCache& global();

  /// Returns a private copy of the populated database for the key: a pooled
  /// one, or else a fresh clone of the shared prototype, built on first use.
  /// Either way the copy is checkpointed, so put() can roll it back.
  /// `dataSeed` is the exact seed the population Rng is constructed with
  /// (see ExperimentParams::dataSeed).
  db::Database get(App app, double scale, std::uint64_t dataSeed);

  /// Takes back a copy get() returned for the same key, once nothing refers
  /// to it any more: rolls it back, checks it against the key's prototype
  /// (every table's row slots, live rows, bytes and auto-increment state)
  /// and pools it. A copy that fails the check is dropped and
  /// std::logic_error thrown. While the key has no built prototype (clear()
  /// ran since get()), the copy is just dropped.
  void put(App app, double scale, std::uint64_t dataSeed, db::Database copy);

  /// Drops every cached prototype and pooled copy (tests; long-lived
  /// processes that change workloads).
  void clear();

  /// Number of distinct prototypes currently held.
  std::size_t size() const;

  /// Prototypes built since process start (cache misses), for tests.
  std::uint64_t builds() const;

  /// Copies cloned from a prototype since process start (pool misses), for
  /// tests.
  std::uint64_t clones() const;

 private:
  using Key = std::tuple<int, double, std::uint64_t>;
  struct Entry {
    std::shared_future<std::shared_ptr<const db::Database>> prototype;
    std::vector<db::Database> pool;  // rolled back, checkpointed
  };

  mutable std::mutex mu_;
  std::map<Key, Entry> map_;
  std::uint64_t builds_ = 0;
  std::uint64_t clones_ = 0;
};

}  // namespace mwsim::core
