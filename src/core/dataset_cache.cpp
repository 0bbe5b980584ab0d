#include "core/dataset_cache.hpp"

#include <chrono>
#include <stdexcept>
#include <string>

#include "apps/auction/schema.hpp"
#include "apps/bbs/schema.hpp"
#include "apps/bookstore/schema.hpp"
#include "core/experiment.hpp"
#include "sim/random.hpp"

namespace mwsim::core {

namespace {

db::Database buildPrototype(App app, double scale, std::uint64_t dataSeed) {
  db::Database database;
  sim::Rng rng(dataSeed);
  switch (app) {
    case App::Bookstore: {
      apps::bookstore::Scale s;
      s.scale = scale;
      apps::bookstore::createSchema(database);
      apps::bookstore::populate(database, s, rng);
      break;
    }
    case App::Auction: {
      apps::auction::Scale s;
      s.historyScale = scale;
      apps::auction::createSchema(database);
      apps::auction::populate(database, s, rng);
      break;
    }
    case App::BulletinBoard: {
      apps::bbs::Scale s;
      s.historyScale = scale;
      apps::bbs::createSchema(database);
      apps::bbs::populate(database, s, rng);
      break;
    }
  }
  return database;
}

/// Throws unless every table of `copy` matches `prototype` in row slots,
/// live rows, bytes, auto-increment state and the sizes of its pk and
/// secondary indexes: a cheap guard, run before a rolled-back copy is
/// pooled, that the rollback restored the prototype.
void checkRolledBack(const db::Database& copy, const db::Database& prototype) {
  if (copy.tableNames() != prototype.tableNames()) {
    throw std::logic_error("dataset copy's tables differ from its prototype's");
  }
  for (const std::string& name : prototype.tableNames()) {
    const db::Table& a = copy.table(name);
    const db::Table& b = prototype.table(name);
    bool same = a.rowSlots() == b.rowSlots() && a.size() == b.size() &&
                a.approxBytes() == b.approxBytes() && a.maxAssignedId() == b.maxAssignedId() &&
                a.lastInsertId() == b.lastInsertId() && a.pkIndexSize() == b.pkIndexSize();
    for (const std::size_t c : b.schema().secondaryIndexes) {
      same = same && a.orderedIndex(c)->size() == b.orderedIndex(c)->size();
    }
    if (!same) {
      throw std::logic_error("dataset copy's table " + name +
                             " did not roll back to its prototype");
    }
  }
}

}  // namespace

DatasetCache& DatasetCache::global() {
  static DatasetCache instance;
  return instance;
}

db::Database DatasetCache::get(App app, double scale, std::uint64_t dataSeed) {
  const Key key{static_cast<int>(app), scale, dataSeed};
  std::shared_future<std::shared_ptr<const db::Database>> prototype;
  {
    std::unique_lock lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      // We are the builder: publish the future before unlocking so
      // concurrent requesters wait for us instead of building again.
      std::promise<std::shared_ptr<const db::Database>> promise;
      prototype = promise.get_future().share();
      map_.emplace(key, Entry{prototype, {}});
      ++builds_;
      ++clones_;
      lock.unlock();
      try {
        promise.set_value(
            std::make_shared<const db::Database>(buildPrototype(app, scale, dataSeed)));
      } catch (...) {
        // Unpublish before failing the future, so a later call retries
        // rather than caching failure, and put() never meets a failed build.
        {
          std::lock_guard relock(mu_);
          map_.erase(key);
        }
        promise.set_exception(std::current_exception());
        throw;
      }
    } else if (!it->second.pool.empty()) {
      db::Database copy = std::move(it->second.pool.back());
      it->second.pool.pop_back();
      return copy;
    } else {
      prototype = it->second.prototype;
      ++clones_;
    }
  }
  db::Database copy = prototype.get()->clone();
  copy.checkpoint();
  return copy;
}

void DatasetCache::put(App app, double scale, std::uint64_t dataSeed, db::Database copy) {
  const Key key{static_cast<int>(app), scale, dataSeed};
  std::shared_ptr<const db::Database> prototype;
  {
    std::lock_guard lock(mu_);
    const auto it = map_.find(key);
    // Only a clear() while the copy was out leaves its key without a built
    // prototype; the copy is dropped then.
    if (it == map_.end() || it->second.prototype.wait_for(std::chrono::seconds(0)) !=
                                std::future_status::ready) {
      return;
    }
    prototype = it->second.prototype.get();
  }
  copy.rollback();
  checkRolledBack(copy, *prototype);
  std::lock_guard lock(mu_);
  if (const auto it = map_.find(key); it != map_.end()) {
    it->second.pool.push_back(std::move(copy));
  }
}

void DatasetCache::clear() {
  std::lock_guard lock(mu_);
  map_.clear();
}

std::size_t DatasetCache::size() const {
  std::lock_guard lock(mu_);
  return map_.size();
}

std::uint64_t DatasetCache::builds() const {
  std::lock_guard lock(mu_);
  return builds_;
}

std::uint64_t DatasetCache::clones() const {
  std::lock_guard lock(mu_);
  return clones_;
}

}  // namespace mwsim::core
