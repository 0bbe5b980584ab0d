#include "middleware/db_cluster.hpp"

#include <stdexcept>
#include <string>

namespace mwsim::mw {

DbCluster::DbCluster(sim::Simulation& simulation, const CostModel& cost, DbPolicy policy,
                     std::vector<net::Machine*> machines,
                     std::span<db::Database> databases)
    : policy_(policy), reads_(databases.size(), 0) {
  if (machines.empty() || machines.size() != databases.size()) {
    throw std::invalid_argument("DbCluster needs one database copy per machine");
  }
  owned_.reserve(databases.size());
  backends_.reserve(databases.size());
  for (std::size_t i = 0; i < databases.size(); ++i) {
    owned_.push_back(
        std::make_unique<DatabaseServer>(simulation, *machines[i], databases[i], cost));
    backends_.push_back(owned_.back().get());
  }
  if (backends_.size() > 1) {
    writeStream_ = std::make_unique<sim::Mutex>(simulation, 1, "dbcluster.writestream",
                                                trace::Category::LockWait);
  }
}

namespace {

/// FNV-1a, fixed here rather than std::hash so shard routing is identical
/// across platforms and standard libraries (determinism contract).
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::size_t DbCluster::routeRead(const db::PlannedStatement& stmt,
                                 const std::vector<db::Value>& params, bool underLocks) {
  std::size_t target = 0;
  if (!underLocks) {
    if (policy_ == DbPolicy::ShardedByKey) {
      target = shardFor(stmt, params);
    } else {
      target = nextRead_;
      nextRead_ = (nextRead_ + 1) % backends_.size();
    }
  }
  ++reads_[target];
  return target;
}

std::size_t DbCluster::shardFor(const db::PlannedStatement& stmt,
                                const std::vector<db::Value>& params) const {
  if (!params.empty() && !params.front().isNull()) {
    return static_cast<std::size_t>(fnv1a(params.front().toDisplayString()) %
                                    backends_.size());
  }
  return static_cast<std::size_t>(fnv1a(stmt.stmt().text) % backends_.size());
}

LockTotals DbCluster::lockTotals() const {
  LockTotals totals;
  for (const DatabaseServer* backend : backends_) backend->addLockTotals(totals);
  return totals;
}

void DbCluster::addProbes(obs::MetricsRegistry& registry) const {
  for (const DatabaseServer* backend : backends_) backend->addProbes(registry);
  if (backends_.size() < 2) return;
  const sim::Mutex* ws = writeStream_.get();
  registry.addUtilizationProbe("db-cluster/write-stream", obs::ResourceKind::Stream, 1.0,
                               [ws] { return ws->busyUnitSeconds(); });
  registry.addGaugeProbe("db-cluster/write-stream.queue",
                         [ws] { return static_cast<double>(ws->queueLength()); });
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    registry.addCounterProbe("db.read." + backends_[b]->machine().name(),
                             [this, b] { return reads_[b]; });
  }
}

}  // namespace mwsim::mw
