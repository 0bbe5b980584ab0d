#include "middleware/db_cluster.hpp"

#include <stdexcept>
#include <string>

namespace mwsim::mw {

DbCluster::DbCluster(sim::Simulation& simulation, const CostModel& cost, DbPolicy policy,
                     std::vector<net::Machine*> machines,
                     std::span<db::Database> databases)
    : policy_(policy) {
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

std::size_t DbCluster::shardFor(const db::PlannedStatement& stmt,
                                const std::vector<db::Value>& params) const {
  if (!params.empty() && !params.front().isNull()) {
    return static_cast<std::size_t>(fnv1a(params.front().toDisplayString()) %
                                    backends_.size());
  }
  return static_cast<std::size_t>(fnv1a(stmt.stmt().text) % backends_.size());
}

}  // namespace mwsim::mw
