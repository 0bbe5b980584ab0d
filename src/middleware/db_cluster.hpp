#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "db/database.hpp"
#include "db/plan.hpp"
#include "middleware/database_server.hpp"
#include "middleware/policy.hpp"
#include "obs/metrics.hpp"
#include "sim/resource.hpp"

namespace mwsim::mw {

/// A replicated database tier, as the drivers see it.
///
/// Every backend holds a complete copy of the dataset (the paper's §7
/// read-scaling cluster: replicate the content, fan the reads out, keep the
/// copies identical by applying every write everywhere). The two policies
/// differ only in *routing*:
///
///  * MasterReplica — reads rotate over all backends; writes go to backend
///    0 first and then to each mirror, under a cluster-wide write stream
///    that makes concurrent writers apply in the same order on every copy.
///  * ShardedByKey — the driver routes each statement to a deterministic
///    key-owner backend, so each backend's cache/locks see only its share
///    of the key space; writes still replicate (content stays full copies —
///    this splits load, not storage).
///
/// A write completes only after every backend applied it, so any statement
/// issued after a write's round trip observes it on every backend: reads
/// are never stale, and auto-increment ids agree across copies because all
/// copies apply the same writes in the same order.
///
/// Explicit LOCK TABLES fans out to all backends in fixed backend order
/// (ordered acquisition — no lock-order deadlocks), giving a critical
/// section the same mutual exclusion it had on one server.
class DbCluster {
 public:
  /// Wraps one externally owned server (tests, hand-built rigs). The
  /// cluster adds no behavior at size 1 — DbSession takes the legacy
  /// single-server path.
  explicit DbCluster(DatabaseServer& server) : backends_{&server}, reads_(1, 0) {}

  /// Owning mode: one DatabaseServer per (machine, database copy) pair.
  /// `machines` and `databases` must be the same length. The databases stay
  /// the caller's and must outlive the cluster, whose servers refer to them.
  DbCluster(sim::Simulation& simulation, const CostModel& cost, DbPolicy policy,
            std::vector<net::Machine*> machines, std::span<db::Database> databases);

  DbCluster(const DbCluster&) = delete;
  DbCluster& operator=(const DbCluster&) = delete;

  std::size_t size() const noexcept { return backends_.size(); }
  DatabaseServer& backend(std::size_t i) noexcept { return *backends_[i]; }
  DatabaseServer& primary() noexcept { return *backends_[0]; }
  DbPolicy policy() const noexcept { return policy_; }

  /// Backend that serves one replicated read, counted against it. Inside a
  /// LOCK TABLES section (`underLocks`) the read must run on a connection
  /// that holds the locks; backend 0 is that connection's canonical home
  /// (all backends hold the locks, pinning keeps the routing deterministic
  /// and simple). Otherwise ShardedByKey picks the key owner and
  /// MasterReplica rotates over all backends.
  std::size_t routeRead(const db::PlannedStatement& stmt,
                        const std::vector<db::Value>& params, bool underLocks);

  /// Key-owner backend for a statement (ShardedByKey). Keys on the first
  /// bound parameter when there is one (the apps' hot statements bind the
  /// entity id first), else on the SQL text — deterministic either way.
  std::size_t shardFor(const db::PlannedStatement& stmt,
                       const std::vector<db::Value>& params) const;

  /// Serializes replicated writes so every backend applies them in one
  /// global order. Null at size 1 (never needed).
  sim::Mutex* writeStream() noexcept { return writeStream_.get(); }

  /// Lock contention summed over the backends, in backend order.
  LockTotals lockTotals() const;

  /// Registers every backend's instruments, then, for a replicated
  /// cluster, the write stream's and the per-backend read counts
  /// (`db.read.<machine>`).
  void addProbes(obs::MetricsRegistry& registry) const;

 private:
  std::vector<std::unique_ptr<DatabaseServer>> owned_;  // owning mode only
  std::vector<DatabaseServer*> backends_;
  DbPolicy policy_ = DbPolicy::MasterReplica;
  std::size_t nextRead_ = 0;
  std::vector<std::uint64_t> reads_;  // per backend, routed by routeRead
  std::unique_ptr<sim::Mutex> writeStream_;
};

}  // namespace mwsim::mw
