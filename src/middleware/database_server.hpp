#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/database.hpp"
#include "db/executor.hpp"
#include "middleware/cost_model.hpp"
#include "net/machine.hpp"
#include "obs/metrics.hpp"
#include "sim/rwlock.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace mwsim::mw {

/// Lock contention at the database over a run, summed over servers and
/// their table locks.
struct LockTotals {
  std::uint64_t acquisitions = 0;
  std::uint64_t contended = 0;
  double waitSeconds = 0.0;
  /// Wait on the global lock-manager mutex (LOCK_open), kept apart from
  /// table-lock wait.
  double lockManagerWaitSeconds = 0.0;
};

/// Simulated MySQL/MyISAM server.
///
/// Executes statements against the real in-memory engine while charging the
/// database machine's CPU according to the execution statistics, and
/// enforcing MyISAM's table-level locking:
///  * every statement takes implicit per-table read/write locks for its
///    service time, unless the connection holds explicit locks;
///  * `LOCK TABLES` acquires writer-priority locks that the connection keeps
///    across statements until `UNLOCK TABLES` — including across the
///    client<->server round trips between those statements, which is what
///    makes multi-statement critical sections expensive under contention.
class DatabaseServer {
 public:
  DatabaseServer(sim::Simulation& simulation, net::Machine& machine, db::Database& database,
                 const CostModel& cost)
      : sim_(simulation), machine_(machine), database_(database), executor_(database),
        cost_(cost), lockManager_(simulation, 1, "mysql.LOCK_open") {}
  DatabaseServer(const DatabaseServer&) = delete;
  DatabaseServer& operator=(const DatabaseServer&) = delete;

  net::Machine& machine() noexcept { return machine_; }
  db::Database& database() noexcept { return database_; }

  /// Per-table lock (created on demand).
  sim::RwLock& tableLock(const std::string& table) {
    auto it = locks_.find(table);
    if (it == locks_.end()) {
      it = locks_.emplace(table, std::make_unique<sim::RwLock>(sim_, table)).first;
    }
    return *it->second;
  }

  /// CPU demand for one executed statement, derived from what the engine
  /// actually did.
  sim::Duration queryCpuCost(const db::ExecStats& stats) const {
    const double us = cost_.dbPerQueryUs +
                      static_cast<double>(stats.rowsExamined) * cost_.dbPerRowExaminedUs +
                      static_cast<double>(stats.bytesExamined) * cost_.dbPerExaminedByteUs +
                      static_cast<double>(stats.rowsSorted) * cost_.dbPerRowSortedUs +
                      static_cast<double>(stats.rowsModified) * cost_.dbPerRowModifiedUs +
                      static_cast<double>(stats.aggregatedGroups) * cost_.dbPerGroupUs +
                      static_cast<double>(stats.resultBytes) * cost_.dbPerResultByteUs;
    return sim::fromMicros(us);
  }

  /// One client connection, holding explicit-lock state.
  class Connection {
   public:
    explicit Connection(DatabaseServer& server) : server_(server) {}
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    /// Server-side processing: lock acquisition, CPU service, execution.
    /// Takes the cached planned statement, so repeated executions reuse the
    /// per-catalog query plan.
    sim::Task<db::ExecResult> process(std::shared_ptr<const db::PlannedStatement> stmt,
                                      std::vector<db::Value> params);

    bool holdsExplicitLocks() const noexcept { return !explicitLocks_.empty(); }

    /// Drops explicit locks without a round trip (teardown safety net).
    void releaseExplicitLocks() noexcept { explicitLocks_.clear(); }

   private:
    DatabaseServer& server_;
    // Table name -> held explicit lock; std::map keeps deterministic
    // (sorted) acquisition order, preventing lock-order deadlocks.
    std::map<std::string, sim::LockHold> explicitLocks_;
  };

  std::unique_ptr<Connection> connect() { return std::make_unique<Connection>(*this); }

  /// Total statements processed (for tests/benches).
  std::uint64_t statementsProcessed() const noexcept { return statements_; }

  /// Adds this server's table-lock and lock-manager totals to `totals`.
  void addLockTotals(LockTotals& totals) const;

  /// Registers this server's instruments, named after its machine: the
  /// global lock-manager mutex (utilization ~1.0 is the LOCK TABLES wall),
  /// table-lock queue depth and grant rate, and the statement throughput.
  void addProbes(obs::MetricsRegistry& registry) const;

 private:
  friend class Connection;

  sim::Simulation& sim_;
  net::Machine& machine_;
  db::Database& database_;
  db::Executor executor_;
  const CostModel& cost_;
  std::map<std::string, std::unique_ptr<sim::RwLock>> locks_;
  /// MySQL 3.23's global lock-manager mutex (LOCK_open / THR_LOCK): every
  /// statement passes through it briefly, and `LOCK TABLES` holds it for
  /// the whole multi-table acquisition — so while a writer waits for long
  /// readers to drain, the server admits no new statements. This coarse
  /// serialization is what caps the database CPU near 70 % in the paper's
  /// non-sync bookstore runs (Figures 5/6) and is exactly the contention
  /// the Java-monitor configurations avoid.
  sim::Mutex lockManager_;
  std::uint64_t statements_ = 0;
};

}  // namespace mwsim::mw
