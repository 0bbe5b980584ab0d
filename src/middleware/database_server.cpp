#include "middleware/database_server.hpp"

#include <algorithm>

#include "trace/scope.hpp"

namespace mwsim::mw {

namespace {

/// Tables a statement touches, with the lock mode it needs.
struct TableLockNeed {
  std::string table;
  bool write;
};

std::vector<TableLockNeed> locksNeeded(const db::Statement& stmt) {
  std::vector<TableLockNeed> out;
  switch (stmt.kind) {
    case db::Statement::Kind::Select:
      out.push_back({stmt.select.from.table, false});
      for (const auto& j : stmt.select.joins) out.push_back({j.table.table, false});
      break;
    case db::Statement::Kind::Insert:
      out.push_back({stmt.insert.table, true});
      break;
    case db::Statement::Kind::Update:
      out.push_back({stmt.update.table, true});
      break;
    case db::Statement::Kind::Delete:
      out.push_back({stmt.del.table, true});
      break;
    default:
      break;
  }
  // Deterministic (sorted) acquisition order; deduplicate keeping the
  // strongest mode.
  std::sort(out.begin(), out.end(),
            [](const TableLockNeed& a, const TableLockNeed& b) { return a.table < b.table; });
  std::vector<TableLockNeed> dedup;
  for (auto& need : out) {
    if (!dedup.empty() && dedup.back().table == need.table) {
      dedup.back().write = dedup.back().write || need.write;
    } else {
      dedup.push_back(std::move(need));
    }
  }
  return dedup;
}

}  // namespace

sim::Task<db::ExecResult> DatabaseServer::Connection::process(
    std::shared_ptr<const db::PlannedStatement> planned, std::vector<db::Value> params) {
  DatabaseServer& srv = server_;
  ++srv.statements_;
  trace::SpanScope dbserverSpan(srv.sim_, "dbserver");
  const db::Statement& ast = planned->stmt();

  if (ast.kind == db::Statement::Kind::LockTables) {
    co_await srv.machine_.compute(sim::fromMicros(
        srv.cost_.dbLockStatementUs +
        srv.cost_.dbLockPerTableUs * static_cast<double>(ast.lockTables.items.size())));
    // MySQL releases any previously held explicit locks when a new
    // LOCK TABLES statement runs.
    explicitLocks_.clear();
    // The whole multi-table acquisition happens under the server's global
    // lock-manager mutex: until every requested lock is granted, no other
    // statement enters the server.
    sim::ResourceHold lockManagerGate = co_await srv.lockManager_.acquire();
    // Sort the requested tables so every connection acquires in the same
    // order (std::map gives us that for free).
    std::map<std::string, bool> wanted;
    for (const auto& item : ast.lockTables.items) {
      bool& w = wanted[item.table];
      w = w || item.write;
    }
    for (const auto& [table, write] : wanted) {
      sim::RwLock& lock = srv.tableLock(table);
      // Keep each co_await as a standalone statement: GCC 12 miscompiles
      // co_await inside conditional expressions (the coroutine suspends and
      // is never resumed).
      sim::LockHold hold;
      if (write) {
        hold = co_await lock.lockWrite();
      } else {
        hold = co_await lock.lockRead();
      }
      explicitLocks_.emplace(table, std::move(hold));
    }
    co_return db::ExecResult{};
  }

  if (ast.kind == db::Statement::Kind::UnlockTables) {
    co_await srv.machine_.compute(sim::fromMicros(
        srv.cost_.dbLockStatementUs +
        srv.cost_.dbLockPerTableUs * static_cast<double>(explicitLocks_.size())));
    explicitLocks_.clear();
    co_return db::ExecResult{};
  }

  // Every ordinary statement passes briefly through the global lock
  // manager; it queues here whenever a LOCK TABLES acquisition is draining.
  // Connections already under LOCK TABLES own their locks and bypass the
  // manager (otherwise a draining acquisition would deadlock against the
  // very section it waits for).
  if (explicitLocks_.empty()) {
    (void)co_await srv.lockManager_.acquire();  // released immediately
  }

  // Implicit per-statement locks for tables not covered by explicit locks.
  std::vector<sim::LockHold> implicit;
  for (const auto& need : locksNeeded(ast)) {
    if (explicitLocks_.contains(need.table)) continue;
    sim::RwLock& lock = srv.tableLock(need.table);
    if (need.write) {
      implicit.push_back(co_await lock.lockWrite());
    } else {
      implicit.push_back(co_await lock.lockRead());
    }
  }

  // Execute against the real engine (instantaneous) via the statement's
  // cached plan, then charge the CPU demand the execution statistics imply,
  // holding the locks throughout.
  // Like the statement cache, plans are cached process-wide per catalog
  // signature; hit/miss is per run (first use in this run = miss).
  if (auto* m = srv.sim_.metrics()) {
    m->recordPlanUse(planned->planFor(srv.database_).get());
  }
  db::ExecResult result = srv.executor_.execute(*planned, params);
  co_await srv.machine_.compute(srv.queryCpuCost(result.stats));
  co_return result;
  // `implicit` holds release here.
}

void DatabaseServer::addLockTotals(LockTotals& totals) const {
  for (const auto& [table, lock] : locks_) {
    (void)table;
    totals.acquisitions += lock->readAcquisitions() + lock->writeAcquisitions();
    totals.contended += lock->contendedAcquisitions();
    totals.waitSeconds += sim::toSeconds(lock->totalWait());
  }
  totals.lockManagerWaitSeconds += sim::toSeconds(lockManager_.totalWait());
}

void DatabaseServer::addProbes(obs::MetricsRegistry& registry) const {
  const std::string& n = machine_.name();
  const sim::Mutex& lm = lockManager_;
  registry.addUtilizationProbe(n + "/lock-manager", obs::ResourceKind::Lock, 1.0,
                               [&lm] { return lm.busyUnitSeconds(); });
  registry.addGaugeProbe(n + "/lock-manager.queue",
                         [&lm] { return static_cast<double>(lm.queueLength()); });
  registry.addUtilizationProbe(n + "/lock-manager.grants", obs::ResourceKind::Rate, 1.0,
                               [&lm] { return static_cast<double>(lm.acquisitions()); });
  registry.addGaugeProbe(n + "/table-lock.queue", [this] {
    double q = 0.0;
    for (const auto& [table, lock] : locks_) {
      (void)table;
      q += static_cast<double>(lock->queueLength());
    }
    return q;
  });
  registry.addUtilizationProbe(n + "/table-lock.grants", obs::ResourceKind::Rate, 1.0, [this] {
    double g = 0.0;
    for (const auto& [table, lock] : locks_) {
      (void)table;
      g += static_cast<double>(lock->readAcquisitions() + lock->writeAcquisitions());
    }
    return g;
  });
  registry.addUtilizationProbe("db.statements." + n, obs::ResourceKind::Rate, 1.0,
                               [this] { return static_cast<double>(statements_); });
}

}  // namespace mwsim::mw
