#pragma once

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "db/parser.hpp"
#include "db/plan.hpp"
#include "middleware/cost_model.hpp"
#include "middleware/database_server.hpp"
#include "middleware/db_cluster.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "trace/scope.hpp"

namespace mwsim::mw {

/// Process-wide prepared-statement cache: every distinct SQL string is
/// parsed once (matching how the real drivers cache prepared statements),
/// and the cached entry carries its per-catalog query plans — so the hot
/// path pays planning (name resolution, index selection, join ordering)
/// once per statement, not once per execution.
///
/// Thread-safe: it is the one piece of state shared between concurrently
/// running simulations (parallel sweeps run one run per worker thread).
/// Entries are immutable once inserted; parsing is a pure function of the
/// SQL text and plans are pure functions of (SQL, catalog signature), so
/// cross-thread sharing cannot perturb results.
class StatementCache {
 public:
  std::shared_ptr<const db::PlannedStatement> get(std::string_view sql) {
    {
      std::shared_lock lock(mu_);
      auto it = cache_.find(sql);
      if (it != cache_.end()) return it->second;
    }
    // Parse outside any lock — pure and deterministic; if two threads race
    // on the same new statement, both parses yield equivalent objects and
    // the first insert wins.
    auto stmt = std::make_shared<db::PlannedStatement>(db::parseSql(sql));
    std::unique_lock lock(mu_);
    auto [it, inserted] = cache_.emplace(std::string(sql), std::move(stmt));
    (void)inserted;
    return it->second;
  }

  /// Drops every cached statement (and with it every cached plan). Used by
  /// determinism tests to compare cold-cache and warm-cache runs.
  void clear() {
    std::unique_lock lock(mu_);
    cache_.clear();
  }

  /// Number of cached statements (tests/benches).
  std::size_t size() {
    std::shared_lock lock(mu_);
    return cache_.size();
  }

  static StatementCache& global() {
    static StatementCache instance;
    return instance;
  }

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct Eq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const { return a == b; }
  };
  std::shared_mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const db::PlannedStatement>, Hash, Eq>
      cache_;
};

/// Builds a parameter vector for execute()/query().
///
/// Prefer this over a braced-init-list inside co_await expressions: GCC 12
/// miscompiles list-initialized temporaries in coroutine frames ("array
/// used as initializer"). Named sqlArgs (not `bind`) so ADL on std::string
/// arguments cannot drag in std::bind.
template <typename... Args>
std::vector<db::Value> sqlArgs(Args&&... args) {
  std::vector<db::Value> out;
  out.reserve(sizeof...(args));
  (out.emplace_back(std::forward<Args>(args)), ...);
  return out;
}

/// Which client library talks to the database.
enum class DriverKind {
  NativeMySql,  // PHP's ad hoc native driver: cheap
  Jdbc,         // type 4 JDBC driver, interpreted Java: dearer
};

/// One client-side database session: a driver plus a server connection per
/// backend.
///
/// execute() models the full round trip: driver CPU on the host machine,
/// request over the LAN, server-side locking/CPU/execution, response over
/// the LAN, and driver decode CPU. Against a single server the session is
/// exactly the legacy one-connection round trip; against a replicated
/// DbCluster the driver routes reads per the cluster policy and applies
/// writes to every backend before acknowledging (see DbCluster).
class DbSession {
 public:
  DbSession(sim::Simulation& simulation, net::Network& network, net::Machine& host,
            DatabaseServer& server, DriverKind driver, const CostModel& cost)
      : sim_(simulation), net_(network), host_(host), server_(&server), driver_(driver),
        cost_(cost) {
    conns_.push_back(server.connect());
  }
  DbSession(sim::Simulation& simulation, net::Network& network, net::Machine& host,
            DbCluster& cluster, DriverKind driver, const CostModel& cost)
      : sim_(simulation), net_(network), host_(host), server_(&cluster.primary()),
        driver_(driver), cost_(cost) {
    if (cluster.size() > 1) {
      cluster_ = &cluster;
      for (std::size_t i = 0; i < cluster.size(); ++i) {
        conns_.push_back(cluster.backend(i).connect());
      }
    } else {
      // Size-1 clusters take the legacy single-server path so canned
      // topologies stay event-identical to the hard-coded construction.
      conns_.push_back(cluster.primary().connect());
    }
  }
  DbSession(DbSession&&) = default;
  DbSession(const DbSession&) = delete;
  DbSession& operator=(const DbSession&) = delete;
  ~DbSession() {
    // Teardown safety net: never leave table locks dangling.
    for (auto& conn : conns_) {
      if (conn) conn->releaseExplicitLocks();
    }
  }

  sim::Task<db::ExecResult> execute(std::string_view sql,
                                    std::vector<db::Value> params = {}) {
    trace::SpanScope dbSpan(sim_, "db");
    auto stmt = StatementCache::global().get(sql);
    // The cache itself is process-global (shared across sweep workers), so
    // hit/miss is counted per run: first use of a statement in this run is
    // the miss. See MetricsRegistry::recordStatementUse.
    if (auto* m = sim_.metrics()) m->recordStatementUse(stmt.get());
    const double perQueryUs =
        driver_ == DriverKind::Jdbc ? cost_.jdbcPerQueryUs : cost_.phpDriverPerQueryUs;
    const double perByteUs =
        driver_ == DriverKind::Jdbc ? cost_.jdbcPerByteUs : cost_.phpDriverPerByteUs;

    co_await host_.compute(sim::fromMicros(perQueryUs));
    co_await sim_.delay(sim::fromMicros(cost_.clientTurnaroundUs));
    db::ExecResult result;
    if (cluster_ == nullptr) {
      co_await net_.send(host_, server_->machine(), cost_.dbRequestBytes + sql.size());
      result = co_await conns_[0]->process(std::move(stmt), std::move(params));
      co_await net_.send(server_->machine(), host_,
                         cost_.dbResponseBytes + result.stats.resultBytes);
    } else {
      result = co_await clusterProcess(std::move(stmt), sql.size(), std::move(params));
    }
    co_await host_.compute(
        sim::fromMicros(perByteUs * static_cast<double>(result.stats.resultBytes)));
    ++statements_;
    resultBytes_ += result.stats.resultBytes;
    co_return result;
  }

  net::Machine& host() noexcept { return host_; }
  /// The primary backend (catalog/content identical on every backend).
  DatabaseServer& server() noexcept { return *server_; }

  /// Statements issued through this session (fills Page::queryCount).
  std::uint64_t statements() const noexcept { return statements_; }
  /// Result bytes received through this session (fills Page::dataBytes).
  std::size_t resultBytes() const noexcept { return resultBytes_; }

 private:
  /// Replicated round trip (cluster size > 1).
  sim::Task<db::ExecResult> clusterProcess(std::shared_ptr<const db::PlannedStatement> stmt,
                                           std::size_t sqlBytes,
                                           std::vector<db::Value> params) {
    DbCluster& cluster = *cluster_;
    const db::Statement::Kind kind = stmt->stmt().kind;
    const std::size_t requestBytes = cost_.dbRequestBytes + sqlBytes;

    if (kind == db::Statement::Kind::LockTables ||
        kind == db::Statement::Kind::UnlockTables) {
      // Explicit locking fans out to every backend in fixed backend order;
      // ordered acquisition across connections prevents lock-order
      // deadlocks, just like the sorted table order does within one server.
      db::ExecResult first;
      for (std::size_t i = 0; i < cluster.size(); ++i) {
        co_await net_.send(host_, cluster.backend(i).machine(), requestBytes);
        db::ExecResult r = co_await conns_[i]->process(stmt, params);
        co_await net_.send(cluster.backend(i).machine(), host_,
                           cost_.dbResponseBytes + r.stats.resultBytes);
        if (i == 0) first = std::move(r);
      }
      co_return first;
    }

    const bool underLocks = conns_[0]->holdsExplicitLocks();
    if (kind == db::Statement::Kind::Select) {
      // Reads scale out: route to one backend.
      const std::size_t target = cluster.routeRead(*stmt, params, underLocks);
      DatabaseServer& backend = cluster.backend(target);
      co_await net_.send(host_, backend.machine(), requestBytes);
      db::ExecResult result = co_await conns_[target]->process(std::move(stmt),
                                                               std::move(params));
      co_await net_.send(backend.machine(), host_,
                         cost_.dbResponseBytes + result.stats.resultBytes);
      co_return result;
    }

    // Write: apply on a primary, then mirror to every other backend before
    // acknowledging, so all copies stay identical and later statements are
    // never stale. The cluster-wide write stream makes concurrent writers
    // apply in one global order on every copy; a connection holding
    // explicit table locks skips the stream — its mutual exclusion already
    // comes from LOCK TABLES held on all backends, and waiting for the
    // stream while holding those locks could deadlock against a plain
    // writer holding the stream and waiting for a table lock.
    const std::size_t primaryIdx =
        (cluster.policy() == DbPolicy::ShardedByKey && !underLocks)
            ? cluster.shardFor(*stmt, params)
            : 0;
    DatabaseServer& primary = cluster.backend(primaryIdx);
    sim::ResourceHold stream;
    if (!underLocks) {
      stream = co_await cluster.writeStream()->acquire();
    }
    co_await net_.send(host_, primary.machine(), requestBytes);
    db::ExecResult result = co_await conns_[primaryIdx]->process(stmt, params);
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      if (i == primaryIdx) continue;
      co_await net_.send(primary.machine(), cluster.backend(i).machine(), requestBytes);
      db::ExecResult mirrored = co_await conns_[i]->process(stmt, params);
      (void)mirrored;
      co_await net_.send(cluster.backend(i).machine(), primary.machine(),
                         cost_.dbResponseBytes);
    }
    co_await net_.send(primary.machine(), host_,
                       cost_.dbResponseBytes + result.stats.resultBytes);
    co_return result;
  }

  sim::Simulation& sim_;
  net::Network& net_;
  net::Machine& host_;
  DatabaseServer* server_;
  DbCluster* cluster_ = nullptr;  // null: legacy single-server round trips
  DriverKind driver_;
  const CostModel& cost_;
  std::vector<std::unique_ptr<DatabaseServer::Connection>> conns_;
  std::uint64_t statements_ = 0;
  std::size_t resultBytes_ = 0;
};

}  // namespace mwsim::mw
