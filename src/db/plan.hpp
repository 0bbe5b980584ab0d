#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/ast.hpp"
#include "db/database.hpp"

namespace mwsim::db {

/// Query planning, split out of execution (DESIGN.md §8).
///
/// A Plan is everything about a statement that does not depend on bound
/// parameters or table *contents*: name resolution, index selection, join
/// order/strategy, predicate pushdown and residual elision, and whether an
/// ORDER BY can ride an ordered index instead of sorting. Plans are pure
/// functions of (SQL, catalog) — never of data, parameters, or thread
/// timing — so a plan built once can be cached per prepared statement and
/// reused across the byte-identical parallel sweeps of §7.

/// Resolved reference to one column of one bound table.
struct PlanColumnRef {
  std::size_t tableIdx = 0;
  std::size_t columnIdx = 0;
};

/// Expression with every column reference resolved to (table, column) slots
/// at plan time, so execution never does per-row name lookups.
struct CompiledExpr {
  Expr::Kind kind = Expr::Kind::Literal;
  bool negated = false;            // IsNull: true for IS NOT NULL
  Value literal;                   // Literal
  std::size_t paramIndex = 0;      // Param: 1-based
  PlanColumnRef col;               // Column
  BinOp op = BinOp::Eq;            // Binary
  AggFunc agg = AggFunc::None;     // Aggregate (aggArg null means COUNT(*))
  bool rowFree = false;            // no column reference anywhere beneath
  bool hasAggregate = false;       // aggregate somewhere beneath
  std::unique_ptr<CompiledExpr> lhs, rhs, aggArg;
  std::vector<std::unique_ptr<CompiledExpr>> list;  // In
};
using CompiledExprPtr = std::unique_ptr<CompiledExpr>;

/// How the driving (first FROM) table's candidate rows are produced.
struct AccessPath {
  enum class Kind {
    FullScan,          // every live row, storage order
    PkEq,              // unique hash lookup on the primary key
    IndexEq,           // secondary-index equality
    InList,            // IN (...) multi-point lookup via pk or secondary index
    IndexRange,        // secondary-index range scan
    OrderedIndexScan,  // secondary index walked in ORDER BY order; sort elided
    AggFast,           // O(1) MAX/MIN/COUNT(*) from index metadata
  };
  enum class AggFastKind { None, CountStar, MaxAutoPk, IndexMin, IndexMax };

  Kind kind = Kind::FullScan;
  std::size_t column = 0;  // pk/indexed column (all but FullScan/AggFast)
  bool viaPk = false;      // InList through the primary key
  CompiledExprPtr eqKey;         // row-free key for PkEq/IndexEq
  std::vector<CompiledExprPtr> inKeys;  // row-free keys for InList
  /// Range bounds: every row-free bound conjunct on `column`; execution
  /// evaluates all of them and keeps the tightest (ties: strict wins).
  struct Bound {
    CompiledExprPtr expr;
    bool inclusive = true;
  };
  std::vector<Bound> lower, upper;
  /// OrderedIndexScan: scan direction. Ties come in index order, which is
  /// RowId order, the order a stable sort keeps for ties among full-scan
  /// and index-range candidates alike. The scan keeps the bounds of the
  /// IndexRange it upgrades; one with no bounds upgrades a FullScan.
  bool descending = false;
  /// AggFast details.
  AggFastKind aggFast = AggFastKind::None;
  std::size_t aggColumn = 0;
  std::string aggOutputName;
};

struct SelectPlan {
  /// Bound tables in FROM order; resolved against the target database by
  /// name at execution (plans outlive any one database clone).
  std::vector<std::string> tableNames;

  AccessPath access;

  /// One step per JOIN, in statement order (table index = step index + 1).
  struct JoinStep {
    enum class Kind { PkLookup, IndexLookup, ScanEq, Cross };
    Kind kind = Kind::Cross;
    std::size_t innerColumn = 0;
    /// Key evaluated over the partial binding (references tables < this one).
    CompiledExprPtr outerKey;
  };
  std::vector<JoinStep> joins;

  /// Conjuncts referencing only table 0, applied right after base access
  /// (predicate pushdown). Access-path-consumed conjuncts are elided.
  std::vector<CompiledExprPtr> baseFilter;
  /// Remaining conjuncts, applied once all tables are bound.
  std::vector<CompiledExprPtr> residual;

  struct OutItem {
    std::string name;
    /// Plain column reference (including star expansion): copied directly.
    std::optional<PlanColumnRef> direct;
    /// General expression otherwise.
    CompiledExprPtr expr;
  };
  std::vector<OutItem> items;

  bool grouped = false;
  std::vector<CompiledExprPtr> groupKeys;
  CompiledExprPtr having;  // may be null

  struct OrderKey {
    /// ORDER BY <select alias>: key is the finished output column.
    std::optional<std::size_t> outputIndex;
    CompiledExprPtr expr;  // otherwise
    bool descending = false;
  };
  std::vector<OrderKey> orderBy;
  /// True when the access path already yields rows in ORDER BY order.
  bool sortElided = false;

  bool distinct = false;
  std::optional<std::int64_t> limit;
  std::int64_t offset = 0;
};

struct InsertPlan {
  std::string tableName;
  /// One entry per VALUES expression: target column and its declared type.
  struct Target {
    std::size_t column = 0;
    ColumnType type = ColumnType::Int;
  };
  std::vector<Target> targets;
  std::vector<CompiledExprPtr> values;  // row-free
  std::size_t columnCount = 0;          // schema width (row pre-sizing)
};

struct UpdatePlan {
  std::string tableName;
  AccessPath access;  // FullScan / PkEq / IndexEq only
  std::vector<CompiledExprPtr> residual;
  struct Target {
    std::size_t column = 0;
    ColumnType type = ColumnType::Int;
    CompiledExprPtr value;  // may reference the pre-update row
  };
  std::vector<Target> sets;
  /// LIMIT/OFFSET slice the matched rows in RowId order; their presence
  /// forces FullScan access so the match order is well-defined.
  std::optional<std::int64_t> limit;
  std::int64_t offset = 0;
};

struct DeletePlan {
  std::string tableName;
  AccessPath access;
  std::vector<CompiledExprPtr> residual;
  std::optional<std::int64_t> limit;
  std::int64_t offset = 0;
};

/// A fully planned statement. Immutable once built.
struct Plan {
  Statement::Kind kind = Statement::Kind::Select;
  SelectPlan select;
  InsertPlan insert;
  UpdatePlan update;
  DeletePlan del;
  std::size_t paramCount = 0;
  std::string text;  // original SQL, for diagnostics
};

/// Builds a Plan for a parsed statement against a database catalog. Pure:
/// depends only on the statement and the schemas (never table contents),
/// and performs all name resolution — executing a plan cannot throw a
/// resolution error that planning would not have thrown.
std::shared_ptr<const Plan> buildPlan(const Statement& stmt, const Database& db);

/// A parsed statement plus its cached plans, one per catalog signature.
/// This is what mw::StatementCache hands out: the AST is shared across all
/// databases, and each distinct catalog (bookstore vs auction vs test
/// schemas) gets its own lazily built, immutable plan.
///
/// Thread-safe like the statement cache itself: plans are pure functions of
/// (SQL, catalog signature), so when two sweep threads race to plan the same
/// statement both builds are identical and the first insert wins.
class PlannedStatement {
 public:
  explicit PlannedStatement(std::shared_ptr<const Statement> stmt)
      : stmt_(std::move(stmt)) {}
  PlannedStatement(const PlannedStatement&) = delete;
  PlannedStatement& operator=(const PlannedStatement&) = delete;

  const Statement& stmt() const noexcept { return *stmt_; }
  const std::shared_ptr<const Statement>& stmtPtr() const noexcept { return stmt_; }

  /// Returns the plan for `db`'s catalog, building and caching it on first
  /// use.
  std::shared_ptr<const Plan> planFor(const Database& db) const {
    const std::uint64_t key = db.catalogSignature();
    {
      std::shared_lock lock(mu_);
      auto it = plans_.find(key);
      if (it != plans_.end()) return it->second;
    }
    auto plan = buildPlan(*stmt_, db);  // built outside any lock
    std::unique_lock lock(mu_);
    auto [it, inserted] = plans_.emplace(key, std::move(plan));
    (void)inserted;
    return it->second;
  }

  /// Number of distinct catalogs planned so far (tests/benches).
  std::size_t planCount() const {
    std::shared_lock lock(mu_);
    return plans_.size();
  }

 private:
  std::shared_ptr<const Statement> stmt_;
  mutable std::shared_mutex mu_;
  mutable std::unordered_map<std::uint64_t, std::shared_ptr<const Plan>> plans_;
};

}  // namespace mwsim::db
