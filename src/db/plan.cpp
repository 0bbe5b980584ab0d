#include "db/plan.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

namespace mwsim::db {

namespace {

struct BoundTable {
  std::string alias;
  const Table* table;
};

/// Largest table index referenced anywhere in a compiled expression, or
/// nullopt when the expression is row-free.
std::optional<std::size_t> maxTableIdx(const CompiledExpr& e) {
  std::optional<std::size_t> out;
  auto take = [&](const std::optional<std::size_t>& v) {
    if (v && (!out || *v > *out)) out = v;
  };
  switch (e.kind) {
    case Expr::Kind::Column:
      return e.col.tableIdx;
    case Expr::Kind::Binary:
      take(maxTableIdx(*e.lhs));
      take(maxTableIdx(*e.rhs));
      break;
    case Expr::Kind::Not:
    case Expr::Kind::IsNull:
      take(maxTableIdx(*e.lhs));
      break;
    case Expr::Kind::In:
      take(maxTableIdx(*e.lhs));
      for (const auto& item : e.list) take(maxTableIdx(*item));
      break;
    case Expr::Kind::Aggregate:
      if (e.aggArg) take(maxTableIdx(*e.aggArg));
      break;
    default:
      break;
  }
  return out;
}

/// True when every column reference in `e` resolves to table `tableIdx`.
/// Aggregates never qualify (mirrors the pre-plan pushdown rule).
bool referencesOnlyTable(const CompiledExpr& e, std::size_t tableIdx) {
  switch (e.kind) {
    case Expr::Kind::Column:
      return e.col.tableIdx == tableIdx;
    case Expr::Kind::Binary:
      return referencesOnlyTable(*e.lhs, tableIdx) && referencesOnlyTable(*e.rhs, tableIdx);
    case Expr::Kind::Not:
    case Expr::Kind::IsNull:
      return referencesOnlyTable(*e.lhs, tableIdx);
    case Expr::Kind::In: {
      if (!referencesOnlyTable(*e.lhs, tableIdx)) return false;
      for (const auto& item : e.list) {
        if (!referencesOnlyTable(*item, tableIdx)) return false;
      }
      return true;
    }
    case Expr::Kind::Aggregate:
      return false;
    default:
      return true;
  }
}

class Planner {
 public:
  explicit Planner(const Database& db) : db_(db) {}

  std::shared_ptr<Plan> build(const Statement& stmt) {
    auto plan = std::make_shared<Plan>();
    plan->kind = stmt.kind;
    plan->paramCount = stmt.paramCount;
    plan->text = stmt.text;
    switch (stmt.kind) {
      case Statement::Kind::Select:
        planSelect(stmt.select, plan->select);
        break;
      case Statement::Kind::Insert:
        planInsert(stmt.insert, plan->insert);
        break;
      case Statement::Kind::Update:
        planUpdate(stmt.update, plan->update);
        break;
      case Statement::Kind::Delete:
        planDelete(stmt.del, plan->del);
        break;
      case Statement::Kind::LockTables:
      case Statement::Kind::UnlockTables:
        break;  // handled by the server; nothing to plan
    }
    return plan;
  }

 private:
  // ----- name resolution -----
  PlanColumnRef resolve(const std::string& qualifier, const std::string& column) const {
    if (ignoreQualifiers_) {
      // UPDATE/DELETE/SET resolution is by column name only, against the
      // single target table.
      auto c = tables_[0].table->schema().columnIndex(column);
      if (!c) throw std::runtime_error("unknown column: " + column);
      return {0, *c};
    }
    if (!qualifier.empty()) {
      for (std::size_t i = 0; i < tables_.size(); ++i) {
        if (tables_[i].alias == qualifier) {
          auto c = tables_[i].table->schema().columnIndex(column);
          if (!c) {
            throw std::runtime_error("no column " + column + " in " + qualifier);
          }
          return {i, *c};
        }
      }
      throw std::runtime_error("unknown table alias: " + qualifier);
    }
    std::optional<PlanColumnRef> found;
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      if (auto c = tables_[i].table->schema().columnIndex(column)) {
        if (found) throw std::runtime_error("ambiguous column: " + column);
        found = PlanColumnRef{i, *c};
      }
    }
    if (!found) throw std::runtime_error("unknown column: " + column);
    return *found;
  }

  // ----- compilation -----
  CompiledExprPtr compile(const Expr& e) const {
    auto out = std::make_unique<CompiledExpr>();
    out->kind = e.kind;
    switch (e.kind) {
      case Expr::Kind::Literal:
        out->literal = e.literal;
        out->rowFree = true;
        break;
      case Expr::Kind::Param:
        out->paramIndex = e.paramIndex;
        out->rowFree = true;
        break;
      case Expr::Kind::Column:
        if (valuesOnly_) {
          throw std::runtime_error("column reference in value-only expression");
        }
        out->col = resolve(e.tableQualifier, e.column);
        break;
      case Expr::Kind::Binary:
        out->op = e.op;
        out->lhs = compile(*e.lhs);
        out->rhs = compile(*e.rhs);
        out->rowFree = out->lhs->rowFree && out->rhs->rowFree;
        out->hasAggregate = out->lhs->hasAggregate || out->rhs->hasAggregate;
        break;
      case Expr::Kind::Aggregate:
        out->agg = e.agg;
        out->hasAggregate = true;
        // COUNT(*) compiles with a null argument; any other aggregate keeps
        // its argument expression.
        if (e.aggArg && e.aggArg->kind != Expr::Kind::Star) out->aggArg = compile(*e.aggArg);
        break;
      case Expr::Kind::In: {
        out->lhs = compile(*e.lhs);
        out->rowFree = out->lhs->rowFree;
        out->hasAggregate = out->lhs->hasAggregate;
        for (const auto& item : e.list) {
          auto c = compile(*item);
          out->rowFree = out->rowFree && c->rowFree;
          out->hasAggregate = out->hasAggregate || c->hasAggregate;
          out->list.push_back(std::move(c));
        }
        break;
      }
      case Expr::Kind::IsNull:
        out->negated = e.negated;
        out->lhs = compile(*e.lhs);
        out->rowFree = out->lhs->rowFree;
        out->hasAggregate = out->lhs->hasAggregate;
        break;
      case Expr::Kind::Not:
        out->lhs = compile(*e.lhs);
        out->rowFree = out->lhs->rowFree;
        out->hasAggregate = out->lhs->hasAggregate;
        break;
      case Expr::Kind::Star:
        throw std::runtime_error("* in scalar context");
    }
    return out;
  }

  // ----- WHERE decomposition -----
  static void splitConjuncts(const Expr* e, std::vector<const Expr*>& out) {
    if (e == nullptr) return;
    if (e->kind == Expr::Kind::Binary && e->op == BinOp::And) {
      splitConjuncts(e->lhs.get(), out);
      splitConjuncts(e->rhs.get(), out);
    } else {
      out.push_back(e);
    }
  }

  struct Conjunct {
    CompiledExprPtr compiled;
    bool consumed = false;
  };

  /// Selects the base-table access path, consuming the conjuncts it makes
  /// redundant. Precedence mirrors the pre-plan executor exactly: first
  /// equality on pk/index (in conjunct order), then IN, then the range over
  /// the lowest-numbered indexed column, else full scan. Consumption is
  /// sound because every consumed conjunct is exactly re-expressed by the
  /// access path (equality/range via Value::compare, NULL keys yield empty
  /// results just as `col <op> NULL` is never true).
  AccessPath chooseAccess(std::vector<Conjunct>& conjuncts, bool reverseOrder) const {
    const Table& table = *tables_[0].table;
    AccessPath path;

    std::vector<std::size_t> order(conjuncts.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    // The pre-plan UPDATE/DELETE matcher traversed the AND tree with an
    // explicit stack, visiting conjuncts in reverse; keep its index choice.
    if (reverseOrder) std::reverse(order.begin(), order.end());

    // Equality on the primary key or an indexed column.
    for (std::size_t ci : order) {
      CompiledExpr& c = *conjuncts[ci].compiled;
      if (c.kind != Expr::Kind::Binary || c.op != BinOp::Eq) continue;
      for (auto [colSide, valSide] : {std::pair{c.lhs.get(), c.rhs.get()},
                                      std::pair{c.rhs.get(), c.lhs.get()}}) {
        if (!valSide->rowFree) continue;
        if (colSide->kind != Expr::Kind::Column || colSide->col.tableIdx != 0) continue;
        const std::size_t col = colSide->col.columnIdx;
        const bool viaPk = table.isPrimaryKeyColumn(col);
        if (!viaPk && !table.hasIndexOn(col)) continue;
        path.kind = viaPk ? AccessPath::Kind::PkEq : AccessPath::Kind::IndexEq;
        path.column = col;
        path.eqKey = std::move(colSide == c.lhs.get() ? c.rhs : c.lhs);
        conjuncts[ci].consumed = true;
        return path;
      }
    }

    // IN over the primary key or an indexed column: multi-point lookup.
    for (std::size_t ci : order) {
      CompiledExpr& c = *conjuncts[ci].compiled;
      if (c.kind != Expr::Kind::In) continue;
      if (c.lhs->kind != Expr::Kind::Column || c.lhs->col.tableIdx != 0) continue;
      bool allFree = true;
      for (const auto& item : c.list) {
        if (!item->rowFree) {
          allFree = false;
          break;
        }
      }
      if (!allFree) continue;
      const std::size_t col = c.lhs->col.columnIdx;
      const bool viaPk = table.isPrimaryKeyColumn(col);
      if (!viaPk && !table.hasIndexOn(col)) continue;
      path.kind = AccessPath::Kind::InList;
      path.column = col;
      path.viaPk = viaPk;
      path.inKeys = std::move(c.list);
      conjuncts[ci].consumed = true;
      return path;
    }

    // Range over an indexed column. Collect every row-free bound per
    // indexed column, pick the lowest-numbered column (as before), and
    // consume all of that column's bound conjuncts.
    struct RangeBound {
      std::size_t conjunct;
      bool upper;
      bool inclusive;
      CompiledExpr* valSide;  // which child of the conjunct holds the value
    };
    std::map<std::size_t, std::vector<RangeBound>> byColumn;
    for (std::size_t ci : order) {
      CompiledExpr& c = *conjuncts[ci].compiled;
      if (c.kind != Expr::Kind::Binary) continue;
      const BinOp op = c.op;
      if (op != BinOp::Lt && op != BinOp::Le && op != BinOp::Gt && op != BinOp::Ge) continue;
      for (bool flipped : {false, true}) {
        CompiledExpr* colSide = flipped ? c.rhs.get() : c.lhs.get();
        CompiledExpr* valSide = flipped ? c.lhs.get() : c.rhs.get();
        if (!valSide->rowFree) continue;
        if (colSide->kind != Expr::Kind::Column || colSide->col.tableIdx != 0) continue;
        const std::size_t col = colSide->col.columnIdx;
        if (!table.hasIndexOn(col)) continue;
        // Normalize to `col <op> value`.
        BinOp effective = op;
        if (flipped) {
          switch (op) {
            case BinOp::Lt: effective = BinOp::Gt; break;
            case BinOp::Le: effective = BinOp::Ge; break;
            case BinOp::Gt: effective = BinOp::Lt; break;
            case BinOp::Ge: effective = BinOp::Le; break;
            default: break;
          }
        }
        const bool upper = effective == BinOp::Lt || effective == BinOp::Le;
        const bool inclusive = effective == BinOp::Le || effective == BinOp::Ge;
        byColumn[col].push_back({ci, upper, inclusive, valSide});
        break;
      }
    }
    if (!byColumn.empty()) {
      auto& [col, bounds] = *byColumn.begin();
      path.kind = AccessPath::Kind::IndexRange;
      path.column = col;
      for (RangeBound& b : bounds) {
        Conjunct& c = conjuncts[b.conjunct];
        AccessPath::Bound bound;
        bound.inclusive = b.inclusive;
        bound.expr = std::move(b.valSide == c.compiled->lhs.get() ? c.compiled->lhs
                                                                  : c.compiled->rhs);
        (b.upper ? path.upper : path.lower).push_back(std::move(bound));
        c.consumed = true;
      }
      return path;
    }

    path.kind = AccessPath::Kind::FullScan;
    return path;
  }

  // ----- SELECT -----
  void planSelect(const SelectStmt& s, SelectPlan& plan) {
    if (planAggFast(s, plan)) return;

    tables_.clear();
    tables_.push_back({s.from.alias, &db_.table(s.from.table)});
    plan.tableNames.push_back(s.from.table);
    for (const auto& j : s.joins) {
      tables_.push_back({j.table.alias, &db_.table(j.table.table)});
      plan.tableNames.push_back(j.table.table);
    }

    // Output items (star expands to every column of every table).
    for (const SelectItem& item : s.items) {
      if (item.expr->kind == Expr::Kind::Star) {
        for (std::size_t t = 0; t < tables_.size(); ++t) {
          const auto& cols = tables_[t].table->schema().columns;
          for (std::size_t c = 0; c < cols.size(); ++c) {
            plan.items.push_back({cols[c].name, PlanColumnRef{t, c}, nullptr});
          }
        }
        continue;
      }
      SelectPlan::OutItem out;
      out.name = item.alias;
      if (out.name.empty()) {
        out.name = item.expr->kind == Expr::Kind::Column ? item.expr->column : "expr";
      }
      auto compiled = compile(*item.expr);
      if (compiled->kind == Expr::Kind::Column) {
        out.direct = compiled->col;
      } else {
        out.expr = std::move(compiled);
      }
      plan.items.push_back(std::move(out));
    }

    plan.grouped =
        !s.groupBy.empty() ||
        std::any_of(plan.items.begin(), plan.items.end(),
                    [](const auto& i) { return i.expr && i.expr->hasAggregate; });
    for (const auto& g : s.groupBy) plan.groupKeys.push_back(compile(*g));
    if (s.having) plan.having = compile(*s.having);

    // WHERE conjuncts.
    std::vector<const Expr*> astConjuncts;
    splitConjuncts(s.where.get(), astConjuncts);
    std::vector<Conjunct> conjuncts;
    conjuncts.reserve(astConjuncts.size());
    for (const Expr* c : astConjuncts) conjuncts.push_back({compile(*c), false});

    plan.access = chooseAccess(conjuncts, /*reverseOrder=*/false);

    // Join steps: split the ON expression into conjuncts and dig out the
    // first equality that keys the new table off earlier ones; the other ON
    // conjuncts become post-join filters (sound for inner joins, where ON and
    // WHERE are interchangeable). Fall back to a WHERE equi-conjunct linking
    // the new table to an earlier one.
    for (std::size_t j = 0; j < s.joins.size(); ++j) {
      const std::size_t newIdx = j + 1;
      SelectPlan::JoinStep step;
      CompiledExprPtr innerSide, outerSide;
      std::vector<const Expr*> onConjuncts;
      splitConjuncts(s.joins[j].on.get(), onConjuncts);
      for (const Expr* astConjunct : onConjuncts) {
        auto c = compile(*astConjunct);
        bool taken = false;
        if (!innerSide && c->kind == Expr::Kind::Binary && c->op == BinOp::Eq) {
          auto lMax = maxTableIdx(*c->lhs);
          auto rMax = maxTableIdx(*c->rhs);
          // One side must be a plain column of the new table; the other may
          // be any expression over already-bound tables (or row-free).
          if (c->lhs->kind == Expr::Kind::Column && c->lhs->col.tableIdx == newIdx &&
              (!rMax || *rMax < newIdx)) {
            innerSide = std::move(c->lhs);
            outerSide = std::move(c->rhs);
            taken = true;
          } else if (c->rhs->kind == Expr::Kind::Column &&
                     c->rhs->col.tableIdx == newIdx && (!lMax || *lMax < newIdx)) {
            innerSide = std::move(c->rhs);
            outerSide = std::move(c->lhs);
            taken = true;
          }
        }
        // Degenerate or non-equi conjuncts (both sides on one table, a table
        // not yet joined, <, LIKE, ...) run as post-join filters.
        if (!taken) plan.residual.push_back(std::move(c));
      }
      if (!innerSide) {
        for (Conjunct& c : conjuncts) {
          if (c.consumed) continue;
          CompiledExpr& e = *c.compiled;
          if (e.kind != Expr::Kind::Binary || e.op != BinOp::Eq) continue;
          if (e.lhs->kind != Expr::Kind::Column || e.rhs->kind != Expr::Kind::Column) {
            continue;
          }
          for (auto [a, b] : {std::pair{e.lhs.get(), e.rhs.get()},
                              std::pair{e.rhs.get(), e.lhs.get()}}) {
            if (a->col.tableIdx != newIdx) continue;
            if (b->col.tableIdx >= newIdx) continue;
            innerSide = std::move(a == e.lhs.get() ? e.lhs : e.rhs);
            outerSide = std::move(b == e.lhs.get() ? e.lhs : e.rhs);
            c.consumed = true;
            break;
          }
          if (innerSide) break;
        }
      }
      if (innerSide) {
        const Table& inner = *tables_[newIdx].table;
        step.innerColumn = innerSide->col.columnIdx;
        step.outerKey = std::move(outerSide);
        if (inner.isPrimaryKeyColumn(step.innerColumn)) {
          step.kind = SelectPlan::JoinStep::Kind::PkLookup;
        } else if (inner.hasIndexOn(step.innerColumn)) {
          step.kind = SelectPlan::JoinStep::Kind::IndexLookup;
        } else {
          step.kind = SelectPlan::JoinStep::Kind::ScanEq;
        }
      } else {
        step.kind = SelectPlan::JoinStep::Kind::Cross;
      }
      plan.joins.push_back(std::move(step));
    }

    // Remaining conjuncts: base-only ones run before the joins.
    for (Conjunct& c : conjuncts) {
      if (c.consumed) continue;
      if (referencesOnlyTable(*c.compiled, 0)) {
        plan.baseFilter.push_back(std::move(c.compiled));
      } else {
        plan.residual.push_back(std::move(c.compiled));
      }
    }

    // ORDER BY: a bare column naming an output item sorts by the finished
    // output value (SQL alias semantics); anything else is a row expression.
    for (const OrderItem& o : s.orderBy) {
      SelectPlan::OrderKey key;
      key.descending = o.descending;
      bool matched = false;
      if (o.expr->kind == Expr::Kind::Column && o.expr->tableQualifier.empty()) {
        for (std::size_t i = 0; i < plan.items.size(); ++i) {
          if (plan.items[i].name == o.expr->column) {
            key.outputIndex = i;
            matched = true;
            break;
          }
        }
      }
      if (!matched) key.expr = compile(*o.expr);
      plan.orderBy.push_back(std::move(key));
    }

    plan.distinct = s.distinct;
    plan.limit = s.limit;
    plan.offset = s.offset;

    maybeElideSort(plan);
  }

  /// Upgrades a FullScan (or an IndexRange on the ORDER BY column) to an
  /// ordered-index scan when the single ORDER BY key has a secondary index,
  /// eliding the sort. Execution reproduces the sorted output order exactly,
  /// including stable-sort tie order (see executor.cpp).
  void maybeElideSort(SelectPlan& plan) const {
    if (!plan.joins.empty() || plan.grouped || plan.distinct) return;
    if (plan.orderBy.size() != 1) return;
    const SelectPlan::OrderKey& key = plan.orderBy[0];
    std::optional<std::size_t> col;
    if (key.outputIndex) {
      const auto& item = plan.items[*key.outputIndex];
      if (item.direct && item.direct->tableIdx == 0) col = item.direct->columnIdx;
    } else if (key.expr->kind == Expr::Kind::Column && key.expr->col.tableIdx == 0) {
      col = key.expr->col.columnIdx;
    }
    if (!col || !tables_[0].table->hasIndexOn(*col)) return;
    if (plan.access.kind == AccessPath::Kind::FullScan) {
      plan.access.kind = AccessPath::Kind::OrderedIndexScan;
      plan.access.column = *col;
    } else if (plan.access.kind == AccessPath::Kind::IndexRange &&
               plan.access.column == *col) {
      plan.access.kind = AccessPath::Kind::OrderedIndexScan;
    } else {
      return;
    }
    plan.access.descending = key.descending;
    plan.sortElided = true;
  }

  /// `SELECT MAX(col)/MIN(col)/COUNT(*) FROM t` with no WHERE/JOIN/GROUP:
  /// answered from index metadata in O(1), as MySQL does. Only chosen when
  /// the schema guarantees the shortcut (the pre-plan executor also peeked
  /// at table emptiness, which a data-independent plan must not).
  bool planAggFast(const SelectStmt& s, SelectPlan& plan) {
    if (!s.joins.empty() || s.where || !s.groupBy.empty() || s.items.size() != 1) {
      return false;
    }
    const Expr& e = *s.items[0].expr;
    if (e.kind != Expr::Kind::Aggregate) return false;
    const Table& table = db_.table(s.from.table);
    AccessPath::AggFastKind kind = AccessPath::AggFastKind::None;
    std::size_t col = 0;
    if (e.agg == AggFunc::Count && e.aggArg->kind == Expr::Kind::Star) {
      kind = AccessPath::AggFastKind::CountStar;
    } else if ((e.agg == AggFunc::Max || e.agg == AggFunc::Min) &&
               e.aggArg->kind == Expr::Kind::Column) {
      auto c = table.schema().columnIndex(e.aggArg->column);
      if (!c) return false;
      col = *c;
      if (e.agg == AggFunc::Max && table.isPrimaryKeyColumn(col) &&
          table.schema().autoIncrement) {
        kind = AccessPath::AggFastKind::MaxAutoPk;
      } else if (table.hasIndexOn(col)) {
        kind = e.agg == AggFunc::Max ? AccessPath::AggFastKind::IndexMax
                                     : AccessPath::AggFastKind::IndexMin;
      } else {
        return false;
      }
    } else {
      return false;
    }
    plan.tableNames.push_back(s.from.table);
    plan.access.kind = AccessPath::Kind::AggFast;
    plan.access.aggFast = kind;
    plan.access.aggColumn = col;
    // Same naming rule as every other unaliased non-column item ("expr") —
    // the pre-plan fast path said "agg", so the column name depended on
    // whether the shortcut fired.
    plan.access.aggOutputName = s.items[0].alias.empty() ? "expr" : s.items[0].alias;
    plan.limit = s.limit;
    plan.offset = s.offset;
    return true;
  }

  // ----- INSERT / UPDATE / DELETE -----
  void planInsert(const InsertStmt& s, InsertPlan& plan) {
    const Table& table = db_.table(s.table);
    const auto& schema = table.schema();
    plan.tableName = s.table;
    plan.columnCount = schema.columns.size();
    valuesOnly_ = true;
    if (s.columns.empty()) {
      if (s.values.size() != schema.columns.size()) {
        valuesOnly_ = false;
        throw std::runtime_error("INSERT value count mismatch for " + s.table);
      }
      for (std::size_t i = 0; i < s.values.size(); ++i) {
        plan.targets.push_back({i, schema.columns[i].type});
        plan.values.push_back(compile(*s.values[i]));
      }
    } else {
      if (s.columns.size() != s.values.size()) {
        valuesOnly_ = false;
        throw std::runtime_error("INSERT column/value count mismatch for " + s.table);
      }
      for (std::size_t i = 0; i < s.columns.size(); ++i) {
        auto c = schema.columnIndex(s.columns[i]);
        if (!c) {
          valuesOnly_ = false;
          throw std::runtime_error("unknown column in INSERT: " + s.columns[i]);
        }
        for (const InsertPlan::Target& t : plan.targets) {
          if (t.column == *c) {
            valuesOnly_ = false;
            throw std::runtime_error("duplicate column in INSERT: " + s.columns[i]);
          }
        }
        plan.targets.push_back({*c, schema.columns[*c].type});
        plan.values.push_back(compile(*s.values[i]));
      }
    }
    valuesOnly_ = false;
  }

  /// Shared by UPDATE/DELETE: single-table binding, qualifier-ignoring
  /// resolution, eq-only index access (matching the pre-plan matcher).
  /// `forceScan` (LIMIT/OFFSET present) skips index selection so the matched
  /// rows come in RowId order — the order the slice is defined over.
  AccessPath planWriteAccess(const std::string& tableName, const Expr* where,
                             std::vector<CompiledExprPtr>& residual, bool forceScan) {
    tables_.clear();
    tables_.push_back({tableName, &db_.table(tableName)});
    ignoreQualifiers_ = true;
    std::vector<const Expr*> astConjuncts;
    splitConjuncts(where, astConjuncts);
    std::vector<Conjunct> conjuncts;
    conjuncts.reserve(astConjuncts.size());
    for (const Expr* c : astConjuncts) conjuncts.push_back({compile(*c), false});

    // The write path only ever used point lookups, never IN or ranges; keep
    // that, so write statistics stay comparable.
    const Table& table = *tables_[0].table;
    AccessPath path;
    path.kind = AccessPath::Kind::FullScan;
    if (forceScan) {
      for (Conjunct& c : conjuncts) residual.push_back(std::move(c.compiled));
      ignoreQualifiers_ = false;
      return path;
    }
    for (std::size_t i = conjuncts.size(); i-- > 0;) {  // reverse, as before
      CompiledExpr& c = *conjuncts[i].compiled;
      if (c.kind != Expr::Kind::Binary || c.op != BinOp::Eq) continue;
      bool taken = false;
      for (auto [colSide, valSide] : {std::pair{c.lhs.get(), c.rhs.get()},
                                      std::pair{c.rhs.get(), c.lhs.get()}}) {
        if (colSide->kind != Expr::Kind::Column || !valSide->rowFree) continue;
        const std::size_t col = colSide->col.columnIdx;
        const bool viaPk = table.isPrimaryKeyColumn(col);
        if (!viaPk && !table.hasIndexOn(col)) continue;
        path.kind = viaPk ? AccessPath::Kind::PkEq : AccessPath::Kind::IndexEq;
        path.column = col;
        path.eqKey = std::move(colSide == c.lhs.get() ? c.rhs : c.lhs);
        conjuncts[i].consumed = true;
        taken = true;
        break;
      }
      if (taken) break;
    }
    for (Conjunct& c : conjuncts) {
      if (!c.consumed) residual.push_back(std::move(c.compiled));
    }
    ignoreQualifiers_ = false;
    return path;
  }

  void planUpdate(const UpdateStmt& s, UpdatePlan& plan) {
    plan.tableName = s.table;
    plan.limit = s.limit;
    plan.offset = s.offset;
    plan.access = planWriteAccess(s.table, s.where.get(), plan.residual,
                                  s.limit.has_value() || s.offset > 0);
    const auto& schema = db_.table(s.table).schema();
    ignoreQualifiers_ = true;
    for (const auto& a : s.sets) {
      auto c = schema.columnIndex(a.column);
      if (!c) {
        ignoreQualifiers_ = false;
        throw std::runtime_error("unknown column in UPDATE: " + a.column);
      }
      plan.sets.push_back({*c, schema.columns[*c].type, compile(*a.value)});
    }
    ignoreQualifiers_ = false;
  }

  void planDelete(const DeleteStmt& s, DeletePlan& plan) {
    plan.tableName = s.table;
    plan.limit = s.limit;
    plan.offset = s.offset;
    plan.access = planWriteAccess(s.table, s.where.get(), plan.residual,
                                  s.limit.has_value() || s.offset > 0);
  }

  const Database& db_;
  std::vector<BoundTable> tables_;
  bool ignoreQualifiers_ = false;
  bool valuesOnly_ = false;
};

}  // namespace

std::shared_ptr<const Plan> buildPlan(const Statement& stmt, const Database& db) {
  return Planner(db).build(stmt);
}

}  // namespace mwsim::db
