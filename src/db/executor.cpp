#include "db/executor.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>

#include "db/parser.hpp"
#include "db/plan.hpp"

namespace mwsim::db {

bool valueIsTrue(const Value& v) {
  if (v.isNull()) return false;
  if (v.isInt()) return v.asInt() != 0;
  if (v.isDouble()) return v.asDouble() != 0.0;
  return !v.asString().empty();
}

bool likeMatch(const std::string& text, const std::string& pattern) {
  // Iterative wildcard match with backtracking over the last '%'.
  std::size_t t = 0;
  std::size_t p = 0;
  std::size_t starP = std::string::npos;
  std::size_t starT = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      starP = p++;
      starT = t;
    } else if (starP != std::string::npos) {
      p = starP + 1;
      t = ++starT;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

namespace {

// ---------------------------------------------------------------------------
// Compiled-expression evaluation. Plans resolved every column reference to a
// (table, column) slot, so evaluation is pure array indexing — no per-row
// name lookups. The row source is a template parameter: a single table row
// on the fast path, a flat multi-table binding on the join path.

/// Row source over one row of the driving table (all refs have tableIdx 0).
struct SingleRow {
  std::span<const Value> row;
  const Value& at(const PlanColumnRef& ref) const { return row[ref.columnIdx]; }
};

/// Row source over one flat binding: one RowId per bound table.
struct FlatRow {
  const std::vector<const Table*>* tables;
  const RowId* ids;
  const Value& at(const PlanColumnRef& ref) const {
    return (*tables)[ref.tableIdx]->row(ids[ref.tableIdx])[ref.columnIdx];
  }
};

/// Row source for value-only contexts (access-path keys, INSERT values).
/// Column references were rejected at plan time, so at() is unreachable.
struct NoRow {
  const Value& at(const PlanColumnRef&) const {
    throw std::runtime_error("column reference in value-only expression");
  }
};

Value evalBinary(BinOp op, const Value& a, const Value& b) {
  switch (op) {
    case BinOp::And:
      return Value(static_cast<std::int64_t>(valueIsTrue(a) && valueIsTrue(b)));
    case BinOp::Or:
      return Value(static_cast<std::int64_t>(valueIsTrue(a) || valueIsTrue(b)));
    case BinOp::Like: {
      if (a.isNull() || b.isNull()) return Value(std::int64_t{0});
      // A string is matched in place; numbers match their display form.
      const bool match = a.isString() ? likeMatch(a.asString(), b.asString())
                                      : likeMatch(a.toDisplayString(), b.asString());
      return Value(static_cast<std::int64_t>(match));
    }
    case BinOp::Eq:
    case BinOp::Ne:
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge: {
      if (a.isNull() || b.isNull()) return Value(std::int64_t{0});
      const int c = a.compare(b);
      bool r = false;
      switch (op) {
        case BinOp::Eq: r = c == 0; break;
        case BinOp::Ne: r = c != 0; break;
        case BinOp::Lt: r = c < 0; break;
        case BinOp::Le: r = c <= 0; break;
        case BinOp::Gt: r = c > 0; break;
        default: r = c >= 0; break;
      }
      return Value(static_cast<std::int64_t>(r));
    }
    case BinOp::Add:
    case BinOp::Sub:
    case BinOp::Mul:
    case BinOp::Div: {
      if (a.isNull() || b.isNull()) return Value();
      if (a.isInt() && b.isInt() && op != BinOp::Div) {
        const auto x = a.asInt();
        const auto y = b.asInt();
        switch (op) {
          case BinOp::Add: return Value(x + y);
          case BinOp::Sub: return Value(x - y);
          default: return Value(x * y);
        }
      }
      const double x = a.asDouble();
      const double y = b.asDouble();
      switch (op) {
        case BinOp::Add: return Value(x + y);
        case BinOp::Sub: return Value(x - y);
        case BinOp::Mul: return Value(x * y);
        default:
          if (y == 0.0) return Value();
          return Value(x / y);
      }
    }
  }
  throw std::runtime_error("unhandled binary op");
}

const Value& paramAt(const CompiledExpr& e, std::span<const Value> params) {
  if (e.paramIndex > params.size()) {
    throw std::runtime_error("missing bind parameter " + std::to_string(e.paramIndex));
  }
  return params[e.paramIndex - 1];
}

template <typename Src>
Value evalExpr(const CompiledExpr& e, std::span<const Value> params, const Src& src);

/// Reads an operand without copying it: a literal, a parameter or a column
/// value is returned where it lives; anything else is evaluated into
/// `scratch`.
template <typename Src>
const Value& evalRef(const CompiledExpr& e, std::span<const Value> params, const Src& src,
                     Value& scratch) {
  switch (e.kind) {
    case Expr::Kind::Literal:
      return e.literal;
    case Expr::Kind::Param:
      return paramAt(e, params);
    case Expr::Kind::Column:
      return src.at(e.col);
    default:
      scratch = evalExpr(e, params, src);
      return scratch;
  }
}

template <typename Src>
Value evalExpr(const CompiledExpr& e, std::span<const Value> params, const Src& src) {
  Value lhs;  // scratch for operands that are not read in place
  Value rhs;
  switch (e.kind) {
    case Expr::Kind::Literal:
      return e.literal;
    case Expr::Kind::Param:
      return paramAt(e, params);
    case Expr::Kind::Column:
      return src.at(e.col);
    case Expr::Kind::Binary:
      return evalBinary(e.op, evalRef(*e.lhs, params, src, lhs),
                        evalRef(*e.rhs, params, src, rhs));
    case Expr::Kind::In: {
      const Value& needle = evalRef(*e.lhs, params, src, lhs);
      if (needle.isNull()) return Value(std::int64_t{0});
      for (const auto& item : e.list) {
        if (needle.compare(evalRef(*item, params, src, rhs)) == 0) return Value(std::int64_t{1});
      }
      return Value(std::int64_t{0});
    }
    case Expr::Kind::IsNull: {
      const bool isNull = evalRef(*e.lhs, params, src, lhs).isNull();
      return Value(static_cast<std::int64_t>(isNull != e.negated));
    }
    case Expr::Kind::Not:
      return Value(static_cast<std::int64_t>(!valueIsTrue(evalRef(*e.lhs, params, src, lhs))));
    case Expr::Kind::Aggregate:
      throw std::runtime_error("aggregate in row context");
    case Expr::Kind::Star:
      throw std::runtime_error("* in scalar context");
  }
  throw std::runtime_error("unhandled expr kind");
}

/// One group of bindings for aggregate evaluation.
struct GroupView {
  const std::vector<const Table*>* tables;
  const std::vector<const RowId*>* members;

  FlatRow member(std::size_t i) const { return FlatRow{tables, (*members)[i]}; }
  std::size_t size() const { return members->size(); }
};

Value evalAggregate(const CompiledExpr& e, std::span<const Value> params,
                    const GroupView& group) {
  if (!e.aggArg) {  // argument was *, compiled away
    if (e.agg == AggFunc::Count) {
      return Value(static_cast<std::int64_t>(group.size()));
    }
    throw std::runtime_error("* in scalar context");
  }
  std::int64_t count = 0;
  double sum = 0.0;
  bool allInt = true;
  std::int64_t isum = 0;
  std::optional<Value> minV;
  std::optional<Value> maxV;
  Value scratch;
  for (std::size_t i = 0; i < group.size(); ++i) {
    const FlatRow src = group.member(i);
    const Value& v = evalRef(*e.aggArg, params, src, scratch);
    if (v.isNull()) continue;
    ++count;
    if (v.isNumeric()) {
      sum += v.asDouble();
      if (v.isInt()) isum += v.asInt();
      else allInt = false;
    } else {
      allInt = false;
    }
    if (!minV || v < *minV) minV = v;
    if (!maxV || v > *maxV) maxV = v;
  }
  switch (e.agg) {
    case AggFunc::Count:
      return Value(count);
    case AggFunc::Sum:
      if (count == 0) return Value();
      return allInt ? Value(isum) : Value(sum);
    case AggFunc::Avg:
      if (count == 0) return Value();
      return Value(sum / static_cast<double>(count));
    case AggFunc::Min:
      return minV.value_or(Value());
    case AggFunc::Max:
      return maxV.value_or(Value());
    case AggFunc::None:
      break;
  }
  throw std::runtime_error("unhandled aggregate");
}

/// Group context: aggregates consume the whole group, everything else is
/// taken from the group's first row (valid for group keys, which is all the
/// apps use).
Value evalGrouped(const CompiledExpr& e, std::span<const Value> params,
                  const GroupView& group) {
  switch (e.kind) {
    case Expr::Kind::Aggregate:
      return evalAggregate(e, params, group);
    case Expr::Kind::Binary:
      if (e.hasAggregate) {
        return evalBinary(e.op, evalGrouped(*e.lhs, params, group),
                          evalGrouped(*e.rhs, params, group));
      }
      return evalExpr(e, params, group.member(0));
    case Expr::Kind::Not:
      if (e.hasAggregate) {
        return Value(static_cast<std::int64_t>(!valueIsTrue(evalGrouped(*e.lhs, params, group))));
      }
      return evalExpr(e, params, group.member(0));
    case Expr::Kind::In:
      if (e.hasAggregate) {
        const Value needle = evalGrouped(*e.lhs, params, group);
        if (needle.isNull()) return Value(std::int64_t{0});
        for (const auto& item : e.list) {
          if (needle.compare(evalGrouped(*item, params, group)) == 0) {
            return Value(std::int64_t{1});
          }
        }
        return Value(std::int64_t{0});
      }
      return evalExpr(e, params, group.member(0));
    default:
      return evalExpr(e, params, group.member(0));
  }
}

Value coerce(const Value& v, ColumnType type) {
  if (v.isNull()) return v;
  switch (type) {
    case ColumnType::Int:
      if (v.isDouble()) return Value(v.asInt());
      return v;
    case ColumnType::Double:
      if (v.isInt()) return Value(v.asDouble());
      return v;
    case ColumnType::String:
      return v;
  }
  return v;
}

// ---------------------------------------------------------------------------
// Access paths: turn an AccessPath plus bound parameters into a stream of
// candidate RowIds. Statistics count every row the engine touches, matching
// the pre-plan executor's accounting row for row (except where an early
// exit genuinely touches fewer rows — that reduction is the point).

/// Range bounds merged at execution: the tightest of each side wins; on
/// equal values a strict bound beats an inclusive one (their conjunction).
struct MergedRange {
  bool empty = false;
  std::optional<Value> lo;
  bool loInc = true;
  std::optional<Value> hi;
  bool hiInc = true;
};

MergedRange mergeBounds(const AccessPath& a, std::span<const Value> params) {
  MergedRange m;
  for (const auto& b : a.lower) {
    const Value v = evalExpr(*b.expr, params, NoRow{});
    if (v.isNull()) {  // `col > NULL` is never true
      m.empty = true;
      return m;
    }
    if (!m.lo || v > *m.lo || (v == *m.lo && m.loInc && !b.inclusive)) {
      m.lo = v;
      m.loInc = b.inclusive;
    }
  }
  for (const auto& b : a.upper) {
    const Value v = evalExpr(*b.expr, params, NoRow{});
    if (v.isNull()) {
      m.empty = true;
      return m;
    }
    if (!m.hi || v < *m.hi || (v == *m.hi && m.hiInc && !b.inclusive)) {
      m.hi = v;
      m.hiInc = b.inclusive;
    }
  }
  // A crossed range (lo past hi) is empty. Without this, the scan's begin
  // iterator would sit after its end iterator and the walk would run off
  // the index.
  if (m.lo && m.hi) {
    const int c = m.lo->compare(*m.hi);
    if (c > 0 || (c == 0 && (!m.loInc || !m.hiInc))) m.empty = true;
  }
  return m;
}

/// Streams candidate row ids of `table` for the given access path into
/// `fn(RowId) -> bool` (false stops the scan). Counts examined rows.
template <typename Fn>
void scanAccess(const AccessPath& a, const Table& table, std::span<const Value> params,
                ExecStats& stats, Fn&& fn) {
  const std::size_t rowBytes = table.avgRowBytes();
  auto count = [&] {
    ++stats.rowsExamined;
    stats.bytesExamined += rowBytes;
  };
  switch (a.kind) {
    case AccessPath::Kind::FullScan:
      table.forEachRowWhile([&](RowId id) {
        count();
        return fn(id);
      });
      return;

    case AccessPath::Kind::PkEq: {
      stats.usedIndex = true;
      Value scratch;
      const Value& key = evalRef(*a.eqKey, params, NoRow{}, scratch);
      if (key.isNull()) return;  // `pk = NULL` matches nothing
      if (auto id = table.findByPk(key)) {
        count();
        fn(*id);
      }
      return;
    }

    case AccessPath::Kind::IndexEq: {
      stats.usedIndex = true;
      Value scratch;
      const Value& key = evalRef(*a.eqKey, params, NoRow{}, scratch);
      if (key.isNull()) return;
      table.forEachIndexEq(a.column, key, [&](RowId id) {
        count();
        return fn(id);
      });
      return;
    }

    case AccessPath::Kind::InList: {
      stats.usedIndex = true;
      // Evaluate and deduplicate the keys (first occurrence wins): a
      // duplicate IN item must not produce a duplicate output row, exactly
      // as it cannot under a full scan.
      std::vector<Value> keys;
      keys.reserve(a.inKeys.size());
      for (const auto& item : a.inKeys) {
        Value v = evalExpr(*item, params, NoRow{});
        if (v.isNull()) continue;  // `col IN (..., NULL, ...)` never matches NULL
        if (std::find(keys.begin(), keys.end(), v) == keys.end()) keys.push_back(std::move(v));
      }
      for (const Value& key : keys) {
        if (a.viaPk) {
          if (auto id = table.findByPk(key)) {
            count();
            if (!fn(*id)) return;
          }
        } else if (!table.forEachIndexEq(a.column, key, [&](RowId id) {
                     count();
                     return fn(id);
                   })) {
          return;
        }
      }
      return;
    }

    case AccessPath::Kind::IndexRange: {
      stats.usedIndex = true;
      const MergedRange m = mergeBounds(a, params);
      if (m.empty) return;
      const OrderedIndex& index = *table.orderedIndex(a.column);
      auto it = m.lo ? (m.loInc ? index.lowerBound(*m.lo) : index.upperBound(*m.lo))
                     : index.begin();
      const auto end = m.hi ? (m.hiInc ? index.upperBound(*m.hi) : index.lowerBound(*m.hi))
                            : index.end();
      for (; it != end; ++it) {
        count();
        // With no lower bound the scan starts at the NULL entries; the
        // consumed `col <= hi` conjunct rejects them (counted as examined,
        // exactly as the unplanned executor's residual filter did).
        if (it->key.isNull()) continue;
        if (!fn(it->id)) return;
      }
      return;
    }

    case AccessPath::Kind::OrderedIndexScan: {
      stats.usedIndex = true;
      const OrderedIndex& index = *table.orderedIndex(a.column);
      // Bounds come from the IndexRange this scan upgraded; without them it
      // stands in for a full scan (see AccessPath).
      const bool ranged = !a.lower.empty() || !a.upper.empty();
      auto begin = index.begin();
      auto end = index.end();
      if (ranged) {
        const MergedRange m = mergeBounds(a, params);
        if (m.empty) return;
        begin = m.lo ? (m.loInc ? index.lowerBound(*m.lo) : index.upperBound(*m.lo))
                     : index.begin();
        end = m.hi ? (m.hiInc ? index.upperBound(*m.hi) : index.lowerBound(*m.hi))
                   : index.end();
      }
      // Emit one equal-key block at a time, front to back in either
      // direction: within a key the index holds RowId order, the tie order
      // of the stable sort this scan elides. A scan standing in for a full
      // scan examines each block it starts whole.
      auto emitBlock = [&](auto b, auto e) {
        if (!ranged) {
          for (auto it = b; it != e; ++it) count();
        }
        for (; b != e; ++b) {
          if (ranged) {
            count();
            if (b->key.isNull()) continue;
          }
          if (!fn(b->id)) return false;
        }
        return true;
      };
      if (!a.descending) {
        auto it = begin;
        while (it != end) {
          auto stop = index.upperBound(it->key);
          if (!emitBlock(it, stop)) return;
          it = stop;
        }
      } else {
        auto it = end;
        while (it != begin) {
          auto blockBegin = index.lowerBound(std::prev(it)->key);
          if (!emitBlock(blockBegin, it)) return;
          it = blockBegin;
        }
      }
      return;
    }

    case AccessPath::Kind::AggFast:
      throw std::runtime_error("aggregate fast path has no row stream");
  }
}

// ---------------------------------------------------------------------------
// SELECT execution.

class SelectExec {
 public:
  SelectExec(Database& db, const SelectPlan& p, std::span<const Value> params,
             ExecStats& stats)
      : p_(p), params_(params), stats_(stats) {
    tables_.reserve(p.tableNames.size());
    for (const auto& name : p.tableNames) tables_.push_back(&db.table(name));
  }

  ResultSet run() {
    if (p_.access.kind == AccessPath::Kind::AggFast) return runAggFast();
    ResultSet rs;
    rs.columns.reserve(p_.items.size());
    for (const auto& item : p_.items) rs.columns.push_back(item.name);
    const bool needSort = !p_.orderBy.empty() && !p_.sortElided;
    if (p_.joins.empty() && !p_.grouped && !needSort) {
      runStreaming(rs);
    } else {
      const std::vector<RowId> flat = bind();
      if (p_.grouped) {
        finishBuilt(groupRows(flat), rs);
      } else if (p_.distinct) {
        finishBuilt(projectAll(flat), rs);
      } else {
        finishLate(flat, rs);
      }
    }
    stats_.rowsReturned += rs.rows.size();
    stats_.resultBytes += rs.byteSize();
    return rs;
  }

 private:
  /// Output rows that must exist before the window is chosen (grouped or
  /// DISTINCT), with their ORDER BY keys, row-major.
  struct BuiltRows {
    std::vector<Row> rows;
    std::vector<Value> keys;
  };

  template <typename Src>
  Row project(const Src& src) const {
    Row out;
    out.reserve(p_.items.size());
    for (const auto& item : p_.items) {
      if (item.direct) {
        out.push_back(src.at(*item.direct));
      } else {
        out.push_back(evalExpr(*item.expr, params_, src));
      }
    }
    return out;
  }

  static bool sameRow(const Row& a, const Row& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].compare(b[i]) != 0) return false;
    }
    return true;
  }

  // ----- single-table, no sort pending: the streaming hot path -----
  bool passesFilters(const SingleRow& src) const {
    for (const auto& c : p_.baseFilter) {
      if (!valueIsTrue(evalExpr(*c, params_, src))) return false;
    }
    for (const auto& c : p_.residual) {
      if (!valueIsTrue(evalExpr(*c, params_, src))) return false;
    }
    return true;
  }

  void runStreaming(ResultSet& rs) {
    const Table& table = *tables_[0];
    const auto offset = static_cast<std::size_t>(p_.offset);

    if (p_.distinct) {
      // DISTINCT without a sort: stream with first-occurrence dedup; done
      // once offset+limit distinct rows exist.
      std::vector<Row> uniques;
      const std::optional<std::size_t> want =
          p_.limit ? std::optional<std::size_t>(offset + static_cast<std::size_t>(*p_.limit))
                   : std::nullopt;
      scanAccess(p_.access, table, params_, stats_, [&](RowId id) {
        const SingleRow src{table.row(id)};
        if (!passesFilters(src)) return true;
        Row out = project(src);
        for (const Row& kept : uniques) {
          if (sameRow(kept, out)) return true;
        }
        uniques.push_back(std::move(out));
        return !(want && uniques.size() >= *want);
      });
      const std::size_t begin = std::min(uniques.size(), offset);
      std::size_t end = uniques.size();
      if (p_.limit) end = std::min(end, begin + static_cast<std::size_t>(*p_.limit));
      for (std::size_t i = begin; i < end; ++i) rs.rows.push_back(std::move(uniques[i]));
      return;
    }

    // Streaming with early exit: no sort pending (either no ORDER BY, or an
    // ordered-index scan already yields rows in order), so the scan can
    // stop at OFFSET+LIMIT — the rows a real engine would never touch are
    // never examined, and never charged.
    std::size_t skipped = 0;
    scanAccess(p_.access, table, params_, stats_, [&](RowId id) {
      const SingleRow src{table.row(id)};
      if (!passesFilters(src)) return true;
      if (skipped < offset) {
        ++skipped;
        return true;
      }
      if (p_.limit && rs.rows.size() >= static_cast<std::size_t>(*p_.limit)) return false;
      rs.rows.push_back(project(src));
      return !(p_.limit && rs.rows.size() >= static_cast<std::size_t>(*p_.limit));
    });
  }

  // ----- everything else: candidate bindings, then the window -----

  /// Candidate bindings in scan and join order, `tables_.size()` RowIds
  /// each: the base access with the base-only filter pushed down, one
  /// widening pass per join step, then the residual filter.
  std::vector<RowId> bind() {
    std::vector<RowId> flat;
    std::size_t stride = 1;
    scanAccess(p_.access, *tables_[0], params_, stats_, [&](RowId id) {
      const SingleRow src{tables_[0]->row(id)};
      for (const auto& c : p_.baseFilter) {
        if (!valueIsTrue(evalExpr(*c, params_, src))) return true;
      }
      flat.push_back(id);
      return true;
    });

    for (std::size_t j = 0; j < p_.joins.size(); ++j) {
      const SelectPlan::JoinStep& step = p_.joins[j];
      const Table& inner = *tables_[j + 1];
      const std::size_t innerBytes = inner.avgRowBytes();
      std::vector<RowId> next;
      const std::size_t n = flat.size() / stride;
      Value scratch;
      auto outerKey = [&](std::size_t b) -> const Value& {
        return evalRef(*step.outerKey, params_, FlatRow{&tables_, flat.data() + b * stride},
                       scratch);
      };
      auto examine = [&] {
        ++stats_.rowsExamined;
        stats_.bytesExamined += innerBytes;
      };
      auto extend = [&](std::size_t b, RowId id) {
        const RowId* ids = flat.data() + b * stride;
        next.insert(next.end(), ids, ids + stride);
        next.push_back(id);
      };
      switch (step.kind) {
        case SelectPlan::JoinStep::Kind::PkLookup:
          if (n > 0) stats_.usedIndex = true;
          for (std::size_t b = 0; b < n; ++b) {
            const Value& key = outerKey(b);
            if (key.isNull()) continue;  // NULL never joins
            if (auto id = inner.findByPk(key)) {
              examine();
              extend(b, *id);
            }
          }
          break;
        case SelectPlan::JoinStep::Kind::IndexLookup: {
          if (n > 0) stats_.usedIndex = true;
          // Every outer key first, copied out of its row, so that the probes
          // read only the keys and the index. The keys mostly ascend (the
          // outer rows arrive in RowId order, and keys are mostly assigned
          // in it), so each probe searches forward from where the one
          // before it landed; a smaller key descends from the fences.
          std::vector<Value> keys;
          keys.reserve(n);
          for (std::size_t b = 0; b < n; ++b) keys.push_back(outerKey(b));
          const OrderedIndex& index = *inner.orderedIndex(step.innerColumn);
          const auto end = index.end();
          auto hint = index.begin();
          for (std::size_t b = 0; b < n; ++b) {
            const Value& key = keys[b];
            if (key.isNull()) continue;
            hint = index.lowerBound(key, hint);
            for (auto it = hint; it != end && it->key == key; ++it) {
              examine();
              extend(b, it->id);
            }
          }
          break;
        }
        case SelectPlan::JoinStep::Kind::ScanEq:
          for (std::size_t b = 0; b < n; ++b) {
            const Value& key = outerKey(b);
            inner.forEachRow([&](RowId id) {
              examine();
              if (!key.isNull() && inner.row(id)[step.innerColumn] == key) extend(b, id);
            });
          }
          break;
        case SelectPlan::JoinStep::Kind::Cross:
          for (std::size_t b = 0; b < n; ++b) {
            inner.forEachRow([&](RowId id) {
              examine();
              extend(b, id);
            });
          }
          break;
      }
      flat = std::move(next);
      ++stride;
    }

    if (!p_.residual.empty()) {
      std::vector<RowId> kept;
      const std::size_t n = flat.size() / stride;
      for (std::size_t b = 0; b < n; ++b) {
        const RowId* ids = flat.data() + b * stride;
        const FlatRow src{&tables_, ids};
        bool pass = true;
        for (const auto& c : p_.residual) {
          if (!valueIsTrue(evalExpr(*c, params_, src))) {
            pass = false;
            break;
          }
        }
        if (pass) kept.insert(kept.end(), ids, ids + stride);
      }
      flat = std::move(kept);
    }
    return flat;
  }

  /// A sort key that is a plain column (directly, or as the alias of a plain
  /// column item) reads the row in place: tables do not change during a
  /// SELECT. Null for a key that must be evaluated.
  const PlanColumnRef* keyColumn(const SelectPlan::OrderKey& key) const {
    if (key.outputIndex) {
      const auto& item = p_.items[*key.outputIndex];
      return item.direct ? &*item.direct : nullptr;
    }
    return key.expr->kind == Expr::Kind::Column ? &key.expr->col : nullptr;
  }

  /// Late materialization: sort keys are read for every candidate binding,
  /// and only the bindings in the window are projected.
  void finishLate(const std::vector<RowId>& flat, ResultSet& rs) {
    const std::size_t width = tables_.size();
    const std::size_t n = flat.size() / width;
    std::vector<const Value*> keys;
    std::vector<Value> computed;
    if (!p_.orderBy.empty()) {
      std::size_t evaluated = 0;
      for (const auto& ok : p_.orderBy) evaluated += keyColumn(ok) == nullptr ? 1 : 0;
      keys.reserve(n * p_.orderBy.size());
      computed.reserve(n * evaluated);  // never reallocates: keys point into it
      for (std::size_t b = 0; b < n; ++b) {
        const FlatRow src{&tables_, flat.data() + b * width};
        for (const auto& ok : p_.orderBy) {
          if (const PlanColumnRef* col = keyColumn(ok)) {
            keys.push_back(&src.at(*col));
          } else {
            const CompiledExpr& e = ok.outputIndex ? *p_.items[*ok.outputIndex].expr : *ok.expr;
            computed.push_back(evalExpr(e, params_, src));
            keys.push_back(&computed.back());
          }
        }
      }
    }
    for (const std::uint32_t pos : window(n, keys)) {
      rs.rows.push_back(project(FlatRow{&tables_, flat.data() + pos * width}));
    }
  }

  /// Every candidate projected with its keys, for DISTINCT.
  BuiltRows projectAll(const std::vector<RowId>& flat) const {
    const std::size_t width = tables_.size();
    const std::size_t n = flat.size() / width;
    BuiltRows built;
    built.rows.reserve(n);
    built.keys.reserve(n * p_.orderBy.size());
    for (std::size_t b = 0; b < n; ++b) {
      const FlatRow src{&tables_, flat.data() + b * width};
      built.rows.push_back(project(src));
      for (const auto& ok : p_.orderBy) {
        if (ok.outputIndex) built.keys.push_back(built.rows.back()[*ok.outputIndex]);
        else built.keys.push_back(evalExpr(*ok.expr, params_, src));
      }
    }
    return built;
  }

  BuiltRows groupRows(const std::vector<RowId>& flat) {
    const std::size_t width = tables_.size();
    const std::size_t n = flat.size() / width;
    // Group keys are compared with Value::compare via std::map, so group
    // iteration (and thus pre-sort output order) is deterministic.
    std::map<std::vector<Value>, std::vector<const RowId*>> groups;
    for (std::size_t b = 0; b < n; ++b) {
      const RowId* ids = flat.data() + b * width;
      const FlatRow src{&tables_, ids};
      std::vector<Value> key;
      key.reserve(p_.groupKeys.size());
      for (const auto& g : p_.groupKeys) key.push_back(evalExpr(*g, params_, src));
      groups[std::move(key)].push_back(ids);
    }
    if (groups.empty() && p_.groupKeys.empty()) {
      groups[{}] = {};  // aggregates over an empty input produce one row
    }
    stats_.aggregatedGroups += groups.size();
    BuiltRows built;
    for (auto& [key, members] : groups) {
      const GroupView group{&tables_, &members};
      if (members.empty() && !p_.groupKeys.empty()) continue;
      if (p_.having && !members.empty() &&
          !valueIsTrue(evalGrouped(*p_.having, params_, group))) {
        continue;
      }
      Row out;
      out.reserve(p_.items.size());
      for (const auto& item : p_.items) {
        if (members.empty()) {
          // COUNT over empty input is 0; anything else is NULL.
          if (item.expr && item.expr->kind == Expr::Kind::Aggregate &&
              item.expr->agg == AggFunc::Count) {
            out.push_back(Value(std::int64_t{0}));
          } else {
            out.push_back(Value());
          }
        } else if (item.direct) {
          out.push_back(group.member(0).at(*item.direct));
        } else {
          out.push_back(evalGrouped(*item.expr, params_, group));
        }
      }
      for (const auto& ok : p_.orderBy) {
        if (ok.outputIndex) {
          built.keys.push_back(out[*ok.outputIndex]);
        } else if (!members.empty()) {
          built.keys.push_back(evalGrouped(*ok.expr, params_, group));
        } else {
          built.keys.push_back(Value());
        }
      }
      built.rows.push_back(std::move(out));
    }
    return built;
  }

  /// DISTINCT keeps the first occurrence of each row, with its keys; the
  /// rows kept go through the window.
  void finishBuilt(BuiltRows built, ResultSet& rs) {
    const std::size_t nk = p_.orderBy.size();
    std::vector<std::uint32_t> kept;
    std::vector<const Value*> keys;
    for (std::uint32_t i = 0; i < built.rows.size(); ++i) {
      if (p_.distinct && std::any_of(kept.begin(), kept.end(), [&](std::uint32_t j) {
            return sameRow(built.rows[j], built.rows[i]);
          })) {
        continue;
      }
      kept.push_back(i);
      for (std::size_t k = 0; k < nk; ++k) keys.push_back(&built.keys[i * nk + k]);
    }
    for (const std::uint32_t pos : window(kept.size(), keys)) {
      rs.rows.push_back(std::move(built.rows[kept[pos]]));
    }
  }

  /// The one sort tail. Returns the positions of the OFFSET/LIMIT window
  /// among `n` candidates, in output order; `keys` holds each candidate's
  /// ORDER BY keys, row-major. The window equals what std::stable_sort over
  /// the candidates followed by the slice gives, because ties break by
  /// candidate position: partial_sort when LIMIT cuts the list, sort
  /// otherwise. Every candidate counts as sorted, not only the window.
  std::vector<std::uint32_t> window(std::size_t n, const std::vector<const Value*>& keys) {
    const std::size_t begin = std::min<std::size_t>(n, static_cast<std::size_t>(p_.offset));
    std::size_t end = n;
    if (p_.limit) end = std::min(end, begin + static_cast<std::size_t>(*p_.limit));
    std::vector<std::uint32_t> order;
    if (p_.orderBy.empty()) {
      order.reserve(end - begin);
      for (std::size_t i = begin; i < end; ++i) order.push_back(static_cast<std::uint32_t>(i));
      return order;
    }
    stats_.rowsSorted += n;
    if (begin == end) return order;
    order.resize(n);
    std::iota(order.begin(), order.end(), std::uint32_t{0});
    const std::size_t nk = p_.orderBy.size();
    const auto before = [&](std::uint32_t a, std::uint32_t b) {
      const Value* const* ka = keys.data() + a * nk;
      const Value* const* kb = keys.data() + b * nk;
      for (std::size_t k = 0; k < nk; ++k) {
        const int c = ka[k]->compare(*kb[k]);
        if (c != 0) return p_.orderBy[k].descending ? c > 0 : c < 0;
      }
      return a < b;
    };
    const auto cut = order.begin() + static_cast<std::ptrdiff_t>(end);
    if (end < n) {
      std::partial_sort(order.begin(), cut, order.end(), before);
    } else {
      std::sort(order.begin(), order.end(), before);
    }
    order.erase(cut, order.end());
    order.erase(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(begin));
    return order;
  }

  /// O(1) MAX/MIN/COUNT(*) from index metadata. Whether the table is empty
  /// is checked here, at execution — the plan must stay data-independent.
  ResultSet runAggFast() {
    const Table& table = *tables_[0];
    const AccessPath& a = p_.access;
    ResultSet rs;
    rs.columns.push_back(a.aggOutputName);
    Row row;
    switch (a.aggFast) {
      case AccessPath::AggFastKind::CountStar:
        row.push_back(Value(static_cast<std::int64_t>(table.size())));
        stats_.rowsExamined += 1;
        break;
      case AccessPath::AggFastKind::MaxAutoPk: {
        // The auto-increment counter bounds every live pk from above (explicit
        // inserts bump it past themselves), but the row holding the newest id
        // may have been deleted — probe downward until a live row answers.
        Value found;
        for (std::int64_t id = table.maxAssignedId(); id >= 1; --id) {
          stats_.rowsExamined += 1;
          if (table.findByPk(Value(id))) {
            found = Value(id);
            break;
          }
        }
        row.push_back(std::move(found));
        break;
      }
      case AccessPath::AggFastKind::IndexMin: {
        // NULLs sort first in the index and MIN ignores them.
        const OrderedIndex& index = *table.orderedIndex(a.aggColumn);
        const auto it = index.upperBound(Value());
        row.push_back(it == index.end() ? Value() : it->key);
        stats_.rowsExamined += 1;
        break;
      }
      case AccessPath::AggFastKind::IndexMax: {
        // The largest key is NULL only when every value is NULL — and then
        // MAX is NULL anyway.
        const OrderedIndex& index = *table.orderedIndex(a.aggColumn);
        row.push_back(index.empty() ? Value() : index.back().key);
        stats_.rowsExamined += 1;
        break;
      }
      case AccessPath::AggFastKind::None:
        throw std::runtime_error("malformed aggregate fast path");
    }
    rs.rows.push_back(std::move(row));
    if (p_.offset > 0 || (p_.limit && *p_.limit == 0)) rs.rows.clear();
    stats_.usedIndex = true;
    stats_.rowsReturned += rs.rows.size();
    stats_.resultBytes += rs.byteSize();
    return rs;
  }

  const SelectPlan& p_;
  std::span<const Value> params_;
  ExecStats& stats_;
  std::vector<const Table*> tables_;
};

// ---------------------------------------------------------------------------
// Writes.

/// Candidate rows for UPDATE/DELETE: access path plus residual re-check.
std::vector<RowId> writeMatches(const Table& table, const AccessPath& access,
                                const std::vector<CompiledExprPtr>& residual,
                                std::span<const Value> params, ExecStats& stats) {
  std::vector<RowId> out;
  scanAccess(access, table, params, stats, [&](RowId id) {
    const SingleRow src{table.row(id)};
    for (const auto& c : residual) {
      if (!valueIsTrue(evalExpr(*c, params, src))) return true;
    }
    out.push_back(id);
    return true;
  });
  return out;
}

/// Applies a write LIMIT/OFFSET to the matched rows. Matches arrive in RowId
/// order (LIMIT/OFFSET plans force FullScan access), which defines the slice.
std::vector<RowId> sliceWriteMatches(std::vector<RowId> matches,
                                     const std::optional<std::int64_t>& limit,
                                     std::int64_t offset) {
  if (!limit && offset <= 0) return matches;
  const std::size_t begin =
      std::min(matches.size(), static_cast<std::size_t>(std::max<std::int64_t>(offset, 0)));
  std::size_t end = matches.size();
  if (limit) {
    const auto want = static_cast<std::size_t>(std::max<std::int64_t>(*limit, 0));
    end = std::min(end, begin + want);
  }
  return {matches.begin() + static_cast<std::ptrdiff_t>(begin),
          matches.begin() + static_cast<std::ptrdiff_t>(end)};
}

ExecResult executeInsert(Database& db, const InsertPlan& p, std::span<const Value> params) {
  ExecResult result;
  Table& table = db.table(p.tableName);
  Row row(p.columnCount);  // default NULLs
  for (std::size_t i = 0; i < p.values.size(); ++i) {
    row[p.targets[i].column] =
        coerce(evalExpr(*p.values[i], params, NoRow{}), p.targets[i].type);
  }
  result.lastInsertId = table.insert(std::move(row));
  result.affectedRows = 1;
  result.stats.rowsModified = 1;
  return result;
}

ExecResult executeUpdate(Database& db, const UpdatePlan& p, std::span<const Value> params) {
  ExecResult result;
  Table& table = db.table(p.tableName);
  const auto matches = sliceWriteMatches(
      writeMatches(table, p.access, p.residual, params, result.stats), p.limit, p.offset);
  for (RowId id : matches) {
    // Evaluate every assignment against the pre-update row, then apply.
    const SingleRow src{table.row(id)};
    std::vector<Value> newValues;
    newValues.reserve(p.sets.size());
    for (const auto& t : p.sets) {
      newValues.push_back(coerce(evalExpr(*t.value, params, src), t.type));
    }
    for (std::size_t i = 0; i < p.sets.size(); ++i) {
      table.updateCell(id, p.sets[i].column, std::move(newValues[i]));
    }
  }
  result.affectedRows = matches.size();
  result.stats.rowsModified = matches.size();
  return result;
}

ExecResult executeDelete(Database& db, const DeletePlan& p, std::span<const Value> params) {
  ExecResult result;
  Table& table = db.table(p.tableName);
  const auto matches = sliceWriteMatches(
      writeMatches(table, p.access, p.residual, params, result.stats), p.limit, p.offset);
  for (RowId id : matches) table.erase(id);
  result.affectedRows = matches.size();
  result.stats.rowsModified = matches.size();
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// Executor entry points.

ExecResult Executor::executePlan(const Plan& plan, std::span<const Value> params) {
  if (params.size() < plan.paramCount) {
    throw std::runtime_error("statement needs " + std::to_string(plan.paramCount) +
                             " parameters, got " + std::to_string(params.size()) + ": " +
                             plan.text);
  }
  switch (plan.kind) {
    case Statement::Kind::Select: {
      ExecResult result;
      result.resultSet = SelectExec(db_, plan.select, params, result.stats).run();
      return result;
    }
    case Statement::Kind::Insert:
      return executeInsert(db_, plan.insert, params);
    case Statement::Kind::Update:
      return executeUpdate(db_, plan.update, params);
    case Statement::Kind::Delete:
      return executeDelete(db_, plan.del, params);
    case Statement::Kind::LockTables:
    case Statement::Kind::UnlockTables:
      // Lock statements are handled by the DatabaseServer; executing them
      // against the bare engine is a no-op.
      return {};
  }
  throw std::runtime_error("unhandled statement kind");
}

ExecResult Executor::execute(const Statement& stmt, std::span<const Value> params) {
  if (params.size() < stmt.paramCount) {
    throw std::runtime_error("statement needs " + std::to_string(stmt.paramCount) +
                             " parameters, got " + std::to_string(params.size()) + ": " +
                             stmt.text);
  }
  return executePlan(*buildPlan(stmt, db_), params);
}

ExecResult Executor::execute(const PlannedStatement& stmt, std::span<const Value> params) {
  return executePlan(*stmt.planFor(db_), params);
}

ExecResult Executor::query(std::string_view sql, std::span<const Value> params) {
  return execute(*parseSql(sql), params);
}

}  // namespace mwsim::db
