/// Differential test oracle for the SQL engine (DESIGN.md §8).
///
/// A deliberately naive reference interpreter — full scans only, per-row
/// name resolution, no plans, no indexes, no pushdown — executes the same
/// randomly generated statements as the optimized plan-based executor, over
/// the same randomly generated schemas and data. Every SELECT must agree
/// row for row (or as a multiset where the generated ordering is partial);
/// every write must leave byte-identical table contents. Each SELECT also
/// runs through the PlannedStatement cache twice (cold plan build, then
/// warm reuse), so plan caching itself is under the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/database.hpp"
#include "db/executor.hpp"
#include "db/parser.hpp"
#include "db/plan.hpp"

namespace {

using namespace mwsim;
using db::AggFunc;
using db::BinOp;
using db::ColumnType;
using db::Expr;
using db::Row;
using db::RowId;
using db::Table;
using db::Value;

// ===========================================================================
// Reference interpreter
// ===========================================================================

struct RefResult {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  std::size_t affectedRows = 0;
  std::int64_t lastInsertId = 0;
};

bool refTruthy(const Value& v) {
  if (v.isNull()) return false;
  if (v.isInt()) return v.asInt() != 0;
  if (v.isDouble()) return v.asDouble() != 0.0;
  return !v.asString().empty();
}

Value refBinary(BinOp op, const Value& a, const Value& b) {
  switch (op) {
    case BinOp::And:
      return Value(static_cast<std::int64_t>(refTruthy(a) && refTruthy(b)));
    case BinOp::Or:
      return Value(static_cast<std::int64_t>(refTruthy(a) || refTruthy(b)));
    case BinOp::Like:
      if (a.isNull() || b.isNull()) return Value(std::int64_t{0});
      return Value(
          static_cast<std::int64_t>(db::likeMatch(a.toDisplayString(), b.asString())));
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
    default: {  // arithmetic
      if (a.isNull() || b.isNull()) return Value();
      if (a.isInt() && b.isInt() && op != BinOp::Div) {
        switch (op) {
          case BinOp::Add: return Value(a.asInt() + b.asInt());
          case BinOp::Sub: return Value(a.asInt() - b.asInt());
          default: return Value(a.asInt() * b.asInt());
        }
      }
      const double x = a.asDouble();
      const double y = b.asDouble();
      switch (op) {
        case BinOp::Add: return Value(x + y);
        case BinOp::Sub: return Value(x - y);
        case BinOp::Mul: return Value(x * y);
        default: return y == 0.0 ? Value() : Value(x / y);
      }
    }
  }
}

Value refCoerce(const Value& v, ColumnType type) {
  if (v.isNull()) return v;
  if (type == ColumnType::Int && v.isDouble()) return Value(v.asInt());
  if (type == ColumnType::Double && v.isInt()) return Value(v.asDouble());
  return v;
}

/// Tree-walking evaluator over one binding (one RowId per bound table),
/// resolving names per call — no compilation, no caching.
class RefEval {
 public:
  struct Src {
    std::string alias;
    const Table* table;
  };

  RefEval(std::vector<Src> srcs, std::span<const Value> params)
      : srcs_(std::move(srcs)), params_(params) {}

  const std::vector<Src>& srcs() const { return srcs_; }

  Value columnValue(const Expr& e, const std::vector<RowId>& ids) const {
    if (!e.tableQualifier.empty()) {
      for (std::size_t i = 0; i < srcs_.size(); ++i) {
        if (srcs_[i].alias != e.tableQualifier) continue;
        auto c = srcs_[i].table->schema().columnIndex(e.column);
        if (!c) throw std::runtime_error("ref: no column " + e.column);
        return srcs_[i].table->row(ids[i])[*c];
      }
      throw std::runtime_error("ref: unknown alias " + e.tableQualifier);
    }
    std::optional<Value> found;
    for (std::size_t i = 0; i < srcs_.size(); ++i) {
      if (auto c = srcs_[i].table->schema().columnIndex(e.column)) {
        if (found) throw std::runtime_error("ref: ambiguous column " + e.column);
        found = srcs_[i].table->row(ids[i])[*c];
      }
    }
    if (!found) throw std::runtime_error("ref: unknown column " + e.column);
    return *found;
  }

  Value eval(const Expr& e, const std::vector<RowId>& ids) const {
    switch (e.kind) {
      case Expr::Kind::Literal:
        return e.literal;
      case Expr::Kind::Param:
        return params_[e.paramIndex - 1];
      case Expr::Kind::Column:
        return columnValue(e, ids);
      case Expr::Kind::Binary:
        return refBinary(e.op, eval(*e.lhs, ids), eval(*e.rhs, ids));
      case Expr::Kind::In: {
        const Value needle = eval(*e.lhs, ids);
        if (needle.isNull()) return Value(std::int64_t{0});
        for (const auto& item : e.list) {
          if (needle.compare(eval(*item, ids)) == 0) return Value(std::int64_t{1});
        }
        return Value(std::int64_t{0});
      }
      case Expr::Kind::IsNull: {
        const bool isNull = eval(*e.lhs, ids).isNull();
        return Value(static_cast<std::int64_t>(isNull != e.negated));
      }
      case Expr::Kind::Not:
        return Value(static_cast<std::int64_t>(!refTruthy(eval(*e.lhs, ids))));
      default:
        throw std::runtime_error("ref: aggregate/star in row context");
    }
  }

  static bool containsAggregate(const Expr& e) {
    if (e.kind == Expr::Kind::Aggregate) return true;
    if (e.lhs && containsAggregate(*e.lhs)) return true;
    if (e.rhs && containsAggregate(*e.rhs)) return true;
    for (const auto& item : e.list) {
      if (containsAggregate(*item)) return true;
    }
    return false;
  }

  Value evalAggregate(const Expr& e, const std::vector<std::vector<RowId>>& group) const {
    if (e.agg == AggFunc::Count && e.aggArg->kind == Expr::Kind::Star) {
      return Value(static_cast<std::int64_t>(group.size()));
    }
    std::int64_t count = 0;
    double sum = 0.0;
    std::int64_t isum = 0;
    bool allInt = true;
    std::optional<Value> minV, maxV;
    for (const auto& ids : group) {
      const Value v = eval(*e.aggArg, ids);
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
      case AggFunc::Count: return Value(count);
      case AggFunc::Sum: return count == 0 ? Value() : (allInt ? Value(isum) : Value(sum));
      case AggFunc::Avg:
        return count == 0 ? Value() : Value(sum / static_cast<double>(count));
      case AggFunc::Min: return minV.value_or(Value());
      case AggFunc::Max: return maxV.value_or(Value());
      default: throw std::runtime_error("ref: bad aggregate");
    }
  }

  Value evalGrouped(const Expr& e, const std::vector<std::vector<RowId>>& group) const {
    if (e.kind == Expr::Kind::Aggregate) return evalAggregate(e, group);
    if (!containsAggregate(e)) return eval(e, group.front());
    switch (e.kind) {
      case Expr::Kind::Binary:
        return refBinary(e.op, evalGrouped(*e.lhs, group), evalGrouped(*e.rhs, group));
      case Expr::Kind::Not:
        return Value(static_cast<std::int64_t>(!refTruthy(evalGrouped(*e.lhs, group))));
      case Expr::Kind::In: {
        const Value needle = evalGrouped(*e.lhs, group);
        if (needle.isNull()) return Value(std::int64_t{0});
        for (const auto& item : e.list) {
          if (needle.compare(evalGrouped(*item, group)) == 0) {
            return Value(std::int64_t{1});
          }
        }
        return Value(std::int64_t{0});
      }
      default:
        return eval(e, group.front());
    }
  }

 private:
  std::vector<Src> srcs_;
  std::span<const Value> params_;
};

RefResult refSelect(db::Database& dbase, const db::SelectStmt& s,
                    std::span<const Value> params) {
  std::vector<RefEval::Src> srcs;
  srcs.push_back({s.from.alias, &dbase.table(s.from.table)});
  for (const auto& j : s.joins) srcs.push_back({j.table.alias, &dbase.table(j.table.table)});
  const RefEval ev(std::move(srcs), params);

  // Nested-loop binding construction: base rows, then each join filtered by
  // its ON condition (a plain `l = r` with NULL matching nothing).
  std::vector<std::vector<RowId>> bindings;
  ev.srcs()[0].table->forEachRow([&](RowId id) { bindings.push_back({id}); });
  for (std::size_t j = 0; j < s.joins.size(); ++j) {
    std::vector<std::vector<RowId>> next;
    for (const auto& b : bindings) {
      ev.srcs()[j + 1].table->forEachRow([&](RowId id) {
        std::vector<RowId> nb = b;
        nb.push_back(id);
        if (s.joins[j].on && !refTruthy(ev.eval(*s.joins[j].on, nb))) return;
        next.push_back(std::move(nb));
      });
    }
    bindings = std::move(next);
  }

  if (s.where) {
    std::vector<std::vector<RowId>> kept;
    for (auto& b : bindings) {
      if (refTruthy(ev.eval(*s.where, b))) kept.push_back(std::move(b));
    }
    bindings = std::move(kept);
  }

  // Output column names (star expands to every column of every table).
  RefResult out;
  struct Item {
    const Expr* expr;
    std::string name;
  };
  std::vector<Item> items;
  for (const auto& item : s.items) {
    if (item.expr->kind == Expr::Kind::Star) {
      for (const auto& src : ev.srcs()) {
        for (const auto& col : src.table->schema().columns) {
          items.push_back({nullptr, col.name});
          out.columns.push_back(col.name);
        }
      }
      continue;
    }
    std::string name = item.alias;
    if (name.empty()) {
      name = item.expr->kind == Expr::Kind::Column ? item.expr->column : "expr";
    }
    items.push_back({item.expr.get(), name});
    out.columns.push_back(name);
  }
  auto projectRow = [&](const std::vector<RowId>& ids) {
    // Star slots (expr == nullptr) expand positionally: every column of
    // every bound table, in table order.
    std::vector<Value> starValues;
    for (std::size_t t = 0; t < ev.srcs().size(); ++t) {
      const std::span<const Value> src = ev.srcs()[t].table->row(ids[t]);
      starValues.insert(starValues.end(), src.begin(), src.end());
    }
    Row r;
    std::size_t starCursor = 0;
    for (const auto& item : items) {
      if (item.expr == nullptr) {
        r.push_back(starValues[starCursor++]);
      } else {
        r.push_back(ev.eval(*item.expr, ids));
      }
    }
    return r;
  };

  const bool grouped =
      !s.groupBy.empty() || std::any_of(s.items.begin(), s.items.end(), [](const auto& i) {
        return i.expr->kind != Expr::Kind::Star && RefEval::containsAggregate(*i.expr);
      });

  struct OutRow {
    Row values;
    std::vector<Value> keys;
  };
  std::vector<OutRow> rows;

  auto orderKeys = [&](const Row& values, auto&& evalKey) {
    std::vector<Value> keys;
    for (const auto& o : s.orderBy) {
      std::optional<std::size_t> outIdx;
      if (o.expr->kind == Expr::Kind::Column && o.expr->tableQualifier.empty()) {
        for (std::size_t i = 0; i < out.columns.size(); ++i) {
          if (out.columns[i] == o.expr->column) {
            outIdx = i;
            break;
          }
        }
      }
      keys.push_back(outIdx ? values[*outIdx] : evalKey(*o.expr));
    }
    return keys;
  };

  if (grouped) {
    std::map<std::vector<Value>, std::vector<std::vector<RowId>>> groups;
    for (const auto& b : bindings) {
      std::vector<Value> key;
      for (const auto& g : s.groupBy) key.push_back(ev.eval(*g, b));
      groups[std::move(key)].push_back(b);
    }
    if (groups.empty() && s.groupBy.empty()) groups[{}] = {};
    for (const auto& [key, group] : groups) {
      if (group.empty() && !s.groupBy.empty()) continue;
      if (s.having && !group.empty() && !refTruthy(ev.evalGrouped(*s.having, group))) {
        continue;
      }
      OutRow r;
      for (const auto& item : s.items) {
        if (group.empty()) {
          r.values.push_back(item.expr->kind == Expr::Kind::Aggregate &&
                                     item.expr->agg == AggFunc::Count
                                 ? Value(std::int64_t{0})
                                 : Value());
        } else {
          r.values.push_back(ev.evalGrouped(*item.expr, group));
        }
      }
      r.keys = orderKeys(r.values, [&](const Expr& e) {
        return group.empty() ? Value() : ev.evalGrouped(e, group);
      });
      rows.push_back(std::move(r));
    }
  } else {
    for (const auto& b : bindings) {
      OutRow r;
      r.values = projectRow(b);
      r.keys = orderKeys(r.values, [&](const Expr& e) { return ev.eval(e, b); });
      rows.push_back(std::move(r));
    }
  }

  if (s.distinct) {
    std::vector<OutRow> unique;
    for (auto& r : rows) {
      bool seen = false;
      for (const auto& kept : unique) {
        bool equal = kept.values.size() == r.values.size();
        for (std::size_t i = 0; equal && i < kept.values.size(); ++i) {
          equal = kept.values[i].compare(r.values[i]) == 0;
        }
        if (equal) {
          seen = true;
          break;
        }
      }
      if (!seen) unique.push_back(std::move(r));
    }
    rows = std::move(unique);
  }

  if (!s.orderBy.empty()) {
    std::stable_sort(rows.begin(), rows.end(), [&](const OutRow& a, const OutRow& b) {
      for (std::size_t i = 0; i < s.orderBy.size(); ++i) {
        const int c = a.keys[i].compare(b.keys[i]);
        if (c != 0) return s.orderBy[i].descending ? c > 0 : c < 0;
      }
      return false;
    });
  }

  const std::size_t begin =
      std::min<std::size_t>(rows.size(), static_cast<std::size_t>(s.offset));
  std::size_t end = rows.size();
  if (s.limit) end = std::min(end, begin + static_cast<std::size_t>(*s.limit));
  for (std::size_t i = begin; i < end; ++i) out.rows.push_back(std::move(rows[i].values));
  return out;
}

/// Write LIMIT/OFFSET slices matches in RowId order — exactly the order
/// forEachRow produced them in.
std::vector<RowId> refSliceMatches(std::vector<RowId> matches,
                                   const std::optional<std::int64_t>& limit,
                                   std::int64_t offset) {
  if (!limit && offset <= 0) return matches;
  const std::size_t begin = std::min<std::size_t>(
      matches.size(), static_cast<std::size_t>(std::max<std::int64_t>(offset, 0)));
  std::size_t end = matches.size();
  if (limit) {
    end = std::min(end,
                   begin + static_cast<std::size_t>(std::max<std::int64_t>(*limit, 0)));
  }
  return {matches.begin() + static_cast<std::ptrdiff_t>(begin),
          matches.begin() + static_cast<std::ptrdiff_t>(end)};
}

RefResult refExecute(db::Database& dbase, const db::Statement& stmt,
                     std::span<const Value> params) {
  RefResult out;
  switch (stmt.kind) {
    case db::Statement::Kind::Select:
      return refSelect(dbase, stmt.select, params);
    case db::Statement::Kind::Insert: {
      const db::InsertStmt& s = stmt.insert;
      Table& table = dbase.table(s.table);
      const auto& schema = table.schema();
      const RefEval ev({{s.table, &table}}, params);
      const std::vector<RowId> noIds;
      Row row(schema.columns.size());
      if (s.columns.empty()) {
        for (std::size_t i = 0; i < s.values.size(); ++i) {
          row[i] = refCoerce(ev.eval(*s.values[i], noIds), schema.columns[i].type);
        }
      } else {
        for (std::size_t i = 0; i < s.columns.size(); ++i) {
          const auto c = schema.columnIndex(s.columns[i]);
          row[*c] = refCoerce(ev.eval(*s.values[i], noIds), schema.columns[*c].type);
        }
      }
      out.lastInsertId = table.insert(std::move(row));
      out.affectedRows = 1;
      return out;
    }
    case db::Statement::Kind::Update: {
      const db::UpdateStmt& s = stmt.update;
      Table& table = dbase.table(s.table);
      const auto& schema = table.schema();
      const RefEval ev({{s.table, &table}}, params);
      std::vector<RowId> matches;
      table.forEachRow([&](RowId id) {
        const std::vector<RowId> ids{id};
        if (!s.where || refTruthy(ev.eval(*s.where, ids))) matches.push_back(id);
      });
      matches = refSliceMatches(std::move(matches), s.limit, s.offset);
      for (RowId id : matches) {
        const std::vector<RowId> ids{id};
        std::vector<std::pair<std::size_t, Value>> newValues;
        for (const auto& a : s.sets) {
          const auto c = schema.columnIndex(a.column);
          newValues.emplace_back(*c,
                                 refCoerce(ev.eval(*a.value, ids), schema.columns[*c].type));
        }
        for (auto& [col, v] : newValues) table.updateCell(id, col, std::move(v));
      }
      out.affectedRows = matches.size();
      return out;
    }
    case db::Statement::Kind::Delete: {
      const db::DeleteStmt& s = stmt.del;
      Table& table = dbase.table(s.table);
      const RefEval ev({{s.table, &table}}, params);
      std::vector<RowId> matches;
      table.forEachRow([&](RowId id) {
        const std::vector<RowId> ids{id};
        if (!s.where || refTruthy(ev.eval(*s.where, ids))) matches.push_back(id);
      });
      matches = refSliceMatches(std::move(matches), s.limit, s.offset);
      for (RowId id : matches) table.erase(id);
      out.affectedRows = matches.size();
      return out;
    }
    default:
      return out;
  }
}

// ===========================================================================
// Comparison helpers
// ===========================================================================

int typeRank(const Value& v) {
  if (v.isNull()) return 0;
  if (v.isInt()) return 1;
  if (v.isDouble()) return 2;
  return 3;
}

/// Strict equality: same type, same value (compare() alone would conflate
/// Value(1) with Value(1.0), hiding int/double divergence between engines).
bool sameValue(const Value& a, const Value& b) {
  return typeRank(a) == typeRank(b) && a.compare(b) == 0;
}

bool sameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!sameValue(a[i], b[i])) return false;
  }
  return true;
}

std::string rowToString(const Row& r) {
  std::string out = "(";
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (i) out += ", ";
    out += r[i].isNull() ? "NULL" : r[i].toDisplayString();
    if (r[i].isDouble()) out += "d";
    if (r[i].isString()) out = out.substr(0, out.size() - 1) + "\"" +
                               r[i].toDisplayString() + "\"";
  }
  return out + ")";
}

/// Canonical ordering for multiset comparison.
bool canonicalRowLess(const Row& a, const Row& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const int c = a[i].compare(b[i]);
    if (c != 0) return c < 0;
    if (typeRank(a[i]) != typeRank(b[i])) return typeRank(a[i]) < typeRank(b[i]);
  }
  return false;
}

void expectRowsEqual(const std::vector<Row>& expected, const std::vector<Row>& actual,
                     bool exactOrder) {
  ASSERT_EQ(expected.size(), actual.size());
  std::vector<Row> e = expected;
  std::vector<Row> a = actual;
  if (!exactOrder) {
    std::sort(e.begin(), e.end(), canonicalRowLess);
    std::sort(a.begin(), a.end(), canonicalRowLess);
  }
  for (std::size_t i = 0; i < e.size(); ++i) {
    ASSERT_TRUE(sameRow(e[i], a[i]))
        << "row " << i << ": reference " << rowToString(e[i]) << " vs optimized "
        << rowToString(a[i]);
  }
}

std::vector<std::pair<RowId, Row>> dumpTable(const Table& t) {
  std::vector<std::pair<RowId, Row>> out;
  t.forEachRow([&](RowId id) {
    const std::span<const Value> row = t.row(id);
    out.emplace_back(id, Row(row.begin(), row.end()));
  });
  return out;
}

void expectTablesEqual(const Table& ref, const Table& opt) {
  const auto a = dumpTable(ref);
  const auto b = dumpTable(opt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].first, b[i].first) << "row id divergence at slot " << i;
    ASSERT_TRUE(sameRow(a[i].second, b[i].second))
        << "row " << a[i].first << ": reference " << rowToString(a[i].second)
        << " vs optimized " << rowToString(b[i].second);
  }
  ASSERT_EQ(ref.lastInsertId(), opt.lastInsertId());
}

// ===========================================================================
// Random schema/data/query generation
// ===========================================================================

using Rand = std::mt19937_64;

std::size_t pick(Rand& rng, std::size_t n) { return static_cast<std::size_t>(rng() % n); }
bool chance(Rand& rng, int percent) { return static_cast<int>(rng() % 100) < percent; }

const char* const kStringPool[] = {"a", "ab", "abc", "b", "ba", "xy", "x", ""};

/// One random world: N tables with a fixed column layout (id pk auto, a int,
/// b int, d double, s string) but a random subset of {a, b, s} indexed, plus
/// random data — materialized twice, once for the reference interpreter and
/// once for the optimized engine.
struct World {
  db::Database ref;
  db::Database opt;
  db::Executor exec{opt};
  std::size_t nTables = 1;
  bool aIdx = false, bIdx = false, sIdx = false;

  explicit World(Rand& rng) {
    nTables = 1 + pick(rng, 3);
    aIdx = chance(rng, 50);
    bIdx = chance(rng, 50);
    sIdx = chance(rng, 40);
    for (std::size_t t = 0; t < nTables; ++t) {
      auto makeSchema = [&] {
        db::SchemaBuilder sb("t" + std::to_string(t));
        sb.intCol("id").primaryKey(/*autoIncrement=*/true);
        sb.intCol("a");
        if (aIdx) sb.indexed();
        sb.intCol("b");
        if (bIdx) sb.indexed();
        sb.doubleCol("d");
        sb.stringCol("s");
        if (sIdx) sb.indexed();
        return sb.build();
      };
      ref.createTable(makeSchema());
      opt.createTable(makeSchema());
      const std::size_t nRows = t == 0 ? 5 + pick(rng, 36) : pick(rng, 41);
      for (std::size_t r = 0; r < nRows; ++r) {
        Row row(5);
        row[1] = chance(rng, 15) ? Value() : Value(static_cast<std::int64_t>(pick(rng, 8)));
        row[2] = chance(rng, 15) ? Value() : Value(static_cast<std::int64_t>(pick(rng, 12)));
        row[3] = chance(rng, 15) ? Value()
                                 : Value(static_cast<double>(pick(rng, 16)) / 2.0 - 2.0);
        row[4] = chance(rng, 10) ? Value() : Value(std::string(kStringPool[pick(rng, 8)]));
        Row copy = row;
        ref.table("t" + std::to_string(t)).insert(std::move(row));
        opt.table("t" + std::to_string(t)).insert(std::move(copy));
      }
    }
  }

  bool columnIndexed(const std::string& col) const {
    return (col == "a" && aIdx) || (col == "b" && bIdx) || (col == "s" && sIdx);
  }
};

struct GenCase {
  std::string sql;
  std::vector<Value> params;
  bool exactOrder = true;
  bool isWrite = false;
  std::string writeTable;
};

/// Renders a random scalar for column `col`, as a literal or a `?` param.
std::string scalarFor(Rand& rng, const std::string& col, std::vector<Value>& params) {
  Value v;
  if (col == "d") {
    v = Value(static_cast<double>(pick(rng, 16)) / 2.0 - 2.0);
  } else if (col == "s") {
    v = Value(std::string(kStringPool[pick(rng, 8)]));
  } else if (col == "id") {
    v = Value(static_cast<std::int64_t>(1 + pick(rng, 45)));
  } else {
    v = Value(static_cast<std::int64_t>(pick(rng, 12)));
  }
  if (chance(rng, 10)) v = Value();  // occasional NULL key
  if (chance(rng, 50)) {
    params.push_back(std::move(v));
    return "?";
  }
  if (v.isNull()) return "NULL";
  if (v.isString()) return "'" + v.asString() + "'";
  return v.toDisplayString();
}

const char* const kDataCols[] = {"a", "b", "d", "s"};
const char* const kAllCols[] = {"id", "a", "b", "d", "s"};

/// One WHERE conjunct over unqualified columns. Sets *orderSensitive when
/// the conjunct may become an index access path that yields candidates in a
/// different order than a full scan would (IN lists visit keys in list
/// order; ranges over a secondary index visit rows in value order, not
/// RowId order) — bare-LIMIT and partial-ORDER-BY comparisons must then
/// not assume full-scan order.
std::string conjunctFor(Rand& rng, const World& w, std::vector<Value>& params,
                        bool* orderSensitive) {
  switch (pick(rng, 8)) {
    case 0: {
      const std::string col = kAllCols[pick(rng, 5)];
      return col + " = " + scalarFor(rng, col, params);
    }
    case 1: {
      const std::string col = kAllCols[1 + pick(rng, 3)];
      const char* ops[] = {"<", "<=", ">", ">="};
      if (orderSensitive && w.columnIndexed(col)) *orderSensitive = true;
      return col + " " + ops[pick(rng, 4)] + " " + scalarFor(rng, col, params);
    }
    case 2: {
      const std::string col = kAllCols[1 + pick(rng, 2)];  // a or b
      if (orderSensitive && w.columnIndexed(col)) *orderSensitive = true;
      return col + " BETWEEN " + scalarFor(rng, col, params) + " AND " +
             scalarFor(rng, col, params);
    }
    case 3: {
      const std::string col = kAllCols[pick(rng, 3)];  // id, a, b
      std::string sql = col + (chance(rng, 25) ? " NOT IN (" : " IN (");
      const std::size_t n = 1 + pick(rng, 4);
      for (std::size_t i = 0; i < n; ++i) {
        if (i) sql += ", ";
        sql += scalarFor(rng, col, params);
      }
      sql += ")";
      if (orderSensitive && (col == "id" || w.columnIndexed(col))) {
        *orderSensitive = true;
      }
      return sql;
    }
    case 4: {
      const char* pats[] = {"a%", "%b%", "_b%", "x_", "%", "ab"};
      std::string sql = "s";
      if (chance(rng, 25)) sql += " NOT";
      return sql + " LIKE '" + pats[pick(rng, 6)] + "'";
    }
    case 5: {
      const std::string col = kDataCols[pick(rng, 4)];
      return col + (chance(rng, 50) ? " IS NULL" : " IS NOT NULL");
    }
    case 6: {
      const std::string a = kAllCols[1 + pick(rng, 2)];
      const std::string b = kAllCols[1 + pick(rng, 2)];
      return "(" + a + " = " + scalarFor(rng, a, params) + " OR " + b + " = " +
             scalarFor(rng, b, params) + ")";
    }
    default: {
      const std::string col = kAllCols[1 + pick(rng, 2)];
      const char* ops[] = {"+", "-", "*"};
      return col + " " + ops[pick(rng, 3)] + " " +
             std::to_string(1 + pick(rng, 3)) + " > " + scalarFor(rng, col, params);
    }
  }
}

std::string whereClause(Rand& rng, const World& w, std::vector<Value>& params,
                        bool* orderSensitive, int maxConjuncts = 3) {
  const std::size_t n = pick(rng, static_cast<std::size_t>(maxConjuncts) + 1);
  std::string sql;
  for (std::size_t i = 0; i < n; ++i) {
    sql += i == 0 ? " WHERE " : " AND ";
    sql += conjunctFor(rng, w, params, orderSensitive);
  }
  return sql;
}

/// Random single-table SELECT, covering point/range/IN/LIKE access, bare
/// LIMIT, ORDER BY (elidible and not), DISTINCT, and aggregates.
GenCase genSelect(Rand& rng, const World& w) {
  GenCase g;
  const std::string table = "t" + std::to_string(pick(rng, w.nTables));

  // Aggregate-only query (exercises the O(1) fast path and its fallbacks).
  if (chance(rng, 12)) {
    const char* aggs[] = {"MAX", "MIN", "COUNT", "SUM", "AVG"};
    const std::string agg = aggs[pick(rng, 5)];
    std::string arg = agg == "COUNT" && chance(rng, 60) ? "*" : kAllCols[pick(rng, 5)];
    if ((agg == "SUM" || agg == "AVG") && arg == "s") arg = "a";  // no string sums
    g.sql = "SELECT " + agg + "(" + arg + ")";
    if (chance(rng, 60)) g.sql += " AS v";
    g.sql += " FROM " + table;
    if (chance(rng, 40)) g.sql += whereClause(rng, w, g.params, nullptr);
    return g;  // single row: always exact
  }

  // Grouped query, with one to three group keys.
  if (chance(rng, 18)) {
    std::string keys;
    switch (pick(rng, 10)) {
      case 0:
      case 1:
      case 2:  // two keys
        keys = std::string(kAllCols[1 + pick(rng, 2)]) + ", s";
        break;
      case 3:
      case 4:  // three keys
        keys = "a, b, s";
        break;
      default:  // single key: a or b
        keys = kAllCols[1 + pick(rng, 2)];
        break;
    }
    g.sql = "SELECT " + keys + ", COUNT(*) AS c, SUM(b) AS sb, MIN(d) AS mn FROM " + table;
    g.sql += whereClause(rng, w, g.params, nullptr);
    g.sql += " GROUP BY " + keys;
    if (chance(rng, 30)) g.sql += " HAVING COUNT(*) > 1";
    if (chance(rng, 50)) {
      // Ordering by every group key is a total order over groups.
      g.sql += " ORDER BY " + keys;
      if (chance(rng, 40)) {
        g.sql += " LIMIT " + std::to_string(1 + pick(rng, 6));
        if (chance(rng, 40)) g.sql += " OFFSET " + std::to_string(pick(rng, 5));
      }
    } else {
      g.exactOrder = false;
    }
    return g;
  }

  // Plain select.
  std::string items;
  switch (pick(rng, 4)) {
    case 0: items = "*"; break;
    case 1: items = "id, a, b"; break;
    case 2: items = "id, s, d"; break;
    default: items = "id, a + b AS ab, d * 2 AS d2"; break;
  }
  const bool distinct = chance(rng, 12);
  if (distinct) items = chance(rng, 50) ? "a, b" : "a";
  g.sql = std::string("SELECT ") + (distinct ? "DISTINCT " : "") + items + " FROM " + table;

  bool orderSensitive = false;
  g.sql += whereClause(rng, w, g.params, &orderSensitive);

  // Ordering / limit decision tree. Within one key an index holds RowId
  // order, so an equality walk, and a sort elided onto an index, yield ties
  // in full-scan order; only IN lists and ranges reorder candidates.
  const bool canExactWithoutTotalOrder = !orderSensitive;
  if (distinct) {
    if (chance(rng, 40)) {
      // ORDER BY every selected column: total over distinct rows.
      g.sql += items == "a" ? " ORDER BY a" : " ORDER BY a, b";
      if (chance(rng, 50)) {
        g.sql += " LIMIT " + std::to_string(1 + pick(rng, 8));
        if (chance(rng, 30)) g.sql += " OFFSET " + std::to_string(pick(rng, 4));
      }
    } else {
      g.exactOrder = false;
    }
    return g;
  }
  if (items == "id, a + b AS ab, d * 2 AS d2" && chance(rng, 35)) {
    // ORDER BY the alias of an expression item: the key is that item's
    // value, evaluated for every candidate; the pk makes the order total.
    g.sql += std::string(" ORDER BY ab") + (chance(rng, 50) ? " DESC" : "") + ", id" +
             (chance(rng, 30) ? " DESC" : "");
    if (chance(rng, 60)) {
      g.sql += " LIMIT " + std::to_string(1 + pick(rng, 10));
      if (chance(rng, 40)) g.sql += " OFFSET " + std::to_string(pick(rng, 6));
    }
    return g;
  }
  switch (pick(rng, 4)) {
    case 0:  // no ORDER BY, maybe bare LIMIT
      if (chance(rng, 50)) {
        if (canExactWithoutTotalOrder) {
          g.sql += " LIMIT " + std::to_string(1 + pick(rng, 10));
          if (chance(rng, 30)) g.sql += " OFFSET " + std::to_string(pick(rng, 5));
        } else {
          g.exactOrder = false;  // no LIMIT either: row set compare only
        }
      } else {
        g.exactOrder = false;
      }
      break;
    case 1: {  // total order via pk tiebreaker
      const std::string col = kAllCols[1 + pick(rng, 4)];
      g.sql += " ORDER BY " + col + (chance(rng, 50) ? " DESC" : "") + ", id" +
               (chance(rng, 30) ? " DESC" : "");
      if (chance(rng, 60)) {
        g.sql += " LIMIT " + std::to_string(1 + pick(rng, 10));
        if (chance(rng, 30)) g.sql += " OFFSET " + std::to_string(pick(rng, 5));
      }
      break;
    }
    case 2:  // single-key ORDER BY (sort elision when the key is indexed)
      if (canExactWithoutTotalOrder) {
        const std::string col = kAllCols[1 + pick(rng, 4)];
        g.sql += " ORDER BY " + col + (chance(rng, 50) ? " DESC" : "");
        if (chance(rng, 60)) {
          g.sql += " LIMIT " + std::to_string(1 + pick(rng, 10));
          if (chance(rng, 30)) g.sql += " OFFSET " + std::to_string(pick(rng, 5));
        }
      } else {
        g.sql += " ORDER BY id" + std::string(chance(rng, 50) ? " DESC" : "");
        if (chance(rng, 60)) g.sql += " LIMIT " + std::to_string(1 + pick(rng, 10));
      }
      break;
    default:  // ORDER BY pk only
      g.sql += " ORDER BY id" + std::string(chance(rng, 50) ? " DESC" : "");
      if (chance(rng, 50)) g.sql += " LIMIT " + std::to_string(1 + pick(rng, 10));
      break;
  }
  return g;
}

/// Random join SELECT over 2–3 (possibly repeated) tables with pk, indexed,
/// and unindexed ON columns; occasional degenerate ON plus a WHERE
/// equi-conjunct (the planner's join-from-WHERE fallback).
GenCase genJoin(Rand& rng, const World& w) {
  GenCase g;
  const std::size_t nJoined = 2 + (chance(rng, 30) ? 1 : 0);
  std::vector<std::string> tables;
  for (std::size_t i = 0; i < nJoined; ++i) {
    tables.push_back("t" + std::to_string(pick(rng, w.nTables)));
  }
  auto q = [](std::size_t i, const std::string& col) {
    return "x" + std::to_string(i) + "." + col;
  };
  g.sql = "SELECT " + q(0, "id") + ", " + q(0, "a") + ", " + q(1, "b");
  if (nJoined == 3) g.sql += ", " + q(2, "s");
  g.sql += " FROM " + tables[0] + " x0";
  bool degenerate = false;
  for (std::size_t i = 1; i < nJoined; ++i) {
    g.sql += " JOIN " + tables[i] + " x" + std::to_string(i) + " ON ";
    if (i == 1 && chance(rng, 15)) {
      // Degenerate ON: both sides on the new table. The planner falls back
      // to a WHERE equi-conjunct for the join key (added below) and keeps
      // this as a residual filter.
      g.sql += q(1, "a") + " = " + q(1, "b");
      degenerate = true;
      continue;
    }
    const char* innerCols[] = {"id", "a", "b"};  // pk / maybe-indexed / plain
    const std::string inner = innerCols[pick(rng, 3)];
    const std::size_t outerTable = pick(rng, i);
    std::string outer = q(outerTable, innerCols[pick(rng, 3)]);
    if (chance(rng, 25)) {
      // Expression outer key: the planner must still use the lookup path.
      outer = outer + (chance(rng, 50) ? " + " : " - ") + std::to_string(1 + pick(rng, 3));
    }
    if (chance(rng, 50)) {
      g.sql += q(i, inner) + " = " + outer;
    } else {
      g.sql += outer + " = " + q(i, inner);
    }
    if (chance(rng, 25)) {
      // Extra ON conjunct — non-equi or a second equality — which the
      // planner keeps as a residual filter rather than a join key.
      switch (pick(rng, 3)) {
        case 0:
          g.sql += " AND " + q(i, "d") + " > " + scalarFor(rng, "d", g.params);
          break;
        case 1:
          g.sql += " AND " + q(pick(rng, i), "b") + " <= " + q(i, "b");
          break;
        default:
          g.sql += " AND " + q(i, "s") + " = " + q(pick(rng, i), "s");
          break;
      }
    }
  }
  bool where = false;
  if (degenerate) {
    g.sql += " WHERE " + q(0, "id") + " = " + q(1, "a");
    where = true;
  }
  if (chance(rng, 60)) {
    const std::string col = kAllCols[1 + pick(rng, 2)];
    g.sql += (where ? " AND " : " WHERE ") + q(0, col) + " = " +
             scalarFor(rng, col, g.params);
    where = true;
  }
  if (chance(rng, 30)) {
    g.sql += (where ? " AND " : " WHERE ") + q(1, "d") + " > " +
             scalarFor(rng, "d", g.params);
  }
  // The engine's candidates come in the reference's nested-loop order: the
  // planner keeps FROM order, the base access is a full scan or an index
  // equality (both in RowId order), and every join step yields a key's rows
  // in RowId order. So the order compares exactly, with or without ORDER
  // BY, and a tie left to candidate order compares too.
  if (chance(rng, 50)) {
    g.sql += " ORDER BY ";
    std::string lead;
    switch (pick(rng, 4)) {
      case 0: lead = q(1, "b") + " DESC"; break;
      case 1: lead = q(0, "d"); break;
      default: break;
    }
    g.sql += lead;
    // Binding tuples are unique, so closing with every table's pk makes the
    // order total.
    if (lead.empty() || chance(rng, 50)) {
      g.sql += (lead.empty() ? "" : ", ") + q(0, "id") + ", " + q(1, "id");
      if (nJoined == 3) g.sql += ", " + q(2, "id");
    }
    if (chance(rng, 50)) {
      g.sql += " LIMIT " + std::to_string(1 + pick(rng, 12));
      if (chance(rng, 40)) g.sql += " OFFSET " + std::to_string(pick(rng, 8));
    }
  }
  return g;
}

/// Grouped join: aggregate over a two-table join.
GenCase genGroupedJoin(Rand& rng, const World& w) {
  GenCase g;
  const std::string t0 = "t" + std::to_string(pick(rng, w.nTables));
  const std::string t1 = "t" + std::to_string(pick(rng, w.nTables));
  g.sql = "SELECT x0.a, COUNT(*) AS c, SUM(x1.b) AS sb FROM " + t0 + " x0 JOIN " + t1 +
          " x1 ON x0.a = x1." + (chance(rng, 50) ? "b" : "a");
  if (chance(rng, 40)) g.sql += " WHERE x1.b >= " + scalarFor(rng, "b", g.params);
  g.sql += " GROUP BY x0.a";
  if (chance(rng, 30)) g.sql += " HAVING COUNT(*) > 1";
  if (chance(rng, 50)) {
    // One group per x0.a, so the order is total.
    g.sql += " ORDER BY x0.a" + std::string(chance(rng, 30) ? " DESC" : "");
    if (chance(rng, 50)) {
      g.sql += " LIMIT " + std::to_string(1 + pick(rng, 5));
      if (chance(rng, 50)) g.sql += " OFFSET " + std::to_string(pick(rng, 4));
    }
  } else {
    g.exactOrder = false;
  }
  return g;
}

GenCase genInsert(Rand& rng, const World& w) {
  GenCase g;
  g.isWrite = true;
  g.writeTable = "t" + std::to_string(pick(rng, w.nTables));
  // Random subset of data columns, random order; missing columns (and the
  // auto-increment pk) default to NULL.
  std::vector<std::string> cols(kDataCols, kDataCols + 4);
  std::shuffle(cols.begin(), cols.end(), rng);
  cols.resize(1 + pick(rng, 4));
  g.sql = "INSERT INTO " + g.writeTable + " (";
  std::string values;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (i) {
      g.sql += ", ";
      values += ", ";
    }
    g.sql += cols[i];
    if (cols[i] != "s" && chance(rng, 20)) {
      values += std::to_string(1 + pick(rng, 3)) + " + " +
                std::to_string(pick(rng, 4));  // value expression
    } else {
      values += scalarFor(rng, cols[i], g.params);
    }
  }
  g.sql += ") VALUES (" + values + ")";
  return g;
}

GenCase genUpdate(Rand& rng, const World& w) {
  GenCase g;
  g.isWrite = true;
  g.writeTable = "t" + std::to_string(pick(rng, w.nTables));
  std::vector<std::string> settable(std::begin(kDataCols), std::end(kDataCols));
  g.sql = "UPDATE " + g.writeTable + " SET ";
  const std::size_t nSets = 1 + pick(rng, 2);
  std::shuffle(settable.begin(), settable.end(), rng);
  for (std::size_t i = 0; i < nSets; ++i) {
    if (i) g.sql += ", ";
    const std::string& col = settable[i];
    switch (col != "s" ? pick(rng, 3) : 2) {  // strings only get scalar SETs
      case 0:
        g.sql += col + " = " + col + (chance(rng, 50) ? " + 1" : " * 2");
        break;
      case 1:
        g.sql += col + " = " + (chance(rng, 30) ? "b + a" : "a");
        break;
      default:
        g.sql += col + " = " + scalarFor(rng, col, g.params);
        break;
    }
  }
  bool orderSensitive = false;
  g.sql += whereClause(rng, w, g.params, &orderSensitive, 2);
  // Write LIMIT/OFFSET slices matches in RowId order on both engines (the
  // plan forces a full scan), so this stays exact regardless of indexes.
  if (chance(rng, 25)) {
    g.sql += " LIMIT " + std::to_string(1 + pick(rng, 8));
    if (chance(rng, 40)) g.sql += " OFFSET " + std::to_string(pick(rng, 4));
  }
  return g;
}

GenCase genDelete(Rand& rng, const World& w) {
  GenCase g;
  g.isWrite = true;
  g.writeTable = "t" + std::to_string(pick(rng, w.nTables));
  g.sql = "DELETE FROM " + g.writeTable;
  if (chance(rng, 92)) {
    bool orderSensitive = false;
    std::string where = whereClause(rng, w, g.params, &orderSensitive, 2);
    if (where.empty()) where = " WHERE id = " + scalarFor(rng, "id", g.params);
    g.sql += where;
  }
  if (chance(rng, 25)) {
    g.sql += " LIMIT " + std::to_string(1 + pick(rng, 6));
    if (chance(rng, 40)) g.sql += " OFFSET " + std::to_string(pick(rng, 4));
  }
  return g;
}

GenCase genCase(Rand& rng, const World& w) {
  const std::size_t roll = pick(rng, 100);
  if (roll < 45) return genSelect(rng, w);
  if (roll < 58 && w.nTables >= 1) return genJoin(rng, w);
  if (roll < 65) return genGroupedJoin(rng, w);
  if (roll < 80) return genInsert(rng, w);
  if (roll < 92) return genUpdate(rng, w);
  return genDelete(rng, w);
}

// ===========================================================================
// The oracle
// ===========================================================================

constexpr int kWorlds = 26;
constexpr int kCasesPerWorld = 200;
constexpr std::uint64_t kSeed = 20260806;

/// Environment override for the nightly sweep lane (rotating seeds, bigger
/// case counts): SQLDIFF_SEED / SQLDIFF_WORLDS / SQLDIFF_CASES.
std::int64_t envOr(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::strtoll(v, nullptr, 10) : fallback;
}

TEST(SqlDifferentialTest, OptimizedEngineMatchesNaiveReference) {
  const auto seed = static_cast<std::uint64_t>(envOr("SQLDIFF_SEED", kSeed));
  const int nWorlds = static_cast<int>(envOr("SQLDIFF_WORLDS", kWorlds));
  const int nCasesPerWorld = static_cast<int>(envOr("SQLDIFF_CASES", kCasesPerWorld));
  const bool defaultSizing = nWorlds == kWorlds && nCasesPerWorld == kCasesPerWorld;
  Rand rng(seed);
  // Statements are cached across worlds: worlds sharing an index layout
  // share a catalog signature and therefore a plan, so this also exercises
  // the claim that plans depend on the catalog, never on the data.
  std::unordered_map<std::string, std::shared_ptr<db::PlannedStatement>> cache;
  std::size_t cases = 0;
  std::size_t selectCases = 0;
  std::size_t writeCases = 0;

  for (int wi = 0; wi < nWorlds; ++wi) {
    World w(rng);
    for (int ci = 0; ci < nCasesPerWorld; ++ci) {
      const GenCase g = genCase(rng, w);
      SCOPED_TRACE("world " + std::to_string(wi) + " case " + std::to_string(ci) + ": " +
                   g.sql);
      // SQLDIFF_TRACE=1 streams every generated statement — the fastest way
      // to localize a hang or crash to one case.
      if (std::getenv("SQLDIFF_TRACE") != nullptr) {
        std::fprintf(stderr, "[w%d c%d] %s\n", wi, ci, g.sql.c_str());
      }
      auto stmt = db::parseSql(g.sql);
      auto& planned = cache[g.sql];
      if (!planned) planned = std::make_shared<db::PlannedStatement>(stmt);
      ++cases;

      const RefResult ref = refExecute(w.ref, *stmt, g.params);

      if (g.isWrite) {
        ++writeCases;
        // Writes run exactly once on each side; alternate between the
        // ad-hoc and plan-cached paths so both stay under the oracle.
        db::ExecResult opt = ci % 2 == 0 ? w.exec.execute(*stmt, g.params)
                                         : w.exec.execute(*planned, g.params);
        ASSERT_EQ(ref.affectedRows, opt.affectedRows);
        if (stmt->kind == db::Statement::Kind::Insert) {
          ASSERT_EQ(ref.lastInsertId, opt.lastInsertId);
        }
        expectTablesEqual(w.ref.table(g.writeTable), w.opt.table(g.writeTable));
        if (::testing::Test::HasFatalFailure()) return;
        continue;
      }

      ++selectCases;
      const db::ExecResult adhoc = w.exec.execute(*stmt, g.params);
      const db::ExecResult cold = w.exec.execute(*planned, g.params);
      const db::ExecResult warm = w.exec.execute(*planned, g.params);

      ASSERT_EQ(ref.columns, adhoc.resultSet.columns);
      ASSERT_EQ(ref.columns, cold.resultSet.columns);
      // Ad-hoc and plan-cached executions of the same statement must agree
      // exactly — same engine, same deterministic candidate order.
      expectRowsEqual(adhoc.resultSet.rows, cold.resultSet.rows, /*exactOrder=*/true);
      if (::testing::Test::HasFatalFailure()) return;
      expectRowsEqual(cold.resultSet.rows, warm.resultSet.rows, /*exactOrder=*/true);
      if (::testing::Test::HasFatalFailure()) return;
      expectRowsEqual(ref.rows, adhoc.resultSet.rows, g.exactOrder);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  std::fprintf(stderr, "[sqldiff] seed=%llu worlds=%d cases=%zu (select=%zu write=%zu)\n",
               static_cast<unsigned long long>(seed), nWorlds, cases, selectCases,
               writeCases);
  if (defaultSizing) {
    EXPECT_GE(cases, 5000u);
    // Guard against the generator degenerating into a single statement class.
    EXPECT_GE(selectCases, 2000u);
    EXPECT_GE(writeCases, 1000u);
  }
}

}  // namespace
