#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "db/database.hpp"
#include "db/executor.hpp"
#include "db/lexer.hpp"
#include "db/parser.hpp"
#include "table_equality.hpp"

namespace mwsim::db {
namespace {

// ------------------------------------------------------------------- Value

TEST(ValueTest, NullBehaviour) {
  Value v;
  EXPECT_TRUE(v.isNull());
  EXPECT_EQ(v.toDisplayString(), "NULL");
  EXPECT_EQ(v.compare(Value()), 0);
  EXPECT_LT(v.compare(Value(0)), 0);  // NULL sorts before numbers
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value(1).compare(Value(1.0)), 0);
  EXPECT_LT(Value(1).compare(Value(1.5)), 0);
  EXPECT_GT(Value(2.5).compare(Value(2)), 0);
}

TEST(ValueTest, NumbersSortBeforeStrings) {
  EXPECT_LT(Value(999).compare(Value("abc")), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value("apple").compare(Value("banana")), 0);
  EXPECT_EQ(Value("x").compare(Value("x")), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(7).hash(), Value(7.0).hash());
  EXPECT_EQ(Value("abc").hash(), Value(std::string("abc")).hash());
}

TEST(ValueTest, Conversions) {
  EXPECT_EQ(Value(3.9).asInt(), 3);
  EXPECT_DOUBLE_EQ(Value(5).asDouble(), 5.0);
  EXPECT_THROW(Value("x").asInt(), std::runtime_error);
  EXPECT_THROW(Value(1).asString(), std::runtime_error);
}

// ------------------------------------------------------------------- Table

TableSchema itemsSchema() {
  return SchemaBuilder("items")
      .intCol("id").primaryKey(/*autoIncrement=*/true)
      .stringCol("name")
      .intCol("category").indexed()
      .doubleCol("price")
      .intCol("stock")
      .build();
}

TEST(TableTest, InsertAndPkLookup) {
  Table t(itemsSchema());
  t.insert({Value(1), Value("book"), Value(3), Value(9.99), Value(10)});
  t.insert({Value(2), Value("lamp"), Value(5), Value(19.99), Value(4)});
  ASSERT_TRUE(t.findByPk(Value(2)).has_value());
  EXPECT_EQ(t.row(*t.findByPk(Value(2)))[1].asString(), "lamp");
  EXPECT_FALSE(t.findByPk(Value(99)).has_value());
  EXPECT_EQ(t.size(), 2u);
}

TEST(TableTest, AutoIncrementAssignsIds) {
  Table t(itemsSchema());
  const auto id1 = t.insert({Value(), Value("a"), Value(1), Value(1.0), Value(1)});
  const auto id2 = t.insert({Value(), Value("b"), Value(1), Value(1.0), Value(1)});
  EXPECT_EQ(id1, 1);
  EXPECT_EQ(id2, 2);
  EXPECT_EQ(t.lastInsertId(), 2);
}

TEST(TableTest, AutoIncrementSkipsExplicitIds) {
  Table t(itemsSchema());
  t.insert({Value(100), Value("a"), Value(1), Value(1.0), Value(1)});
  const auto id = t.insert({Value(), Value("b"), Value(1), Value(1.0), Value(1)});
  EXPECT_EQ(id, 101);
}

TEST(TableTest, DuplicatePkThrows) {
  Table t(itemsSchema());
  t.insert({Value(1), Value("a"), Value(1), Value(1.0), Value(1)});
  EXPECT_THROW(t.insert({Value(1), Value("b"), Value(1), Value(1.0), Value(1)}),
               std::runtime_error);
}

/// Row ids the secondary index on `column` holds for `key`, in index order.
std::vector<RowId> indexHits(const Table& t, std::size_t column, const Value& key) {
  std::vector<RowId> ids;
  t.forEachIndexEq(column, key, [&](RowId id) {
    ids.push_back(id);
    return true;
  });
  return ids;
}

TEST(TableTest, SecondaryIndexLookup) {
  Table t(itemsSchema());
  for (int i = 1; i <= 10; ++i) {
    t.insert({Value(i), Value("x"), Value(i % 3), Value(1.0), Value(1)});
  }
  const auto hits = indexHits(t, 2, Value(1));  // category == 1
  EXPECT_EQ(hits, (std::vector<RowId>{0, 3, 6, 9}));  // ids 1, 4, 7, 10
  EXPECT_EQ(indexHits(t, 2, Value(1.0)), hits);  // 1.0 equals 1
  EXPECT_TRUE(indexHits(t, 2, Value(5)).empty());
  // The walk stops when the visitor says so, and reports it.
  int visited = 0;
  EXPECT_FALSE(t.forEachIndexEq(2, Value(1), [&](RowId) { return ++visited < 2; }));
  EXPECT_EQ(visited, 2);
  EXPECT_THROW(t.forEachIndexEq(1, Value("x"), [](RowId) { return true; }),
               std::runtime_error);  // no index on name
}

TEST(TableTest, UpdateCellMaintainsIndexes) {
  Table t(itemsSchema());
  t.insert({Value(1), Value("a"), Value(7), Value(1.0), Value(1)});
  t.updateCell(0, 2, Value(9));
  EXPECT_TRUE(indexHits(t, 2, Value(7)).empty());
  EXPECT_EQ(indexHits(t, 2, Value(9)), std::vector<RowId>{0});
}

TEST(TableTest, UpdatePkMaintainsPkIndex) {
  Table t(itemsSchema());
  t.insert({Value(1), Value("a"), Value(7), Value(1.0), Value(1)});
  t.updateCell(0, 0, Value(42));
  EXPECT_FALSE(t.findByPk(Value(1)).has_value());
  ASSERT_TRUE(t.findByPk(Value(42)).has_value());
}

TEST(TableTest, EraseRemovesFromIndexes) {
  Table t(itemsSchema());
  t.insert({Value(1), Value("a"), Value(7), Value(1.0), Value(1)});
  t.insert({Value(2), Value("b"), Value(7), Value(1.0), Value(1)});
  t.erase(0);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_FALSE(t.findByPk(Value(1)).has_value());
  EXPECT_EQ(indexHits(t, 2, Value(7)), std::vector<RowId>{1});
  int visited = 0;
  t.forEachRow([&](RowId) { ++visited; });
  EXPECT_EQ(visited, 1);
}

// ---------------------------------------------------------------- Rollback

/// Auto-increment pk, an int and a string secondary index with long
/// equal-key ranges, tombstones, and one row moved to another key.
Database rollbackPrototype() {
  Database db;
  Table& t = db.createTable(SchemaBuilder("t")
                                .intCol("id").primaryKey(/*autoIncrement=*/true)
                                .intCol("grp").indexed()
                                .stringCol("tag").indexed()
                                .doubleCol("amount")
                                .build());
  std::mt19937_64 rng(99);
  for (int i = 0; i < 200; ++i) {
    const auto grp = static_cast<int>(rng() % 8);
    const auto len = 1 + rng() % 3;
    t.insert({Value(), Value(grp), Value(std::string(len, static_cast<char>('a' + rng() % 5))),
              Value(i * 0.25)});
  }
  for (RowId id = 3; id < 200; id += 17) t.erase(id);
  t.updateCell(5, 1, Value(3));
  return db;
}

/// Applies one seeded sequence of writes to table t, through the Table API
/// and through SQL, and returns every outcome (a key, a count, or -1 for a
/// write that threw) so two runs of one sequence can be compared.
std::vector<std::int64_t> applyWrites(Database& db, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](std::uint64_t n) { return static_cast<std::int64_t>(rng() % n); };
  const auto tag = [&] {
    const auto len = static_cast<std::size_t>(1 + pick(3));  // cells change size
    return Value(std::string(len, static_cast<char>('a' + pick(5))));
  };
  Table& t = db.table("t");
  Executor exec(db);
  std::vector<std::int64_t> out;
  const auto attempt = [&](auto&& write) {
    try {
      out.push_back(write());
    } catch (const std::runtime_error&) {
      out.push_back(-1);
    }
  };
  const auto liveRow = [&]() -> std::optional<RowId> {
    const auto n = static_cast<RowId>(t.rowSlots());
    const auto start = static_cast<RowId>(pick(n));
    for (RowId i = 0; i < n; ++i) {
      if (t.isLive((start + i) % n)) return (start + i) % n;
    }
    return std::nullopt;
  };

  // The cases a rollback most easily gets wrong, in every sequence.
  // Erase a row inserted after the checkpoint.
  const std::int64_t added = t.insert({Value(), Value(1), tag(), Value(1.5)});
  out.push_back(added);
  t.erase(*t.findByPk(Value(added)));
  // Set indexed columns to their current values: the entries are taken out
  // and put back.
  const RowId same = *liveRow();
  t.updateCell(same, 1, t.row(same)[1]);
  t.updateCell(same, 2, t.row(same)[2]);
  // Move a row's pk above the auto-increment counter, then INSERT that key:
  // the insert advances the counter before its duplicate-key check throws.
  const std::int64_t high = t.maxAssignedId() + 10 + pick(10);
  t.updateCell(*liveRow(), 0, Value(high));
  const Value highKey[] = {Value(high)};
  attempt([&] {
    return exec.query("INSERT INTO t (id, grp, tag, amount) VALUES (?, 0, 'a', 0.5)", highKey)
        .lastInsertId;
  });
  EXPECT_EQ(out.back(), -1);
  EXPECT_EQ(t.maxAssignedId(), high) << "the throwing insert must advance the counter";
  // A multi-row UPDATE giving every row of a group one new pk: the first
  // row takes it, the second gets its amount and then throws.
  const Value groupKey[] = {Value(high + 1), Value(pick(8))};
  attempt([&] {
    return static_cast<std::int64_t>(
        exec.query("UPDATE t SET amount = 7, id = ? WHERE grp = ?", groupKey).affectedRows);
  });

  for (int step = 0; step < 150; ++step) {
    const std::optional<RowId> row = liveRow();
    switch (pick(9)) {
      case 0:
      case 1:
        attempt([&] { return t.insert({Value(), Value(pick(8)), tag(), Value(0.5 * step)}); });
        break;
      case 2:  // an existing key (throws) or one above the counter
        attempt([&] {
          const Value key = pick(2) == 0 ? Value(1 + pick(t.maxAssignedId()))
                                         : Value(t.maxAssignedId() + 1 + pick(5));
          return t.insert({key, Value(pick(8)), tag(), Value(2.5)});
        });
        break;
      case 3:
        if (row) t.updateCell(*row, 1, pick(3) == 0 ? t.row(*row)[1] : Value(pick(8)));
        break;
      case 4:
        if (row) t.updateCell(*row, 2, tag());
        break;
      case 5:  // an int or NULL into the double column: the undo restores the type
        if (row) {
          const std::int64_t kind = pick(3);
          const Value v = kind == 0 ? Value(pick(100)) : kind == 1 ? Value() : Value(0.75 * step);
          t.updateCell(*row, 3, v);
        }
        break;
      case 6:  // pk update to an existing key (throws) or a fresh one
        if (row) {
          attempt([&] {
            const std::int64_t key = pick(2) == 0 ? 1 + pick(t.maxAssignedId())
                                                  : t.maxAssignedId() + 100 + step;
            t.updateCell(*row, 0, Value(key));
            return key;
          });
        }
        break;
      case 7:
        if (row) t.erase(*row);
        break;
      case 8: {  // multi-row index moves and deletes through SQL
        const Value args[] = {Value(pick(8)), tag()};
        out.push_back(static_cast<std::int64_t>(
            exec.query("UPDATE t SET grp = ? WHERE tag = ?", args).affectedRows));
        const Value del[] = {tag()};
        out.push_back(static_cast<std::int64_t>(
            exec.query("DELETE FROM t WHERE tag = ? LIMIT 2", del).affectedRows));
        break;
      }
    }
  }
  return out;
}

TEST(TableTest, EqualKeysIterateInRowIdOrder) {
  const auto load = [](Table& t) {
    t.insert({Value(1), Value("a"), Value(5), Value(1.0), Value(1)});
    for (int i = 2; i <= 4; ++i) t.insert({Value(i), Value("b"), Value(7), Value(1.0), Value(1)});
  };
  Table t(itemsSchema());
  load(t);
  t.checkpoint();
  // Row 0 joins the key that holds rows 1-3 at its RowId's place, not last.
  t.updateCell(0, 2, Value(7));
  EXPECT_EQ(indexHits(t, 2, Value(7)), (std::vector<RowId>{0, 1, 2, 3}));
  EXPECT_TRUE(indexHits(t, 2, Value(5)).empty());
  t.rollback();
  Table fresh(itemsSchema());
  load(fresh);
  expectSameTable(t, fresh);
  EXPECT_EQ(indexHits(t, 2, Value(7)), (std::vector<RowId>{1, 2, 3}));

  // An int 1 and a double 1.0 share a key, in RowId order, and each entry
  // keeps its own type, also when an update changes only the type.
  Table mixed(itemsSchema());
  mixed.insert({Value(1), Value("x"), Value(1.0), Value(1.0), Value(1)});
  mixed.insert({Value(2), Value("y"), Value(1), Value(1.0), Value(1)});
  mixed.insert({Value(3), Value("z"), Value(1.0), Value(1.0), Value(1)});
  mixed.updateCell(1, 2, Value(1.0));
  mixed.updateCell(2, 2, Value(1));
  std::vector<RowId> ids;
  std::vector<bool> isInt;
  for (const IndexEntry& e : *mixed.orderedIndex(2)) {
    ids.push_back(e.id);
    isInt.push_back(e.key.isInt());
  }
  EXPECT_EQ(ids, (std::vector<RowId>{0, 1, 2}));
  EXPECT_EQ(isInt, (std::vector<bool>{false, false, true}));
  EXPECT_EQ(indexHits(mixed, 2, Value(1)), ids);
}

/// Every entry of `index`, walked both ways, and both bounds of every key
/// near the ones the test below uses, against `expected` in index order.
void expectIndexHolds(const OrderedIndex& index, const std::vector<IndexEntry>& expected) {
  const auto position = [&](OrderedIndex::Iterator it) {
    return static_cast<std::size_t>(std::distance(index.begin(), it));
  };
  ASSERT_EQ(index.size(), expected.size());
  ASSERT_EQ(index.empty(), expected.empty());
  std::size_t i = 0;
  for (const IndexEntry& e : index) {
    ASSERT_TRUE(sameValue(e.key, expected[i].key) && e.id == expected[i].id) << "entry " << i;
    ++i;
  }
  ASSERT_EQ(i, expected.size());
  auto it = index.end();
  for (std::size_t j = expected.size(); j-- > 0;) {
    ASSERT_EQ((--it)->id, expected[j].id);
  }
  if (!expected.empty()) {
    EXPECT_EQ(index.back().id, expected.back().id);
  }
  const auto keyLess = [](const IndexEntry& e, const Value& key) { return e.key < key; };
  const auto lessKey = [](const Value& key, const IndexEntry& e) { return key < e.key; };
  for (std::int64_t k = -1; k <= 41; ++k) {
    for (const Value& key : {Value(k), Value(static_cast<double>(k) + 0.5), Value()}) {
      const auto lo = std::lower_bound(expected.begin(), expected.end(), key, keyLess);
      const auto hi = std::upper_bound(expected.begin(), expected.end(), key, lessKey);
      EXPECT_EQ(position(index.lowerBound(key)), lo - expected.begin());
      EXPECT_EQ(position(index.upperBound(key)), hi - expected.begin());
    }
  }
}

TEST(OrderedIndexTest, MatchesASortedListAcrossLeaves) {
  const auto entryLess = [](const IndexEntry& a, const IndexEntry& b) {
    const int c = a.key.compare(b.key);
    return c < 0 || (c == 0 && a.id < b.id);
  };
  std::mt19937_64 rng(7);
  const auto randomKey = [&]() -> Value {
    const auto k = static_cast<std::int64_t>(rng() % 40);
    switch (rng() % 8) {
      case 0: return Value();
      case 1: return Value(static_cast<double>(k));  // equals the int k
      case 2: return Value(static_cast<double>(k) + 0.5);
      default: return Value(k);
    }
  };
  OrderedIndex written;
  std::vector<IndexEntry> expected;
  // Checks the index as written and a copy of it, whose leaves are rebuilt.
  const auto expectSame = [&] {
    expectIndexHolds(written, expected);
    expectIndexHolds(OrderedIndex(written), expected);
  };

  // Random keys in random RowId order split leaves in the middle.
  std::vector<RowId> ids(3000);
  for (RowId id = 0; id < ids.size(); ++id) ids[id] = id;
  std::shuffle(ids.begin(), ids.end(), rng);
  for (const RowId id : ids) {
    const Value key = randomKey();
    written.insert(key, id);
    expected.push_back({key, id});
  }
  std::sort(expected.begin(), expected.end(), entryLess);
  expectSame();
  // A bulk build from the sorted entries holds them too.
  OrderedIndex assigned;
  assigned.assign(expected);
  expectIndexHolds(assigned, expected);
  // Appending past the last entry opens new leaves.
  for (RowId id = 3000; id < 3600; ++id) {
    const IndexEntry e{Value(1000), id};
    written.insert(e.key, e.id);
    expected.push_back(e);
  }
  expectSame();
  // Erasing empties whole leaves, and a missing entry throws.
  std::vector<IndexEntry> gone = expected;
  std::shuffle(gone.begin(), gone.end(), rng);
  gone.resize(3300);
  for (const IndexEntry& e : gone) {
    written.erase(e.key, e.id);
    expected.erase(std::lower_bound(expected.begin(), expected.end(), e, entryLess));
  }
  expectSame();
  EXPECT_THROW(written.erase(gone.front().key, gone.front().id), std::logic_error);
  EXPECT_THROW(written.erase(expected.front().key, expected.front().id + 5000), std::logic_error);
  for (const IndexEntry& e : std::vector<IndexEntry>(expected)) written.erase(e.key, e.id);
  expected.clear();
  expectSame();
  EXPECT_EQ(written.lowerBound(Value(1)), written.end());
}

/// lowerBound(key, hint) against lowerBound(key), for every key and every
/// hint from begin() to end(): before, at and after the answer.
void expectHintsAgree(const OrderedIndex& index, const std::vector<Value>& keys) {
  for (const Value& key : keys) {
    const auto answer = index.lowerBound(key);
    std::size_t at = 0;
    for (auto hint = index.begin();; ++hint, ++at) {
      if (!(index.lowerBound(key, hint) == answer)) {
        ADD_FAILURE() << "key " << key.toDisplayString() << ", hint at position " << at;
        return;
      }
      if (hint == index.end()) break;
    }
  }
}

TEST(OrderedIndexTest, HintedLowerBoundMatchesLowerBoundFromEveryHint) {
  std::vector<Value> keys = {Value(), Value(1.0), Value(0.5), Value(300.5), Value(""),
                             Value("a"), Value("ab"), Value("b"), Value("bb"), Value("c")};
  for (int k = -1; k <= 702; ++k) keys.emplace_back(k);

  // Entries loaded in index order fill each leaf, so the leaves are
  // positions 0-255, 256-511 and 512-531.
  OrderedIndex loaded;
  RowId id = 0;
  const auto add = [&](const Value& key, int copies) {
    for (int i = 0; i < copies; ++i) loaded.insert(key, id++);
  };
  add(Value(), 3);
  add(Value(1), 2);
  add(Value(1.0), 2);  // the same key as the int 1
  for (int k = 2; k <= 240; k += 2) add(Value(k), 1);
  add(Value(300), 300);  // positions 127-426: a run across the first leaf boundary
  // Positions 427-526; 638 ends the second leaf and 642 opens the third, so
  // 639-641 fall between leaves.
  for (int k = 302; k <= 698; k += 4) add(Value(k), 1);
  add(Value("a"), 1);
  add(Value("b"), 3);
  add(Value("bb"), 1);
  ASSERT_EQ(loaded.size(), 532u);
  expectHintsAgree(loaded, keys);
  // The same entries bulk-built, in leaves of 192.
  OrderedIndex assigned;
  assigned.assign(std::vector<IndexEntry>(loaded.begin(), loaded.end()));
  expectHintsAgree(assigned, keys);

  // Random keys in random RowId order split leaves in the middle, leaving
  // leaves of every size.
  std::mt19937_64 rng(11);
  OrderedIndex split;
  std::vector<RowId> ids(1500);
  for (RowId r = 0; r < ids.size(); ++r) ids[r] = r;
  std::shuffle(ids.begin(), ids.end(), rng);
  for (const RowId r : ids) {
    const auto k = static_cast<std::int64_t>(rng() % 60);
    split.insert(rng() % 5 == 0 ? Value(static_cast<double>(k)) : Value(k), r);
  }
  expectHintsAgree(split, keys);

  expectHintsAgree(OrderedIndex(), {Value(), Value(1), Value("a")});
}

// --------------------------------------------------------------- index joins

/// An `IndexLookup` join step over outer keys that ascend, descend, repeat,
/// are NULL or are doubles, into an inner index whose key 7 holds more rows
/// than a leaf; a second step probes with keys that come out of order.
class IndexJoinTest : public ::testing::Test {
 protected:
  IndexJoinTest() : exec_(db_) {
    Table& o = db_.createTable(SchemaBuilder("o").intCol("id").primaryKey().intCol("k").build());
    Table& i = db_.createTable(SchemaBuilder("i")
                                   .intCol("id").primaryKey()
                                   .intCol("k").indexed()
                                   .intCol("v")
                                   .build());
    Table& p = db_.createTable(
        SchemaBuilder("p").intCol("id").primaryKey().intCol("k").indexed().build());
    // In RowId order: ascending, descending, repeated, NULL and absent keys,
    // and doubles (2.0 and 7.0 equal ints; 4.5 falls between keys).
    const Value outerKeys[] = {1, 2, 4, 7, 9, 9, 7, 4, 2, 1, Value(), 4, 4, 12, -3,
                               Value(), 7, 1, Value(2.0), Value(7.0), Value(4.5)};
    std::int64_t n = 0;
    for (const Value& key : outerKeys) o.insert({Value(n++), key});
    // Key 7 takes three rows in four, so its RowIds interleave with the
    // other keys'.
    const Value others[] = {1, 2, Value(2.0), 4, Value(4.5), 9, Value(), 11};
    for (n = 0; n < 400; ++n) {
      const Value key = n % 4 == 0 ? others[(n / 4) % 8] : Value(7);
      i.insert({Value(1000 + n), key, Value((n * 7) % 11)});
    }
    for (n = 0; n < 30; ++n) {
      p.insert({Value(5000 + n), n % 10 == 9 ? Value() : Value((n * 3) % 10)});
    }
  }

  /// The next bindings a per-key forEachIndexEq loop gives, in outer
  /// binding order, probing `inner`'s index on `column` with the key
  /// `keyOf(binding)`; counts the inner rows it examines.
  template <typename KeyOf>
  std::vector<std::vector<RowId>> nestedLoop(const std::vector<std::vector<RowId>>& outer,
                                             const Table& inner, std::size_t column,
                                             KeyOf keyOf, std::uint64_t& examined) {
    std::vector<std::vector<RowId>> next;
    for (const auto& binding : outer) {
      const Value& key = keyOf(binding);
      if (key.isNull()) continue;
      inner.forEachIndexEq(column, key, [&](RowId id) {
        ++examined;
        next.push_back(binding);
        next.back().push_back(id);
        return true;
      });
    }
    return next;
  }

  std::vector<Row> idsOf(const std::vector<std::vector<RowId>>& bindings) {
    const Table* tables[] = {&db_.table("o"), &db_.table("i"), &db_.table("p")};
    std::vector<Row> rows;
    for (const auto& binding : bindings) {
      Row row;
      for (std::size_t t = 0; t < binding.size(); ++t) row.push_back(tables[t]->row(binding[t])[0]);
      rows.push_back(std::move(row));
    }
    return rows;
  }

  Database db_;
  Executor exec_;
};

TEST_F(IndexJoinTest, ProbesYieldOuterBindingOrderAndChargeEachEntry) {
  const Table& o = db_.table("o");
  const Table& i = db_.table("i");
  const Table& p = db_.table("p");
  std::vector<std::vector<RowId>> base;
  o.forEachRow([&](RowId id) { base.push_back({id}); });
  std::uint64_t hits = 0;
  const auto two = nestedLoop(
      base, i, 1, [&](const std::vector<RowId>& b) -> const Value& { return o.row(b[0])[1]; },
      hits);
  // Three 7s and a 7.0 each join all 300 rows of key 7.
  ASSERT_GT(two.size(), 4u * 300u);

  const auto joined = exec_.query("SELECT o.id, i.id FROM o JOIN i ON i.k = o.k");
  EXPECT_EQ(joined.resultSet.rows, idsOf(two));
  EXPECT_EQ(joined.stats.rowsExamined, o.size() + hits);
  EXPECT_EQ(joined.stats.bytesExamined, o.size() * o.avgRowBytes() + hits * i.avgRowBytes());
  EXPECT_TRUE(joined.stats.usedIndex);

  // The second step's keys, i.v along the first step's bindings, do not
  // ascend, so its probes fall back to descents.
  std::vector<Value> secondKeys;
  for (const auto& b : two) secondKeys.push_back(i.row(b[1])[2]);
  ASSERT_FALSE(std::is_sorted(secondKeys.begin(), secondKeys.end()));
  std::uint64_t secondHits = 0;
  const auto three = nestedLoop(
      two, p, 1, [&](const std::vector<RowId>& b) -> const Value& { return i.row(b[1])[2]; },
      secondHits);
  const auto chained =
      exec_.query("SELECT o.id, i.id, p.id FROM o JOIN i ON i.k = o.k JOIN p ON p.k = i.v");
  EXPECT_EQ(chained.resultSet.rows, idsOf(three));
  EXPECT_EQ(chained.stats.rowsExamined, o.size() + hits + secondHits);
  EXPECT_EQ(chained.stats.bytesExamined, o.size() * o.avgRowBytes() + hits * i.avgRowBytes() +
                                             secondHits * p.avgRowBytes());
}

TEST(RollbackTest, RestoresEveryObservableOfTheCheckpoint) {
  const Database prototype = rollbackPrototype();
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Database copy = prototype.clone();
    copy.checkpoint();
    applyWrites(copy, seed);
    copy.rollback();
    expectSameTable(copy.table("t"), prototype.table("t"));
    // Rolled back, the copy takes the next sequence exactly as a fresh
    // clone does.
    Database fresh = prototype.clone();
    EXPECT_EQ(applyWrites(copy, seed + 1000), applyWrites(fresh, seed + 1000));
    expectSameTable(copy.table("t"), fresh.table("t"));
  }
}

// --------------------------------------------------------------- bulk load

/// An int-only and a mixed secondary index, each with a key of more than
/// 300 rows, so its entries cross leaves. The mixed column holds, through
/// the Table API, ints, doubles (1.0 beside 1), NULLs and strings.
TableSchema bulkSchema() {
  return SchemaBuilder("bulk")
      .intCol("id").primaryKey(/*autoIncrement=*/true)
      .intCol("grp").indexed()
      .stringCol("mixed").indexed()
      .build();
}

std::vector<Row> bulkRows(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Row> rows;
  for (std::size_t i = 0; i < count; ++i) {
    const auto k = static_cast<std::int64_t>(rng() % 40) - 5;
    const Value grp = rng() % 5 < 2 ? Value(7) : Value(k);
    Value mixed;
    switch (rng() % 6) {
      case 0: break;  // NULL
      case 1: mixed = Value(k); break;
      case 2: mixed = Value(static_cast<double>(k)); break;  // equals the int k
      case 3: mixed = Value(static_cast<double>(k) + 0.5); break;
      case 4: mixed = Value("s" + std::to_string(k)); break;
      default: mixed = Value("hot"); break;
    }
    rows.push_back({Value(), grp, mixed});
  }
  return rows;
}

TEST(BulkLoadTest, EnableKeysBuildsWhatInsertsBuild) {
  const std::vector<Row> rows = bulkRows(3000, 21);
  Table inserted(bulkSchema());
  Table bulk(bulkSchema());
  // Rows erased before the keys go off must not come back into the indexes.
  for (std::size_t i = 0; i < 1000; ++i) {
    inserted.insert(rows[i]);
    bulk.insert(rows[i]);
  }
  for (RowId id = 0; id < 1000; id += 7) {
    inserted.erase(id);
    bulk.erase(id);
  }
  bulk.disableKeys();
  for (std::size_t i = 1000; i < rows.size(); ++i) {
    inserted.insert(rows[i]);
    bulk.insert(rows[i]);
  }
  bulk.enableKeys();
  for (const std::size_t c : {1, 2}) {
    ASSERT_GT(indexHits(bulk, c, c == 1 ? Value(7) : Value("hot")).size(), 300u);
  }
  expectSameTable(bulk, inserted);

  // The built leaves take further writes as the inserted ones do.
  const std::vector<Row> more = bulkRows(600, 22);
  std::mt19937_64 rng(23);
  for (const Row& row : more) {
    inserted.insert(row);
    bulk.insert(row);
    const auto id = static_cast<RowId>(rng() % inserted.rowSlots());
    if (inserted.isLive(id)) {
      const Value grp(static_cast<std::int64_t>(rng() % 40));
      inserted.updateCell(id, 1, grp);
      bulk.updateCell(id, 1, grp);
    }
    const auto gone = static_cast<RowId>(rng() % inserted.rowSlots());
    inserted.erase(gone);
    bulk.erase(gone);
  }
  expectSameTable(bulk, inserted);
}

TEST(BulkLoadTest, KeysDisabledRejectsEveryIndexReadAndWrite) {
  Database db;
  Table& t = db.createTable(itemsSchema());
  for (int i = 1; i <= 3; ++i) t.insert({Value(i), Value("x"), Value(i % 2), Value(1.0), Value(1)});
  t.disableKeys();
  EXPECT_THROW(t.orderedIndex(2), std::logic_error);
  EXPECT_THROW(t.forEachIndexEq(2, Value(1), [](RowId) { return true; }), std::logic_error);
  EXPECT_THROW(t.updateCell(0, 4, Value(5)), std::logic_error);  // an unindexed column too
  EXPECT_THROW(t.erase(0), std::logic_error);
  EXPECT_THROW(t.checkpoint(), std::logic_error);
  EXPECT_THROW(t.clone(), std::logic_error);
  EXPECT_THROW(db.clone(), std::logic_error);
  EXPECT_THROW(db.checkpoint(), std::logic_error);
  // Inserts go on, with the primary key kept.
  t.insert({Value(), Value("y"), Value(1), Value(2.0), Value(2)});
  EXPECT_EQ(t.findByPk(Value(4)), RowId{3});
  EXPECT_THROW(t.insert({Value(2.0), Value("z"), Value(1), Value(1.0), Value(1)}),
               std::runtime_error);
  t.enableKeys();
  EXPECT_EQ(indexHits(t, 2, Value(1)), (std::vector<RowId>{0, 2, 3}));
  t.checkpoint();
  EXPECT_THROW(t.disableKeys(), std::logic_error);
}

TEST(BulkLoadTest, DisablingAndEnablingKeysLeavesAPopulatedTableAsItWas) {
  const Database prototype = rollbackPrototype();
  Database copy = prototype.clone();
  copy.disableKeys();
  copy.enableKeys();
  copy.enableKeys();  // does nothing while keys are on
  expectSameTable(copy.table("t"), prototype.table("t"));
  Database fresh = prototype.clone();
  EXPECT_EQ(applyWrites(copy, 5), applyWrites(fresh, 5));
  expectSameTable(copy.table("t"), fresh.table("t"));
}

// ---------------------------------------------------------------- pk index

/// `count` int keys from `from` up whose probes all start at one slot of
/// any PkIndex of at most `capacity` slots: a home slot is the top bits of
/// a mix of the key's hash, so keys that share one at the largest capacity
/// share one at every smaller capacity too.
std::vector<std::int64_t> keysSharingAHome(std::int64_t from, std::size_t count,
                                           std::size_t capacity) {
  PkIndex probe;
  const auto self = [](RowId id) { return Value(static_cast<std::int64_t>(id)); };
  for (RowId id = 0; id < capacity / 2; ++id) probe.insert(id, self);
  EXPECT_EQ(probe.capacity(), capacity);
  std::vector<std::int64_t> keys = {from};
  for (std::int64_t k = from + 1; keys.size() < count; ++k) {
    if (probe.home(Value(k)) == probe.home(Value(from))) keys.push_back(k);
  }
  return keys;
}

TEST(PkIndexTest, MatchesAMapThroughWritesCheckpointsAndRollbacks) {
  Table t(SchemaBuilder("k").intCol("id").primaryKey(/*autoIncrement=*/true).intCol("v").build());
  // Candidate keys: runs that share a home slot, small ints, the same
  // numbers as doubles (1.0 is the key 1), non-integral doubles and strings.
  std::vector<Value> pool;
  for (const std::int64_t from : {100'000, 200'000, 300'000}) {
    for (const std::int64_t k : keysSharingAHome(from, 12, 16384)) pool.emplace_back(k);
  }
  for (int k = 0; k < 40; ++k) {
    pool.emplace_back(k);
    pool.emplace_back(static_cast<double>(k));
    pool.emplace_back(k + 0.5);
    pool.emplace_back("s" + std::to_string(k));
  }
  std::map<Value, RowId> model;  // Value's < equates 1 and 1.0
  std::map<Value, RowId> atCheckpoint;
  bool checkpointed = false;
  std::mt19937_64 rng(31);
  const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  const auto liveRow = [&]() -> std::optional<RowId> {
    if (model.empty()) return std::nullopt;
    return std::next(model.begin(), static_cast<std::ptrdiff_t>(pick(model.size())))->second;
  };
  const auto expectMatches = [&](bool everyKey) {
    ASSERT_EQ(t.pkIndexSize(), model.size());
    ASSERT_EQ(t.size(), model.size());
    for (int i = 0; i < 8; ++i) {
      const Value& key = pool[pick(pool.size())];
      const auto it = model.find(key);
      ASSERT_EQ(t.findByPk(key), it == model.end() ? std::nullopt : std::optional(it->second))
          << "pk " << key.toDisplayString();
    }
    if (!everyKey) return;
    for (const auto& [key, id] : model) {
      ASSERT_EQ(t.findByPk(key), id) << "pk " << key.toDisplayString();
      ASSERT_TRUE(t.row(id)[0] == key);
    }
  };

  std::size_t peakSize = 0;
  for (int step = 0; step < 12'000; ++step) {
    // Inserts outnumber erases in the first half, so the index doubles
    // several times, and erases outnumber inserts in the second.
    const std::size_t inserts = step < 6'000 ? 65 : 30;
    const std::size_t erases = step < 6'000 ? 5 : 40;
    const std::size_t op = pick(100);
    if (op < inserts) {
      // Three in four inserts take an auto-increment key.
      const Value key = pick(4) == 0 ? pool[pick(pool.size())] : Value();
      if (model.contains(key)) {
        EXPECT_THROW(t.insert({key, Value(step)}), std::runtime_error);
        continue;
      }
      try {
        const std::int64_t assigned = t.insert({key, Value(step)});
        model.emplace(key.isNull() ? Value(assigned) : key, static_cast<RowId>(t.rowSlots() - 1));
      } catch (const std::runtime_error&) {
        // An auto-increment key that a pk update already took.
        EXPECT_TRUE(key.isNull() && model.contains(Value(t.maxAssignedId())));
      }
    } else if (op < inserts + erases) {
      if (const auto id = liveRow()) {
        model.erase(t.row(*id)[0]);
        t.erase(*id);
      }
    } else if (op < 78) {
      if (const auto id = liveRow()) {
        const Value key = pool[pick(pool.size())];
        const Value old = t.row(*id)[0];
        if (key == old) {
          t.updateCell(*id, 0, key);  // the same key: nothing changes
        } else if (model.contains(key)) {
          EXPECT_THROW(t.updateCell(*id, 0, key), std::runtime_error);
        } else {
          t.updateCell(*id, 0, key);
          model.erase(old);
          model.emplace(key, *id);
        }
      }
    } else if (op == 78) {
      t.checkpoint();
      atCheckpoint = model;
      checkpointed = true;
    } else if (op == 79 && checkpointed) {
      t.rollback();
      model = atCheckpoint;
    }
    peakSize = std::max(peakSize, model.size());
    expectMatches(step % 100 == 0);
    if (testing::Test::HasFatalFailure()) return;
  }
  expectMatches(true);
  // Past 1,024 keys the index holds 4,096 slots: eight doublings from 16.
  EXPECT_GT(peakSize, 1'100u);
}

// ------------------------------------------------------------------- Lexer

TEST(LexerTest, TokenizesBasicSelect) {
  const auto tokens = lex("SELECT a, b FROM t WHERE x >= 10");
  EXPECT_EQ(tokens.front().type, TokenType::Identifier);
  EXPECT_EQ(tokens.front().upperText, "SELECT");
  EXPECT_EQ(tokens.back().type, TokenType::End);
}

TEST(LexerTest, StringEscapes) {
  const auto tokens = lex("SELECT 'it''s'");
  EXPECT_EQ(tokens[1].type, TokenType::String);
  EXPECT_EQ(tokens[1].text, "it's");
}

TEST(LexerTest, NumbersAndFloats) {
  const auto tokens = lex("1 2.5 .75");
  EXPECT_EQ(tokens[0].intValue, 1);
  EXPECT_DOUBLE_EQ(tokens[1].floatValue, 2.5);
  EXPECT_DOUBLE_EQ(tokens[2].floatValue, 0.75);
}

TEST(LexerTest, OperatorsTwoChar) {
  const auto tokens = lex("a <= b >= c != d <> e");
  EXPECT_EQ(tokens[1].type, TokenType::Le);
  EXPECT_EQ(tokens[3].type, TokenType::Ge);
  EXPECT_EQ(tokens[5].type, TokenType::Ne);
  EXPECT_EQ(tokens[7].type, TokenType::Ne);
}

TEST(LexerTest, ThrowsOnUnterminatedString) {
  EXPECT_THROW(lex("SELECT 'abc"), std::runtime_error);
}

TEST(LexerTest, ThrowsOnStrayBang) {
  EXPECT_THROW(lex("a ! b"), std::runtime_error);
}

// ------------------------------------------------------------------ Parser

TEST(ParserTest, SelectStructure) {
  auto stmt = parseSql(
      "SELECT id, name AS n FROM items WHERE category = ? AND price < 10.0 "
      "ORDER BY price DESC LIMIT 20 OFFSET 5");
  ASSERT_EQ(stmt->kind, Statement::Kind::Select);
  const auto& s = stmt->select;
  EXPECT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[1].alias, "n");
  EXPECT_EQ(s.from.table, "items");
  ASSERT_TRUE(s.where != nullptr);
  EXPECT_EQ(s.orderBy.size(), 1u);
  EXPECT_TRUE(s.orderBy[0].descending);
  EXPECT_EQ(s.limit, 20);
  EXPECT_EQ(s.offset, 5);
  EXPECT_EQ(stmt->paramCount, 1u);
}

TEST(ParserTest, JoinWithOn) {
  auto stmt = parseSql(
      "SELECT i.name, a.name FROM items i JOIN authors a ON i.author_id = a.id");
  const auto& s = stmt->select;
  ASSERT_EQ(s.joins.size(), 1u);
  EXPECT_EQ(s.joins[0].table.table, "authors");
  EXPECT_EQ(s.joins[0].table.alias, "a");
  ASSERT_TRUE(s.joins[0].on != nullptr);
  EXPECT_EQ(s.joins[0].on->kind, Expr::Kind::Binary);
  EXPECT_EQ(s.joins[0].on->op, BinOp::Eq);
}

TEST(ParserTest, JoinWithExpressionOn) {
  auto stmt = parseSql(
      "SELECT i.name FROM items i JOIN authors a ON i.author_id = a.id + 1 "
      "AND a.id < 100");
  const auto& s = stmt->select;
  ASSERT_EQ(s.joins.size(), 1u);
  ASSERT_TRUE(s.joins[0].on != nullptr);
  EXPECT_EQ(s.joins[0].on->op, BinOp::And);
}

TEST(ParserTest, WriteLimitOffset) {
  auto del = parseSql("DELETE FROM items WHERE stock = 0 LIMIT 10 OFFSET 2");
  ASSERT_EQ(del->kind, Statement::Kind::Delete);
  EXPECT_EQ(del->del.limit, 10);
  EXPECT_EQ(del->del.offset, 2);
  auto upd = parseSql("UPDATE items SET stock = stock - 1 LIMIT 3");
  ASSERT_EQ(upd->kind, Statement::Kind::Update);
  EXPECT_EQ(upd->update.limit, 3);
  EXPECT_EQ(upd->update.offset, 0);
}

TEST(ParserTest, GroupByAggregates) {
  auto stmt = parseSql(
      "SELECT item_id, SUM(qty) AS total FROM order_line GROUP BY item_id "
      "ORDER BY total DESC LIMIT 50");
  const auto& s = stmt->select;
  EXPECT_EQ(s.groupBy.size(), 1u);
  EXPECT_EQ(s.items[1].expr->kind, Expr::Kind::Aggregate);
  EXPECT_EQ(s.items[1].expr->agg, AggFunc::Sum);
}

TEST(ParserTest, InsertWithColumns) {
  auto stmt = parseSql("INSERT INTO t (a, b, c) VALUES (?, 'x', 3)");
  ASSERT_EQ(stmt->kind, Statement::Kind::Insert);
  EXPECT_EQ(stmt->insert.columns.size(), 3u);
  EXPECT_EQ(stmt->insert.values.size(), 3u);
  EXPECT_EQ(stmt->paramCount, 1u);
}

TEST(ParserTest, UpdateWithArithmetic) {
  auto stmt = parseSql("UPDATE items SET stock = stock - 1, price = ? WHERE id = ?");
  ASSERT_EQ(stmt->kind, Statement::Kind::Update);
  EXPECT_EQ(stmt->update.sets.size(), 2u);
  EXPECT_EQ(stmt->paramCount, 2u);
}

TEST(ParserTest, DeleteStatement) {
  auto stmt = parseSql("DELETE FROM bids WHERE item_id = 5");
  ASSERT_EQ(stmt->kind, Statement::Kind::Delete);
  EXPECT_EQ(stmt->del.table, "bids");
}

TEST(ParserTest, LockTables) {
  auto stmt = parseSql("LOCK TABLES items WRITE, authors READ");
  ASSERT_EQ(stmt->kind, Statement::Kind::LockTables);
  ASSERT_EQ(stmt->lockTables.items.size(), 2u);
  EXPECT_TRUE(stmt->lockTables.items[0].write);
  EXPECT_FALSE(stmt->lockTables.items[1].write);
}

TEST(ParserTest, UnlockTables) {
  auto stmt = parseSql("UNLOCK TABLES");
  EXPECT_EQ(stmt->kind, Statement::Kind::UnlockTables);
}

TEST(ParserTest, LikeExpression) {
  auto stmt = parseSql("SELECT * FROM items WHERE name LIKE 'harry%'");
  ASSERT_TRUE(stmt->select.where != nullptr);
  EXPECT_EQ(stmt->select.where->op, BinOp::Like);
}

TEST(ParserTest, SyntaxErrorsThrowWithContext) {
  try {
    parseSql("SELECT FROM");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("SELECT FROM"), std::string::npos);
  }
  EXPECT_THROW(parseSql("FROB x"), std::runtime_error);
  EXPECT_THROW(parseSql("SELECT * FROM t WHERE"), std::runtime_error);
  EXPECT_THROW(parseSql("INSERT INTO t VALUES (1"), std::runtime_error);
}

// ------------------------------------------------------------------- LIKE

TEST(LikeTest, Patterns) {
  EXPECT_TRUE(likeMatch("harry potter", "harry%"));
  EXPECT_TRUE(likeMatch("harry potter", "%potter"));
  EXPECT_TRUE(likeMatch("harry potter", "%rry pot%"));
  EXPECT_TRUE(likeMatch("abc", "abc"));
  EXPECT_TRUE(likeMatch("abc", "a_c"));
  EXPECT_FALSE(likeMatch("abc", "a_d"));
  EXPECT_FALSE(likeMatch("abc", "abcd%e"));
  EXPECT_TRUE(likeMatch("", "%"));
  EXPECT_FALSE(likeMatch("x", ""));
}

// ---------------------------------------------------------------- Executor

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : exec_(db_) {
    db_.createTable(itemsSchema());
    db_.createTable(SchemaBuilder("authors")
                        .intCol("id").primaryKey()
                        .stringCol("name")
                        .build());
    db_.createTable(SchemaBuilder("books")
                        .intCol("id").primaryKey(true)
                        .stringCol("title")
                        .intCol("author_id").indexed()
                        .doubleCol("price")
                        .build());
    exec_.query("INSERT INTO authors VALUES (1, 'tolkien')");
    exec_.query("INSERT INTO authors VALUES (2, 'rowling')");
    exec_.query("INSERT INTO books VALUES (NULL, 'lotr', 1, 20.0)");
    exec_.query("INSERT INTO books VALUES (NULL, 'hobbit', 1, 10.0)");
    exec_.query("INSERT INTO books VALUES (NULL, 'hp1', 2, 15.0)");
    for (int i = 1; i <= 20; ++i) {
      const Value params[] = {Value(i), Value("item" + std::to_string(i)),
                              Value(i % 4), Value(i * 1.5), Value(100 - i)};
      exec_.query("INSERT INTO items VALUES (?, ?, ?, ?, ?)", params);
    }
  }

  Database db_;
  Executor exec_;
};

TEST_F(ExecutorTest, SelectAllColumns) {
  auto r = exec_.query("SELECT * FROM authors ORDER BY id");
  ASSERT_EQ(r.resultSet.rowCount(), 2u);
  EXPECT_EQ(r.resultSet.columns, (std::vector<std::string>{"id", "name"}));
  EXPECT_EQ(r.resultSet.stringAt(0, "name"), "tolkien");
}

TEST_F(ExecutorTest, SelectByPrimaryKeyUsesIndex) {
  auto r = exec_.query("SELECT name FROM items WHERE id = 7");
  ASSERT_EQ(r.resultSet.rowCount(), 1u);
  EXPECT_EQ(r.resultSet.stringAt(0, "name"), "item7");
  EXPECT_TRUE(r.stats.usedIndex);
  EXPECT_EQ(r.stats.rowsExamined, 1u);
}

TEST_F(ExecutorTest, SelectBySecondaryIndex) {
  auto r = exec_.query("SELECT id FROM items WHERE category = 2");
  EXPECT_EQ(r.resultSet.rowCount(), 5u);  // 2, 6, 10, 14, 18
  EXPECT_TRUE(r.stats.usedIndex);
  EXPECT_EQ(r.stats.rowsExamined, 5u);
}

TEST_F(ExecutorTest, FullScanWhenNoIndex) {
  auto r = exec_.query("SELECT id FROM items WHERE stock > 95");
  EXPECT_EQ(r.resultSet.rowCount(), 4u);  // stock = 99, 98, 97, 96
  EXPECT_FALSE(r.stats.usedIndex);
  EXPECT_EQ(r.stats.rowsExamined, 20u);
}

TEST_F(ExecutorTest, IndexRangeScan) {
  auto r = exec_.query("SELECT id FROM items WHERE category >= 1 AND category <= 2");
  EXPECT_EQ(r.resultSet.rowCount(), 10u);
  EXPECT_TRUE(r.stats.usedIndex);
}

TEST_F(ExecutorTest, BoundParameters) {
  const Value params[] = {Value(3)};
  auto r = exec_.query("SELECT COUNT(*) AS n FROM items WHERE category = ?", params);
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 5);
}

TEST_F(ExecutorTest, MissingParameterThrows) {
  EXPECT_THROW(exec_.query("SELECT * FROM items WHERE id = ?"), std::runtime_error);
}

TEST_F(ExecutorTest, JoinViaOnWithIndex) {
  auto r = exec_.query(
      "SELECT b.title, a.name FROM books b JOIN authors a ON b.author_id = a.id "
      "WHERE a.name = 'tolkien' ORDER BY b.title");
  ASSERT_EQ(r.resultSet.rowCount(), 2u);
  EXPECT_EQ(r.resultSet.stringAt(0, "title"), "hobbit");
  EXPECT_TRUE(r.stats.usedIndex);
}

TEST_F(ExecutorTest, JoinReversedOnCondition) {
  auto r = exec_.query(
      "SELECT b.title FROM authors a JOIN books b ON a.id = b.author_id "
      "WHERE a.id = 2");
  ASSERT_EQ(r.resultSet.rowCount(), 1u);
  EXPECT_EQ(r.resultSet.stringAt(0, "title"), "hp1");
}

TEST_F(ExecutorTest, CommaJoinWithWhereEquality) {
  auto r = exec_.query(
      "SELECT b.title FROM authors a, books b WHERE a.id = b.author_id AND "
      "a.name = 'rowling'");
  ASSERT_EQ(r.resultSet.rowCount(), 1u);
  EXPECT_EQ(r.resultSet.stringAt(0, "title"), "hp1");
}

TEST_F(ExecutorTest, GroupByWithAggregates) {
  auto r = exec_.query(
      "SELECT author_id, COUNT(*) AS n, SUM(price) AS total, MAX(price) AS mx "
      "FROM books GROUP BY author_id ORDER BY author_id");
  ASSERT_EQ(r.resultSet.rowCount(), 2u);
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 2);
  EXPECT_DOUBLE_EQ(r.resultSet.doubleAt(0, "total"), 30.0);
  EXPECT_DOUBLE_EQ(r.resultSet.doubleAt(0, "mx"), 20.0);
  EXPECT_EQ(r.resultSet.intAt(1, "n"), 1);
}

TEST_F(ExecutorTest, AggregateWithoutGroupBy) {
  auto r = exec_.query("SELECT COUNT(*) AS n, AVG(price) AS avg FROM books");
  ASSERT_EQ(r.resultSet.rowCount(), 1u);
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 3);
  EXPECT_NEAR(r.resultSet.doubleAt(0, "avg"), 15.0, 1e-9);
}

TEST_F(ExecutorTest, CountOverEmptyInputIsZero) {
  auto r = exec_.query("SELECT COUNT(*) AS n FROM books WHERE author_id = 99");
  ASSERT_EQ(r.resultSet.rowCount(), 1u);
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 0);
}

TEST_F(ExecutorTest, OrderBySelectAliasDescending) {
  auto r = exec_.query(
      "SELECT author_id, COUNT(*) AS n FROM books GROUP BY author_id "
      "ORDER BY n DESC");
  ASSERT_EQ(r.resultSet.rowCount(), 2u);
  EXPECT_EQ(r.resultSet.intAt(0, "author_id"), 1);
}

TEST_F(ExecutorTest, OrderLimitOffset) {
  auto r = exec_.query("SELECT id FROM items ORDER BY id DESC LIMIT 3 OFFSET 2");
  ASSERT_EQ(r.resultSet.rowCount(), 3u);
  EXPECT_EQ(r.resultSet.intAt(0, "id"), 18);
  EXPECT_EQ(r.resultSet.intAt(2, "id"), 16);
  EXPECT_GT(r.stats.rowsSorted, 0u);
}

TEST_F(ExecutorTest, LikeFilter) {
  auto r = exec_.query("SELECT COUNT(*) AS n FROM items WHERE name LIKE 'item1%'");
  // item1, item10..item19 => 11
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 11);
}

TEST_F(ExecutorTest, ArithmeticInProjection) {
  auto r = exec_.query("SELECT price * 2 AS dbl FROM books WHERE title = 'hobbit'");
  EXPECT_DOUBLE_EQ(r.resultSet.doubleAt(0, "dbl"), 20.0);
}

TEST_F(ExecutorTest, OrConditions) {
  auto r = exec_.query("SELECT COUNT(*) AS n FROM items WHERE id = 1 OR id = 2");
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 2);
}

TEST_F(ExecutorTest, InsertAutoIncrementReturnsId) {
  auto r = exec_.query("INSERT INTO books (title, author_id, price) VALUES ('x', 1, 1.0)");
  EXPECT_EQ(r.lastInsertId, 4);
  EXPECT_EQ(r.affectedRows, 1u);
}

TEST_F(ExecutorTest, InsertCoercesNumericTypes) {
  exec_.query("INSERT INTO books VALUES (NULL, 'y', 2, 7)");  // int into double col
  auto r = exec_.query("SELECT price FROM books WHERE title = 'y'");
  EXPECT_TRUE(r.resultSet.at(0, "price").isDouble());
}

TEST_F(ExecutorTest, UpdateWithSelfReference) {
  exec_.query("UPDATE items SET stock = stock - 5 WHERE id = 1");
  auto r = exec_.query("SELECT stock FROM items WHERE id = 1");
  EXPECT_EQ(r.resultSet.intAt(0, "stock"), 94);
}

TEST_F(ExecutorTest, UpdateByIndexTouchesOnlyMatches) {
  auto r = exec_.query("UPDATE items SET stock = 0 WHERE category = 1");
  EXPECT_EQ(r.affectedRows, 5u);
  EXPECT_TRUE(r.stats.usedIndex);
  auto check = exec_.query("SELECT COUNT(*) AS n FROM items WHERE stock = 0");
  EXPECT_EQ(check.resultSet.intAt(0, "n"), 5);
}

TEST_F(ExecutorTest, UpdateIndexedColumnRelocatesRow) {
  exec_.query("UPDATE books SET author_id = 2 WHERE title = 'hobbit'");
  auto r = exec_.query("SELECT COUNT(*) AS n FROM books WHERE author_id = 2");
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 2);
}

TEST_F(ExecutorTest, DeleteRemovesRows) {
  auto r = exec_.query("DELETE FROM items WHERE category = 0");
  EXPECT_EQ(r.affectedRows, 5u);
  auto count = exec_.query("SELECT COUNT(*) AS n FROM items");
  EXPECT_EQ(count.resultSet.intAt(0, "n"), 15);
}

TEST_F(ExecutorTest, SelectFromUnknownTableThrows) {
  EXPECT_THROW(exec_.query("SELECT * FROM nope"), std::runtime_error);
}

TEST_F(ExecutorTest, UnknownColumnThrows) {
  EXPECT_THROW(exec_.query("SELECT wibble FROM items"), std::runtime_error);
}

TEST_F(ExecutorTest, AmbiguousColumnThrows) {
  EXPECT_THROW(
      exec_.query("SELECT id FROM books b JOIN authors a ON b.author_id = a.id"),
      std::runtime_error);
}

TEST_F(ExecutorTest, ResultByteSizeNonZero) {
  auto r = exec_.query("SELECT * FROM items");
  EXPECT_GT(r.stats.resultBytes, 100u);
  EXPECT_EQ(r.stats.rowsReturned, 20u);
}

TEST_F(ExecutorTest, LockStatementsAreEngineNoOps) {
  auto r1 = exec_.query("LOCK TABLES items WRITE");
  auto r2 = exec_.query("UNLOCK TABLES");
  EXPECT_EQ(r1.affectedRows, 0u);
  EXPECT_EQ(r2.affectedRows, 0u);
}

TEST_F(ExecutorTest, DatabaseApproxBytesGrows) {
  const auto before = db_.approxBytes();
  exec_.query("INSERT INTO books VALUES (NULL, 'a-very-long-book-title', 1, 5.0)");
  EXPECT_GT(db_.approxBytes(), before);
}

}  // namespace
}  // namespace mwsim::db

namespace mwsim::db {
namespace {

// ------------------------------------------------------ executor edge cases

class ExecutorEdgeTest : public ::testing::Test {
 protected:
  ExecutorEdgeTest() : exec_(db_) {
    db_.createTable(SchemaBuilder("e")
                        .intCol("id").primaryKey(true)
                        .intCol("v").indexed()
                        .stringCol("s")
                        .build());
    for (int i = 1; i <= 10; ++i) {
      const Value params[] = {Value(i % 3), Value("row" + std::to_string(i))};
      exec_.query("INSERT INTO e (v, s) VALUES (?, ?)", params);
    }
  }
  Database db_;
  Executor exec_;
};

TEST_F(ExecutorEdgeTest, SelectFromEmptyTable) {
  db_.createTable(SchemaBuilder("empty").intCol("x").primaryKey().build());
  auto r = exec_.query("SELECT * FROM empty");
  EXPECT_TRUE(r.resultSet.empty());
  auto agg = exec_.query("SELECT COUNT(*) AS n, MAX(x) AS m FROM empty");
  EXPECT_EQ(agg.resultSet.intAt(0, "n"), 0);
  EXPECT_TRUE(agg.resultSet.at(0, "m").isNull());
}

TEST_F(ExecutorEdgeTest, OffsetBeyondEnd) {
  auto r = exec_.query("SELECT id FROM e ORDER BY id LIMIT 5 OFFSET 100");
  EXPECT_TRUE(r.resultSet.empty());
}

TEST_F(ExecutorEdgeTest, LimitZero) {
  auto r = exec_.query("SELECT id FROM e LIMIT 0");
  EXPECT_TRUE(r.resultSet.empty());
}

TEST_F(ExecutorEdgeTest, InsertNamingAColumnTwiceThrows) {
  const auto before = db_.table("e").size();
  try {
    exec_.query("INSERT INTO e (v, v) VALUES (1, 2)");
    ADD_FAILURE() << "an INSERT naming v twice was accepted";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("duplicate column in INSERT: v"), std::string::npos)
        << err.what();
  }
  EXPECT_EQ(db_.table("e").size(), before);
}

TEST_F(ExecutorEdgeTest, OrderByMultipleKeys) {
  auto r = exec_.query("SELECT id, v FROM e ORDER BY v DESC, id ASC");
  ASSERT_EQ(r.resultSet.rowCount(), 10u);
  // First group is v=2 (ids 2,5,8 in ascending order).
  EXPECT_EQ(r.resultSet.intAt(0, "v"), 2);
  EXPECT_EQ(r.resultSet.intAt(0, "id"), 2);
  EXPECT_EQ(r.resultSet.intAt(1, "id"), 5);
}

TEST_F(ExecutorEdgeTest, DeleteByIndexThenReuseIndex) {
  exec_.query("DELETE FROM e WHERE v = 1");
  auto r = exec_.query("SELECT COUNT(*) AS n FROM e WHERE v = 1");
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 0);
  // Insert again and find it through the index.
  exec_.query("INSERT INTO e (v, s) VALUES (1, 'fresh')");
  auto again = exec_.query("SELECT s FROM e WHERE v = 1");
  ASSERT_EQ(again.resultSet.rowCount(), 1u);
  EXPECT_EQ(again.resultSet.stringAt(0, "s"), "fresh");
}

TEST_F(ExecutorEdgeTest, UpdateNoMatchesAffectsNothing) {
  auto r = exec_.query("UPDATE e SET v = 99 WHERE id = 12345");
  EXPECT_EQ(r.affectedRows, 0u);
}

TEST_F(ExecutorEdgeTest, MaxMinFastPathMatchesScan) {
  auto fastMax = exec_.query("SELECT MAX(v) AS m FROM e");
  auto slowMax = exec_.query("SELECT MAX(v) AS m FROM e WHERE id > 0");
  EXPECT_EQ(fastMax.resultSet.intAt(0, "m"), slowMax.resultSet.intAt(0, "m"));
  auto fastCount = exec_.query("SELECT COUNT(*) AS n FROM e");
  auto slowCount = exec_.query("SELECT COUNT(*) AS n FROM e WHERE id > 0");
  EXPECT_EQ(fastCount.resultSet.intAt(0, "n"), slowCount.resultSet.intAt(0, "n"));
  EXPECT_LT(fastCount.stats.rowsExamined, slowCount.stats.rowsExamined);
}

TEST_F(ExecutorEdgeTest, MaxAutoIncrementPkIsO1) {
  auto r = exec_.query("SELECT MAX(id) AS m FROM e");
  EXPECT_EQ(r.resultSet.intAt(0, "m"), 10);
  EXPECT_LE(r.stats.rowsExamined, 1u);
}

TEST_F(ExecutorEdgeTest, NullComparisonsAreFalse) {
  db_.createTable(SchemaBuilder("n").intCol("id").primaryKey().intCol("x").build());
  exec_.query("INSERT INTO n VALUES (1, NULL)");
  exec_.query("INSERT INTO n VALUES (2, 5)");
  auto r = exec_.query("SELECT id FROM n WHERE x > 0");
  ASSERT_EQ(r.resultSet.rowCount(), 1u);
  EXPECT_EQ(r.resultSet.intAt(0, "id"), 2);
  auto eq = exec_.query("SELECT id FROM n WHERE x = 5");
  EXPECT_EQ(eq.resultSet.rowCount(), 1u);
}

TEST_F(ExecutorEdgeTest, SumAndAvgSkipNulls) {
  db_.createTable(SchemaBuilder("m").intCol("id").primaryKey().doubleCol("x").build());
  exec_.query("INSERT INTO m VALUES (1, 10.0)");
  exec_.query("INSERT INTO m VALUES (2, NULL)");
  exec_.query("INSERT INTO m VALUES (3, 20.0)");
  auto r = exec_.query("SELECT SUM(x) AS s, AVG(x) AS a, COUNT(x) AS c FROM m");
  EXPECT_DOUBLE_EQ(r.resultSet.doubleAt(0, "s"), 30.0);
  EXPECT_DOUBLE_EQ(r.resultSet.doubleAt(0, "a"), 15.0);
  EXPECT_EQ(r.resultSet.intAt(0, "c"), 2);
}

TEST_F(ExecutorEdgeTest, ParenthesizedBooleanExpressions) {
  auto r = exec_.query(
      "SELECT COUNT(*) AS n FROM e WHERE (v = 0 OR v = 1) AND id <= 5");
  // ids 1..5 with v != 2: ids 1(v1),3(v0),4(v1) and 5 has v=2 -> excluded; 2 has v=2.
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 3);
}

TEST_F(ExecutorEdgeTest, ArithmeticPrecedence) {
  auto r = exec_.query("SELECT 2 + 3 * 4 AS x FROM e LIMIT 1");
  EXPECT_EQ(r.resultSet.intAt(0, "x"), 14);
  auto paren = exec_.query("SELECT (2 + 3) * 4 AS x FROM e LIMIT 1");
  EXPECT_EQ(paren.resultSet.intAt(0, "x"), 20);
}

TEST_F(ExecutorEdgeTest, DivisionByZeroYieldsNull) {
  auto r = exec_.query("SELECT 1 / 0 AS x FROM e LIMIT 1");
  EXPECT_TRUE(r.resultSet.at(0, "x").isNull());
}

TEST_F(ExecutorEdgeTest, StringEscapeRoundTrip) {
  exec_.query("INSERT INTO e (v, s) VALUES (7, 'it''s a test')");
  auto r = exec_.query("SELECT s FROM e WHERE v = 7");
  EXPECT_EQ(r.resultSet.stringAt(0, "s"), "it's a test");
}

}  // namespace
}  // namespace mwsim::db

namespace mwsim::db {
namespace {

// --------------------------------------------- extended SQL features

class SqlFeatureTest : public ::testing::Test {
 protected:
  SqlFeatureTest() : exec_(db_) {
    db_.createTable(SchemaBuilder("f")
                        .intCol("id").primaryKey(true)
                        .intCol("grp").indexed()
                        .intCol("v")
                        .stringCol("s")
                        .build());
    for (int i = 1; i <= 30; ++i) {
      const Value params[] = {Value(i % 5), Value(i * 10),
                              Value(i % 4 == 0 ? Value() : Value("s" + std::to_string(i)))};
      exec_.query("INSERT INTO f (grp, v, s) VALUES (?, ?, ?)", params);
    }
  }
  Database db_;
  Executor exec_;
};

TEST_F(SqlFeatureTest, InListOnPrimaryKeyUsesIndex) {
  auto r = exec_.query("SELECT id FROM f WHERE id IN (3, 7, 11) ORDER BY id");
  ASSERT_EQ(r.resultSet.rowCount(), 3u);
  EXPECT_EQ(r.resultSet.intAt(0, "id"), 3);
  EXPECT_TRUE(r.stats.usedIndex);
  EXPECT_EQ(r.stats.rowsExamined, 3u);
}

TEST_F(SqlFeatureTest, InListOnIndexedColumn) {
  auto r = exec_.query("SELECT COUNT(*) AS n FROM f WHERE grp IN (1, 2)");
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 12);  // 6 per group
  EXPECT_TRUE(r.stats.usedIndex);
}

TEST_F(SqlFeatureTest, InListWithParams) {
  const Value params[] = {Value(5), Value(6)};
  auto r = exec_.query("SELECT id FROM f WHERE id IN (?, ?) ORDER BY id", params);
  ASSERT_EQ(r.resultSet.rowCount(), 2u);
}

TEST_F(SqlFeatureTest, NotIn) {
  auto r = exec_.query("SELECT COUNT(*) AS n FROM f WHERE grp NOT IN (0, 1, 2, 3)");
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 6);  // grp == 4
}

TEST_F(SqlFeatureTest, Between) {
  auto r = exec_.query("SELECT COUNT(*) AS n FROM f WHERE v BETWEEN 100 AND 150");
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 6);  // v = 100..150 step 10
  auto notBetween =
      exec_.query("SELECT COUNT(*) AS n FROM f WHERE v NOT BETWEEN 20 AND 290");
  EXPECT_EQ(notBetween.resultSet.intAt(0, "n"), 2);  // v=10 and v=300
}

TEST_F(SqlFeatureTest, IsNullAndIsNotNull) {
  auto nulls = exec_.query("SELECT COUNT(*) AS n FROM f WHERE s IS NULL");
  EXPECT_EQ(nulls.resultSet.intAt(0, "n"), 7);  // every 4th row of 30
  auto notNulls = exec_.query("SELECT COUNT(*) AS n FROM f WHERE s IS NOT NULL");
  EXPECT_EQ(notNulls.resultSet.intAt(0, "n"), 23);
}

TEST_F(SqlFeatureTest, NotPrefixOperator) {
  auto r = exec_.query("SELECT COUNT(*) AS n FROM f WHERE NOT (grp = 0)");
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 24);
}

TEST_F(SqlFeatureTest, NotLike) {
  auto r = exec_.query("SELECT COUNT(*) AS n FROM f WHERE s NOT LIKE 's1%' AND s IS NOT NULL");
  // s1, s10..s19 minus the NULL slots (s12, s16 are NULL; s4, s8... are NULL)
  auto like = exec_.query("SELECT COUNT(*) AS n FROM f WHERE s LIKE 's1%'");
  auto notNull = exec_.query("SELECT COUNT(*) AS n FROM f WHERE s IS NOT NULL");
  EXPECT_EQ(r.resultSet.intAt(0, "n") + like.resultSet.intAt(0, "n"),
            notNull.resultSet.intAt(0, "n"));
}

TEST_F(SqlFeatureTest, HavingFiltersGroups) {
  // grp 0 appears 6 times; restrict to groups with at least 1 row where id > 25.
  auto r = exec_.query(
      "SELECT grp, COUNT(*) AS n FROM f WHERE id > 25 GROUP BY grp "
      "HAVING COUNT(*) > 1 ORDER BY grp");
  // ids 26..30 -> grps 1,2,3,4,0: each once => HAVING n>1 removes all.
  EXPECT_EQ(r.resultSet.rowCount(), 0u);
  auto loose = exec_.query(
      "SELECT grp, COUNT(*) AS n FROM f GROUP BY grp HAVING COUNT(*) > 5 ORDER BY grp");
  EXPECT_EQ(loose.resultSet.rowCount(), 5u);  // all groups have 6 rows
}

TEST_F(SqlFeatureTest, HavingOnSum) {
  auto r = exec_.query(
      "SELECT grp, SUM(v) AS total FROM f GROUP BY grp HAVING SUM(v) >= 960 "
      "ORDER BY total DESC");
  // grp sums: grp g has v = 10*(g, g+5, g+10, g+15, g+20, g+25) = 60g + 750... wait:
  // ids with id%5==g: v=10*id. g=0: ids 5,10,..,30 -> 10*(5+10+15+20+25+30)=1050.
  ASSERT_GE(r.resultSet.rowCount(), 1u);
  EXPECT_GE(r.resultSet.doubleAt(0, "total"), 960.0);
}

TEST_F(SqlFeatureTest, DistinctRemovesDuplicates) {
  auto r = exec_.query("SELECT DISTINCT grp FROM f ORDER BY grp");
  ASSERT_EQ(r.resultSet.rowCount(), 5u);
  for (int g = 0; g < 5; ++g) {
    EXPECT_EQ(r.resultSet.intAt(static_cast<std::size_t>(g), "grp"), g);
  }
}

TEST_F(SqlFeatureTest, DistinctOnMultipleColumns) {
  exec_.query("INSERT INTO f (grp, v, s) VALUES (0, 50, 'dup')");
  auto r = exec_.query("SELECT DISTINCT grp, v FROM f WHERE v = 50");
  // Row id=5 has (0, 50); the new row also (0, 50) -> one distinct pair.
  EXPECT_EQ(r.resultSet.rowCount(), 1u);
}

TEST_F(SqlFeatureTest, UpdateWithInPredicate) {
  auto r = exec_.query("UPDATE f SET v = 0 WHERE id IN (1, 2, 3)");
  EXPECT_EQ(r.affectedRows, 3u);
}

TEST_F(SqlFeatureTest, DeleteWithIsNull) {
  const auto before = db_.table("f").size();
  auto r = exec_.query("DELETE FROM f WHERE s IS NULL");
  EXPECT_EQ(r.affectedRows, 7u);
  EXPECT_EQ(db_.table("f").size(), before - 7);
}

TEST_F(SqlFeatureTest, ParserErrorsOnBadIn) {
  EXPECT_THROW(exec_.query("SELECT id FROM f WHERE id IN ()"), std::runtime_error);
  EXPECT_THROW(exec_.query("SELECT id FROM f WHERE id IN (1, 2"), std::runtime_error);
  EXPECT_THROW(exec_.query("SELECT id FROM f WHERE id IS 5"), std::runtime_error);
}

}  // namespace
}  // namespace mwsim::db

namespace mwsim::db {
namespace {

// --------------------------------------------------------- ORDER BY windows

/// Forty rows whose sort keys run in long stretches of equal values (`k`
/// takes four values, `j` three). Rewriting `g` moves rows 3, 9, 15, 21, 4
/// and 10 to the back of the g = 1 index range, so a walk of that range
/// yields candidates out of RowId order.
class WindowTest : public ::testing::Test {
 protected:
  WindowTest() : exec_(db_) {
    db_.createTable(SchemaBuilder("w")
                        .intCol("id").primaryKey(true)
                        .intCol("k")
                        .intCol("j")
                        .intCol("g").indexed()
                        .stringCol("s")
                        .build());
    for (int i = 1; i <= 40; ++i) {
      const Value params[] = {Value((i * 7) % 4), Value(i % 3), Value(i % 2),
                              Value("r" + std::to_string(i))};
      exec_.query("INSERT INTO w (k, j, g, s) VALUES (?, ?, ?, ?)", params);
    }
    exec_.query("UPDATE w SET g = 1 WHERE id IN (4, 10)");
  }

  /// Checks `select` + ORDER BY `order` + LIMIT/OFFSET, over a grid of
  /// windows that start and end inside runs of equal keys, against a
  /// std::stable_sort by `less` of `select`'s rows in candidate order.
  template <typename Less>
  void expectStableWindows(const std::string& select, const std::string& order, Less less) {
    std::vector<Row> all = exec_.query(select).resultSet.rows;
    std::stable_sort(all.begin(), all.end(), less);
    EXPECT_EQ(exec_.query(select + " ORDER BY " + order).resultSet.rows, all) << order;
    for (const std::size_t offset : {0u, 1u, 5u, 9u, 10u, 11u, 19u, 21u, 39u, 40u, 45u}) {
      for (const std::size_t limit : {0u, 1u, 2u, 5u, 9u, 10u, 11u, 30u, 50u}) {
        const std::string sql = select + " ORDER BY " + order + " LIMIT " +
                                std::to_string(limit) + " OFFSET " + std::to_string(offset);
        const std::size_t begin = std::min(offset, all.size());
        const std::size_t end = std::min(begin + limit, all.size());
        const std::vector<Row> expected(all.begin() + static_cast<std::ptrdiff_t>(begin),
                                        all.begin() + static_cast<std::ptrdiff_t>(end));
        EXPECT_EQ(exec_.query(sql).resultSet.rows, expected) << sql;
      }
    }
  }

  Database db_;
  Executor exec_;
};

// Columns of the probes below: 0 id, 1 k, 2 j.
bool kAsc(const Row& a, const Row& b) { return a[1] < b[1]; }
bool kDesc(const Row& a, const Row& b) { return a[1] > b[1]; }
bool kDescJAsc(const Row& a, const Row& b) {
  if (a[1] != b[1]) return a[1] > b[1];
  return a[2] < b[2];
}

TEST_F(WindowTest, WindowsInsideEqualKeysMatchAStableSortOfAScan) {
  const std::string select = "SELECT id, k, j FROM w";
  expectStableWindows(select, "k", kAsc);
  expectStableWindows(select, "k DESC", kDesc);
  expectStableWindows(select, "k DESC, j", kDescJAsc);
}

TEST_F(WindowTest, WindowsInsideEqualKeysMatchAStableSortOfAnIndexWalk) {
  // Without ORDER BY an index walk streams its candidates out of RowId
  // order: an IN list key by key in list order, a range in value order.
  // Ties keep that order. The 22 g = 1 rows are ids 4, 10 and the odd ones.
  const struct {
    const char* select;
    std::size_t id1At, id2At;  // positions of the first g = 1 and g = 0 rows
  } walks[] = {{"SELECT id, k, j FROM w WHERE g IN (1, 0)", 0, 22},
               {"SELECT id, k, j FROM w WHERE g >= 0", 18, 0}};
  for (const auto& walk : walks) {
    const std::string select = walk.select;
    const auto probe = exec_.query(select).resultSet;
    ASSERT_EQ(probe.rowCount(), 40u) << select;
    EXPECT_EQ(probe.intAt(walk.id1At, "id"), 1) << select;
    EXPECT_EQ(probe.intAt(walk.id2At, "id"), 2) << select;
    expectStableWindows(select, "k", kAsc);
    expectStableWindows(select, "k DESC", kDesc);
    expectStableWindows(select, "k DESC, j", kDescJAsc);
  }
}

TEST_F(WindowTest, EveryCandidateCountsAsSorted) {
  struct Case {
    const char* sql;
    std::uint64_t sorted;
    std::uint64_t returned;
  };
  const Case cases[] = {
      {"SELECT id FROM w ORDER BY k LIMIT 3", 40, 3},
      {"SELECT id FROM w WHERE g = 1 ORDER BY k DESC LIMIT 2 OFFSET 5", 22, 2},
      {"SELECT id FROM w WHERE j = 0 ORDER BY k, id LIMIT 4", 13, 4},
      // DISTINCT rows are counted after deduplication.
      {"SELECT DISTINCT k FROM w ORDER BY k LIMIT 1", 4, 1},
      {"SELECT k, COUNT(*) AS c FROM w GROUP BY k ORDER BY c DESC, k LIMIT 1", 4, 1},
      // The ten k = 0 rows (ids 4, 8, ...) find no b.id = 0.
      {"SELECT a.id FROM w a JOIN w b ON b.id = a.k ORDER BY a.j LIMIT 1", 30, 1},
      // Empty windows: LIMIT 0 and an OFFSET at or past the end.
      {"SELECT id FROM w ORDER BY k LIMIT 0", 40, 0},
      {"SELECT id FROM w ORDER BY k LIMIT 5 OFFSET 40", 40, 0},
      {"SELECT id FROM w ORDER BY k DESC, j LIMIT 5 OFFSET 100", 40, 0},
      {"SELECT a.id FROM w a JOIN w b ON b.id = a.k ORDER BY a.j LIMIT 0", 30, 0},
      {"SELECT k, COUNT(*) AS c FROM w GROUP BY k ORDER BY c LIMIT 3 OFFSET 4", 4, 0},
  };
  for (const Case& c : cases) {
    const auto r = exec_.query(c.sql);
    EXPECT_EQ(r.stats.rowsSorted, c.sorted) << c.sql;
    EXPECT_EQ(r.stats.rowsReturned, c.returned) << c.sql;
    EXPECT_EQ(r.resultSet.rowCount(), c.returned) << c.sql;
  }
  // The rows examined do not depend on the window.
  EXPECT_EQ(exec_.query("SELECT id FROM w ORDER BY k LIMIT 0").stats.rowsExamined,
            exec_.query("SELECT id FROM w ORDER BY k").stats.rowsExamined);
}

TEST_F(WindowTest, ElidedSortExaminesEveryRowOfTheBlocksItStarts) {
  // Without bounds the index walk stands in for a full scan and its sort,
  // and examines each equal-key block it starts whole (18 rows hold g = 0,
  // 22 hold g = 1). Within bounds it examines only the rows it reaches.
  const struct {
    const char* sql;
    std::uint64_t examined;
  } cases[] = {
      {"SELECT id FROM w ORDER BY g LIMIT 1", 18},
      {"SELECT id FROM w ORDER BY g LIMIT 19", 40},
      {"SELECT id FROM w ORDER BY g DESC LIMIT 1", 22},
      {"SELECT id FROM w WHERE g >= 0 ORDER BY g LIMIT 1", 1},
      {"SELECT id FROM w WHERE g >= 0 ORDER BY g DESC LIMIT 1", 1},
  };
  for (const auto& c : cases) {
    const auto r = exec_.query(c.sql);
    EXPECT_EQ(r.stats.rowsSorted, 0u) << c.sql;
    EXPECT_EQ(r.stats.rowsExamined, c.examined) << c.sql;
  }
}

TEST_F(WindowTest, SelectListIsEvaluatedOnlyForTheWindow) {
  // Every s but row 40's becomes NULL, so `s + 1` fails on row 40 only.
  exec_.query("UPDATE w SET s = NULL WHERE id < 40");
  auto r = exec_.query("SELECT s + 1 AS t FROM w ORDER BY id LIMIT 1");
  ASSERT_EQ(r.resultSet.rowCount(), 1u);
  EXPECT_TRUE(r.resultSet.at(0, "t").isNull());
  r = exec_.query("SELECT a.s + 1 AS t FROM w a JOIN w b ON b.id = a.id ORDER BY a.id LIMIT 2");
  EXPECT_EQ(r.resultSet.rowCount(), 2u);
  // A window that holds row 40 still throws.
  EXPECT_THROW(exec_.query("SELECT s + 1 AS t FROM w ORDER BY id LIMIT 1 OFFSET 39"),
               std::runtime_error);
  EXPECT_THROW(exec_.query("SELECT s + 1 AS t FROM w ORDER BY id DESC LIMIT 1"),
               std::runtime_error);
  // Sort keys are evaluated for every candidate, so a failing key throws
  // whatever the window.
  EXPECT_THROW(exec_.query("SELECT id FROM w ORDER BY s + 1 LIMIT 1"), std::runtime_error);
  EXPECT_THROW(exec_.query("SELECT s + 1 AS t FROM w ORDER BY t LIMIT 1"), std::runtime_error);
}

}  // namespace
}  // namespace mwsim::db
