#pragma once

// Observable equality of two db::Table values, shared by the engine's and
// the apps' tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "db/table.hpp"

namespace mwsim::db {

/// Equal values of the same type (Value's == equates 1 and 1.0).
inline bool sameValue(const Value& a, const Value& b) {
  return a.isNull() == b.isNull() && a.isInt() == b.isInt() &&
         a.isDouble() == b.isDouble() && a.compare(b) == 0;
}

/// Every observable of two tables: rows with their value types and
/// liveness, the (key, RowId) order of every secondary index, pk lookups,
/// and the counters.
inline void expectSameTable(const Table& a, const Table& b) {
  ASSERT_EQ(a.rowSlots(), b.rowSlots());
  for (RowId id = 0; id < a.rowSlots(); ++id) {
    ASSERT_EQ(a.isLive(id), b.isLive(id)) << "row " << id;
    ASSERT_EQ(a.row(id).size(), b.row(id).size());
    for (std::size_t c = 0; c < a.row(id).size(); ++c) {
      EXPECT_TRUE(sameValue(a.row(id)[c], b.row(id)[c])) << "row " << id << " column " << c;
    }
  }
  for (const std::size_t c : a.schema().secondaryIndexes) {
    const OrderedIndex& ia = *a.orderedIndex(c);
    const OrderedIndex& ib = *b.orderedIndex(c);
    ASSERT_EQ(ia.size(), ib.size()) << "index on column " << c;
    for (auto x = ia.begin(), y = ib.begin(); x != ia.end(); ++x, ++y) {
      ASSERT_TRUE(sameValue(x->key, y->key) && x->id == y->id)
          << "index on column " << c << " differs at key " << x->key.toDisplayString();
    }
  }
  EXPECT_EQ(a.pkIndexSize(), b.pkIndexSize());
  if (a.schema().primaryKey) {
    const std::size_t pk = *a.schema().primaryKey;
    for (RowId id = 0; id < a.rowSlots(); ++id) {
      for (const Table* t : {&a, &b}) {
        const Value& key = t->row(id)[pk];
        EXPECT_EQ(a.findByPk(key), b.findByPk(key)) << "pk " << key.toDisplayString();
      }
    }
  }
  for (std::int64_t k = 0; k <= std::max(a.maxAssignedId(), b.maxAssignedId()) + 1; ++k) {
    EXPECT_EQ(a.findByPk(Value(k)), b.findByPk(Value(k))) << "pk " << k;
  }
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.approxBytes(), b.approxBytes());
  EXPECT_EQ(a.lastInsertId(), b.lastInsertId());
  EXPECT_EQ(a.maxAssignedId(), b.maxAssignedId());
}

}  // namespace mwsim::db
