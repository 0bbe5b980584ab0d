#include "db/table.hpp"

#include <iterator>
#include <stdexcept>

namespace mwsim::db {

namespace {

using Index = std::multimap<Value, RowId>;

std::size_t rowBytes(const Row& row) {
  std::size_t n = 0;
  for (const Value& v : row) n += v.byteSize() + 8;
  return n;
}

/// Removes row `id`'s entry from `key`'s equal range and returns its rank
/// there (0 = first).
std::size_t eraseEntry(Index& index, const Value& key, RowId id) {
  auto [it, end] = index.equal_range(key);
  for (std::size_t rank = 0; it != end; ++it, ++rank) {
    if (it->second == id) {
      index.erase(it);
      return rank;
    }
  }
  throw std::logic_error("secondary index has no entry for a live row");
}

/// Removes row `id`'s entry from `key`'s equal range, searching from the
/// back: emplace put an inserted or updated row's entry last in its range.
void eraseNewestEntry(Index& index, const Value& key, RowId id) {
  auto [lo, it] = index.equal_range(key);
  while (it != lo) {
    if ((--it)->second == id) {
      index.erase(it);
      return;
    }
  }
  throw std::logic_error("secondary index has no entry for a live row");
}

/// Inverse of eraseEntry: puts the entry back at `rank` in its equal range.
void insertEntry(Index& index, const Value& key, RowId id, std::size_t rank) {
  auto it = index.lower_bound(key);
  std::advance(it, static_cast<std::ptrdiff_t>(rank));
  index.emplace_hint(it, key, id);  // lands right before `it`
}

}  // namespace

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  for (std::size_t c : schema_.secondaryIndexes) {
    secondary_.emplace(c, std::multimap<Value, RowId>{});
  }
}

void Table::checkpoint() {
  logging_ = true;
  undo_.clear();
}

void Table::rollback() {
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) undo(*it);
  undo_.clear();
}

std::int64_t Table::insert(Row row) {
  if (row.size() != schema_.columns.size()) {
    throw std::runtime_error("INSERT into " + schema_.name + ": expected " +
                             std::to_string(schema_.columns.size()) + " values, got " +
                             std::to_string(row.size()));
  }
  // Logged first: the counters can move before the duplicate-key throw.
  if (logging_) {
    undo_.push_back({.kind = Undo::Kind::Counters,
                     .nextAutoId = nextAutoId_,
                     .lastInsertId = lastInsertId_});
  }
  std::int64_t keyOut = 0;
  if (schema_.primaryKey) {
    Value& key = row[*schema_.primaryKey];
    if (key.isNull()) {
      if (!schema_.autoIncrement) {
        throw std::runtime_error("NULL primary key in " + schema_.name);
      }
      key = Value(nextAutoId_++);
    } else if (key.isInt() && key.asInt() >= nextAutoId_) {
      nextAutoId_ = key.asInt() + 1;
    }
    if (pkIndex_.contains(key)) {
      throw std::runtime_error("duplicate primary key in " + schema_.name + ": " +
                               key.toDisplayString());
    }
    keyOut = key.isInt() ? key.asInt() : 0;
    lastInsertId_ = keyOut;
  }
  const RowId id = static_cast<RowId>(rows_.size());
  approxBytes_ += rowBytes(row);
  rows_.push_back(std::move(row));
  tombstone_.push_back(false);
  ++liveRows_;
  indexInsert(id);
  if (logging_) undo_.push_back({.kind = Undo::Kind::Append, .id = id});
  return keyOut;
}

std::optional<RowId> Table::findByPk(const Value& key) const {
  if (!schema_.primaryKey) return std::nullopt;
  auto it = pkIndex_.find(key);
  if (it == pkIndex_.end()) return std::nullopt;
  return it->second;
}

bool Table::hasIndexOn(std::size_t column) const {
  return secondary_.contains(column);
}

void Table::updateCell(RowId id, std::size_t column, Value v) {
  if (!isLive(id)) throw std::runtime_error("update of dead row");
  Row& row = rows_[id];
  const bool pkCol = isPrimaryKeyColumn(column);
  if (pkCol) {
    if (row[column] == v) return;
    if (pkIndex_.contains(v)) {
      throw std::runtime_error("duplicate primary key on update in " + schema_.name);
    }
    pkIndex_.erase(row[column]);
    pkIndex_.emplace(v, id);
  }
  std::size_t rank = 0;
  auto sec = secondary_.find(column);
  if (sec != secondary_.end()) {
    // The entry moves to the end of v's range, even when v equals the old key.
    rank = eraseEntry(sec->second, row[column], id);
    sec->second.emplace(v, id);
  }
  approxBytes_ -= row[column].byteSize();
  approxBytes_ += v.byteSize();
  if (logging_) {
    undo_.push_back({.kind = Undo::Kind::Update,
                     .id = id,
                     .column = column,
                     .old = std::move(row[column]),
                     .ranks = {rank}});
  }
  row[column] = std::move(v);
}

void Table::erase(RowId id) {
  if (!isLive(id)) return;
  std::vector<std::size_t> ranks = indexErase(id);
  approxBytes_ -= rowBytes(rows_[id]);
  tombstone_[id] = true;
  --liveRows_;
  if (logging_) {
    undo_.push_back({.kind = Undo::Kind::Erase, .id = id, .ranks = std::move(ranks)});
  }
}

void Table::indexInsert(RowId id) {
  const Row& row = rows_[id];
  if (schema_.primaryKey) pkIndex_.emplace(row[*schema_.primaryKey], id);
  for (auto& [col, index] : secondary_) index.emplace(row[col], id);
}

std::vector<std::size_t> Table::indexErase(RowId id) {
  const Row& row = rows_[id];
  if (schema_.primaryKey) pkIndex_.erase(row[*schema_.primaryKey]);
  std::vector<std::size_t> ranks;
  ranks.reserve(secondary_.size());
  for (auto& [col, index] : secondary_) ranks.push_back(eraseEntry(index, row[col], id));
  return ranks;
}

// Undo runs newest first, so each entry finds the table exactly as its write
// left it: an appended or updated entry is still last in its key range, and
// every rank counts the same neighbours it was taken among.
void Table::undo(Undo& u) {
  switch (u.kind) {
    case Undo::Kind::Counters:
      nextAutoId_ = u.nextAutoId;
      lastInsertId_ = u.lastInsertId;
      return;
    case Undo::Kind::Append: {
      const Row& row = rows_.back();
      if (schema_.primaryKey) pkIndex_.erase(row[*schema_.primaryKey]);
      for (auto& [col, index] : secondary_) eraseNewestEntry(index, row[col], u.id);
      approxBytes_ -= rowBytes(row);
      rows_.pop_back();
      tombstone_.pop_back();
      --liveRows_;
      return;
    }
    case Undo::Kind::Update: {
      Value& cell = rows_[u.id][u.column];
      if (isPrimaryKeyColumn(u.column)) {
        pkIndex_.erase(cell);
        pkIndex_.emplace(u.old, u.id);
      }
      if (auto sec = secondary_.find(u.column); sec != secondary_.end()) {
        eraseNewestEntry(sec->second, cell, u.id);
        insertEntry(sec->second, u.old, u.id, u.ranks.front());
      }
      approxBytes_ -= cell.byteSize();
      approxBytes_ += u.old.byteSize();
      cell = std::move(u.old);
      return;
    }
    case Undo::Kind::Erase: {
      const Row& row = rows_[u.id];
      if (schema_.primaryKey) pkIndex_.emplace(row[*schema_.primaryKey], u.id);
      std::size_t i = 0;
      for (auto& [col, index] : secondary_) insertEntry(index, row[col], u.id, u.ranks[i++]);
      approxBytes_ += rowBytes(row);
      tombstone_[u.id] = false;
      ++liveRows_;
      return;
    }
  }
}

}  // namespace mwsim::db
