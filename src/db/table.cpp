#include "db/table.hpp"

#include <stdexcept>

namespace mwsim::db {

namespace {

std::size_t rowBytes(const Row& row) {
  std::size_t n = 0;
  for (const Value& v : row) n += v.byteSize() + 8;
  return n;
}

}  // namespace

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  for (std::size_t c : schema_.secondaryIndexes) secondary_.try_emplace(c);
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
  if (auto sec = secondary_.find(column); sec != secondary_.end()) {
    sec->second.erase(row[column], id);
    sec->second.insert(v, id);
  }
  approxBytes_ -= row[column].byteSize();
  approxBytes_ += v.byteSize();
  if (logging_) {
    undo_.push_back({.kind = Undo::Kind::Update,
                     .id = id,
                     .column = column,
                     .old = std::move(row[column])});
  }
  row[column] = std::move(v);
}

void Table::erase(RowId id) {
  if (!isLive(id)) return;
  indexErase(id);
  approxBytes_ -= rowBytes(rows_[id]);
  tombstone_[id] = true;
  --liveRows_;
  if (logging_) undo_.push_back({.kind = Undo::Kind::Erase, .id = id});
}

void Table::indexInsert(RowId id) {
  const Row& row = rows_[id];
  if (schema_.primaryKey) pkIndex_.emplace(row[*schema_.primaryKey], id);
  for (auto& [col, index] : secondary_) index.insert(row[col], id);
}

void Table::indexErase(RowId id) {
  const Row& row = rows_[id];
  if (schema_.primaryKey) pkIndex_.erase(row[*schema_.primaryKey]);
  for (auto& [col, index] : secondary_) index.erase(row[col], id);
}

// Undo runs newest first, so each entry finds the table exactly as its write
// left it. An index entry's place follows from its (key, RowId), so putting
// the entries back restores every index's order.
void Table::undo(Undo& u) {
  switch (u.kind) {
    case Undo::Kind::Counters:
      nextAutoId_ = u.nextAutoId;
      lastInsertId_ = u.lastInsertId;
      return;
    case Undo::Kind::Append:
      indexErase(u.id);
      approxBytes_ -= rowBytes(rows_.back());
      rows_.pop_back();
      tombstone_.pop_back();
      --liveRows_;
      return;
    case Undo::Kind::Update: {
      Value& cell = rows_[u.id][u.column];
      if (isPrimaryKeyColumn(u.column)) {
        pkIndex_.erase(cell);
        pkIndex_.emplace(u.old, u.id);
      }
      if (auto sec = secondary_.find(u.column); sec != secondary_.end()) {
        sec->second.erase(cell, u.id);
        sec->second.insert(u.old, u.id);
      }
      approxBytes_ -= cell.byteSize();
      approxBytes_ += u.old.byteSize();
      cell = std::move(u.old);
      return;
    }
    case Undo::Kind::Erase:
      indexInsert(u.id);
      approxBytes_ += rowBytes(rows_[u.id]);
      tombstone_[u.id] = false;
      ++liveRows_;
      return;
  }
}

}  // namespace mwsim::db
