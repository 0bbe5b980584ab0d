#include "db/table.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace mwsim::db {

namespace {

std::size_t rowBytes(std::span<const Value> row) {
  std::size_t n = 0;
  for (const Value& v : row) n += v.byteSize() + 8;
  return n;
}

}  // namespace

Table::Pages::Pages(const Pages& other) : width_(other.width_), size_(other.size_) {
  pages_.reserve(other.pages_.size());
  for (const std::vector<Value>& page : other.pages_) {
    pages_.emplace_back().reserve(kPageRows * width_);
    pages_.back().insert(pages_.back().end(), page.begin(), page.end());
  }
}

void Table::Pages::append(Row&& row) {
  if (size_ % kPageRows == 0) pages_.emplace_back().reserve(kPageRows * width_);
  std::vector<Value>& page = pages_.back();
  page.insert(page.end(), std::make_move_iterator(row.begin()),
              std::make_move_iterator(row.end()));
  ++size_;
}

void Table::Pages::popBack() {
  if (--size_ % kPageRows == 0) {
    pages_.pop_back();
    return;
  }
  std::vector<Value>& page = pages_.back();
  page.erase(page.end() - static_cast<std::ptrdiff_t>(width_), page.end());
}

Table::Table(TableSchema schema) : schema_(std::move(schema)), rows_(schema_.columns.size()) {
  for (std::size_t c : schema_.secondaryIndexes) secondary_.try_emplace(c);
}

void Table::throwKeysDisabled(const char* call) const {
  throw std::logic_error(std::string(call) + " on " + schema_.name +
                         " while its keys are disabled");
}

void Table::checkpoint() {
  requireKeys("checkpoint");
  logging_ = true;
  undo_.clear();
}

void Table::rollback() {
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) undo(*it);
  undo_.clear();
}

void Table::disableKeys() {
  if (logging_) {
    throw std::logic_error("disableKeys on " + schema_.name + " after a checkpoint");
  }
  keysDisabled_ = true;
}

void Table::enableKeys() {
  if (!keysDisabled_) return;
  for (auto& [column, index] : secondary_) index.assign(sortedEntries(column));
  keysDisabled_ = false;
}

// Entries are gathered in RowId order and sorted by (key, RowId), the index
// order, so the sort needs no stability. An all-int column sorts 16-byte
// pairs instead of Values.
std::vector<IndexEntry> Table::sortedEntries(std::size_t column) const {
  std::vector<IndexEntry> entries;
  entries.reserve(liveRows_);
  bool allInt = true;
  forEachRow([&](RowId id) { allInt = allInt && rows_.row(id)[column].isInt(); });
  if (allInt) {
    struct IntEntry {
      std::int64_t key;
      RowId id;
    };
    std::vector<IntEntry> ints;
    ints.reserve(liveRows_);
    forEachRow([&](RowId id) { ints.push_back({rows_.row(id)[column].asInt(), id}); });
    std::sort(ints.begin(), ints.end(), [](const IntEntry& a, const IntEntry& b) {
      return a.key < b.key || (a.key == b.key && a.id < b.id);
    });
    for (const IntEntry& e : ints) entries.push_back({Value(e.key), e.id});
  } else {
    forEachRow([&](RowId id) { entries.push_back({rows_.row(id)[column], id}); });
    std::sort(entries.begin(), entries.end(), [](const IndexEntry& a, const IndexEntry& b) {
      const int c = a.key.compare(b.key);
      return c < 0 || (c == 0 && a.id < b.id);
    });
  }
  return entries;
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
    if (pk_.find(key, pkKeyOf())) {
      throw std::runtime_error("duplicate primary key in " + schema_.name + ": " +
                               key.toDisplayString());
    }
    keyOut = key.isInt() ? key.asInt() : 0;
    lastInsertId_ = keyOut;
  }
  const RowId id = static_cast<RowId>(rows_.size());
  approxBytes_ += rowBytes(row);
  rows_.append(std::move(row));
  tombstone_.push_back(false);
  ++liveRows_;
  indexInsert(id);
  if (logging_) undo_.push_back({.kind = Undo::Kind::Append, .id = id});
  return keyOut;
}

std::optional<RowId> Table::findByPk(const Value& key) const {
  if (!schema_.primaryKey) return std::nullopt;
  return pk_.find(key, pkKeyOf());
}

bool Table::hasIndexOn(std::size_t column) const {
  return secondary_.contains(column);
}

// The pk index reads its keys from the cells, so the old key leaves it while
// the cell still holds it, and the new key enters once the cell holds it.
void Table::updateCell(RowId id, std::size_t column, Value v) {
  requireKeys("updateCell");
  if (!isLive(id)) throw std::runtime_error("update of dead row");
  Value& cell = rows_.cell(id, column);
  const bool pkCol = isPrimaryKeyColumn(column);
  if (pkCol) {
    if (cell == v) return;
    if (pk_.find(v, pkKeyOf())) {
      throw std::runtime_error("duplicate primary key on update in " + schema_.name);
    }
    pk_.erase(id, pkKeyOf());
  }
  if (auto sec = secondary_.find(column); sec != secondary_.end()) {
    sec->second.erase(cell, id);
    sec->second.insert(v, id);
  }
  approxBytes_ -= cell.byteSize();
  approxBytes_ += v.byteSize();
  if (logging_) {
    undo_.push_back(
        {.kind = Undo::Kind::Update, .id = id, .column = column, .old = std::move(cell)});
  }
  cell = std::move(v);
  if (pkCol) pk_.insert(id, pkKeyOf());
}

void Table::erase(RowId id) {
  requireKeys("erase");
  if (!isLive(id)) return;
  indexErase(id);
  approxBytes_ -= rowBytes(rows_.row(id));
  tombstone_[id] = true;
  --liveRows_;
  if (logging_) undo_.push_back({.kind = Undo::Kind::Erase, .id = id});
}

void Table::indexInsert(RowId id) {
  if (schema_.primaryKey) pk_.insert(id, pkKeyOf());
  if (keysDisabled_) return;
  const std::span<const Value> row = rows_.row(id);
  for (auto& [col, index] : secondary_) index.insert(row[col], id);
}

void Table::indexErase(RowId id) {
  if (schema_.primaryKey) pk_.erase(id, pkKeyOf());
  const std::span<const Value> row = rows_.row(id);
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
      approxBytes_ -= rowBytes(rows_.row(u.id));
      rows_.popBack();
      tombstone_.pop_back();
      --liveRows_;
      return;
    case Undo::Kind::Update: {
      Value& cell = rows_.cell(u.id, u.column);
      const bool pkCol = isPrimaryKeyColumn(u.column);
      if (pkCol) pk_.erase(u.id, pkKeyOf());
      if (auto sec = secondary_.find(u.column); sec != secondary_.end()) {
        sec->second.erase(cell, u.id);
        sec->second.insert(u.old, u.id);
      }
      approxBytes_ -= cell.byteSize();
      approxBytes_ += u.old.byteSize();
      cell = std::move(u.old);
      if (pkCol) pk_.insert(u.id, pkKeyOf());
      return;
    }
    case Undo::Kind::Erase:
      indexInsert(u.id);
      approxBytes_ += rowBytes(rows_.row(u.id));
      tombstone_[u.id] = false;
      ++liveRows_;
      return;
  }
}

}  // namespace mwsim::db
