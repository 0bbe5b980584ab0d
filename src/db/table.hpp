#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/ordered_index.hpp"
#include "db/schema.hpp"
#include "db/value.hpp"

namespace mwsim::db {

using Row = std::vector<Value>;

/// Heap-organized table with a unique hash index on the primary key and
/// ordered secondary indexes (OrderedIndex: (key, RowId) order) for range
/// scans.
///
/// Rows are stored in a stable vector; deletes tombstone the slot. RowIds
/// are stable for the lifetime of the row.
class Table {
 public:
  explicit Table(TableSchema schema);
  Table& operator=(const Table&) = delete;

  /// Exact deep copy — rows, tombstones, indexes, auto-increment state and
  /// undo log — so a cloned table behaves identically to one repopulated
  /// from the same seed. Used by the dataset cache to stamp out per-run
  /// databases.
  std::unique_ptr<Table> clone() const {
    return std::unique_ptr<Table>(new Table(*this));
  }

  /// Makes the current content the state rollback() returns to: from here
  /// on, insert, updateCell and erase record what they change, including a
  /// write that throws part way. Discards any earlier record.
  void checkpoint();

  /// Undoes every write since checkpoint(), newest first, and keeps
  /// recording. The table is then state-identical to the checkpoint: the
  /// same rows (value types included), tombstones, pk map, auto-increment
  /// state, and the same entries, in the same order, in every secondary
  /// index. Without a checkpoint there is nothing to undo.
  void rollback();

  const TableSchema& schema() const noexcept { return schema_; }
  const std::string& name() const noexcept { return schema_.name; }

  /// Number of live rows.
  std::size_t size() const noexcept { return liveRows_; }

  /// Row slots, live and tombstoned: RowIds run from 0 to rowSlots() - 1.
  std::size_t rowSlots() const noexcept { return rows_.size(); }

  /// Inserts a row. If the table has an auto-increment key and the key slot
  /// is NULL, a fresh id is assigned. Returns the id of the inserted row's
  /// primary key (or 0 when the table has none).
  std::int64_t insert(Row row);

  /// Looks up by primary key. Returns nullopt if absent.
  std::optional<RowId> findByPk(const Value& key) const;

  /// Visits, in index order (which is RowId order within one key), the ids
  /// of the rows whose indexed column equals `key`, reading the index in
  /// place. Stops as soon as `fn` returns false, and then returns false.
  /// Throws when the column carries no secondary index.
  template <typename Fn>
  bool forEachIndexEq(std::size_t column, const Value& key, Fn&& fn) const {
    const OrderedIndex* index = orderedIndex(column);
    if (index == nullptr) throw std::runtime_error("no index on column");
    for (auto it = index->lowerBound(key), end = index->end(); it != end && it->key == key;
         ++it) {
      if (!fn(it->id)) return false;
    }
    return true;
  }

  bool hasIndexOn(std::size_t column) const;
  bool isPrimaryKeyColumn(std::size_t column) const {
    return schema_.primaryKey && *schema_.primaryKey == column;
  }

  const Row& row(RowId id) const { return rows_[id]; }
  bool isLive(RowId id) const { return id < rows_.size() && !tombstone_[id]; }

  /// Updates one column of one row, maintaining indexes: the row's entry
  /// takes its RowId's place among the new key's entries.
  void updateCell(RowId id, std::size_t column, Value v);

  /// Tombstones a row and removes it from all indexes.
  void erase(RowId id);

  /// Visits every live row id in storage order.
  template <typename Fn>
  void forEachRow(Fn&& fn) const {
    for (RowId id = 0; id < rows_.size(); ++id) {
      if (!tombstone_[id]) fn(id);
    }
  }

  /// Like forEachRow, but stops as soon as `fn` returns false — so a scan
  /// feeding LIMIT can quit without touching (or charging for) the rest of
  /// the table.
  template <typename Fn>
  void forEachRowWhile(Fn&& fn) const {
    for (RowId id = 0; id < rows_.size(); ++id) {
      if (!tombstone_[id] && !fn(id)) return;
    }
  }

  std::int64_t lastInsertId() const noexcept { return lastInsertId_; }

  /// Approximate bytes held by live rows (for the resource-usage benches).
  std::size_t approxBytes() const noexcept { return approxBytes_; }

  /// Average live-row width in bytes (for scan costing).
  std::size_t avgRowBytes() const noexcept {
    return liveRows_ ? approxBytes_ / liveRows_ : 0;
  }

  /// Largest auto-increment key handed out so far (0 if none). Used for the
  /// O(1) MAX(pk) fast path, mirroring MySQL's index-based MIN/MAX.
  std::int64_t maxAssignedId() const noexcept { return nextAutoId_ - 1; }

  /// Direct read access to a secondary index's ordered entries, for range
  /// and ordered-index scans and indexed MIN/MAX. Null when the column
  /// carries no index.
  const OrderedIndex* orderedIndex(std::size_t column) const {
    auto it = secondary_.find(column);
    return it == secondary_.end() ? nullptr : &it->second;
  }

 private:
  Table(const Table&) = default;  // via clone() only

  /// One write recorded after checkpoint(), with what undoing it needs.
  struct Undo {
    enum class Kind : std::uint8_t {
      Counters,  // insert: restore nextAutoId_ and lastInsertId_
      Append,    // insert: drop the row it appended
      Update,    // updateCell: put `old` back into (id, column)
      Erase,     // erase: revive the row
    };
    Kind kind = Kind::Counters;
    RowId id = 0;
    std::size_t column = 0;
    Value old{};
    std::int64_t nextAutoId = 0;
    std::int64_t lastInsertId = 0;
  };

  void indexInsert(RowId id);
  void indexErase(RowId id);
  void undo(Undo& u);

  TableSchema schema_;
  std::vector<Row> rows_;
  std::vector<bool> tombstone_;
  std::size_t liveRows_ = 0;
  std::size_t approxBytes_ = 0;

  std::unordered_map<Value, RowId, ValueHash> pkIndex_;
  // column index -> its secondary index
  std::map<std::size_t, OrderedIndex> secondary_;
  std::int64_t nextAutoId_ = 1;
  std::int64_t lastInsertId_ = 0;

  bool logging_ = false;  // set by checkpoint()
  std::vector<Undo> undo_;
};

}  // namespace mwsim::db
