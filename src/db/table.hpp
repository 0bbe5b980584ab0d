#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "db/ordered_index.hpp"
#include "db/schema.hpp"
#include "db/value.hpp"

namespace mwsim::db {

using Row = std::vector<Value>;

/// A unique hash index whose slots hold RowIds: open addressing with linear
/// probing from a Fibonacci mix of Value::hash(), at most half full, and
/// backward-shift deletion, so there are no tombstones. It stores no keys: a
/// slot's key is its row's key cell, which the caller's `keyOf(RowId)`
/// reads, so the cell must hold the key from insert() to erase(). A copy
/// copies one array.
class PkIndex {
 public:
  static constexpr RowId kEmpty = std::numeric_limits<RowId>::max();

  std::size_t size() const noexcept { return size_; }
  /// Number of slots: zero, or a power of two at least twice size().
  std::size_t capacity() const noexcept { return slots_.size(); }
  /// The slot a probe for `key` starts at. The capacity must not be zero.
  std::size_t home(const Value& key) const {
    return (key.hash() * 0x9E3779B97F4A7C15ull) >> shift_;
  }

  template <typename KeyOf>
  std::optional<RowId> find(const Value& key, const KeyOf& keyOf) const {
    if (size_ == 0) return std::nullopt;
    for (std::size_t s = home(key);; s = (s + 1) & mask()) {
      const RowId id = slots_[s];
      if (id == kEmpty) return std::nullopt;
      if (keyOf(id) == key) return id;
    }
  }

  /// Adds row `id`, whose key the index does not hold yet.
  template <typename KeyOf>
  void insert(RowId id, const KeyOf& keyOf) {
    if (2 * (size_ + 1) > slots_.size()) {
      const std::size_t capacity = std::max<std::size_t>(16, 2 * slots_.size());
      const std::vector<RowId> old = std::exchange(slots_, std::vector<RowId>(capacity, kEmpty));
      shift_ = 64 - std::countr_zero(capacity);
      for (const RowId moved : old) {
        if (moved != kEmpty) place(moved, keyOf);
      }
    }
    place(id, keyOf);
    ++size_;
  }

  /// Removes row `id`. Each later entry of the probe run that may sit in
  /// the freed slot moves back into it. Throws std::logic_error when the
  /// index does not hold the row under its key.
  template <typename KeyOf>
  void erase(RowId id, const KeyOf& keyOf) {
    if (size_ == 0) throwMissing();
    std::size_t hole = home(keyOf(id));
    for (; slots_[hole] != id; hole = (hole + 1) & mask()) {
      if (slots_[hole] == kEmpty) throwMissing();
    }
    for (std::size_t s = (hole + 1) & mask(); slots_[s] != kEmpty; s = (s + 1) & mask()) {
      // The entry at s may move to the hole when the hole lies on its probe
      // path: no farther from its home than s is.
      if (((s - home(keyOf(slots_[s]))) & mask()) >= ((s - hole) & mask())) {
        slots_[hole] = slots_[s];
        hole = s;
      }
    }
    slots_[hole] = kEmpty;
    --size_;
  }

 private:
  [[noreturn]] static void throwMissing() {
    throw std::logic_error("pk index has no entry for a live row");
  }
  std::size_t mask() const noexcept { return slots_.size() - 1; }
  template <typename KeyOf>
  void place(RowId id, const KeyOf& keyOf) {
    std::size_t s = home(keyOf(id));
    while (slots_[s] != kEmpty) s = (s + 1) & mask();
    slots_[s] = id;
  }

  std::vector<RowId> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;
};

/// Heap-organized table with a unique hash index on the primary key and
/// ordered secondary indexes (OrderedIndex: (key, RowId) order) for range
/// scans.
///
/// Rows are stored in pages of kPageRows rows, each page one block of cells
/// reserved to its full size, so an append never moves a cell; deletes
/// tombstone the slot. RowIds are stable for the lifetime of the row.
///
/// Like MyISAM's ALTER TABLE ... DISABLE KEYS, disableKeys() lets a bulk
/// load append rows without keeping the secondary indexes in order, and
/// enableKeys() then builds each of them by one sort.
class Table {
 public:
  explicit Table(TableSchema schema);
  Table& operator=(const Table&) = delete;

  /// Exact deep copy — rows, tombstones, indexes, auto-increment state and
  /// undo log — so a cloned table behaves identically to one repopulated
  /// from the same seed. Used by the dataset cache to stamp out per-run
  /// databases.
  std::unique_ptr<Table> clone() const {
    requireKeys("clone");
    return std::unique_ptr<Table>(new Table(*this));
  }

  /// Makes the current content the state rollback() returns to: from here
  /// on, insert, updateCell and erase record what they change, including a
  /// write that throws part way. Discards any earlier record.
  void checkpoint();

  /// Stops maintaining the secondary indexes: until enableKeys(), insert
  /// keeps only the primary key, and every call that would read or write a
  /// secondary index (orderedIndex, forEachIndexEq, updateCell, erase,
  /// checkpoint, clone) throws std::logic_error. Throws std::logic_error on
  /// a checkpointed table.
  void disableKeys();

  /// Rebuilds every secondary index from the live rows by one sort, and
  /// maintains them again. The indexes are then entry for entry what
  /// inserting the rows one at a time builds. Does nothing while keys are
  /// enabled.
  void enableKeys();

  /// Undoes every write since checkpoint(), newest first, and keeps
  /// recording. The table is then state-identical to the checkpoint: the
  /// same rows (value types included), tombstones, pk lookups, auto-increment
  /// state, and the same entries, in the same order, in every secondary
  /// index. Without a checkpoint there is nothing to undo.
  void rollback();

  const TableSchema& schema() const noexcept { return schema_; }
  const std::string& name() const noexcept { return schema_.name; }

  /// Number of live rows.
  std::size_t size() const noexcept { return liveRows_; }

  /// Row slots, live and tombstoned: RowIds run from 0 to rowSlots() - 1.
  std::size_t rowSlots() const noexcept { return rows_.size(); }

  /// Entries of the primary-key index: size() when the table has a primary
  /// key, otherwise 0.
  std::size_t pkIndexSize() const noexcept { return pk_.size(); }

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

  /// The cells of row `id`, live or tombstoned. A row stays in place until
  /// it is erased or rolled back.
  std::span<const Value> row(RowId id) const { return rows_.row(id); }
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
    requireKeys("orderedIndex");
    auto it = secondary_.find(column);
    return it == secondary_.end() ? nullptr : &it->second;
  }

 private:
  Table(const Table&) = default;  // via clone() only

  /// Row storage: pages of kPageRows rows, cell (id, column) at
  /// (id % kPageRows) * width + column of page id / kPageRows. Every page, a
  /// copied one too, is reserved to its full size, so an append never moves
  /// a cell and the first append to a copy allocates at most one page.
  class Pages {
   public:
    static constexpr std::size_t kPageRows = 1024;

    explicit Pages(std::size_t width) : width_(width) {}
    Pages(const Pages& other);

    std::size_t size() const noexcept { return size_; }
    std::span<const Value> row(RowId id) const {
      return {pages_[id / kPageRows].data() + (id % kPageRows) * width_, width_};
    }
    Value& cell(RowId id, std::size_t column) {
      return pages_[id / kPageRows][(id % kPageRows) * width_ + column];
    }
    /// Moves the cells of `row` into a new last row.
    void append(Row&& row);
    /// Drops the last row.
    void popBack();

   private:
    std::size_t width_;
    std::size_t size_ = 0;
    std::vector<std::vector<Value>> pages_;
  };
  static_assert(std::has_single_bit(Pages::kPageRows), "/ and % are a shift and a mask");

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

  /// Throws std::logic_error naming `call` while keys are disabled.
  void requireKeys(const char* call) const {
    if (keysDisabled_) throwKeysDisabled(call);
  }
  [[noreturn]] void throwKeysDisabled(const char* call) const;
  /// Reads a pk slot's key: the row's pk cell.
  auto pkKeyOf() const {
    return [this](RowId id) -> const Value& { return rows_.row(id)[*schema_.primaryKey]; };
  }
  void indexInsert(RowId id);
  void indexErase(RowId id);
  /// The live rows' entries for an index on `column`, in index order.
  std::vector<IndexEntry> sortedEntries(std::size_t column) const;
  void undo(Undo& u);

  TableSchema schema_;
  Pages rows_;
  std::vector<bool> tombstone_;
  std::size_t liveRows_ = 0;
  std::size_t approxBytes_ = 0;

  PkIndex pk_;
  // column index -> its secondary index
  std::map<std::size_t, OrderedIndex> secondary_;
  std::int64_t nextAutoId_ = 1;
  std::int64_t lastInsertId_ = 0;
  bool keysDisabled_ = false;  // between disableKeys() and enableKeys()

  bool logging_ = false;  // set by checkpoint()
  std::vector<Undo> undo_;
};

}  // namespace mwsim::db
