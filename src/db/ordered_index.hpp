#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "db/value.hpp"

namespace mwsim::db {

using RowId = std::uint32_t;

/// One secondary-index entry: a copy of the indexed cell and its row.
struct IndexEntry {
  Value key;
  RowId id = 0;
};

/// A non-unique secondary index in MyISAM's order: by key (Value::compare),
/// and equal keys by RowId, MyISAM's record-position order for duplicates.
/// Since (key, RowId) fixes each entry's place, the order depends only on
/// which entries the index holds, never on the order of the writes that put
/// them there.
///
/// A two-level B-tree: the entries sit in contiguous leaves of at most
/// kLeafCapacity, under a fence array holding each leaf's last entry. A
/// lookup is a binary search over the fences, then one inside a leaf. A leaf
/// keeps its entries where they arrived and their index order as an array
/// of positions, so an insert or erase inside a leaf moves two-byte
/// positions instead of Values.
class OrderedIndex {
 public:
  static constexpr std::size_t kLeafCapacity = 256;
  /// Entries per leaf in an index built by assign(): about what inserts in
  /// random order leave, so later inserts find room where full leaves
  /// would split on the first insert into each.
  static constexpr std::size_t kBulkLeafFill = kLeafCapacity * 3 / 4;

  struct Leaf {
    Leaf() = default;
    /// A copy stores the entries in index order, so a cloned index reads
    /// its leaves front to back.
    Leaf(const Leaf& other);
    Leaf(Leaf&&) = default;
    Leaf& operator=(Leaf&&) = default;

    const IndexEntry& at(std::size_t pos) const { return entries[order[pos]]; }

    std::vector<IndexEntry> entries;   // in arrival order
    std::vector<std::uint16_t> order;  // positions in `entries`, in index order
  };
  using Leaves = std::vector<Leaf>;

  /// Walks the entries in index order. An iterator stays valid until the
  /// index is next written.
  class Iterator {
   public:
    using iterator_category = std::bidirectional_iterator_tag;
    using value_type = IndexEntry;
    using difference_type = std::ptrdiff_t;
    using pointer = const IndexEntry*;
    using reference = const IndexEntry&;

    reference operator*() const { return (*leaves_)[leaf_].at(pos_); }
    pointer operator->() const { return &**this; }

    Iterator& operator++() {
      if (++pos_ == (*leaves_)[leaf_].order.size()) {
        ++leaf_;
        pos_ = 0;
      }
      return *this;
    }
    Iterator& operator--() {
      if (pos_ == 0) pos_ = (*leaves_)[--leaf_].order.size();
      --pos_;
      return *this;
    }

    bool operator==(const Iterator& other) const {
      return leaf_ == other.leaf_ && pos_ == other.pos_;
    }

   private:
    friend class OrderedIndex;
    Iterator(const Leaves* leaves, std::size_t leaf, std::size_t pos)
        : leaves_(leaves), leaf_(leaf), pos_(pos) {}

    // End is (leaves_->size(), 0); every other position is inside a leaf.
    const Leaves* leaves_;
    std::size_t leaf_;
    std::size_t pos_;
  };

  Iterator begin() const { return {&leaves_, 0, 0}; }
  Iterator end() const { return {&leaves_, leaves_.size(), 0}; }

  /// The first entry whose key is not less than `key`.
  Iterator lowerBound(const Value& key) const;
  /// lowerBound(key), searched forward from `hint` (an iterator of this
  /// index) when the entry before `hint` orders before `key`, in steps that
  /// double: first inside the hint's leaf, then over the fences. Otherwise
  /// it descends as lowerBound(key) does, so a hint past the answer costs
  /// one comparison more and never gives a wrong position. Probes for keys
  /// that ascend, each hinted with the previous answer, cost
  /// O(log distance) each instead of a descent.
  Iterator lowerBound(const Value& key, Iterator hint) const;
  /// The first entry whose key is greater than `key`.
  Iterator upperBound(const Value& key) const;

  bool empty() const noexcept { return leaves_.empty(); }
  std::size_t size() const noexcept { return size_; }
  /// The last entry in index order. The index must not be empty.
  const IndexEntry& back() const { return fences_.back(); }

  /// Replaces the content by `entries`, which must be in index order:
  /// leaves of kBulkLeafFill entries, written front to back. The bulk path
  /// of Table::enableKeys().
  void assign(std::vector<IndexEntry> entries);
  /// Adds the entry (key, id) at its place.
  void insert(const Value& key, RowId id);
  /// Removes the entry (key, id). Throws std::logic_error when the index
  /// holds no such entry.
  void erase(const Value& key, RowId id);

 private:
  /// The first entry for which `before` is false; `before` must hold for a
  /// prefix of the index order and fail for the rest.
  template <typename Before>
  Iterator seek(Before before) const;
  /// Adds a last leaf holding the one entry (key, id).
  void appendLeaf(const Value& key, RowId id);
  /// Replaces the full leaf `leaf` by two leaves holding its lower and upper
  /// halves.
  void split(std::size_t leaf);

  Leaves leaves_;
  std::vector<IndexEntry> fences_;  // a copy of each leaf's last entry in index order
  std::size_t size_ = 0;
};

}  // namespace mwsim::db
