#include "db/ordered_index.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <stdexcept>

namespace mwsim::db {

namespace {

static_assert(OrderedIndex::kLeafCapacity <= 65536, "leaf positions are 16-bit");

/// Position of the first element of `v` for which `before` is false.
template <typename Before>
std::size_t partitionPoint(const std::vector<IndexEntry>& v, Before before) {
  return static_cast<std::size_t>(std::partition_point(v.begin(), v.end(), before) -
                                  v.begin());
}

/// Index-order position of the first entry of `leaf` for which `before` is
/// false.
template <typename Before>
std::size_t partitionPoint(const OrderedIndex::Leaf& leaf, Before before) {
  const auto it = std::partition_point(leaf.order.begin(), leaf.order.end(),
                                       [&](std::uint16_t at) { return before(leaf.entries[at]); });
  return static_cast<std::size_t>(it - leaf.order.begin());
}

/// The first element of [first, last) for which `pred` is false, where
/// `pred` holds for a prefix: std::partition_point, but probing forward
/// from `first` at distances that double, so an answer d places on costs
/// O(log d) comparisons.
template <typename It, typename Pred>
It gallop(It first, It last, Pred pred) {
  std::ptrdiff_t step = 1;
  while (last - first >= step && pred(first[step - 1])) {
    first += step;
    step *= 2;
  }
  return std::partition_point(first, first + std::min(step, last - first), pred);
}

/// Whether (key, id) orders after entry `e`: the predicate that finds the
/// entry's place.
auto entryBefore(const Value& key, RowId id) {
  return [&key, id](const IndexEntry& e) {
    const int c = e.key.compare(key);
    return c < 0 || (c == 0 && e.id < id);
  };
}

/// A new leaf holding, in index order, the entries that `from` holds at
/// index-order positions [first, last), moved out of `from`.
OrderedIndex::Leaf moveOut(OrderedIndex::Leaf& from, std::size_t first, std::size_t last) {
  OrderedIndex::Leaf leaf;
  leaf.entries.reserve(last - first);
  for (std::size_t pos = first; pos < last; ++pos) {
    leaf.entries.push_back(std::move(from.entries[from.order[pos]]));
  }
  leaf.order.resize(last - first);
  std::iota(leaf.order.begin(), leaf.order.end(), std::uint16_t{0});
  return leaf;
}

}  // namespace

OrderedIndex::Leaf::Leaf(const Leaf& other) : order(other.order.size()) {
  entries.reserve(order.size());
  for (const std::uint16_t at : other.order) entries.push_back(other.entries[at]);
  std::iota(order.begin(), order.end(), std::uint16_t{0});
}

// A leaf's fence is its last entry, so the first leaf whose fence fails
// `before` holds the first entry that fails it.
template <typename Before>
OrderedIndex::Iterator OrderedIndex::seek(Before before) const {
  const std::size_t leaf = partitionPoint(fences_, before);
  if (leaf == leaves_.size()) return end();
  return {&leaves_, leaf, partitionPoint(leaves_[leaf], before)};
}

OrderedIndex::Iterator OrderedIndex::lowerBound(const Value& key) const {
  return seek([&key](const IndexEntry& e) { return e.key.compare(key) < 0; });
}

OrderedIndex::Iterator OrderedIndex::lowerBound(const Value& key, Iterator hint) const {
  const auto before = [&key](const IndexEntry& e) { return e.key.compare(key) < 0; };
  std::size_t leaf = hint.leaf_;
  // The answer lies at or after the hint only when the entry before the
  // hint orders before `key`; a leaf's fence is its last entry.
  const bool forward = hint.pos_ > 0 ? before(leaves_[leaf].at(hint.pos_ - 1))
                                     : leaf == 0 || before(fences_[leaf - 1]);
  if (!forward) return lowerBound(key);
  if (leaf == leaves_.size()) return end();
  if (!before(fences_[leaf])) {
    const Leaf& l = leaves_[leaf];
    const auto pos = gallop(l.order.begin() + static_cast<std::ptrdiff_t>(hint.pos_),
                            l.order.end(),
                            [&](std::uint16_t at) { return before(l.entries[at]); });
    return {&leaves_, leaf, static_cast<std::size_t>(pos - l.order.begin())};
  }
  leaf = static_cast<std::size_t>(
      gallop(fences_.begin() + static_cast<std::ptrdiff_t>(leaf) + 1, fences_.end(), before) -
      fences_.begin());
  if (leaf == leaves_.size()) return end();
  return {&leaves_, leaf, partitionPoint(leaves_[leaf], before)};
}

OrderedIndex::Iterator OrderedIndex::upperBound(const Value& key) const {
  return seek([&key](const IndexEntry& e) { return e.key.compare(key) <= 0; });
}

void OrderedIndex::split(std::size_t leaf) {
  Leaf& full = leaves_[leaf];
  constexpr std::size_t kHalf = kLeafCapacity / 2;
  Leaf upper = moveOut(full, kHalf, full.order.size());
  full = moveOut(full, 0, kHalf);
  // The upper leaf takes over the old fence.
  fences_.insert(fences_.begin() + static_cast<std::ptrdiff_t>(leaf), full.entries.back());
  leaves_.insert(leaves_.begin() + static_cast<std::ptrdiff_t>(leaf) + 1, std::move(upper));
}

void OrderedIndex::assign(std::vector<IndexEntry> entries) {
  leaves_.clear();
  fences_.clear();
  size_ = entries.size();
  constexpr auto kFill = static_cast<std::ptrdiff_t>(kBulkLeafFill);
  for (auto first = entries.begin(); first != entries.end();) {
    const auto last = first + std::min(kFill, entries.end() - first);
    Leaf& leaf = leaves_.emplace_back();
    leaf.entries.assign(std::make_move_iterator(first), std::make_move_iterator(last));
    leaf.order.resize(leaf.entries.size());
    std::iota(leaf.order.begin(), leaf.order.end(), std::uint16_t{0});
    fences_.push_back(leaf.entries.back());
    first = last;
  }
}

void OrderedIndex::appendLeaf(const Value& key, RowId id) {
  Leaf& leaf = leaves_.emplace_back();
  leaf.entries.push_back({key, id});
  leaf.order.push_back(0);
  fences_.push_back({key, id});
}

void OrderedIndex::insert(const Value& key, RowId id) {
  ++size_;
  if (leaves_.empty()) {
    appendLeaf(key, id);
    return;
  }
  const auto before = entryBefore(key, id);
  // Past every entry, the entry goes at the end of the last leaf.
  std::size_t leaf = std::min(partitionPoint(fences_, before), leaves_.size() - 1);
  std::size_t pos = partitionPoint(leaves_[leaf], before);
  if (leaves_[leaf].order.size() == kLeafCapacity) {
    if (leaf + 1 == leaves_.size() && pos == kLeafCapacity) {
      // Appending opens a new leaf, so entries loaded in order fill their
      // leaves.
      appendLeaf(key, id);
      return;
    }
    split(leaf);
    constexpr std::size_t kHalf = kLeafCapacity / 2;
    if (pos >= kHalf) {
      ++leaf;
      pos -= kHalf;
    }
  }
  Leaf& target = leaves_[leaf];
  target.order.insert(target.order.begin() + static_cast<std::ptrdiff_t>(pos),
                      static_cast<std::uint16_t>(target.entries.size()));
  target.entries.push_back({key, id});
  if (pos + 1 == target.order.size()) fences_[leaf] = target.entries.back();
}

void OrderedIndex::erase(const Value& key, RowId id) {
  const auto before = entryBefore(key, id);
  const std::size_t leaf = partitionPoint(fences_, before);
  if (leaf < leaves_.size()) {
    Leaf& target = leaves_[leaf];
    const std::size_t pos = partitionPoint(target, before);
    const std::uint16_t slot = target.order[pos];
    if (target.entries[slot].id == id && target.entries[slot].key.compare(key) == 0) {
      target.order.erase(target.order.begin() + static_cast<std::ptrdiff_t>(pos));
      // The last-arrived entry fills the hole.
      const auto last = static_cast<std::uint16_t>(target.entries.size() - 1);
      if (slot != last) {
        target.entries[slot] = std::move(target.entries[last]);
        *std::find(target.order.begin(), target.order.end(), last) = slot;
      }
      target.entries.pop_back();
      --size_;
      if (target.order.empty()) {
        leaves_.erase(leaves_.begin() + static_cast<std::ptrdiff_t>(leaf));
        fences_.erase(fences_.begin() + static_cast<std::ptrdiff_t>(leaf));
      } else if (pos == target.order.size()) {
        fences_[leaf] = target.at(pos - 1);
      }
      return;
    }
  }
  throw std::logic_error("secondary index has no entry for a live row");
}

}  // namespace mwsim::db
