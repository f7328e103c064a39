// Flat associative containers for the hot paths.
//
// The engines key state by two kinds of identifiers: operation tokens
// (monotonically allocated; from a handful to several thousand in flight
// at once, one per busy worker) and node ids (small integers assigned
// contiguously by the grid builder).  Neither needs a node-based hash
// table: both containers below keep their entries in one contiguous slab
// and allocate only when that slab (or its index) grows.
//
//   * FlatMap<K, V>  — insertion-ordered map with expected O(1) find, take
//     and erase.  Entries live in a slab of slots reused through a free
//     list; an intrusive prev/next list of 32-bit slot links keeps
//     insertion order, so iteration is deterministic and survivors keep
//     their order across any erase — a property the resilience layer relies
//     on for reproducible re-dispatch order.  Lookup goes through an
//     open-addressing index of 32-bit slot ids (linear probing, at most a
//     quarter full, backward-shift deletion: erasing leaves no tombstones).
//     Pointers to values stay valid until the next emplace or clear.
//   * NodeMap<V>     — direct-indexed vector keyed by NodeId, auto-growing,
//     with a default value for untouched nodes.  O(1) access, no hashing;
//     relies on grid node ids being small and dense (they are: the grid
//     builder numbers nodes contiguously from zero).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/ids.hpp"

namespace grasp {

/// Key and Value must be default-constructible (a free slot holds a
/// value-initialized pair) and Key hashable through std::hash.
template <typename Key, typename Value>
class FlatMap {
 public:
  struct Item {
    Key key;
    Value value;
  };

 private:
  using Link = std::uint32_t;
  static constexpr Link kNil = std::numeric_limits<Link>::max();

  struct Slot {
    Item item;
    Link prev = kNil;
    Link next = kNil;  ///< free slots chain through `next` too
  };

  template <bool Const>
  class Iter {
    using Map = std::conditional_t<Const, const FlatMap, FlatMap>;

   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Item;
    using difference_type = std::ptrdiff_t;
    using reference = std::conditional_t<Const, const Item&, Item&>;
    using pointer = std::conditional_t<Const, const Item*, Item*>;

    Iter() = default;
    Iter(Map* map, Link slot) : map_(map), slot_(slot) {}

    reference operator*() const { return map_->slots_[slot_].item; }
    pointer operator->() const { return &map_->slots_[slot_].item; }
    Iter& operator++() {
      slot_ = map_->slots_[slot_].next;
      return *this;
    }
    Iter operator++(int) {
      Iter old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.slot_ == b.slot_;
    }

   private:
    friend class FlatMap;
    Map* map_ = nullptr;
    Link slot_ = kNil;
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  [[nodiscard]] Value* find(const Key& key) {
    const std::size_t bucket = bucket_of(key);
    return bucket == kNoBucket ? nullptr
                               : &slots_[index_[bucket]].item.value;
  }
  [[nodiscard]] const Value* find(const Key& key) const {
    const std::size_t bucket = bucket_of(key);
    return bucket == kNoBucket ? nullptr
                               : &slots_[index_[bucket]].item.value;
  }
  [[nodiscard]] bool contains(const Key& key) const {
    return bucket_of(key) != kNoBucket;
  }

  /// Insert a new mapping at the end of the iteration order.  The key must
  /// not be present.
  Value& emplace(const Key& key, Value value) {
    if (kSpread * (size_ + 1) > index_.size())
      rehash(kSpread * (size_ + 1));
    Link id = free_;
    if (id != kNil) {
      free_ = slots_[id].next;
      slots_[id].item.key = key;
      slots_[id].item.value = std::move(value);
    } else {
      if (slots_.size() >= kNil)
        throw std::length_error("FlatMap: more than 2^32-1 slots");
      id = static_cast<Link>(slots_.size());
      slots_.push_back(Slot{Item{key, std::move(value)}, kNil, kNil});
    }
    Slot& slot = slots_[id];
    slot.prev = tail_;
    slot.next = kNil;
    if (tail_ != kNil) slots_[tail_].next = id;
    else head_ = id;
    tail_ = id;
    ++size_;
    index_[free_bucket(slot.item.key)] = id;
    return slot.item.value;
  }

  /// Remove the item at `pos`; returns the iterator to the next item.
  iterator erase(iterator pos) {
    const Link id = pos.slot_;
    const Link next = slots_[id].next;
    remove(bucket_of(slots_[id].item.key));
    return iterator(this, next);
  }

  /// Remove `key`.  Returns true when the key was present.
  bool erase(const Key& key) {
    const std::size_t bucket = bucket_of(key);
    if (bucket == kNoBucket) return false;
    remove(bucket);
    return true;
  }

  /// Remove `key` and return its value.
  std::pair<bool, Value> take(const Key& key) {
    const std::size_t bucket = bucket_of(key);
    if (bucket == kNoBucket) return {false, Value{}};
    Value value = std::move(slots_[index_[bucket]].item.value);
    remove(bucket);
    return {true, std::move(value)};
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  void clear() {
    slots_.clear();
    index_.clear();  // capacity kept; the next emplace refills it
    head_ = tail_ = free_ = kNil;
    size_ = 0;
  }
  void reserve(std::size_t n) {
    slots_.reserve(n);
    if (kSpread * n > index_.size()) rehash(kSpread * n);
  }

  [[nodiscard]] iterator begin() { return iterator(this, head_); }
  [[nodiscard]] iterator end() { return iterator(this, kNil); }
  [[nodiscard]] const_iterator begin() const {
    return const_iterator(this, head_);
  }
  [[nodiscard]] const_iterator end() const {
    return const_iterator(this, kNil);
  }

 private:
  static constexpr std::size_t kNoBucket = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinBuckets = 16;
  /// Buckets per live entry, at least: a quarter-full index keeps most
  /// probes (and most backward shifts) to a single bucket.
  static constexpr std::size_t kSpread = 4;

  /// Home bucket: Fibonacci hashing, so the packed bit fields of operation
  /// tokens (and std::hash's identity on integers) spread over the index.
  [[nodiscard]] std::size_t home_of(const Key& key) const {
    const std::uint64_t h =
        static_cast<std::uint64_t>(std::hash<Key>{}(key)) *
        0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h >> shift_);
  }

  /// Bucket holding `key`, or kNoBucket.
  [[nodiscard]] std::size_t bucket_of(const Key& key) const {
    if (size_ == 0) return kNoBucket;
    const std::size_t mask = index_.size() - 1;
    for (std::size_t b = home_of(key);; b = (b + 1) & mask) {
      const Link id = index_[b];
      if (id == kNil) return kNoBucket;
      if (slots_[id].item.key == key) return b;
    }
  }

  /// First empty bucket on `key`'s probe path (the index is never full).
  [[nodiscard]] std::size_t free_bucket(const Key& key) const {
    const std::size_t mask = index_.size() - 1;
    std::size_t b = home_of(key);
    while (index_[b] != kNil) b = (b + 1) & mask;
    return b;
  }

  /// Rebuild the index with room for `need` buckets (rounded up to a power
  /// of two), re-inserting every live slot in list order.
  void rehash(std::size_t need) {
    std::size_t buckets = std::max(kMinBuckets, index_.size());
    unsigned bits = 0;
    while ((std::size_t{1} << bits) < buckets) ++bits;
    while (buckets < need) {
      buckets *= 2;
      ++bits;
    }
    index_.assign(buckets, kNil);
    shift_ = 64 - bits;
    for (Link id = head_; id != kNil; id = slots_[id].next)
      index_[free_bucket(slots_[id].item.key)] = id;
  }

  /// Unlink the slot indexed at `bucket`, free it, and close the index gap
  /// by backward shift: each later entry of the probe run whose home lies
  /// at or before the hole moves into it, so no tombstone is left behind.
  void remove(std::size_t bucket) {
    const Link id = index_[bucket];
    Slot& slot = slots_[id];
    if (slot.prev != kNil) slots_[slot.prev].next = slot.next;
    else head_ = slot.next;
    if (slot.next != kNil) slots_[slot.next].prev = slot.prev;
    else tail_ = slot.prev;
    if constexpr (!std::is_trivially_destructible_v<Item>)
      slot.item = Item{};  // release what the value owns now
    slot.prev = kNil;
    slot.next = free_;
    free_ = id;
    --size_;

    const std::size_t mask = index_.size() - 1;
    std::size_t hole = bucket;
    for (std::size_t b = (hole + 1) & mask;; b = (b + 1) & mask) {
      const Link moved = index_[b];
      if (moved == kNil) break;
      const std::size_t home = home_of(slots_[moved].item.key);
      if (((b - home) & mask) >= ((b - hole) & mask)) {
        index_[hole] = moved;
        hole = b;
      }
    }
    index_[hole] = kNil;
  }

  std::vector<Slot> slots_;
  std::vector<Link> index_;  ///< power-of-two buckets, kNil = empty
  unsigned shift_ = 64;
  Link head_ = kNil;
  Link tail_ = kNil;
  Link free_ = kNil;
  std::size_t size_ = 0;
};

template <typename Value>
class NodeMap {
 public:
  NodeMap() = default;
  /// A custom default requires a copyable Value (untouched slots are filled
  /// with copies); move-only Values use the value-initialized default.
  explicit NodeMap(Value default_value) : default_(std::move(default_value)) {
    static_assert(std::is_copy_constructible_v<Value>,
                  "NodeMap: custom default needs a copyable Value");
  }

  /// Mutable access; grows the table to cover `node`.
  Value& operator[](NodeId node) {
    const std::size_t index = check(node);
    if (index >= values_.size()) {
      if constexpr (std::is_copy_constructible_v<Value>) {
        values_.resize(index + 1, default_);
      } else {
        values_.resize(index + 1);  // value-init == default_ (see ctor)
      }
    }
    return values_[index];
  }

  /// Read-only access; untouched nodes — and ids outside the dense range,
  /// including the invalid sentinel — read as the default value.
  [[nodiscard]] const Value& at_or_default(NodeId node) const {
    if (!node.is_valid() || node.value >= kMaxDirectIndex) return default_;
    const auto index = static_cast<std::size_t>(node.value);
    return index < values_.size() ? values_[index] : default_;
  }

  /// Dense slot storage, index == node id (for full-table scans).
  [[nodiscard]] const std::vector<Value>& values() const { return values_; }

  void clear() { values_.clear(); }

 private:
  /// Grid node ids are dense small integers; the ceiling only guards
  /// against an invalid/sentinel id blowing up the table.
  static constexpr std::size_t kMaxDirectIndex = 1u << 22;

  static std::size_t check(NodeId node) {
    if (!node.is_valid() || node.value >= kMaxDirectIndex)
      throw std::out_of_range("NodeMap: node id outside dense range");
    return static_cast<std::size_t>(node.value);
  }

  std::vector<Value> values_;
  Value default_{};
};

}  // namespace grasp
