// Open-addressing hash map for hot lookup paths (ROADMAP item 1).
//
// std::unordered_map pays a heap node per entry and a pointer chase per probe;
// the checker's by-pattern index and the miners' equality buckets are probed
// millions of times per batch. FlatMap stores entries inline in one flat array
// with linear probing (power-of-two capacity, FNV-1a keyed, ~0.7 max load), the
// same shape that bought ~12% in the PatternTable append-only rewrite (PR 5).
//
// Scope: insert/lookup/iterate only — no erase (no tombstones needed; none of
// the hot paths delete entries). Iteration order is hash order, *not* insertion
// order: every consumer either sorts afterwards or is order-insensitive (the
// learner's canonical contract sort makes learned output independent of it).
// String keys support heterogeneous string_view lookup without materializing a
// std::string.
#ifndef SRC_UTIL_FLAT_MAP_H_
#define SRC_UTIL_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/hash.h"

namespace concord {

template <typename Key, typename Enable = void>
struct FlatHash;

// Integral and enum keys: FNV-1a over the value's bytes (process-local only, so
// byte order is irrelevant).
template <typename Key>
struct FlatHash<Key, std::enable_if_t<std::is_integral_v<Key> || std::is_enum_v<Key>>> {
  uint64_t operator()(Key key) const {
    auto bits = static_cast<uint64_t>(key);
    return Fnv1a64(
        std::string_view(reinterpret_cast<const char*>(&bits), sizeof(bits)));
  }
};

// String keys hash through string_view, so lookups accept either type.
template <>
struct FlatHash<std::string> {
  uint64_t operator()(std::string_view key) const { return Fnv1a64(key); }
};

// View keys: the map stores only the view, so the viewed text must outlive it.
template <>
struct FlatHash<std::string_view> : FlatHash<std::string> {};

template <typename Key, typename T, typename Hash = FlatHash<Key>>
class FlatMap {
 public:
  using value_type = std::pair<Key, T>;

  template <typename Value, typename Map>
  class Iterator {
   public:
    Iterator() = default;
    Iterator(Map* map, size_t index) : map_(map), index_(index) { SkipEmpty(); }

    Value& operator*() const { return map_->slots_[index_]; }
    Value* operator->() const { return &map_->slots_[index_]; }

    Iterator& operator++() {
      ++index_;
      SkipEmpty();
      return *this;
    }

    bool operator==(const Iterator& other) const { return index_ == other.index_; }
    bool operator!=(const Iterator& other) const { return index_ != other.index_; }

   private:
    void SkipEmpty() {
      while (map_ != nullptr && index_ < map_->full_.size() && !map_->full_[index_]) {
        ++index_;
      }
    }

    Map* map_ = nullptr;
    size_t index_ = 0;
  };

  using iterator = Iterator<value_type, FlatMap>;
  using const_iterator = Iterator<const value_type, const FlatMap>;

  FlatMap() = default;

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, full_.size()); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, full_.size()); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    full_.assign(full_.size(), 0);
    slots_.clear();
    slots_.resize(full_.size());
    size_ = 0;
  }

  // Pre-sizes the table for `n` entries without rehashing on the way there.
  void reserve(size_t n) {
    size_t needed = CapacityFor(n);
    if (needed > full_.size()) {
      Rehash(needed);
    }
  }

  // Heterogeneous lookup: `key` may be any type the Hash accepts and that
  // compares == against Key (string_view against std::string keys).
  template <typename K>
  iterator find(const K& key) {
    size_t index = FindSlot(key);
    return index == kNpos ? end() : iterator(this, index);
  }

  template <typename K>
  const_iterator find(const K& key) const {
    size_t index = FindSlot(key);
    return index == kNpos ? end() : const_iterator(this, index);
  }

  template <typename K>
  size_t count(const K& key) const {
    return FindSlot(key) == kNpos ? 0 : 1;
  }

  template <typename K>
  bool contains(const K& key) const {
    return FindSlot(key) != kNpos;
  }

  template <typename K>
  const T& at(const K& key) const {
    size_t index = FindSlot(key);
    if (index == kNpos) {
      throw std::out_of_range("FlatMap::at: key not found");
    }
    return slots_[index].second;
  }

  T& operator[](const Key& key) { return *TryEmplace(key).first; }

  // Inserts {key, T(args...)} if absent. Returns the mapped value (new or
  // existing) and whether an insert happened — the open-addressing analogue of
  // unordered_map::try_emplace.
  template <typename... Args>
  std::pair<T*, bool> TryEmplace(const Key& key, Args&&... args) {
    if (full_.empty() || (size_ + 1) * 10 >= full_.size() * 7) {
      Rehash(CapacityFor(size_ + 1));
    }
    size_t index = ProbeFor(key);
    if (full_[index]) {
      return {&slots_[index].second, false};
    }
    slots_[index].first = key;
    slots_[index].second = T(std::forward<Args>(args)...);
    full_[index] = 1;
    ++size_;
    return {&slots_[index].second, true};
  }

 private:
  static constexpr size_t kNpos = static_cast<size_t>(-1);
  static constexpr size_t kMinCapacity = 16;

  // Smallest power-of-two capacity keeping n entries under ~0.7 load.
  static size_t CapacityFor(size_t n) {
    size_t capacity = kMinCapacity;
    while (n * 10 >= capacity * 7) {
      capacity *= 2;
    }
    return capacity;
  }

  // Finalizer over the hash so weak user hashes still spread across the
  // power-of-two table (splitmix64 tail).
  template <typename K>
  size_t HomeSlot(const K& key) const {
    uint64_t h = hash_(key);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    return static_cast<size_t>(h) & (full_.size() - 1);
  }

  template <typename K>
  size_t FindSlot(const K& key) const {
    if (full_.empty()) {
      return kNpos;
    }
    size_t mask = full_.size() - 1;
    for (size_t index = HomeSlot(key);; index = (index + 1) & mask) {
      if (!full_[index]) {
        return kNpos;
      }
      if (slots_[index].first == key) {
        return index;
      }
    }
  }

  // First slot for `key`: its current position, or the empty slot to claim.
  size_t ProbeFor(const Key& key) const {
    size_t mask = full_.size() - 1;
    size_t index = HomeSlot(key);
    while (full_[index] && !(slots_[index].first == key)) {
      index = (index + 1) & mask;
    }
    return index;
  }

  void Rehash(size_t capacity) {
    if (capacity <= full_.size()) {
      return;
    }
    std::vector<uint8_t> old_full = std::move(full_);
    std::vector<value_type> old_slots = std::move(slots_);
    full_.assign(capacity, 0);
    slots_.clear();
    slots_.resize(capacity);
    for (size_t i = 0; i < old_full.size(); ++i) {
      if (!old_full[i]) {
        continue;
      }
      size_t index = ProbeFor(old_slots[i].first);
      slots_[index] = std::move(old_slots[i]);
      full_[index] = 1;
    }
  }

  Hash hash_;
  std::vector<uint8_t> full_;       // 1 = slot occupied (no erase, no tombstones).
  std::vector<value_type> slots_;   // Parallel to full_.
  size_t size_ = 0;
};

}  // namespace concord

#endif  // SRC_UTIL_FLAT_MAP_H_
