// Thread-safe LRU cache of shared, immutable artifacts keyed by a 64-bit
// content hash.
//
// Each loaded contract set caches its parsed configs (the Parse artifact) in
// one (contract_store.h); the service counts its own hits and misses. Entries
// are shared_ptr so eviction or hot-swap never invalidates a batch that is
// still working against the old entry.
#ifndef SRC_SERVICE_LRU_CACHE_H_
#define SRC_SERVICE_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>

#include "src/util/sync.h"

namespace concord {

template <typename T>
class LruCache {
 public:
  using Ptr = std::shared_ptr<const T>;

  // `capacity` is the maximum number of cached entries; 0 disables caching.
  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  // Returns the cached value and refreshes its recency, or nullptr on a miss.
  Ptr Get(uint64_t key) {
    MutexLock lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }

  // Inserts (or replaces) an entry, evicting the least recently used beyond capacity.
  void Put(uint64_t key, Ptr value) {
    if (capacity_ == 0) {
      return;
    }
    MutexLock lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.emplace_front(key, std::move(value));
    index_[key] = lru_.begin();
    while (lru_.size() > capacity_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
    }
  }

  size_t size() const {
    MutexLock lock(mu_);
    return lru_.size();
  }

 private:
  using Entry = std::pair<uint64_t, Ptr>;

  size_t capacity_;  // Immutable after construction.
  mutable Mutex mu_;
  // Front = most recently used.
  std::list<Entry> lru_ CONCORD_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, typename std::list<Entry>::iterator> index_
      CONCORD_GUARDED_BY(mu_);
};

}  // namespace concord

#endif  // SRC_SERVICE_LRU_CACHE_H_
