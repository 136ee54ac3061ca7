#include "src/service/lru_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace concord {
namespace {

std::shared_ptr<const std::string> Val(const char* s) {
  return std::make_shared<const std::string>(s);
}

TEST(LruCache, HitReturnsTheValueAndMissReturnsNull) {
  LruCache<std::string> cache(4);
  EXPECT_EQ(cache.Get(1), nullptr);
  cache.Put(1, Val("one"));
  auto hit = cache.Get(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "one");
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<std::string> cache(2);
  cache.Put(1, Val("one"));
  cache.Put(2, Val("two"));
  EXPECT_NE(cache.Get(1), nullptr);  // 1 is now most recent.
  cache.Put(3, Val("three"));        // Evicts 2.
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCache, PutReplacesAndRefreshes) {
  LruCache<std::string> cache(2);
  cache.Put(1, Val("one"));
  cache.Put(2, Val("two"));
  cache.Put(1, Val("uno"));  // Replace refreshes recency; size is unchanged.
  EXPECT_EQ(cache.size(), 2u);
  cache.Put(3, Val("three"));  // Evicts 2, not 1.
  EXPECT_EQ(*cache.Get(1), "uno");
  EXPECT_EQ(cache.Get(2), nullptr);
}

TEST(LruCache, ZeroCapacityDisablesCaching) {
  LruCache<std::string> cache(0);
  cache.Put(1, Val("one"));
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCache, EvictedEntriesSurviveViaSharedPtr) {
  LruCache<std::string> cache(1);
  cache.Put(1, Val("one"));
  auto pinned = cache.Get(1);
  cache.Put(2, Val("two"));  // Evicts 1 from the cache...
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(*pinned, "one");  // ...but the in-flight reference stays valid.
}

TEST(LruCache, ConcurrentMixedAccess) {
  LruCache<std::string> cache(16);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        uint64_t key = static_cast<uint64_t>((t * 131 + i) % 32);
        if (auto v = cache.Get(key); v == nullptr) {
          cache.Put(key, Val("v"));
        } else if (*v != "v") {
          ++wrong;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_LE(cache.size(), 16u);
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace concord
