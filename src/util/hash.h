// Content hashing for cache keys (FNV-1a, 64-bit).
//
// The service's parsed-configuration cache keys on the hash of the raw config text;
// FNV-1a is fast, dependency-free, and good enough for a cache where a collision
// costs a stale answer for one request, not correctness of the store itself (keys
// also mix the config name, so colliding texts must collide across names too).
#ifndef SRC_UTIL_HASH_H_
#define SRC_UTIL_HASH_H_

#include <cstdint>
#include <string_view>

namespace concord {

inline constexpr uint64_t kFnv1a64OffsetBasis = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnv1a64Prime = 0x100000001b3ull;

// FNV-1a over `data`, starting from `seed`. Chaining the output of one call as the
// seed of the next is equivalent to hashing the concatenation.
uint64_t Fnv1a64(std::string_view data, uint64_t seed = kFnv1a64OffsetBasis);

// Hash of a (name, text) pair with an unambiguous separator: the Parse-artifact
// key of ArtifactStore and of the service's parsed-config cache.
uint64_t ContentKey(std::string_view name, std::string_view text);

// Order-sensitive combination of two content keys. Lexer::DefinitionsKey chains
// one ContentKey per user token through it, so a list of keys hashes without
// boundary aliasing (each key is a fixed 8 bytes).
uint64_t MixKeys(uint64_t a, uint64_t b);

}  // namespace concord

#endif  // SRC_UTIL_HASH_H_
