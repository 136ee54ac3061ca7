#include "src/relations/key_interner.h"

#include <algorithm>

#include "src/util/hash.h"

namespace concord {

namespace {

// Spreads an FNV hash over a power-of-two table (splitmix64 tail).
size_t HomeSlot(uint64_t h, size_t mask) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  return static_cast<size_t>(h) & mask;
}

}  // namespace

uint32_t KeyInterner::Intern(std::string_view text) {
  if ((end_.size() + 1) * 10 >= slots_.size() * 7) {
    Grow();
  }
  const uint64_t h = Fnv1a64(text);
  const size_t mask = slots_.size() - 1;
  for (size_t slot = HomeSlot(h, mask);; slot = (slot + 1) & mask) {
    const uint32_t id = slots_[slot];
    if (id == kNone) {
      const uint32_t added = size();
      buffer_.append(text);
      end_.push_back(static_cast<uint32_t>(buffer_.size()));
      hash_.push_back(h);
      slots_[slot] = added;
      return added;
    }
    if (hash_[id] == h && Text(id) == text) {
      return id;
    }
  }
}

void KeyInterner::Clear() {
  buffer_.clear();
  end_.clear();
  hash_.clear();
  std::fill(slots_.begin(), slots_.end(), kNone);
}

void KeyInterner::Grow() {
  slots_.assign(slots_.empty() ? 64 : slots_.size() * 2, kNone);
  const size_t mask = slots_.size() - 1;
  for (uint32_t id = 0; id < size(); ++id) {
    size_t slot = HomeSlot(hash_[id], mask);
    while (slots_[slot] != kNone) {
      slot = (slot + 1) & mask;
    }
    slots_[slot] = id;
  }
}

}  // namespace concord
