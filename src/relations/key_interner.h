// Dense ids for the transformed keys of one configuration (§3.5).
//
// Relation search compares (line, param, transform) keys: equal keys are equal
// texts. The learner's pass 1 and the checker's relational scan both render each
// key once into one text buffer and give equal texts one dense id, so equality
// becomes an id comparison and a key's text is a view into the buffer. Ids are
// handed out in first-seen order, so the same key sequence always gets the same
// ids.
//
// A view returned by Text() stays valid until the next Intern() or Clear().
// Clear() keeps every buffer's capacity, so an interner reused across configs
// reaches a steady state without heap traffic.
#ifndef SRC_RELATIONS_KEY_INTERNER_H_
#define SRC_RELATIONS_KEY_INTERNER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace concord {

class KeyInterner {
 public:
  static constexpr uint32_t kNone = static_cast<uint32_t>(-1);

  // The id of `text`, appending it to the buffer on first sight.
  uint32_t Intern(std::string_view text);

  std::string_view Text(uint32_t id) const {
    const uint32_t begin = id == 0 ? 0 : end_[id - 1];
    return std::string_view(buffer_.data() + begin, end_[id] - begin);
  }

  // Distinct texts so far; ids are [0, size()).
  uint32_t size() const { return static_cast<uint32_t>(end_.size()); }

  // Pre-sizes for `n` distinct texts, so interning that many does not rehash.
  void Reserve(size_t n);

  void Clear();

 private:
  void Grow();
  void Rehash(size_t slots);  // `slots` is a power of two.

  std::string buffer_;          // Every distinct text, back to back.
  std::vector<uint32_t> end_;   // Id -> end offset of its text in buffer_.
  std::vector<uint64_t> hash_;  // Id -> hash of its text (probe filter, rehash).
  std::vector<uint32_t> slots_; // Open addressing over ids; kNone = empty.
};

}  // namespace concord

#endif  // SRC_RELATIONS_KEY_INTERNER_H_
