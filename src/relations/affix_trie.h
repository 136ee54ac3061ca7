// Character trie for affix (startswith / endswith) relation search (§3.5).
//
// Forward mode answers: which inserted keys are a *proper prefix* of my query string?
// Reversed mode (keys and queries walked back to front) answers the same for suffixes,
// which drives contracts like Figure 1's 3: `endswith(str(l2.b), str(l1.a))` — the
// vlan id "251" is a suffix of the route distinguisher's "10251". One pass inserts
// every canonical key; a second pass walks each key through the trie, collecting all
// shorter keys it extends — O(length) per probe instead of comparing all pairs.
//
// Nodes, edges and terminals live in three flat arrays, so a trie over a whole
// configuration costs a handful of allocations, not one per node.
#ifndef SRC_RELATIONS_AFFIX_TRIE_H_
#define SRC_RELATIONS_AFFIX_TRIE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/relations/param_ref.h"

namespace concord {

class AffixTrie {
 public:
  struct Hit {
    ParamRef ref;
    int affix_len;  // Length of the shared (shorter) key, for scoring.
  };

  // `reversed` selects endswith mode.
  explicit AffixTrie(bool reversed);

  void Insert(std::string_view key, ParamRef ref);

  // All inserted keys that are a proper affix of `query` (strictly shorter, length
  // >= 1; equality is the equality relation's job, not affix's), shortest first and
  // in insertion order per length.
  void FindAffixesOf(std::string_view query, std::vector<Hit>* out) const;

  size_t num_keys() const { return terminals_.size(); }

 private:
  static constexpr int32_t kNone = -1;

  struct Node {
    int32_t first_edge = kNone;      // Head of this node's edge list in edges_.
    int32_t first_terminal = kNone;  // Keys ending here, in insertion order.
    int32_t last_terminal = kNone;
  };
  // Edge lists are linked through `next` and scanned linearly: trie fanout is tiny
  // (digits, hex, a few letters).
  struct Edge {
    char label;
    int32_t child;
    int32_t next;
  };
  struct Terminal {
    ParamRef ref;
    int32_t next;
  };

  char At(std::string_view s, size_t depth) const {
    return reversed_ ? s[s.size() - 1 - depth] : s[depth];
  }
  int32_t Child(int32_t node, char c) const;

  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<Terminal> terminals_;
  bool reversed_;
};

}  // namespace concord

#endif  // SRC_RELATIONS_AFFIX_TRIE_H_
