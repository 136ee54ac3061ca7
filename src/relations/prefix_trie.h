// Bitwise prefix trie for containment relation search (§3.5, Figure 4).
//
// The naive way to find contains-candidates compares every prefix against every
// address — quadratic in parameter count. Instead all prefix values of a configuration
// are inserted into this trie in one pass; a second pass then looks up, for each
// address (or narrower prefix), every inserted prefix that contains it in O(bits).
// Works for both IPv4 (32 bits) and IPv6 (128 bits).
#ifndef SRC_RELATIONS_PREFIX_TRIE_H_
#define SRC_RELATIONS_PREFIX_TRIE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/relations/param_ref.h"
#include "src/value/ip.h"

namespace concord {

class PrefixTrie {
 public:
  struct Hit {
    ParamRef ref;
    int prefix_len;  // Length of the containing prefix (for informativeness scoring).
  };

  PrefixTrie();

  void Insert(const Ipv4Network& network, ParamRef ref);
  void Insert(const Ipv6Network& network, ParamRef ref);

  // All inserted prefixes containing the query. An inserted prefix equal to a prefix
  // query is reported (containment is reflexive).
  void FindContaining(const Ipv4Address& addr, std::vector<Hit>* out) const;
  void FindContaining(const Ipv4Network& network, std::vector<Hit>* out) const;
  void FindContaining(const Ipv6Address& addr, std::vector<Hit>* out) const;
  void FindContaining(const Ipv6Network& network, std::vector<Hit>* out) const;

  size_t num_prefixes() const { return terminals_.size(); }

 private:
  // Prefixes ending exactly at a node form a list through Terminal::next, in
  // insertion order, so the whole trie is two flat arrays.
  struct Node {
    int32_t child[2] = {-1, -1};
    int32_t first_terminal = -1;
    int32_t last_terminal = -1;
  };
  struct Terminal {
    ParamRef ref;
    int32_t next;
  };

  void InsertBits(const std::array<uint8_t, 16>& bytes, int prefix_len, bool v6, ParamRef ref);
  void FindBits(const std::array<uint8_t, 16>& bytes, int query_len, bool v6,
                std::vector<Hit>* out) const;

  // IPv4 and IPv6 live in separate roots so a /8 IPv4 prefix can never "contain" an
  // IPv6 address that happens to share leading bits.
  std::vector<Node> nodes_;
  std::vector<Terminal> terminals_;
  int32_t root4_;
  int32_t root6_;
};

}  // namespace concord

#endif  // SRC_RELATIONS_PREFIX_TRIE_H_
