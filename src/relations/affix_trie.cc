#include "src/relations/affix_trie.h"

namespace concord {

AffixTrie::AffixTrie(bool reversed) : reversed_(reversed) { nodes_.resize(1); }

void AffixTrie::Clear() {
  nodes_.assign(1, Node{});
  edges_.clear();
  terminals_.clear();
}

int32_t AffixTrie::Child(int32_t node, char c) const {
  for (int32_t e = nodes_[node].first_edge; e != kNone; e = edges_[e].next) {
    if (edges_[e].label == c) {
      return edges_[e].child;
    }
  }
  return kNone;
}

void AffixTrie::Insert(std::string_view key, ParamRef ref) {
  if (key.empty()) {
    return;  // Empty keys are affixes of everything; pure noise.
  }
  int32_t node = 0;
  for (size_t depth = 0; depth < key.size(); ++depth) {
    char c = At(key, depth);
    int32_t next = Child(node, c);
    if (next == kNone) {
      next = static_cast<int32_t>(nodes_.size());
      nodes_.push_back(Node{});
      edges_.push_back(Edge{c, next, nodes_[node].first_edge});
      nodes_[node].first_edge = static_cast<int32_t>(edges_.size() - 1);
    }
    node = next;
  }
  int32_t terminal = static_cast<int32_t>(terminals_.size());
  terminals_.push_back(Terminal{ref, kNone});
  if (nodes_[node].last_terminal == kNone) {
    nodes_[node].first_terminal = terminal;
  } else {
    terminals_[nodes_[node].last_terminal].next = terminal;
  }
  nodes_[node].last_terminal = terminal;
}

void AffixTrie::FindAffixesOf(std::string_view query, std::vector<Hit>* out) const {
  int32_t node = 0;
  for (size_t depth = 0; depth < query.size(); ++depth) {
    // Terminals at `depth` are proper affixes (length `depth` < query length) once we
    // are past the root; the root's terminals would be empty keys, never inserted.
    if (depth > 0) {
      for (int32_t t = nodes_[node].first_terminal; t != kNone; t = terminals_[t].next) {
        out->push_back(Hit{terminals_[t].ref, static_cast<int>(depth)});
      }
    }
    node = Child(node, At(query, depth));
    if (node == kNone) {
      return;
    }
  }
  // Note: terminals at the final node have length == query length (equality), which is
  // deliberately not reported.
}

}  // namespace concord
