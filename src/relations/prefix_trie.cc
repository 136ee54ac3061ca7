#include "src/relations/prefix_trie.h"

namespace concord {

namespace {

std::array<uint8_t, 16> BytesOf(const Ipv4Address& addr) {
  std::array<uint8_t, 16> bytes{};
  uint32_t bits = addr.bits();
  bytes[0] = static_cast<uint8_t>(bits >> 24);
  bytes[1] = static_cast<uint8_t>(bits >> 16);
  bytes[2] = static_cast<uint8_t>(bits >> 8);
  bytes[3] = static_cast<uint8_t>(bits);
  return bytes;
}

int BitAt(const std::array<uint8_t, 16>& bytes, int index) {
  return (bytes[index / 8] >> (7 - index % 8)) & 1;
}

}  // namespace

PrefixTrie::PrefixTrie() {
  nodes_.resize(2);
  root4_ = 0;
  root6_ = 1;
}

void PrefixTrie::InsertBits(const std::array<uint8_t, 16>& bytes, int prefix_len, bool v6,
                            ParamRef ref) {
  int32_t node = v6 ? root6_ : root4_;
  for (int i = 0; i < prefix_len; ++i) {
    int bit = BitAt(bytes, i);
    if (nodes_[node].child[bit] == -1) {
      nodes_[node].child[bit] = static_cast<int32_t>(nodes_.size());
      nodes_.push_back(Node{});
    }
    node = nodes_[node].child[bit];
  }
  int32_t terminal = static_cast<int32_t>(terminals_.size());
  terminals_.push_back(Terminal{ref, -1});
  if (nodes_[node].last_terminal == -1) {
    nodes_[node].first_terminal = terminal;
  } else {
    terminals_[nodes_[node].last_terminal].next = terminal;
  }
  nodes_[node].last_terminal = terminal;
}

void PrefixTrie::FindBits(const std::array<uint8_t, 16>& bytes, int query_len, bool v6,
                          std::vector<Hit>* out) const {
  int32_t node = v6 ? root6_ : root4_;
  for (int depth = 0; depth <= query_len; ++depth) {
    for (int32_t t = nodes_[node].first_terminal; t != -1; t = terminals_[t].next) {
      out->push_back(Hit{terminals_[t].ref, depth});
    }
    if (depth == query_len) {
      break;
    }
    int bit = BitAt(bytes, depth);
    int32_t child = nodes_[node].child[bit];
    if (child == -1) {
      break;
    }
    node = child;
  }
}

void PrefixTrie::Insert(const Ipv4Network& network, ParamRef ref) {
  InsertBits(BytesOf(network.address()), network.prefix_len(), /*v6=*/false, ref);
}

void PrefixTrie::Insert(const Ipv6Network& network, ParamRef ref) {
  InsertBits(network.address().bytes(), network.prefix_len(), /*v6=*/true, ref);
}

void PrefixTrie::FindContaining(const Ipv4Address& addr, std::vector<Hit>* out) const {
  FindBits(BytesOf(addr), 32, /*v6=*/false, out);
}

void PrefixTrie::FindContaining(const Ipv4Network& network, std::vector<Hit>* out) const {
  FindBits(BytesOf(network.address()), network.prefix_len(), /*v6=*/false, out);
}

void PrefixTrie::FindContaining(const Ipv6Address& addr, std::vector<Hit>* out) const {
  FindBits(addr.bytes(), 128, /*v6=*/true, out);
}

void PrefixTrie::FindContaining(const Ipv6Network& network, std::vector<Hit>* out) const {
  FindBits(network.address().bytes(), network.prefix_len(), /*v6=*/true, out);
}

}  // namespace concord
