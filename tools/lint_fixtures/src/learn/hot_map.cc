// Fixture: node-based hash containers in the learner's mine and aggregate
// stages must be flagged; FlatMap and ordered containers stay legal.
#include <unordered_set>  // LINT-EXPECT: hot-map

namespace concord {

inline void BadMineScratch() {
  std::unordered_set<uint32_t> marked_lines;  // LINT-EXPECT: hot-map
  std::unordered_map<std::string, double> diversity;  // LINT-EXPECT: hot-map
  (void)marked_lines;
  (void)diversity;
}

inline void LegalUses() {
  FlatMap<uint64_t, uint32_t> candidates;  // legal: the sanctioned open-addressing table
  std::map<std::string, int> ordered;  // legal: ordered output, not a hot probe
  (void)candidates;
  (void)ordered;
}

}  // namespace concord
