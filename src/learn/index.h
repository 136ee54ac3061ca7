// Per-configuration indexes shared by all miners and by the checker.
//
// Metadata lines (§3.7) are logically appended to every configuration: `lines` exposes
// the config's own lines followed by the dataset's metadata lines, and `by_pattern`
// covers both. Ordering miners must only look at the config's own region
// (`own_line_count`), since metadata has no meaningful adjacency with config text.
#ifndef SRC_LEARN_INDEX_H_
#define SRC_LEARN_INDEX_H_

#include <cstdint>
#include <vector>

#include "src/pattern/parser.h"
#include "src/util/cancellation.h"
#include "src/util/flat_map.h"

namespace concord {

struct ConfigIndex {
  const ParsedConfig* config = nullptr;
  std::vector<const ParsedLine*> lines;  // Own lines, then metadata lines.
  size_t own_line_count = 0;

  // Line indices per pattern id; includes constant patterns when present.
  // Flat open-addressing (hash iteration order): miners sort what they emit and
  // the checker reads it through its postings table, so order never matters.
  FlatMap<PatternId, std::vector<uint32_t>> by_pattern;

  bool ContainsPattern(PatternId id) const { return by_pattern.count(id) > 0; }
};

// Builds the index of a single configuration (the Index stage of the artifact
// pipeline). The index holds pointers into `config` and `metadata`; both must stay
// alive and unmoved for as long as the index is used.
ConfigIndex BuildConfigIndex(const ParsedConfig* config,
                             const std::vector<ParsedLine>& metadata);

// Builds one index per configuration. When `deadline` is given it is polled per
// configuration; expiry raises DeadlineExceeded.
std::vector<ConfigIndex> BuildIndexes(const Dataset& dataset,
                                      const Deadline* deadline = nullptr);

// Same, over externally owned configurations (the service checks cached parsed
// configs that live outside any Dataset). `metadata` is appended to every config.
std::vector<ConfigIndex> BuildIndexes(const std::vector<const ParsedConfig*>& configs,
                                      const std::vector<ParsedLine>& metadata,
                                      const Deadline* deadline = nullptr);

// Number of configurations whose index contains each pattern (dense by PatternId).
std::vector<uint32_t> CountConfigsPerPattern(const Dataset& dataset,
                                             const std::vector<ConfigIndex>& indexes);

}  // namespace concord

#endif  // SRC_LEARN_INDEX_H_
