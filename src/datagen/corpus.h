// Generated corpora: configuration texts plus metadata and the ground-truth ledger.
//
// The paper evaluates on two proprietary datasets (mobile edge DCs, a cloud WAN).
// These structures carry our synthetic equivalents; see DESIGN.md §1 for the
// substitution rationale.
#ifndef SRC_DATAGEN_CORPUS_H_
#define SRC_DATAGEN_CORPUS_H_

#include <string>
#include <vector>

#include "src/datagen/ground_truth.h"
#include "src/pattern/lexer.h"
#include "src/pattern/parser.h"

namespace concord {

struct GeneratedConfig {
  std::string name;
  std::string text;
};

struct GeneratedCorpus {
  std::string role;  // "E1", "E2", "W1" ... "W8".
  std::vector<GeneratedConfig> configs;
  std::vector<GeneratedConfig> metadata;
  GroundTruth truth;

  size_t TotalLines() const;
};

// Parses a corpus (configs + metadata) into a dataset with the given options.
// Configs parse on all cores through ParseConfigs, metadata after them on the
// calling thread. A config whose parse throws aborts the whole call: the first
// failure in input order is rethrown as std::runtime_error.
Dataset ParseCorpus(const GeneratedCorpus& corpus, ParseOptions options = {},
                    const Lexer* lexer = nullptr);

}  // namespace concord

#endif  // SRC_DATAGEN_CORPUS_H_
