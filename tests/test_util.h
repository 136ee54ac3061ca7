// Shared helpers for Concord tests.
#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "src/contracts/contract.h"
#include "src/datagen/generator.h"
#include "src/learn/learner.h"
#include "src/pattern/lexer.h"
#include "src/pattern/parser.h"

namespace concord {

// Parses each text as one configuration into a fresh dataset.
inline Dataset BuildDataset(const std::vector<std::string>& texts, ParseOptions options = {},
                            const Lexer* lexer = nullptr) {
  static const Lexer kDefaultLexer;
  Dataset dataset;
  ConfigParser parser(lexer != nullptr ? lexer : &kDefaultLexer, &dataset.patterns, options);
  for (size_t i = 0; i < texts.size(); ++i) {
    dataset.configs.push_back(parser.Parse("config" + std::to_string(i) + ".cfg", texts[i]));
  }
  return dataset;
}

// Learns the contracts of one category: Learner with every other category
// disabled and minimization off, so the miner's raw output is what returns.
inline std::vector<Contract> LearnKind(ContractKind kind, const Dataset& dataset,
                                       LearnOptions options) {
  options.learn_present = kind == ContractKind::kPresent;
  options.learn_ordering = kind == ContractKind::kOrdering;
  options.learn_type = kind == ContractKind::kType;
  options.learn_sequence = kind == ContractKind::kSequence;
  options.learn_unique = kind == ContractKind::kUnique;
  options.learn_relational = kind == ContractKind::kRelational;
  options.minimize = false;
  return Learner(options).Learn(dataset).set.contracts;
}

// A unit-test-sized corpus of each generator family: "edge", "wan", "orch",
// "junos" or "xmlish".
inline GeneratedCorpus SmallFamilyCorpus(const std::string& family, uint64_t seed) {
  Knobs knobs;
  if (family == "edge") {
    knobs.Set("sites", "3");
  } else if (family == "wan") {
    knobs.Set("devices", "12");
  } else if (family == "orch") {
    knobs.Set("clusters", "3");
  } else if (family == "junos") {
    knobs.Set("sites", "3");
  } else if (family == "xmlish") {
    knobs.Set("pods", "3");
  }
  return GenerateFamily(GeneratorRegistry::Global(), family, seed, knobs);
}

inline constexpr const char* kFamilies[] = {"edge", "wan", "orch", "junos", "xmlish"};

}  // namespace concord

#endif  // TESTS_TEST_UTIL_H_
