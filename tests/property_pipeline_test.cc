// End-to-end property tests over randomized corpora (TEST_P sweeps):
//
//   * determinism — learning the same corpus twice yields identical contract sets;
//   * self-consistency — a pristine corpus checks clean against its own contracts;
//   * the §3.9 coverage contract — physically deleting a line reported as covered (by
//     a removal-sensitive category) must produce at least one violation;
//   * optimized ≡ naive — the relation-finding structures change complexity, not
//     results.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/baseline/naive.h"
#include "src/check/checker.h"
#include "src/datagen/edge_gen.h"
#include "src/datagen/wan_gen.h"
#include "src/learn/learner.h"
#include "src/util/io.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace concord {
namespace {

LearnOptions Options() {
  LearnOptions options;
  options.support = 4;
  options.confidence = 0.95;
  options.score_threshold = 4.0;
  return options;
}

GeneratedCorpus CorpusForSeed(int seed) {
  if (seed % 2 == 0) {
    EdgeOptions edge;
    edge.sites = 6;
    edge.seed = static_cast<uint64_t>(seed) + 1;
    edge.drift_rate = 0.0;
    edge.type_noise_rate = 0.0;
    edge.optional_feature_rate = 1.0;
    return GenerateEdge(edge);
  }
  WanOptions wan;
  wan.role = 1 + (seed / 2) % 8;
  wan.devices = 10;
  wan.seed = static_cast<uint64_t>(seed) + 1;
  wan.drift_rate = 0.0;
  return GenerateWan(wan);
}

class PipelineProperty : public ::testing::TestWithParam<int> {};

TEST_P(PipelineProperty, LearningIsDeterministic) {
  GeneratedCorpus corpus = CorpusForSeed(GetParam());
  Dataset d1 = ParseCorpus(corpus);
  Dataset d2 = ParseCorpus(corpus);
  Learner learner(Options());
  ContractSet s1 = learner.Learn(d1).set;
  ContractSet s2 = learner.Learn(d2).set;
  ASSERT_EQ(s1.contracts.size(), s2.contracts.size());
  for (size_t i = 0; i < s1.contracts.size(); ++i) {
    EXPECT_EQ(s1.contracts[i].Key(d1.patterns), s2.contracts[i].Key(d2.patterns));
  }
}

TEST_P(PipelineProperty, PristineCorpusChecksClean) {
  GeneratedCorpus corpus = CorpusForSeed(GetParam());
  Dataset dataset = ParseCorpus(corpus);
  Learner learner(Options());
  ContractSet set = learner.Learn(dataset).set;
  Checker checker(&set, &dataset.patterns);
  CheckResult result = checker.Check(dataset);
  EXPECT_TRUE(result.violations.empty())
      << corpus.role << ": " << result.violations.size() << " violations, first: "
      << (result.violations.empty() ? "" : result.violations[0].message);
}

// The §3.9 definition, validated literally: a line is covered iff removing it would
// violate at least one contract. Removal happens in the pattern-stream model (the
// parsed line is deleted; other lines keep their embedded patterns — see checker.h).
// Unique coverage uses tested-line semantics and is excluded (DESIGN.md §1).
TEST_P(PipelineProperty, RemovingACoveredLineViolatesSomething) {
  GeneratedCorpus corpus = CorpusForSeed(GetParam());
  Dataset dataset = ParseCorpus(corpus);
  Learner learner(Options());
  ContractSet set = learner.Learn(dataset).set;
  Checker checker(&set, &dataset.patterns);
  CheckResult baseline = checker.Check(dataset);
  ASSERT_TRUE(baseline.violations.empty());

  constexpr uint8_t kUniqueBit = 1u << static_cast<uint8_t>(CoverageKind::kUnique);
  SplitMix64 rng(static_cast<uint64_t>(GetParam()) * 31337 + 7);

  int tested = 0;
  for (size_t ci = 0; ci < baseline.per_config.size() && tested < 6; ++ci) {
    const ConfigCoverage& per = baseline.per_config[ci];
    // Sample one removal-covered line from this config.
    std::vector<size_t> candidates;
    for (size_t li = 0; li < per.kind_bits.size(); ++li) {
      if ((per.kind_bits[li] & ~kUniqueBit) != 0) {
        candidates.push_back(li);
      }
    }
    if (candidates.empty() || rng.Chance(0.5)) {
      continue;
    }
    size_t pick = candidates[rng.Below(candidates.size())];
    int line_number = per.line_numbers[pick];

    // Delete that parsed line (pattern-stream removal) and re-check the corpus.
    Dataset tests;
    tests.patterns = dataset.patterns;
    tests.configs = dataset.configs;
    tests.metadata = dataset.metadata;
    std::vector<ParsedLine>& lines = tests.configs[ci].lines;
    std::string removed = tests.patterns.Get(lines[pick].pattern).text;
    lines.erase(lines.begin() + static_cast<long>(pick));

    Checker recheck(&set, &tests.patterns);
    CheckResult result = recheck.Check(tests, CheckOptions{.measure_coverage = false});
    EXPECT_FALSE(result.violations.empty())
        << corpus.role << " " << per.config << ":" << line_number
        << " was reported covered but removing `" << removed << "` violated nothing";
    ++tested;
  }
  EXPECT_GT(tested, 0) << "property vacuous for " << corpus.role;
}

TEST_P(PipelineProperty, OptimizedEqualsNaiveOnSmallCorpora) {
  // Shrunk corpora keep the naive runtime reasonable.
  GeneratedCorpus corpus;
  if (GetParam() % 2 == 0) {
    EdgeOptions edge;
    edge.sites = 5;
    edge.devices_per_site = 1;
    edge.vlans_per_site = 2;
    edge.ethernets = 2;
    edge.seed = static_cast<uint64_t>(GetParam()) + 11;
    edge.drift_rate = 0.0;
    edge.type_noise_rate = 0.0;
    corpus = GenerateEdge(edge);
  } else {
    WanOptions wan;
    wan.role = 1 + (GetParam() / 2) % 8;
    wan.devices = 5;
    wan.seed = static_cast<uint64_t>(GetParam()) + 11;
    wan.drift_rate = 0.0;
    corpus = GenerateWan(wan);
  }
  Dataset dataset = ParseCorpus(corpus);
  LearnOptions options = Options();

  auto fast = LearnKind(ContractKind::kRelational, dataset, options);
  auto slow =
      MineRelationalNaive(dataset, BuildIndexes(dataset), options, /*timeout_seconds=*/60.0);
  ASSERT_TRUE(slow.has_value());

  std::set<std::string> fast_keys, slow_keys;
  for (const Contract& c : fast) {
    fast_keys.insert(c.Key(dataset.patterns));
  }
  for (const Contract& c : *slow) {
    slow_keys.insert(c.Key(dataset.patterns));
  }
  EXPECT_EQ(fast_keys, slow_keys) << corpus.role;
}

TEST_P(PipelineProperty, ParallelMiningMatchesSerial) {
  GeneratedCorpus corpus = CorpusForSeed(GetParam());
  Dataset dataset = ParseCorpus(corpus);
  LearnOptions serial = Options();
  LearnOptions parallel = Options();
  parallel.parallelism = 4;
  auto a = LearnKind(ContractKind::kRelational, dataset, serial);
  auto b = LearnKind(ContractKind::kRelational, dataset, parallel);
  std::set<std::string> ka, kb;
  for (const Contract& c : a) {
    ka.insert(c.Key(dataset.patterns));
  }
  for (const Contract& c : b) {
    kb.insert(c.Key(dataset.patterns));
  }
  EXPECT_EQ(ka, kb) << corpus.role;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace concord
