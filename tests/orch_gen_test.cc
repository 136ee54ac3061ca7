#include "src/datagen/orch_gen.h"

#include <gtest/gtest.h>

#include "src/check/checker.h"
#include "src/format/embed.h"
#include "src/learn/learner.h"

namespace concord {
namespace {

LearnOptions Options() {
  LearnOptions options;
  options.support = 5;
  options.confidence = 0.9;
  options.score_threshold = 4.0;
  return options;
}

TEST(OrchGen, ProducesYaml) {
  GeneratedCorpus corpus = GenerateOrchestration(OrchOptions{});
  ASSERT_EQ(corpus.configs.size(), 25u);
  EXPECT_EQ(DetectFormat(corpus.configs[0].text), FormatCategory::kYaml);
}

TEST(OrchGen, YamlContextShowsUpInPatterns) {
  GeneratedCorpus corpus = GenerateOrchestration(OrchOptions{});
  Dataset dataset = ParseCorpus(corpus);
  bool nested_port = false;
  for (const ParsedLine& line : dataset.configs[0].lines) {
    if (dataset.patterns.Get(line.pattern).text == "/listen:/port: [a:num]") {
      nested_port = true;
    }
  }
  EXPECT_TRUE(nested_port);
}

TEST(OrchGen, LearnsNodeIdentityContracts) {
  GeneratedCorpus corpus = GenerateOrchestration(OrchOptions{});
  Dataset dataset = ParseCorpus(corpus);
  Learner learner(Options());
  ContractSet set = learner.Learn(dataset).set;

  bool cert_equality = false;
  bool node_unique = false;
  for (const Contract& c : set.contracts) {
    if (c.kind == ContractKind::kRelational && c.relation == RelationKind::kEquals) {
      const std::string& p1 = dataset.patterns.Get(c.pattern).text;
      const std::string& p2 = dataset.patterns.Get(c.pattern2).text;
      if (p1.find("nodeName") != std::string::npos &&
          p2.find("certFile") != std::string::npos) {
        cert_equality = true;
        EXPECT_TRUE(corpus.truth.IsTruePositive(c, dataset.patterns));
      }
    }
    if (c.kind == ContractKind::kUnique &&
        dataset.patterns.Get(c.pattern).text.find("nodeName") != std::string::npos) {
      node_unique = true;
    }
  }
  EXPECT_TRUE(cert_equality);
  EXPECT_TRUE(node_unique);
}

TEST(OrchGen, UpstreamPortSequenceLearned) {
  OrchOptions options;
  options.upstreams = 4;  // 7000, 7100, 7200, 7300 — a real progression.
  GeneratedCorpus corpus = GenerateOrchestration(options);
  Dataset dataset = ParseCorpus(corpus);
  Learner learner(Options());
  ContractSet set = learner.Learn(dataset).set;
  bool found = false;
  for (const Contract& c : set.contracts) {
    if (c.kind == ContractKind::kSequence &&
        dataset.patterns.Get(c.pattern).text.find("port") != std::string::npos) {
      found = true;
      EXPECT_TRUE(corpus.truth.IsTruePositive(c, dataset.patterns));
    }
  }
  EXPECT_TRUE(found);
}

TEST(OrchGen, PrecisionIsHigh) {
  GeneratedCorpus corpus = GenerateOrchestration(OrchOptions{});
  Dataset dataset = ParseCorpus(corpus);
  LearnOptions options = Options();
  options.learn_ordering = false;
  Learner learner(options);
  ContractSet set = learner.Learn(dataset).set;
  ASSERT_GT(set.contracts.size(), 5u);
  size_t tp = 0;
  for (const Contract& c : set.contracts) {
    if (corpus.truth.IsTruePositive(c, dataset.patterns)) {
      ++tp;
    }
  }
  EXPECT_GT(static_cast<double>(tp) / static_cast<double>(set.contracts.size()), 0.8)
      << tp << " of " << set.contracts.size();
}

TEST(OrchGen, BuggyDescriptorIsCaught) {
  GeneratedCorpus corpus = GenerateOrchestration(OrchOptions{});
  Dataset train = ParseCorpus(corpus);
  Learner learner(Options());
  ContractSet set = learner.Learn(train).set;

  // The classic copy-paste bug: a node's cert path names a different node.
  GeneratedCorpus mutated = corpus;
  std::string& text = mutated.configs[3].text;
  size_t pos = text.find("/etc/certs/node-");
  ASSERT_NE(pos, std::string::npos);
  size_t end = text.find(".pem", pos);
  ASSERT_NE(end, std::string::npos);
  text.replace(pos, end - pos, "/etc/certs/node-113-999");

  Dataset tests;
  tests.patterns = train.patterns;
  Lexer lexer;
  ConfigParser parser(&lexer, &tests.patterns, ParseOptions{});
  for (const GeneratedConfig& config : mutated.configs) {
    tests.configs.push_back(parser.Parse(config.name, config.text));
  }
  Checker checker(&set, &tests.patterns);
  CheckResult result = checker.Check(tests, CheckOptions{.measure_coverage = false});
  bool flagged = false;
  for (const Violation& v : result.violations) {
    if (v.config == mutated.configs[3].name) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
}

TEST(OrchGen, FlatAblationLosesNestedContext) {
  GeneratedCorpus corpus = GenerateOrchestration(OrchOptions{});
  Dataset embedded = ParseCorpus(corpus);
  Dataset flat = ParseCorpus(corpus, ParseOptions{.embed_context = false, .constants = false});
  // The two listen ports (port/adminPort under listen:) and upstream ports merge
  // without context; pattern counts must strictly shrink.
  EXPECT_LT(flat.patterns.size(), embedded.patterns.size());
}

}  // namespace
}  // namespace concord
