#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/baseline/naive.h"
#include "src/baseline/strict_parser.h"
#include "src/datagen/edge_gen.h"
#include "src/datagen/wan_gen.h"
#include "tests/test_util.h"

namespace concord {
namespace {

LearnOptions SmallOptions() {
  LearnOptions options;
  options.support = 3;
  options.confidence = 0.9;
  options.score_threshold = 2.0;
  return options;
}

TEST(NaiveBaseline, MatchesOptimizedOnSmallInput) {
  // Multi-digit diverse values so both engines see identical witness semantics.
  std::vector<std::string> texts;
  for (int i = 0; i < 6; ++i) {
    std::string v = std::to_string(5000 + i * 137);
    std::string ip = "10.20." + std::to_string(30 + i) + ".7";
    texts.push_back("alpha " + v + "\nbeta " + v + "\naddr " + ip + "\nnet " + ip + "/32\n");
  }
  Dataset d = BuildDataset(texts);

  auto fast = LearnKind(ContractKind::kRelational, d, SmallOptions());
  auto slow =
      MineRelationalNaive(d, BuildIndexes(d), SmallOptions(), /*timeout_seconds=*/30.0);
  ASSERT_TRUE(slow.has_value());

  auto keys = [&](const std::vector<Contract>& contracts) {
    std::set<std::string> out;
    for (const Contract& c : contracts) {
      out.insert(c.Key(d.patterns));
    }
    return out;
  };
  EXPECT_EQ(keys(fast), keys(*slow));
  EXPECT_FALSE(fast.empty());
}

TEST(NaiveBaseline, TimesOutOnBudget) {
  // A corpus large enough that a zero-second budget must trip the timeout check.
  EdgeOptions options;
  options.sites = 6;
  Dataset d = ParseCorpus(GenerateEdge(options));
  auto indexes = BuildIndexes(d);
  NaiveStats stats;
  auto result = MineRelationalNaive(d, indexes, SmallOptions(), /*timeout_seconds=*/0.0, &stats);
  EXPECT_FALSE(result.has_value());
  EXPECT_TRUE(stats.timed_out);
  EXPECT_GT(stats.total_candidates, 0u);
}

TEST(NaiveBaseline, CandidateSpaceIsQuadraticInParameters) {
  // Doubling the number of distinct parameters roughly quadruples the naive
  // candidate space — the reason the paper's brute force cannot scale.
  auto make = [](int distinct_patterns) {
    std::vector<std::string> texts;
    for (int c = 0; c < 4; ++c) {
      std::string text;
      for (int i = 0; i < distinct_patterns; ++i) {
        // Letter-only key names so each line lexes to a distinct pattern (digits in
        // the key would be extracted as parameters, collapsing the patterns).
        std::string key{static_cast<char>('a' + i / 26), static_cast<char>('a' + i % 26)};
        text += "knob-" + key + " value " + std::to_string(7000 + i * 3) + "\n";
      }
      texts.push_back(text);
    }
    return BuildDataset(texts);
  };
  Dataset d1 = make(10);
  Dataset d2 = make(20);
  auto i1 = BuildIndexes(d1);
  auto i2 = BuildIndexes(d2);
  NaiveStats s1, s2;
  MineRelationalNaive(d1, i1, SmallOptions(), 30.0, &s1);
  MineRelationalNaive(d2, i2, SmallOptions(), 30.0, &s2);
  ASSERT_GT(s1.total_candidates, 0u);
  double ratio =
      static_cast<double>(s2.total_candidates) / static_cast<double>(s1.total_candidates);
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.0);
}

TEST(StrictParser, RecognizesClassicCommandsOnly) {
  EXPECT_TRUE(StrictParserRecognizes("hostname DEV1"));
  EXPECT_TRUE(StrictParserRecognizes("   ip address 10.0.0.1"));
  EXPECT_TRUE(StrictParserRecognizes("router bgp 65015"));
  EXPECT_FALSE(StrictParserRecognizes("evpn ether-segment"));
  EXPECT_FALSE(StrictParserRecognizes("   route-target import 00:00:0c:d3:00:6e"));
  EXPECT_FALSE(StrictParserRecognizes("vxlan vlan 251 vni 51251"));
  EXPECT_FALSE(StrictParserRecognizes("set policy-options community CL permit 65000:4001"));
  EXPECT_FALSE(StrictParserRecognizes("!"));
  EXPECT_FALSE(StrictParserRecognizes(""));
}

TEST(StrictParser, EdgeCorpusCoverageIsPartial) {
  // The §2 observation: a conventional grammar sees only part of the config.
  EdgeOptions options;
  GeneratedCorpus corpus = GenerateEdge(options);
  StrictParseResult result = StrictParse(corpus.configs);
  EXPECT_GT(result.total_lines, 0u);
  double fraction = result.RecognizedFraction();
  EXPECT_GT(fraction, 0.3);
  EXPECT_LT(fraction, 0.9);
}

TEST(StrictParser, FlatWanRecognitionIsPartial) {
  // Junos-style stanzas the grammar knows are recognized; vendor policy extensions
  // (policy-options, srlg, QoS, macsec, ...) are not.
  WanOptions options;
  options.role = 6;
  GeneratedCorpus corpus = GenerateWan(options);
  StrictParseResult result = StrictParse(corpus.configs);
  EXPECT_GT(result.RecognizedFraction(), 0.2);
  EXPECT_LT(result.RecognizedFraction(), 0.9);
}

}  // namespace
}  // namespace concord
