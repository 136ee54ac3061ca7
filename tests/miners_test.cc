#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace concord {
namespace {

LearnOptions SmallOptions() {
  LearnOptions options;
  options.support = 3;
  options.confidence = 0.9;
  return options;
}

std::vector<std::string> Replicate(const std::string& text, int n) {
  return std::vector<std::string>(n, text);
}

const Contract* FindByPattern(const std::vector<Contract>& contracts, const Dataset& dataset,
                              const std::string& pattern_text) {
  for (const Contract& c : contracts) {
    if (c.pattern != kInvalidPattern && dataset.patterns.Get(c.pattern).text == pattern_text) {
      return &c;
    }
  }
  return nullptr;
}

// ---------- Present ----------

TEST(LearnPresent, UniversalPatternsLearned) {
  Dataset d = BuildDataset(Replicate("hostname X\nntp server 10.0.0.1\n", 5));
  auto contracts = LearnKind(ContractKind::kPresent, d, SmallOptions());
  EXPECT_NE(FindByPattern(contracts, d, "/hostname X"), nullptr);
  EXPECT_NE(FindByPattern(contracts, d, "/ntp server [a:ip4]"), nullptr);
}

TEST(LearnPresent, RarePatternNotLearned) {
  std::vector<std::string> texts = Replicate("common line\n", 9);
  texts.push_back("common line\nrare line\n");
  Dataset d = BuildDataset(texts);
  auto contracts = LearnKind(ContractKind::kPresent, d, SmallOptions());
  EXPECT_NE(FindByPattern(contracts, d, "/common line"), nullptr);
  EXPECT_EQ(FindByPattern(contracts, d, "/rare line"), nullptr);
}

TEST(LearnPresent, ConfidenceToleratesFewOutliers) {
  // 24 of 25 configs have the line: fraction 0.96 >= C=0.9.
  std::vector<std::string> texts = Replicate("a line\nmostly here\n", 24);
  texts.push_back("a line\n");
  Dataset d = BuildDataset(texts);
  auto contracts = LearnKind(ContractKind::kPresent, d, SmallOptions());
  EXPECT_NE(FindByPattern(contracts, d, "/mostly here"), nullptr);
  const Contract* c = FindByPattern(contracts, d, "/mostly here");
  EXPECT_EQ(c->support, 24);
  EXPECT_NEAR(c->confidence, 0.96, 1e-9);
}

TEST(LearnPresent, BelowSupportNotLearned) {
  Dataset d = BuildDataset(Replicate("solo\n", 2));
  LearnOptions options = SmallOptions();  // support = 3.
  auto contracts = LearnKind(ContractKind::kPresent, d, options);
  EXPECT_TRUE(contracts.empty());
}

// ---------- Ordering ----------

TEST(LearnOrdering, LearnsSuccessorAndPredecessor) {
  Dataset d = BuildDataset(Replicate("interface Po1\n   evpn ether-segment\nfooter\n", 5));
  auto contracts = LearnKind(ContractKind::kOrdering, d, SmallOptions());
  bool succ = false, pred = false;
  for (const Contract& c : contracts) {
    const std::string& p1 = d.patterns.Get(c.pattern).text;
    const std::string& p2 = d.patterns.Get(c.pattern2).text;
    if (p1 == "/interface Po[a:num]" && p2.find("evpn") != std::string::npos && c.successor) {
      succ = true;
    }
    if (p1.find("evpn") != std::string::npos && p2 == "/interface Po[a:num]" && !c.successor) {
      pred = true;
    }
  }
  EXPECT_TRUE(succ);
  EXPECT_TRUE(pred);
}

TEST(LearnOrdering, InconsistentFollowerNotLearned) {
  std::vector<std::string> texts;
  for (int i = 0; i < 3; ++i) {
    texts.push_back("start\nalpha\n");
    texts.push_back("start\nbeta\n");
  }
  Dataset d = BuildDataset(texts);
  auto contracts = LearnKind(ContractKind::kOrdering, d, SmallOptions());
  for (const Contract& c : contracts) {
    EXPECT_NE(d.patterns.Get(c.pattern).text, "/start") << "follower is inconsistent";
  }
}

TEST(LearnOrdering, RepeatedPatternRunNotSelfChained) {
  Dataset d = BuildDataset(Replicate("seq 10 permit 10.0.0.0/8\nseq 20 permit 11.0.0.0/8\nend\n", 5));
  auto contracts = LearnKind(ContractKind::kOrdering, d, SmallOptions());
  for (const Contract& c : contracts) {
    EXPECT_NE(c.pattern, c.pattern2);
  }
}

// ---------- Type ----------

TEST(LearnType, RareTypeFlagged) {
  // 30 ip4 uses vs 1 pfx4 use of `ip address X`.
  std::vector<std::string> texts = Replicate("ip address 10.0.0.1\n", 30);
  texts.push_back("ip address 10.0.0.0/24\n");
  Dataset d = BuildDataset(texts);
  LearnOptions options = SmallOptions();
  options.confidence = 0.96;
  auto contracts = LearnKind(ContractKind::kType, d, options);
  ASSERT_EQ(contracts.size(), 1u);
  EXPECT_EQ(contracts[0].kind, ContractKind::kType);
  EXPECT_EQ(contracts[0].untyped_pattern, "/ip address [a:?]");
  EXPECT_EQ(contracts[0].invalid_type, ValueType::kPfx4);
}

TEST(LearnType, BalancedTypesNotFlagged) {
  // ip4 and ip6 both common: neither is a type error.
  std::vector<std::string> texts;
  for (int i = 0; i < 10; ++i) {
    texts.push_back("ip address 10.0.0.1\n");
    texts.push_back("ip address 2001:db8::1\n");
  }
  Dataset d = BuildDataset(texts);
  auto contracts = LearnKind(ContractKind::kType, d, SmallOptions());
  EXPECT_TRUE(contracts.empty());
}

TEST(LearnType, SingleTypeNotFlagged) {
  Dataset d = BuildDataset(Replicate("mtu 9000\n", 10));
  auto contracts = LearnKind(ContractKind::kType, d, SmallOptions());
  EXPECT_TRUE(contracts.empty());
}

// ---------- Sequence ----------

TEST(LearnSequence, EquidistantValuesLearned) {
  Dataset d = BuildDataset(Replicate("seq 10 permit a\nseq 20 permit a\nseq 30 permit a\n", 5));
  auto contracts = LearnKind(ContractKind::kSequence, d, SmallOptions());
  ASSERT_EQ(contracts.size(), 1u);
  EXPECT_EQ(contracts[0].kind, ContractKind::kSequence);
  EXPECT_EQ(contracts[0].param, 0);
}

TEST(LearnSequence, NonEquidistantNotLearned) {
  Dataset d = BuildDataset(Replicate("seq 10 permit a\nseq 20 permit a\nseq 35 permit a\n", 5));
  auto contracts = LearnKind(ContractKind::kSequence, d, SmallOptions());
  EXPECT_TRUE(contracts.empty());
}

TEST(LearnSequence, PairsAloneAreNotEvidence) {
  // Only two instances per config: no config has >= 3, so no contract.
  Dataset d = BuildDataset(Replicate("seq 10 permit a\nseq 20 permit a\n", 10));
  auto contracts = LearnKind(ContractKind::kSequence, d, SmallOptions());
  EXPECT_TRUE(contracts.empty());
}

TEST(LearnSequence, RepeatedValuesNotASequence) {
  Dataset d = BuildDataset(Replicate("mtu 9000\nmtu 9000\nmtu 9000\n", 5));
  auto contracts = LearnKind(ContractKind::kSequence, d, SmallOptions());
  EXPECT_TRUE(contracts.empty());
}

TEST(LearnSequence, DescendingSequencesCount) {
  Dataset d = BuildDataset(Replicate("pri 30\npri 20\npri 10\n", 5));
  auto contracts = LearnKind(ContractKind::kSequence, d, SmallOptions());
  ASSERT_EQ(contracts.size(), 1u);
}

// ---------- Unique ----------

TEST(LearnUnique, GloballyDistinctValuesLearned) {
  std::vector<std::string> texts;
  for (int i = 0; i < 8; ++i) {
    texts.push_back("hostname DEV" + std::to_string(100 + i) + "\nrole leaf\n");
  }
  Dataset d = BuildDataset(texts);
  auto contracts = LearnKind(ContractKind::kUnique, d, SmallOptions());
  ASSERT_EQ(contracts.size(), 1u);
  EXPECT_EQ(d.patterns.Get(contracts[0].pattern).text, "/hostname DEV[a:num]");
}

TEST(LearnUnique, RepeatedValuesNotLearned) {
  Dataset d = BuildDataset(Replicate("router-id 1.1.1.1\n", 8));
  auto contracts = LearnKind(ContractKind::kUnique, d, SmallOptions());
  EXPECT_TRUE(contracts.empty());
}

TEST(LearnUnique, DuplicateWithinConfigBreaksUniqueness) {
  std::vector<std::string> texts;
  for (int i = 0; i < 8; ++i) {
    int v = 10 + i;
    // Each config lists the same value twice.
    texts.push_back("tag " + std::to_string(v) + "\ntag " + std::to_string(v) + "\n");
  }
  Dataset d = BuildDataset(texts);
  auto contracts = LearnKind(ContractKind::kUnique, d, SmallOptions());
  EXPECT_TRUE(contracts.empty());
}

}  // namespace
}  // namespace concord
