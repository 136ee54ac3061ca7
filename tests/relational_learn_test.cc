#include <gtest/gtest.h>

#include "src/contracts/contract_io.h"
#include "src/learn/artifact_store.h"
#include "src/learn/learner.h"
#include "src/util/strings.h"
#include "tests/test_util.h"

namespace concord {
namespace {

LearnOptions SmallOptions() {
  LearnOptions options;
  options.support = 3;
  options.confidence = 0.9;
  options.score_threshold = 3.0;
  return options;
}

// Builds one Figure-1-style edge config; the variable pieces differ per device so that
// diversity scoring can accumulate.
std::string EdgeConfig(int i) {
  int channel = 100 + i * 7;           // Port channel number.
  std::string mac_last = ToHex(100 + i * 7);
  int vlan = 200 + i * 13;
  std::string ip = "10.14." + std::to_string(i + 1) + ".34";
  std::string out;
  out += "hostname DEV" + std::to_string(i) + "\n";
  out += "interface Loopback0\n";
  out += "   ip address " + ip + "\n";
  out += "interface Port-Channel" + std::to_string(channel) + "\n";
  out += "   evpn ether-segment\n";
  out += "      route-target import 00:00:0c:d3:00:" + mac_last + "\n";
  out += "ip prefix-list loopback\n";
  out += "   seq 10 permit " + ip + "/32\n";
  out += "   seq 20 permit 0.0.0.0/0\n";
  out += "router bgp 65015\n";
  out += "   vlan " + std::to_string(vlan) + "\n";
  out += "      rd 10.99.0." + std::to_string(i + 1) + ":10" + std::to_string(vlan) + "\n";
  return out;
}

Dataset EdgeDataset(int n) {
  std::vector<std::string> texts;
  for (int i = 0; i < n; ++i) {
    texts.push_back(EdgeConfig(i));
  }
  return BuildDataset(texts);
}

const Contract* Find(const std::vector<Contract>& contracts, const Dataset& d,
                     RelationKind relation, const std::string& p1_sub,
                     const std::string& p2_sub) {
  for (const Contract& c : contracts) {
    if (c.relation != relation) {
      continue;
    }
    if (d.patterns.Get(c.pattern).text.find(p1_sub) == std::string::npos) {
      continue;
    }
    if (d.patterns.Get(c.pattern2).text.find(p2_sub) == std::string::npos) {
      continue;
    }
    return &c;
  }
  return nullptr;
}

TEST(LearnRelational, LearnsFigure1Contract1_HexMacEquality) {
  Dataset d = EdgeDataset(8);
  auto contracts = LearnKind(ContractKind::kRelational, d, SmallOptions());
  const Contract* c =
      Find(contracts, d, RelationKind::kEquals, "interface Port-Channel[a:num]",
           "route-target import [a:mac]");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->transform1.kind, TransformKind::kHex);
  EXPECT_EQ(c->transform2.kind, TransformKind::kMacSegment);
  EXPECT_EQ(c->transform2.arg, 6);
  EXPECT_GE(c->confidence, 0.99);
}

TEST(LearnRelational, LearnsFigure1Contract2_IpContainedInPrefixList) {
  Dataset d = EdgeDataset(8);
  auto contracts = LearnKind(ContractKind::kRelational, d, SmallOptions());
  const Contract* c = Find(contracts, d, RelationKind::kContains, "ip address [a:ip4]",
                           "seq [a:num] permit [b:pfx4]");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->param, 0);
  EXPECT_EQ(c->param2, 1);  // The pfx4 is the second captured value.
}

TEST(LearnRelational, LearnsFigure1Contract3_VlanSuffixOfRd) {
  Dataset d = EdgeDataset(8);
  auto contracts = LearnKind(ContractKind::kRelational, d, SmallOptions());
  const Contract* c =
      Find(contracts, d, RelationKind::kSuffixOf, "vlan [a:num]", "rd [a:ip4]:[b:num]");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->param2, 1);
}

TEST(LearnRelational, SpuriousDefaultPrefixContractRejected) {
  // The rd IP (10.99.0.x) is only contained in 0.0.0.0/0, which scores zero — the
  // spurious contract from Challenge 3 must not be learned.
  Dataset d = EdgeDataset(8);
  auto contracts = LearnKind(ContractKind::kRelational, d, SmallOptions());
  const Contract* c =
      Find(contracts, d, RelationKind::kContains, "rd [a:ip4]:[b:num]", "seq [a:num] permit");
  EXPECT_EQ(c, nullptr);
}

TEST(LearnRelational, BrokenDependencyLowersConfidence) {
  // In 3 of 10 configs the MAC does not encode the channel number: confidence 0.7 < C.
  std::vector<std::string> texts;
  for (int i = 0; i < 10; ++i) {
    std::string cfg = EdgeConfig(i);
    if (i < 3) {
      cfg = ReplaceAll(cfg, "00:00:0c:d3:00:", "00:00:0c:d3:ff:");
      cfg = ReplaceAll(cfg, "route-target import 00:00:0c:d3:ff:" + ToHex(100 + i * 7),
                       "route-target import 00:00:0c:d3:ff:01");
    }
    texts.push_back(cfg);
  }
  Dataset d = BuildDataset(texts);
  auto contracts = LearnKind(ContractKind::kRelational, d, SmallOptions());
  const Contract* c =
      Find(contracts, d, RelationKind::kEquals, "interface Port-Channel[a:num]",
           "route-target import [a:mac]");
  EXPECT_EQ(c, nullptr);
}

TEST(LearnRelational, ScoreThresholdFiltersLowDiversity) {
  // All configs relate the same single small value; diversity score stays tiny.
  std::vector<std::string> texts(8, "left 5\nright 5\n");
  Dataset d = BuildDataset(texts);
  LearnOptions options = SmallOptions();
  options.score_threshold = 3.0;
  auto contracts = LearnKind(ContractKind::kRelational, d, options);
  EXPECT_EQ(Find(contracts, d, RelationKind::kEquals, "left", "right"), nullptr);

  // With diverse, specific values the same shape is learned.
  texts.clear();
  for (int i = 0; i < 8; ++i) {
    std::string v = std::to_string(4000 + i * 37);
    texts.push_back("left " + v + "\nright " + v + "\n");
  }
  Dataset d2 = BuildDataset(texts);
  auto contracts2 = LearnKind(ContractKind::kRelational, d2, options);
  EXPECT_NE(Find(contracts2, d2, RelationKind::kEquals, "left", "right"), nullptr);
}

TEST(LearnRelational, SupportFilterSkipsRarePatterns) {
  std::vector<std::string> texts(8, "alpha 4242\nbeta 4242\n");
  texts[0] += "gamma 4242\n";  // gamma appears once: below support.
  Dataset d = BuildDataset(texts);
  auto contracts = LearnKind(ContractKind::kRelational, d, SmallOptions());
  for (const Contract& c : contracts) {
    EXPECT_EQ(d.patterns.Get(c.pattern).text.find("gamma"), std::string::npos);
  }
}

TEST(LearnRelational, MetadataRelationsLearned) {
  // §3.7 / RQ4 example 2: config vlans must match metadata vlan ids.
  std::vector<std::string> texts;
  Dataset d;
  Lexer lexer;
  ConfigParser parser(&lexer, &d.patterns, ParseOptions{});
  for (int i = 0; i < 6; ++i) {
    int vlan = 1000 + i * 17;
    d.configs.push_back(parser.Parse(
        "cfg" + std::to_string(i) + ".cfg",
        "router bgp 65015\n   vlan " + std::to_string(vlan) + "\n"));
    // Shared metadata describes every vlan.
    if (i == 0) {
      std::string meta = "{\"nfInfos\": [";
      for (int j = 0; j < 6; ++j) {
        if (j > 0) {
          meta += ",";
        }
        meta += "{\"vlanId\": " + std::to_string(1000 + j * 17) + "}";
      }
      meta += "]}";
      d.metadata = parser.ParseMetadata(meta);
    }
  }
  auto contracts = LearnKind(ContractKind::kRelational, d, SmallOptions());
  const Contract* c = Find(contracts, d, RelationKind::kEquals, "vlan [a:num]", "@meta");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(d.patterns.Get(c->pattern2).text, "@meta/nfInfos/vlanId [a:num]");
}

// 120 configs relating `left N` to `right N`, three values each: 2-digit values
// in the first third, 3-digit in the second, 4-digit in the last. The equality
// candidates see 360 distinct witnesses, more than the 256 the diversity score
// keeps, and which 256 they are decides the learned score.
std::vector<std::string> CappedDiversityCorpus() {
  std::vector<std::string> texts;
  for (int i = 0; i < 120; ++i) {
    const int base = i < 40 ? 10 : i < 80 ? 100 : 1000;
    std::string text;
    for (int k = 0; k < 3; ++k) {
      std::string v = std::to_string(base + (i % 40) * 3 + k);
      text += "left " + v + "\nright " + v + "\n";
    }
    texts.push_back(text);
  }
  return texts;
}

// The diversity cap keeps the 256 smallest witness texts of the union, so the
// learned bytes do not depend on config order, parallelism or the store, which
// aggregates in name order (cfg0, cfg1, cfg10, ...).
TEST(LearnRelational, DiversityCapIsIndependentOfConfigOrder) {
  const std::vector<std::string> texts = CappedDiversityCorpus();
  std::vector<std::string> reversed(texts.rbegin(), texts.rend());
  auto learn = [](const std::vector<std::string>& corpus, LearnOptions options) {
    Dataset d = BuildDataset(corpus);
    return SerializeContracts(Learner(options).Learn(d).set, d.patterns);
  };
  const std::string expected = learn(texts, LearnOptions{});
  EXPECT_NE(expected.find("\"score\""), std::string::npos);
  for (int parallelism : {1, 4}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    LearnOptions options;
    options.parallelism = parallelism;
    EXPECT_EQ(learn(texts, options), expected);
    EXPECT_EQ(learn(reversed, options), expected);

    Lexer lexer;
    ArtifactStore store(&lexer, ParseOptions{});
    for (size_t i = texts.size(); i-- > 0;) {
      store.Upsert("cfg" + std::to_string(i), texts[i]);
    }
    EXPECT_EQ(SerializeContracts(Learner(options).Learn(store).set, store.patterns()),
              expected);
  }
}

}  // namespace
}  // namespace concord
