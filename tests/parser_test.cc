#include "src/pattern/parser.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/contracts/contract_io.h"
#include "src/datagen/corpus.h"
#include "src/datagen/generator.h"
#include "src/learn/learner.h"
#include "src/util/fault.h"

namespace concord {
namespace {

constexpr char kConfig[] = R"(hostname DEV1
!
interface Loopback0
   ip address 10.14.14.34
!
interface Port-Channel110
   evpn ether-segment
      route-target import 00:00:0c:d3:00:6e
!
router bgp 65015
   vlan 251
      rd 10.14.14.117:10251
)";

ParsedConfig ParseWith(Dataset* dataset, const std::string& text, ParseOptions options = {}) {
  static Lexer lexer;
  ConfigParser parser(&lexer, &dataset->patterns, options);
  return parser.Parse("test.cfg", text);
}

TEST(ConfigParser, CanonicalPatternsMatchFigure3) {
  Dataset dataset;
  ParsedConfig config = ParseWith(&dataset, kConfig);

  std::vector<std::string> got;
  for (const ParsedLine& line : config.lines) {
    got.push_back(dataset.patterns.Get(line.pattern).text);
  }
  std::vector<std::string> want = {
      "/hostname DEV[a:num]",
      "/!",
      "/interface Loopback[a:num]",
      "/interface Loopback[num]/ip address [a:ip4]",
      "/!",
      "/interface Port-Channel[a:num]",
      "/interface Port-Channel[num]/evpn ether-segment",
      "/interface Port-Channel[num]/evpn ether-segment/route-target import [a:mac]",
      "/!",
      "/router bgp [a:num]",
      "/router bgp [num]/vlan [a:num]",
      "/router bgp [num]/vlan [num]/rd [a:ip4]:[b:num]",
  };
  EXPECT_EQ(got, want);
}

TEST(ConfigParser, ValuesExtractedOnlyForLeafLine) {
  Dataset dataset;
  ParsedConfig config = ParseWith(&dataset, kConfig);
  // route-target line: single MAC value despite the parent port-channel number.
  const ParsedLine& rt = config.lines[7];
  ASSERT_EQ(rt.values.size(), 1u);
  EXPECT_EQ(rt.values[0], Value::Mac(*MacAddress::Parse("00:00:0c:d3:00:6e")));
  // rd line: ip4 + num.
  const ParsedLine& rd = config.lines[11];
  ASSERT_EQ(rd.values.size(), 2u);
  EXPECT_EQ(rd.values[1], Value::Num(BigInt(10251)));
}

TEST(ConfigParser, RepeatedPatternsShareIds) {
  Dataset dataset;
  ParsedConfig config = ParseWith(&dataset, "vlan 1\nvlan 2\nvlan 3\n");
  ASSERT_EQ(config.lines.size(), 3u);
  EXPECT_EQ(config.lines[0].pattern, config.lines[1].pattern);
  EXPECT_EQ(config.lines[1].pattern, config.lines[2].pattern);
  EXPECT_EQ(dataset.patterns.size(), 1u);
}

TEST(ConfigParser, LineNumbersPreserved) {
  Dataset dataset;
  ParsedConfig config = ParseWith(&dataset, kConfig);
  EXPECT_EQ(config.lines.front().line_number, 1);
  EXPECT_EQ(config.lines.back().line_number, 12);
}

TEST(ConfigParser, NoEmbeddingAblationDropsContext) {
  Dataset dataset;
  ParsedConfig config =
      ParseWith(&dataset, kConfig, ParseOptions{.embed_context = false, .constants = false});
  for (const ParsedLine& line : config.lines) {
    const std::string& text = dataset.patterns.Get(line.pattern).text;
    // Exactly one '/' — the root separator — plus none from parents. (Prefix values
    // would add one, but this config has none.)
    EXPECT_EQ(text.find('/', 1), std::string::npos) << text;
  }
}

TEST(ConfigParser, ConstantsModeInternsExactLines) {
  Dataset dataset;
  ParsedConfig config =
      ParseWith(&dataset, kConfig, ParseOptions{.embed_context = true, .constants = true});
  const ParsedLine& ip = config.lines[3];
  ASSERT_NE(ip.const_pattern, kInvalidPattern);
  const PatternInfo& info = dataset.patterns.Get(ip.const_pattern);
  EXPECT_TRUE(info.is_constant);
  EXPECT_EQ(info.text, "=/interface Loopback[num]/ip address 10.14.14.34");
  EXPECT_TRUE(info.param_types.empty());
}

TEST(ConfigParser, ConstantsOffLeavesInvalidConstPattern) {
  Dataset dataset;
  ParsedConfig config = ParseWith(&dataset, kConfig);
  for (const ParsedLine& line : config.lines) {
    EXPECT_EQ(line.const_pattern, kInvalidPattern);
  }
}

TEST(ConfigParser, MetadataRootedUnderMeta) {
  Dataset dataset;
  Lexer lexer;
  ConfigParser parser(&lexer, &dataset.patterns, ParseOptions{});
  auto lines = parser.ParseMetadata(R"({"nfInfos": [{"vrfName": "mgmt", "vlanId": 251}]})");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(dataset.patterns.Get(lines[1].pattern).text, "@meta/nfInfos/vlanId [a:num]");
  ASSERT_EQ(lines[1].values.size(), 1u);
  EXPECT_EQ(lines[1].values[0], Value::Num(BigInt(251)));
}

TEST(ConfigParser, UntypedPatternErasesTypes) {
  Dataset dataset;
  ParsedConfig c1 = ParseWith(&dataset, "ip address 10.0.0.1\n");
  ParsedConfig c2 = ParseWith(&dataset, "ip address 10.0.0.0/24\n");
  const PatternInfo& p1 = dataset.patterns.Get(c1.lines[0].pattern);
  const PatternInfo& p2 = dataset.patterns.Get(c2.lines[0].pattern);
  EXPECT_NE(p1.text, p2.text);
  EXPECT_EQ(p1.untyped, p2.untyped);  // Both are `/ip address [a:?]`.
}

TEST(Dataset, Totals) {
  Dataset dataset;
  dataset.configs.push_back(ParseWith(&dataset, "vlan 1\nvlan 2\n"));
  dataset.configs.push_back(ParseWith(&dataset, "vlan 3\nhostname X\n"));
  EXPECT_EQ(dataset.TotalLines(), 4u);
  // Patterns: `/vlan [a:num]` (1 param) and `/hostname X` (0 params).
  EXPECT_EQ(dataset.TotalParameters(), 1u);
}

// ---- ParseConfigs: parallel parse with an input-order merge ----------------

const Lexer& TestLexer() {
  static const Lexer lexer;
  return lexer;
}

std::vector<ConfigSource> Sources(const GeneratedCorpus& corpus) {
  std::vector<ConfigSource> sources;
  for (const GeneratedConfig& config : corpus.configs) {
    sources.push_back(ConfigSource{&config.name, &config.text});
  }
  return sources;
}

// The reference: today's serial ConfigParser loop over `start`.
Dataset SerialParse(const GeneratedCorpus& corpus, ParseOptions options,
                    const PatternTable& start) {
  Dataset dataset;
  dataset.patterns = start;
  ConfigParser parser(&TestLexer(), &dataset.patterns, options);
  for (const GeneratedConfig& config : corpus.configs) {
    dataset.configs.push_back(parser.Parse(config.name, config.text));
  }
  return dataset;
}

// Empty when the datasets match in every pattern field (in id order) and every
// parsed line; otherwise the first difference.
std::string FirstDifference(const Dataset& want, const Dataset& got) {
  if (want.patterns.size() != got.patterns.size()) {
    return "pattern count " + std::to_string(want.patterns.size()) + " vs " +
           std::to_string(got.patterns.size());
  }
  for (PatternId id = 0; id < want.patterns.size(); ++id) {
    const PatternInfo& a = want.patterns.Get(id);
    const PatternInfo& b = got.patterns.Get(id);
    if (a.text != b.text || a.untyped != b.untyped || a.unnamed != b.unnamed ||
        a.param_types != b.param_types || a.is_constant != b.is_constant) {
      return "pattern " + std::to_string(id) + ": " + a.text + " vs " + b.text;
    }
  }
  if (want.configs.size() != got.configs.size()) {
    return "config count " + std::to_string(want.configs.size()) + " vs " +
           std::to_string(got.configs.size());
  }
  for (size_t c = 0; c < want.configs.size(); ++c) {
    const ParsedConfig& a = want.configs[c];
    const ParsedConfig& b = got.configs[c];
    if (a.name != b.name || a.format != b.format || a.lines.size() != b.lines.size()) {
      return "config " + a.name + " vs " + b.name;
    }
    for (size_t l = 0; l < a.lines.size(); ++l) {
      const ParsedLine& x = a.lines[l];
      const ParsedLine& y = b.lines[l];
      if (x.pattern != y.pattern || x.const_pattern != y.const_pattern ||
          x.values != y.values || x.line_number != y.line_number) {
        return a.name + " line " + std::to_string(l);
      }
    }
  }
  return "";
}

// A unit-test-sized corpus of each generator family.
GeneratedCorpus SmallCorpus(const std::string& family, uint64_t seed) {
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

// A table as `concord check` starts it: holding the patterns of contracts
// learned (constants on) from another corpus of the same family.
PatternTable ContractTable(const std::string& family) {
  ParseOptions parse;
  parse.constants = true;
  Dataset train = ParseCorpus(SmallCorpus(family, 99), parse);
  LearnOptions options;
  options.support = 3;
  options.constants = true;
  LearnResult learned = Learner(options).Learn(train);
  std::string json = SerializeContracts(learned.set, train.patterns);
  PatternTable table;
  std::string error;
  EXPECT_TRUE(ParseContracts(json, &table, &error).has_value()) << error;
  EXPECT_GT(table.size(), 0u);
  return table;
}

// Parallelism 7 splits the files into blocks of unequal size, and into more
// blocks than a 4-core pool has threads.
TEST(ParseConfigs, EqualsTheSerialLoopAtEveryParallelism) {
  for (const std::string family : {"edge", "wan", "orch", "junos", "xmlish"}) {
    GeneratedCorpus corpus = SmallCorpus(family, 7);
    ASSERT_GT(corpus.configs.size(), 7u) << family;
    PatternTable contracts = ContractTable(family);
    for (bool constants : {false, true}) {
      ParseOptions options;
      options.constants = constants;
      for (const PatternTable* start : {static_cast<const PatternTable*>(nullptr),
                                        static_cast<const PatternTable*>(&contracts)}) {
        PatternTable initial = start != nullptr ? *start : PatternTable();
        Dataset want = SerialParse(corpus, options, initial);
        for (int parallelism : {1, 2, 4, 7, 0}) {
          Dataset got;
          got.patterns = initial;
          std::vector<ParseFailure> failures =
              ParseConfigs(TestLexer(), options, Sources(corpus), parallelism, &got);
          EXPECT_TRUE(failures.empty());
          EXPECT_EQ(FirstDifference(want, got), "")
              << family << " constants=" << constants
              << " contracts=" << (start != nullptr) << " parallelism=" << parallelism;
        }
      }
    }
  }
}

class ParseConfigsFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }
};

// Which file takes the third parse hit depends on the workers' timing, but
// exactly one is skipped and the rest merge as if it had never been listed.
TEST_F(ParseConfigsFaultTest, InjectedParseFaultSkipsExactlyOneFile) {
  GeneratedCorpus corpus = SmallCorpus("edge", 3);
  ASSERT_TRUE(FaultInjector::Global().Configure("parse:fail_nth=3"));
  Dataset got;
  std::vector<ParseFailure> failures =
      ParseConfigs(TestLexer(), ParseOptions{}, Sources(corpus), 4, &got);
  FaultInjector::Global().Reset();
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].reason,
            "injected fault: parse: " + corpus.configs[failures[0].index].name);
  GeneratedCorpus rest = corpus;
  rest.configs.erase(rest.configs.begin() + static_cast<long>(failures[0].index));
  EXPECT_EQ(FirstDifference(SerialParse(rest, ParseOptions{}, PatternTable()), got), "");
}

}  // namespace
}  // namespace concord
