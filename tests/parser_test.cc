#include "src/pattern/parser.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/contracts/contract_io.h"
#include "src/datagen/corpus.h"
#include "src/datagen/generator.h"
#include "src/learn/learner.h"
#include "src/util/fault.h"
#include "src/util/trace.h"
#include "tests/test_util.h"

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

// A table as `concord check` starts it: holding the patterns of contracts
// learned (constants on) from another corpus of the same family.
PatternTable ContractTable(const std::string& family) {
  ParseOptions parse;
  parse.constants = true;
  Dataset train = ParseCorpus(SmallFamilyCorpus(family, 99), parse);
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
  for (const std::string family : kFamilies) {
    GeneratedCorpus corpus = SmallFamilyCorpus(family, 7);
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
          EXPECT_EQ(FirstParseDifference(want, got), "")
              << family << " constants=" << constants
              << " contracts=" << (start != nullptr) << " parallelism=" << parallelism;
        }
      }
    }
  }
}

// Once the pattern table and the parser's buffers are warm, a line allocates
// only its values vector, and a file its embedding and its line vector. The
// second parse of a 40-device wan corpus (perfbench's role and scale) interns
// nothing new, so it counts just those: about 1.0 per line, 0.9 of it values
// vectors (13.3 when every line built its own strings and BigInts).
TEST(ConfigParser, WarmParseAllocatesAtMostOneAndAHalfTimesPerLine) {
  Knobs knobs;
  knobs.Set("role", "2");
  knobs.Set("devices", "40");
  knobs.Set("scale", "4");
  GeneratedCorpus corpus = GenerateFamily(GeneratorRegistry::Global(), "wan", 1, knobs);
  Dataset dataset;
  ConfigParser parser(&TestLexer(), &dataset.patterns, ParseOptions{});
  for (const GeneratedConfig& config : corpus.configs) {
    dataset.configs.push_back(parser.Parse(config.name, config.text));
  }
  const size_t patterns = dataset.patterns.size();
  const size_t lines = dataset.TotalLines();
  ASSERT_GT(lines, 10000u);

  std::vector<ParsedConfig> again;
  again.reserve(corpus.configs.size());
  EnableAllocationCounting(true);
  const uint64_t before = AllocationCount();
  for (const GeneratedConfig& config : corpus.configs) {
    again.push_back(parser.Parse(config.name, config.text));
  }
  const uint64_t allocations = AllocationCount() - before;
  EnableAllocationCounting(false);

  EXPECT_EQ(dataset.patterns.size(), patterns);
  const double per_line = static_cast<double>(allocations) / static_cast<double>(lines);
  EXPECT_LE(per_line, 1.5) << allocations << " allocations over " << lines << " lines";
}

class ParseConfigsFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }
};

// Which file takes the third parse hit depends on the workers' timing, but
// exactly one is skipped and the rest merge as if it had never been listed.
TEST_F(ParseConfigsFaultTest, InjectedParseFaultSkipsExactlyOneFile) {
  GeneratedCorpus corpus = SmallFamilyCorpus("edge", 3);
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
  EXPECT_EQ(FirstParseDifference(SerialParse(rest, ParseOptions{}, PatternTable()), got), "");
}

}  // namespace
}  // namespace concord
