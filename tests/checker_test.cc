#include "src/check/checker.h"

#include <gtest/gtest.h>

#include <set>

#include "src/contracts/contract_io.h"
#include "src/datagen/edge_gen.h"
#include "src/datagen/mutation.h"
#include "src/learn/index.h"
#include "src/learn/learner.h"
#include "src/report/report.h"
#include "src/util/cancellation.h"
#include "src/util/error_code.h"
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

std::string GoodConfig(int i) {
  int vlan = 1000 + i * 17;
  std::string out;
  out += "hostname DEV" + std::to_string(i) + "\n";
  out += "interface Loopback0\n";
  out += "   ip address 10.14." + std::to_string(i + 1) + ".34\n";
  out += "ip prefix-list loopback\n";
  out += "   seq 10 permit 10.14." + std::to_string(i + 1) + ".34/32\n";
  out += "   seq 20 permit 10.15." + std::to_string(i + 1) + ".0/24\n";
  out += "   seq 30 permit 10.16." + std::to_string(i + 1) + ".0/24\n";
  out += "   seq 40 permit 10.17." + std::to_string(i + 1) + ".0/24\n";
  out += "router bgp 65015\n";
  out += "   vlan " + std::to_string(vlan) + "\n";
  out += "      rd 10.99.0." + std::to_string(i + 1) + ":10" + std::to_string(vlan) + "\n";
  return out;
}

struct LearnedWorld {
  Dataset train;
  ContractSet set;
};

LearnedWorld LearnWorld(int n = 8) {
  std::vector<std::string> texts;
  for (int i = 0; i < n; ++i) {
    texts.push_back(GoodConfig(i));
  }
  LearnedWorld world{BuildDataset(texts), {}};
  Learner learner(SmallOptions());
  world.set = learner.Learn(world.train).set;
  return world;
}

// Parses test configs into the SAME dataset/table so contract pattern ids bind.
Dataset ParseTests(LearnedWorld* world, const std::vector<std::string>& texts) {
  static Lexer lexer;
  Dataset tests;
  // Share the pattern table by moving it across; simpler: parse with a parser bound to
  // the training table but a fresh config list.
  Dataset bound;
  bound.patterns = world->train.patterns;  // Copy: ids remain consistent.
  ConfigParser parser(&lexer, &bound.patterns, ParseOptions{});
  for (size_t i = 0; i < texts.size(); ++i) {
    bound.configs.push_back(parser.Parse("test" + std::to_string(i) + ".cfg", texts[i]));
  }
  return bound;
}

size_t CountViolationsOfKind(const CheckResult& result, const ContractSet& set,
                             ContractKind kind) {
  size_t count = 0;
  for (const Violation& v : result.violations) {
    if (set.contracts[v.contract_index].kind == kind) {
      ++count;
    }
  }
  return count;
}

TEST(Checker, CleanConfigsHaveNoViolations) {
  LearnedWorld world = LearnWorld();
  // Fresh configs drawn from the same family (but new index 100..102).
  std::vector<std::string> texts;
  for (int i = 100; i < 103; ++i) {
    texts.push_back(GoodConfig(i));
  }
  Dataset tests = ParseTests(&world, texts);
  Checker checker(&world.set, &tests.patterns);
  CheckResult result = checker.Check(tests);
  EXPECT_TRUE(result.violations.empty());
  EXPECT_GT(result.covered_lines, 0u);
}

TEST(Checker, MissingLineTriggersPresentViolation) {
  LearnedWorld world = LearnWorld();
  std::string bad = GoodConfig(50);
  bad = ReplaceAll(bad, "ip prefix-list loopback\n", "");
  Dataset tests = ParseTests(&world, {bad});
  Checker checker(&world.set, &tests.patterns);
  CheckResult result = checker.Check(tests);
  EXPECT_GE(CountViolationsOfKind(result, world.set, ContractKind::kPresent), 1u);
}

TEST(Checker, BrokenRelationTriggersRelationalViolation) {
  LearnedWorld world = LearnWorld();
  std::string bad = GoodConfig(50);
  // Loopback address not covered by the prefix list anymore.
  bad = ReplaceAll(bad, "seq 10 permit 10.14.51.34/32", "seq 10 permit 10.14.52.34/32");
  Dataset tests = ParseTests(&world, {bad});
  Checker checker(&world.set, &tests.patterns);
  CheckResult result = checker.Check(tests);
  size_t relational = CountViolationsOfKind(result, world.set, ContractKind::kRelational);
  EXPECT_GE(relational, 1u);
  // The violation localizes to the ip address line (line 3).
  bool found_line3 = false;
  for (const Violation& v : result.violations) {
    if (world.set.contracts[v.contract_index].kind == ContractKind::kRelational &&
        v.line_number == 3) {
      found_line3 = true;
    }
  }
  EXPECT_TRUE(found_line3);
}

TEST(Checker, SequenceGapTriggersViolation) {
  LearnedWorld world = LearnWorld();
  std::string bad = GoodConfig(50);
  bad = ReplaceAll(bad, "seq 30", "seq 35");  // 10, 20, 35, 40.
  Dataset tests = ParseTests(&world, {bad});
  Checker checker(&world.set, &tests.patterns);
  CheckResult result = checker.Check(tests);
  EXPECT_GE(CountViolationsOfKind(result, world.set, ContractKind::kSequence), 1u);
}

TEST(Checker, DuplicateUniqueValueAcrossConfigsFlagged) {
  LearnedWorld world = LearnWorld();
  // Two test configs with the same hostname.
  std::string a = GoodConfig(60);
  std::string b = GoodConfig(61);
  b = ReplaceAll(b, "hostname DEV61", "hostname DEV60");
  Dataset tests = ParseTests(&world, {a, b});
  Checker checker(&world.set, &tests.patterns);
  CheckResult result = checker.Check(tests);
  EXPECT_GE(CountViolationsOfKind(result, world.set, ContractKind::kUnique), 1u);
  bool mentions_first = false;
  for (const Violation& v : result.violations) {
    if (world.set.contracts[v.contract_index].kind == ContractKind::kUnique &&
        v.message.find("test0.cfg") != std::string::npos) {
      mentions_first = true;
    }
  }
  EXPECT_TRUE(mentions_first);
}

TEST(Checker, ReorderedBlockTriggersOrderingViolation) {
  LearnedWorld world = LearnWorld();
  std::string bad = GoodConfig(50);
  // Swap the hostname and interface lines: "interface Loopback0" loses its successor
  // relation to the ip address line.
  bad = ReplaceAll(bad, "interface Loopback0\n   ip address 10.14.51.34\n",
                   "interface Loopback0\nbanner something\n   ip address 10.14.51.34\n");
  Dataset tests = ParseTests(&world, {bad});
  Checker checker(&world.set, &tests.patterns);
  CheckResult result = checker.Check(tests);
  EXPECT_GE(CountViolationsOfKind(result, world.set, ContractKind::kOrdering), 1u);
}

TEST(Checker, CoverageCountsAndCategories) {
  LearnedWorld world = LearnWorld();
  std::vector<std::string> texts = {GoodConfig(70), GoodConfig(71), GoodConfig(72)};
  Dataset tests = ParseTests(&world, texts);
  Checker checker(&world.set, &tests.patterns);
  CheckResult result = checker.Check(tests);
  EXPECT_EQ(result.total_lines, 3u * 11u);
  EXPECT_GT(result.covered_lines, result.total_lines / 2);
  EXPECT_LE(result.covered_lines, result.total_lines);
  // Present coverage: singleton patterns like `hostname` are covered.
  EXPECT_GT(result.covered_by_kind[static_cast<size_t>(CoverageKind::kPresent)], 0u);
  EXPECT_GT(result.covered_by_kind[static_cast<size_t>(CoverageKind::kOrdering)], 0u);
  EXPECT_GT(result.covered_by_kind[static_cast<size_t>(CoverageKind::kUnique)], 0u);
  EXPECT_GT(result.covered_by_kind[static_cast<size_t>(CoverageKind::kSequence)], 0u);
}

TEST(Checker, CoverageSkipsMeasurementWhenDisabled) {
  LearnedWorld world = LearnWorld();
  Dataset tests = ParseTests(&world, {GoodConfig(80)});
  Checker checker(&world.set, &tests.patterns);
  CheckResult result = checker.Check(tests, CheckOptions{.measure_coverage = false});
  EXPECT_EQ(result.covered_lines, 0u);
  EXPECT_GT(result.total_lines, 0u);
}

TEST(Checker, SequenceCoverageOnlyInterior) {
  // Directly construct a sequence contract over a 4-element run.
  Dataset d = BuildDataset({"seq 10 x\nseq 20 x\nseq 30 x\nseq 40 x\n"});
  ContractSet set;
  Contract c;
  c.kind = ContractKind::kSequence;
  c.pattern = d.configs[0].lines[0].pattern;
  c.param = 0;
  set.contracts.push_back(c);
  Checker checker(&set, &d.patterns);
  CheckResult result = checker.Check(d);
  EXPECT_TRUE(result.violations.empty());
  EXPECT_EQ(result.covered_by_kind[static_cast<size_t>(CoverageKind::kSequence)], 2u);
}

TEST(Checker, TypeViolationFlagged) {
  // Train where `mtu` is always a number; test where one is a prefix.
  Dataset d = BuildDataset({"ip address 10.0.0.1", "ip address 10.0.0.2",
                            "ip address 10.0.0.3", "ip address 10.0.0.4",
                            "ip address 10.0.0.5", "ip address 10.0.0.0/24"});
  LearnOptions options = SmallOptions();
  options.confidence = 0.8;  // 1/6 = 0.167 < 0.2 => pfx4 flagged as invalid.
  Learner learner(options);
  ContractSet set = learner.Learn(d).set;
  ASSERT_GE(set.CountKind(ContractKind::kType), 1u);

  Dataset tests = BuildDataset({"ip address 10.1.0.0/16"});
  // Rebind contracts to the test table.
  std::string json = SerializeContracts(set, d.patterns);
  std::string error;
  auto loaded = ParseContracts(json, &tests.patterns, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  Checker checker(&*loaded, &tests.patterns);
  CheckResult result = checker.Check(tests);
  EXPECT_GE(CountViolationsOfKind(result, *loaded, ContractKind::kType), 1u);
}

// Every byte a check renders: the JSON report and the per-line coverage listing.
std::string RenderedBytes(const CheckResult& result, const ContractSet& set,
                          const PatternTable& table) {
  return ReportJson(result, set, table) + "\n--- coverage ---\n" + CoverageReportText(result);
}

// The scan grid (config tiles x contract chunks) must not show in the output:
// at parallelism 2, 4 and 7 the report and coverage bytes equal the serial
// run's, with coverage on, with it off, and off under a prune mask. Returns the
// serial coverage-on result.
CheckResult ExpectParallelMatchesSerial(const ContractSet& set, const Dataset& tests,
                                        const std::string& label) {
  std::vector<ConfigIndex> indexes = BuildIndexes(tests);
  std::vector<const ConfigIndex*> ptrs;
  for (const ConfigIndex& index : indexes) {
    ptrs.push_back(&index);
  }
  Checker checker(&set, &tests.patterns);
  std::vector<uint8_t> mask(set.contracts.size(), 0);
  for (size_t k = 0; k < mask.size(); k += 3) {
    mask[k] = 1;
  }
  struct Mode {
    const char* name;
    bool coverage;
    const std::vector<uint8_t>* prune;
  };
  CheckResult serial_coverage;
  for (const Mode& mode : {Mode{"coverage on", true, nullptr},
                           Mode{"coverage off", false, nullptr},
                           Mode{"prune mask", false, &mask}}) {
    CheckOptions options;
    options.measure_coverage = mode.coverage;
    options.prune_mask = mode.prune;
    CheckResult serial = checker.Check(ptrs, options);
    const std::string expected = RenderedBytes(serial, set, tests.patterns);
    for (int parallelism : {2, 4, 7}) {
      options.parallelism = parallelism;
      EXPECT_EQ(RenderedBytes(checker.Check(ptrs, options), set, tests.patterns), expected)
          << label << ", " << mode.name << ", parallelism " << parallelism;
    }
    if (mode.coverage) {
      serial_coverage = std::move(serial);
    }
  }
  return serial_coverage;
}

TEST(Checker, ParallelCheckMatchesSerial) {
  LearnedWorld world = LearnWorld();
  std::string bad1 = ReplaceAll(GoodConfig(50), "seq 10 permit 10.14.51.34/32",
                                "seq 10 permit 10.14.99.34/32");
  std::string bad2 = ReplaceAll(GoodConfig(51), "vlan 1867", "vlan 1868");

  // One tile of four configs: the contracts are cut into chunks.
  Dataset four = ParseTests(&world, {GoodConfig(49), bad1, bad2, GoodConfig(52)});
  EXPECT_FALSE(ExpectParallelMatchesSerial(world.set, four, "4 configs").violations.empty());

  // One config, and 33 configs: a full tile plus a one-config tile, with a
  // fault in each.
  Dataset one = ParseTests(&world, {bad1});
  EXPECT_FALSE(ExpectParallelMatchesSerial(world.set, one, "1 config").violations.empty());
  std::vector<std::string> texts;
  for (int i = 0; i < 33; ++i) {
    texts.push_back(GoodConfig(100 + i));
  }
  texts[3] = ReplaceAll(texts[3], "seq 20 permit", "seq 25 permit");
  texts[32] = ReplaceAll(texts[32], "ip address 10.14.133.34", "ip address 10.14.7.34");
  Dataset thirty_three = ParseTests(&world, texts);
  CheckResult result = ExpectParallelMatchesSerial(world.set, thirty_three, "33 configs");
  std::set<std::string> flagged;
  for (const Violation& v : result.violations) {
    flagged.insert(v.config);
  }
  EXPECT_EQ(flagged, (std::set<std::string>{"test3.cfg", "test32.cfg"}));

  // A generated batch of eight tiles with planted faults of every kind,
  // checked against contracts learned from a pristine corpus.
  EdgeOptions edge;
  edge.sites = 8;
  edge.drift_rate = 0.0;
  edge.type_noise_rate = 0.0;
  edge.optional_feature_rate = 1.0;
  GeneratedCorpus train_corpus = GenerateEdge(edge);
  Dataset train = ParseCorpus(train_corpus);
  LearnOptions options;
  options.support = 5;
  options.confidence = 0.9;
  options.score_threshold = 4.0;
  ContractSet set = Learner(options).Learn(train).set;
  ASSERT_GT(set.CountKind(ContractKind::kRelational), 0u);

  edge.sites = 64;
  edge.seed = 3;
  GeneratedCorpus corpus = GenerateEdge(edge);
  ASSERT_GE(corpus.configs.size(), 8 * 32u);
  MutationEngine engine(7);
  int planted = 0;
  for (int i = 0; i < 48; ++i) {
    planted += engine.Apply(&corpus, static_cast<MutationKind>(i % 6)).has_value() ? 1 : 0;
  }
  EXPECT_GE(planted, 24);
  Dataset tests;
  tests.patterns = train.patterns;
  Lexer lexer;
  ConfigParser parser(&lexer, &tests.patterns, ParseOptions{});
  for (const GeneratedConfig& config : corpus.configs) {
    tests.configs.push_back(parser.Parse(config.name, config.text));
  }
  for (const GeneratedConfig& meta : corpus.metadata) {
    for (ParsedLine& line : parser.ParseMetadata(meta.text)) {
      tests.metadata.push_back(std::move(line));
    }
  }
  result = ExpectParallelMatchesSerial(set, tests, "generated edge batch");
  EXPECT_GT(result.violations.size(), 0u);
  EXPECT_GT(result.covered_by_kind[static_cast<size_t>(CoverageKind::kRelEquality)], 0u);

  // Every tile after the first finds its postings by binary search: the batch
  // flags each config exactly as checking that config alone does (unique
  // contracts aside, which compare values across configs).
  Checker checker(&set, &tests.patterns);
  std::vector<ConfigIndex> indexes = BuildIndexes(tests);
  auto per_config = [&set](const std::vector<Violation>& violations) {
    std::vector<std::string> out;
    for (const Violation& v : violations) {
      if (set.contracts[v.contract_index].kind != ContractKind::kUnique) {
        out.push_back(v.config + ":" + std::to_string(v.line_number) + ":" +
                      std::to_string(v.contract_index) + ":" + v.message);
      }
    }
    return out;
  };
  std::vector<Violation> alone;
  for (const ConfigIndex& index : indexes) {
    for (Violation& v : checker.Check({&index}, CheckOptions{}).violations) {
      alone.push_back(std::move(v));
    }
  }
  EXPECT_EQ(per_config(result.violations), per_config(alone));
}

bool SameResult(const CheckResult& a, const CheckResult& b) {
  if (a.violations.size() != b.violations.size()) {
    return false;
  }
  for (size_t i = 0; i < a.violations.size(); ++i) {
    if (a.violations[i].config != b.violations[i].config ||
        a.violations[i].line_number != b.violations[i].line_number ||
        a.violations[i].message != b.violations[i].message ||
        a.violations[i].contract_index != b.violations[i].contract_index) {
      return false;
    }
  }
  return a.configs_checked == b.configs_checked &&
         a.total_lines == b.total_lines && a.covered_lines == b.covered_lines &&
         a.covered_by_kind == b.covered_by_kind;
}

// The type-rule grouping and pattern-slot table are compiled once in the
// constructor; repeated Check calls against one Checker must keep producing
// the exact result a fresh Checker would (the plan is pure, never mutated).
TEST(Checker, RepeatedChecksReuseThePlanUnchanged) {
  LearnedWorld world = LearnWorld();
  std::string bad1 = ReplaceAll(GoodConfig(50), "seq 10 permit 10.14.51.34/32",
                                "seq 10 permit 10.14.99.34/32");
  std::string bad2 = ReplaceAll(GoodConfig(51), "ip address",
                                "ip address not-an-address #");
  Dataset tests = ParseTests(&world, {GoodConfig(49), bad1, bad2});

  Checker reused(&world.set, &tests.patterns);
  CheckResult first = reused.Check(tests);
  for (int round = 0; round < 3; ++round) {
    CheckResult again = reused.Check(tests);
    Checker fresh(&world.set, &tests.patterns);
    CheckResult baseline = fresh.Check(tests);
    EXPECT_TRUE(SameResult(first, again)) << "round " << round;
    EXPECT_TRUE(SameResult(first, baseline)) << "round " << round;
  }
}

TEST(Checker, NoCoverageOptionKeepsViolations) {
  LearnedWorld world = LearnWorld();
  std::string bad = ReplaceAll(GoodConfig(50), "vlan 1850", "vlan 1851");
  Dataset tests = ParseTests(&world, {GoodConfig(49), bad});
  std::vector<ConfigIndex> indexes = BuildIndexes(tests);
  std::vector<const ConfigIndex*> ptrs;
  for (const ConfigIndex& index : indexes) {
    ptrs.push_back(&index);
  }

  Checker checker(&world.set, &tests.patterns);
  CheckResult full = checker.Check(ptrs, CheckOptions{});
  CheckOptions no_coverage;
  no_coverage.measure_coverage = false;
  CheckResult lean = checker.Check(ptrs, no_coverage);
  EXPECT_EQ(lean.violations.size(), full.violations.size());
  EXPECT_EQ(lean.covered_lines, 0u);
  EXPECT_TRUE(lean.per_config.empty());
}

TEST(Checker, ExpiredDeadlineThrowsAndLeavesTheCheckerUsable) {
  LearnedWorld world = LearnWorld();
  Dataset tests = ParseTests(&world, {GoodConfig(48), GoodConfig(49)});
  std::vector<ConfigIndex> indexes = BuildIndexes(tests);
  std::vector<const ConfigIndex*> ptrs = {&indexes[0], &indexes[1]};

  Checker checker(&world.set, &tests.patterns);
  CheckOptions expired;
  expired.deadline = Deadline::After(0);  // Already expired.
  EXPECT_THROW(checker.Check(ptrs, expired), DeadlineExceeded);
  // The expiry poisons nothing: the next check on the same checker succeeds.
  CheckResult next = checker.Check(ptrs, CheckOptions{});
  EXPECT_EQ(next.configs_checked, 2u);
}

TEST(Checker, ViolationMessagesNameTheContractSide) {
  LearnedWorld world = LearnWorld();
  std::string bad = GoodConfig(50);
  bad = ReplaceAll(bad, "seq 10 permit 10.14.51.34/32", "seq 10 permit 10.14.52.34/32");
  Dataset tests = ParseTests(&world, {bad});
  Checker checker(&world.set, &tests.patterns);
  CheckResult result = checker.Check(tests);
  bool informative = false;
  for (const Violation& v : result.violations) {
    if (v.message.find("10.14.51.34") != std::string::npos) {
      informative = true;
    }
  }
  EXPECT_TRUE(informative);
}

}  // namespace
}  // namespace concord
