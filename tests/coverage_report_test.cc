#include <gtest/gtest.h>

#include "src/check/checker.h"
#include "src/learn/learner.h"
#include "src/report/report.h"
#include "tests/test_util.h"

namespace concord {
namespace {

struct Fixture {
  Dataset dataset;
  ContractSet set;
  CheckResult result;

  Fixture() {
    std::vector<std::string> texts;
    for (int i = 1; i <= 6; ++i) {
      texts.push_back("hostname R" + std::to_string(i) +
                      "\nrouter bgp 65015\n   router-id 10.0.0." + std::to_string(i) + "\n");
    }
    dataset = BuildDataset(texts);
    LearnOptions options;
    options.support = 3;
    options.confidence = 0.9;
    Learner learner(options);
    set = learner.Learn(dataset).set;
    Checker checker(&set, &dataset.patterns);
    result = checker.Check(dataset);
  }
};

TEST(PerLineCoverage, OneEntryPerConfigLine) {
  Fixture f;
  ASSERT_EQ(f.result.per_config.size(), 6u);
  for (const ConfigCoverage& per : f.result.per_config) {
    EXPECT_EQ(per.line_numbers.size(), 3u);
    EXPECT_EQ(per.kind_bits.size(), 3u);
    EXPECT_EQ(per.line_numbers[0], 1);
    EXPECT_EQ(per.line_numbers[2], 3);
  }
}

TEST(PerLineCoverage, BitsSumToAggregates) {
  Fixture f;
  size_t covered = 0;
  size_t total = 0;
  for (const ConfigCoverage& per : f.result.per_config) {
    total += per.kind_bits.size();
    for (uint8_t bits : per.kind_bits) {
      if (bits != 0) {
        ++covered;
      }
    }
  }
  EXPECT_EQ(covered, f.result.covered_lines);
  EXPECT_EQ(total, f.result.total_lines);
}

TEST(PerLineCoverage, DisabledWhenCoverageOff) {
  Fixture f;
  Checker checker(&f.set, &f.dataset.patterns);
  CheckResult result = checker.Check(f.dataset, CheckOptions{.measure_coverage = false});
  EXPECT_TRUE(result.per_config.empty());
}

TEST(CoverageReportText, ListsEveryLineWithCategories) {
  Fixture f;
  std::string report = CoverageReportText(f.result);
  EXPECT_NE(report.find("config0.cfg:1 "), std::string::npos);
  EXPECT_NE(report.find("config0.cfg:3 "), std::string::npos);
  // Each config contributes a section header with its covered/total counts.
  EXPECT_NE(report.find("## config0.cfg ("), std::string::npos);
  // The hostname line is present-covered (singleton pattern in every config).
  size_t pos = report.find("config0.cfg:1 ");
  ASSERT_NE(pos, std::string::npos);
  std::string line = report.substr(pos, report.find('\n', pos) - pos);
  EXPECT_NE(line.find("present"), std::string::npos) << line;
}

TEST(CoverageReportText, UntestedLinesSayUntested) {
  // A corpus whose second line is uncovered: pattern repeats per config, values vary.
  std::vector<std::string> texts;
  for (int i = 1; i <= 6; ++i) {
    texts.push_back("hostname R" + std::to_string(i) + "\nknob " +
                    std::to_string(1000 + i * 97) + "\nknob " + std::to_string(4000 + i * 31) +
                    "\n");
  }
  Dataset dataset = BuildDataset(texts);
  LearnOptions options;
  options.support = 3;
  options.confidence = 0.9;
  options.learn_ordering = false;
  options.learn_unique = false;
  Learner learner(options);
  ContractSet set = learner.Learn(dataset).set;
  Checker checker(&set, &dataset.patterns);
  CheckResult result = checker.Check(dataset);
  std::string report = CoverageReportText(result);
  EXPECT_NE(report.find("untested"), std::string::npos);
}

}  // namespace
}  // namespace concord
