// Operator feedback loop (§4): reviewing violations and suppressing false-positive
// contracts so the next run stays quiet.
//
// A fleet is learned, a legitimate (intended) configuration change is rolled out to
// every device, and the stale contracts flag it. The operator reviews the HTML/JSON
// report, marks those contracts as outdated via their stable keys, and the re-check
// passes without relearning.
//
//   $ ./feedback_loop
#include <iostream>
#include <set>

#include "src/check/checker.h"
#include "src/contracts/suppression.h"
#include "src/datagen/edge_gen.h"
#include "src/learn/learner.h"
#include "src/util/strings.h"

int main() {
  using namespace concord;

  EdgeOptions edge;
  edge.sites = 8;
  edge.drift_rate = 0.0;
  edge.type_noise_rate = 0.0;
  edge.optional_feature_rate = 1.0;
  GeneratedCorpus corpus = GenerateEdge(edge);
  // Constant learning (§4) pins exact line text — the mode that catches value-only
  // changes like an NTP server move.
  ParseOptions parse;
  parse.constants = true;
  Dataset train = ParseCorpus(corpus, parse);

  LearnOptions options;
  options.support = 5;
  options.confidence = 0.9;
  options.score_threshold = 4.0;
  options.constants = true;
  Learner learner(options);
  ContractSet contracts = learner.Learn(train).set;
  std::cout << "learned " << contracts.contracts.size() << " contracts\n";

  // An intentional fleet-wide redesign: the NTP infrastructure moves. The old
  // contracts (present + relations involving the old address) are now stale.
  GeneratedCorpus redesigned = corpus;
  for (GeneratedConfig& config : redesigned.configs) {
    config.text = ReplaceAll(config.text, "ntp server 10.250.0.1", "ntp server 10.99.0.1");
    config.text = ReplaceAll(config.text, "ntp server 10.250.0.2", "ntp server 10.99.0.2");
  }

  Dataset tests;
  tests.patterns = train.patterns;
  Lexer lexer;
  ConfigParser parser(&lexer, &tests.patterns, parse);
  for (const GeneratedConfig& config : redesigned.configs) {
    tests.configs.push_back(parser.Parse(config.name, config.text));
  }
  for (const GeneratedConfig& meta : redesigned.metadata) {
    for (ParsedLine& line : parser.ParseMetadata(meta.text)) {
      tests.metadata.push_back(std::move(line));
    }
  }

  Checker checker(&contracts, &tests.patterns);
  CheckResult before = checker.Check(tests, CheckOptions{.measure_coverage = false});
  std::set<std::string> stale_keys;
  for (const Violation& v : before.violations) {
    stale_keys.insert(contracts.contracts[v.contract_index].Key(tests.patterns));
  }
  std::cout << "redesign flagged by " << stale_keys.size() << " stale contract(s), "
            << before.violations.size() << " violations total; e.g.:\n";
  if (!before.violations.empty()) {
    std::cout << "  " << before.violations[0].config << ": " << before.violations[0].message
              << "\n";
  }

  // The operator dismisses them in the review UI; the durable form is a suppression
  // list of contract keys (exactly what the JSON report's "key" field carries).
  SuppressionList suppressions;
  for (const std::string& key : stale_keys) {
    suppressions.Add(key);
  }
  size_t dropped = suppressions.Apply(&contracts, tests.patterns);
  std::cout << "operator suppressed " << dropped << " contract(s)\n";

  Checker recheck(&contracts, &tests.patterns);
  CheckResult after = recheck.Check(tests, CheckOptions{.measure_coverage = false});
  std::cout << "re-check: " << after.violations.size() << " violation(s)\n";
  return after.violations.empty() ? 0 : 1;
}
