// RQ4 (§5.5): utility in the CI/CD deployment — replay of the three production
// incidents on the edge-datacenter corpora. For each incident the harness reports
// whether Concord's contracts flag the regression, and with which contract category,
// mirroring the paper's narratives:
//
//   1. Missing route aggregation  — relational (contains) violation;
//   2. MAC broadcast loop         — metadata equality violation on spurious vlans;
//   3. Multiple VRFs              — ordering violation between redistribute/neighbor.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/check/checker.h"
#include "src/datagen/mutation.h"
#include "src/learn/learner.h"
#include "src/util/strings.h"

namespace {

using namespace concord;

struct World {
  GeneratedCorpus corpus;
  Dataset train;
  ContractSet set;
};

World Learn() {
  World w;
  EdgeOptions edge;
  edge.sites = 8 * BenchScale();
  edge.drift_rate = 0.0;
  edge.type_noise_rate = 0.0;
  w.corpus = GenerateEdge(edge);
  w.train = ParseCorpus(w.corpus);
  Learner learner(BenchLearnOptions());
  w.set = learner.Learn(w.train).set;
  return w;
}

CheckResult CheckMutated(World* w, const GeneratedCorpus& corpus) {
  Dataset tests;
  tests.patterns = w->train.patterns;
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
  Checker checker(&w->set, &tests.patterns);
  return checker.Check(tests, CheckOptions{.measure_coverage = false});
}

void Report(World* w, const char* title, const std::optional<Mutation>& mutation,
            const CheckResult& result) {
  std::printf("%s\n", title);
  if (!mutation) {
    std::printf("  (could not stage the incident)\n\n");
    return;
  }
  std::printf("  staged: %s\n", mutation->description.c_str());
  size_t in_config = 0;
  for (const Violation& v : result.violations) {
    if (v.config == mutation->config_name) {
      ++in_config;
    }
  }
  std::printf("  verdict: %s — %zu violation(s) in %s (%zu corpus-wide)\n",
              in_config > 0 ? "CAUGHT" : "MISSED", in_config, mutation->config_name.c_str(),
              result.violations.size());
  int shown = 0;
  for (const Violation& v : result.violations) {
    if (v.config == mutation->config_name && shown < 3) {
      const Contract& c = w->set.contracts[v.contract_index];
      std::printf("    [%s] line %d: %s\n", std::string(ContractKindName(c.kind)).c_str(),
                  v.line_number, v.message.c_str());
      ++shown;
    }
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("RQ4: incident replays on the edge CI/CD corpus (scale=%d)\n\n", BenchScale());
  {
    World w = Learn();
    GeneratedCorpus mutated = w.corpus;
    auto m = ReplayMissingAggregate(&mutated);
    Report(&w, "Incident 1: missing route aggregation", m, CheckMutated(&w, mutated));
  }
  {
    World w = Learn();
    GeneratedCorpus mutated = w.corpus;
    auto m = ReplaySpuriousVlan(&mutated);
    Report(&w, "Incident 2: MAC broadcast loop (spurious vlan blocks vs metadata)", m,
           CheckMutated(&w, mutated));
  }
  {
    World w = Learn();
    GeneratedCorpus mutated = w.corpus;
    auto m = ReplayVrfReorder(&mutated);
    Report(&w, "Incident 3: multiple VRFs (ordering broken between redistribute and "
               "peer-group)",
           m, CheckMutated(&w, mutated));
  }
  return 0;
}
