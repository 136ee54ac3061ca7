// Incremental relearning: full from-scratch relearn vs. a single-config delta
// through the content-addressed artifact store (DESIGN.md "Artifact pipeline").
//
// The shape to look for: the delta path re-runs Parse/Index/Mine for exactly one
// configuration and only pays the (shared) aggregation + minimization cost, so it
// should beat the from-scratch path by well over the 5x acceptance bar, with the
// gap widening as CONCORD_BENCH_SCALE grows the corpus. Results are also recorded
// as JSON in BENCH_INCREMENTAL.json for the CI/tooling harness.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/contracts/contract_io.h"
#include "src/learn/artifact_store.h"
#include "src/learn/learner.h"
#include "src/util/stopwatch.h"

namespace concord {
namespace {

constexpr int kIterations = 11;

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct RelearnTimes {
  double full_s = 0;
  double delta_s = 0;
  std::string delta_contracts;  // The last delta relearn's serialized set.
};

// Times the two relearns in alternation, one of each per round, so load on a
// shared host lands on both sides of the ratio alike.
//
// Full: one from-scratch learn, as `concord learn` runs it: parse the whole
// corpus into a fresh dataset, then mine it.
// Delta: replace a single config's text in the resident store and learn again.
// Everything but that config's Parse/Index/Mine artifacts is reused.
RelearnTimes TimeRelearns(const GeneratedCorpus& corpus, const LearnOptions& options,
                          const Lexer& lexer) {
  ArtifactStore store(&lexer, ParseOptions{});
  for (const GeneratedConfig& config : corpus.configs) {
    store.Upsert(config.name, config.text);
  }
  std::vector<std::string> metadata;
  for (const GeneratedConfig& meta : corpus.metadata) {
    metadata.push_back(meta.text);
  }
  store.SetMetadata(metadata);
  LearnResult warm = Learner(options).Learn(store);  // Populate every artifact.
  (void)warm;

  const GeneratedConfig& target = corpus.configs[corpus.configs.size() / 2];
  RelearnTimes times;
  std::vector<double> full;
  std::vector<double> delta;
  for (int i = 0; i < kIterations; ++i) {
    {
      Stopwatch watch;
      Dataset dataset = ParseCorpus(corpus, ParseOptions{}, &lexer);
      LearnResult result = Learner(options).Learn(dataset);
      full.push_back(watch.ElapsedSeconds());
    }
    // A genuinely new text each round, so the delta is never a parse hit.
    std::string text = target.text + "snmp-server community bench" +
                       std::to_string(i) + "\n";
    Stopwatch watch;
    store.Upsert(target.name, text);
    LearnResult result = Learner(options).Learn(store);
    delta.push_back(watch.ElapsedSeconds());
    times.delta_contracts = SerializeContracts(result.set, store.patterns());
  }
  // The store ends holding the last round's text; a cross-check against a
  // from-scratch learn must apply the same edit.
  times.full_s = Median(std::move(full));
  times.delta_s = Median(std::move(delta));
  return times;
}

}  // namespace
}  // namespace concord

int main() {
  using namespace concord;
  std::printf("Incremental relearn: full from-scratch vs. single-config delta "
              "(scale=%d, median of %d interleaved rounds)\n\n",
              BenchScale(), kIterations);
  std::printf("%-8s %8s %10s %12s %12s %9s\n", "Dataset", "Configs", "Lines", "Full",
              "Delta", "Speedup");

  const std::vector<std::string> roles = {"E1", "E2", "W1"};
  std::string json = "{\n  \"benchmark\": \"incremental_relearn\",\n  \"scale\": " +
                     std::to_string(BenchScale()) + ",\n  \"iterations\": " +
                     std::to_string(kIterations) + ",\n  \"results\": [\n";
  bool all_pass = true;
  for (size_t r = 0; r < roles.size(); ++r) {
    GeneratedCorpus corpus = BenchCorpus(roles[r]);
    Lexer lexer;
    LearnOptions options = BenchLearnOptions();

    const RelearnTimes times = TimeRelearns(corpus, options, lexer);
    const double full = times.full_s;
    const double delta = times.delta_s;

    // Cross-check: the delta path's final state must match a from-scratch learn
    // of the identically edited corpus (the bit-identity invariant under time).
    GeneratedCorpus edited = corpus;
    GeneratedConfig& target = edited.configs[edited.configs.size() / 2];
    target.text += "snmp-server community bench" + std::to_string(kIterations - 1) + "\n";
    Dataset dataset = ParseCorpus(edited, ParseOptions{}, &lexer);
    LearnResult scratch = Learner(options).Learn(dataset);
    bool identical =
        SerializeContracts(scratch.set, dataset.patterns) == times.delta_contracts;

    double speedup = delta > 0 ? full / delta : 0;
    size_t lines = dataset.TotalLines();
    std::printf("%-8s %8zu %10zu %11.4fs %11.4fs %8.1fx%s\n", corpus.role.c_str(),
                corpus.configs.size(), lines, full, delta, speedup,
                identical ? "" : "  (MISMATCH)");
    if (!identical || speedup < 5.0) {
      all_pass = false;
    }

    json += std::string("    {\"dataset\": \"") + corpus.role + "\", \"configs\": " +
            std::to_string(corpus.configs.size()) + ", \"lines\": " +
            std::to_string(lines) + ", \"full_s\": " + std::to_string(full) +
            ", \"delta_s\": " + std::to_string(delta) + ", \"speedup\": " +
            std::to_string(speedup) + ", \"bit_identical\": " +
            (identical ? "true" : "false") + "}" + (r + 1 < roles.size() ? "," : "") +
            "\n";
  }
  json += "  ],\n  \"acceptance\": {\"min_speedup\": 5.0, \"pass\": " +
          std::string(all_pass ? "true" : "false") + "}\n}\n";

  const char* out_path = "BENCH_INCREMENTAL.json";
  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path);
  } else {
    std::printf("\nwarning: could not write %s\n", out_path);
  }
  std::printf("acceptance (>=5x single-config delta, bit-identical): %s\n",
              all_pass ? "PASS" : "FAIL");
  return all_pass ? 0 : 1;
}
