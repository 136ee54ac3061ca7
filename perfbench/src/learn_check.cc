// learn_wan and check_wan: the one-shot CLI path, run in process.
//
//   learn_wan  texts -> ConfigParser::Parse -> Learner::Learn -> SerializeContracts
//   check_wan  contract JSON + texts -> Parse -> ParseContracts -> Checker ->
//              Check(indexes, CheckOptions) -> ReportJson
//
// Every operation calls the public entry points as `concord learn` / `concord
// check` do, with the benchmark's own calls wrapped in concord::TraceSpan. The
// spans cost one relaxed load while tracing is off; a traced operation turns
// the global collector on, and Learner::Learn and Checker::Check add their own
// stage spans inside the benchmark's.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bench.h"
#include "src/check/checker.h"
#include "src/contracts/contract_io.h"
#include "src/datagen/generator.h"
#include "src/datagen/mutation.h"
#include "src/format/embed.h"
#include "src/learn/index.h"
#include "src/learn/learner.h"
#include "src/report/report.h"
#include "src/util/glob.h"
#include "src/util/io.h"
#include "src/util/trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using concord::GeneratedCorpus;
using concord::TraceSpan;

// Corpus sizes: the learn corpus is ~0.28M lines, the checked corpus ~0.5M.
constexpr int kLearnDevices = 1000;
constexpr int kCheckDevices = 1800;
// Set-up repetitions; set-up time is their median.
constexpr int kSetups = 9;
// A contract load and checker plan take well under a millisecond, so each
// check_wan set-up sample times this many and reports their mean.
constexpr int kPlansPerSetup = 200;
// Planted faults: one per this many held-out configs (a few percent).
constexpr size_t kConfigsPerFault = 30;
// Localization floor for a seed with no recorded count: the share of planted
// faults whose config gets a violation within one line of the planted line.
// perfbench/baseline.json records the count for seeds 1-10 and the held-out
// seed; a run of those seeds must localize at least as many.
constexpr double kMinLocalizedShare = 0.5;

GeneratedCorpus WanCorpus(uint64_t seed, int devices) {
  concord::Knobs knobs;
  knobs.Set("role", "2");
  knobs.Set("devices", std::to_string(devices));
  knobs.Set("scale", "4");
  return concord::GenerateFamily(concord::GeneratorRegistry::Global(), "wan", seed, knobs);
}

// `concord learn` in process. `other_cpu_s`, when given, receives the CPU time
// of every thread but the caller's during the learn: the mine stage's workers,
// the only threads a learn starts.
std::string Learn(const GeneratedCorpus& corpus, int parallelism,
                  double* other_cpu_s = nullptr) {
  TraceSpan op("bench", "op");
  // The operation's working set, released under its own span at the end.
  struct State {
    concord::Dataset dataset;
    concord::LearnResult result;
  };
  auto state = std::make_unique<State>();
  {
    TraceSpan span("pattern", "parse");
    state->dataset = concord::ParseCorpus(corpus);
  }
  concord::LearnOptions options;
  options.parallelism = parallelism;
  const double cpu_start = ProcessCpuSeconds() - ThreadCpuSeconds();
  state->result = concord::Learner(options).Learn(state->dataset);
  if (other_cpu_s != nullptr) {
    *other_cpu_s = ProcessCpuSeconds() - ThreadCpuSeconds() - cpu_start;
  }
  std::string bytes;
  {
    TraceSpan span("contracts", "serialize");
    bytes = concord::SerializeContracts(state->result.set, state->dataset.patterns);
  }
  {
    TraceSpan span("memory", "free");
    state.reset();
  }
  return bytes;
}

// Embedding alone, over the same texts: the share of parse spent in format/.
double EmbedSeconds(const GeneratedCorpus& corpus) {
  Clock::time_point start = Clock::now();
  for (const concord::GeneratedConfig& config : corpus.configs) {
    concord::EmbedText(config.text);
  }
  return SecondsSince(start);
}

struct CheckCounts {
  size_t patterns_before = 0;
  size_t patterns_after = 0;
  std::vector<concord::Violation> violations;
};

// `concord check` in process: a fresh pattern table per operation, as the CLI.
std::string Check(const std::string& contracts_json, const GeneratedCorpus& corpus,
                  int parallelism, CheckCounts* counts) {
  TraceSpan op("bench", "op");
  // The operation's working set, released under its own span at the end.
  struct State {
    concord::Dataset dataset;
    std::optional<concord::ContractSet> set;
    std::optional<concord::Checker> checker;
    std::vector<concord::ConfigIndex> indexes;
    concord::CheckResult result;
  };
  auto state = std::make_unique<State>();
  concord::Dataset& dataset = state->dataset;
  {
    TraceSpan span("pattern", "parse");
    dataset = concord::ParseCorpus(corpus);
  }
  counts->patterns_before = dataset.patterns.size();
  {
    TraceSpan span("contracts", "load");
    std::string error;
    state->set = concord::ParseContracts(contracts_json, &dataset.patterns, &error);
    if (!state->set) {
      throw std::runtime_error("cannot parse contracts: " + error);
    }
  }
  counts->patterns_after = dataset.patterns.size();
  {
    TraceSpan span("check", "plan");
    state->checker.emplace(&*state->set, &dataset.patterns);
  }
  {
    TraceSpan span("check", "index");
    state->indexes = concord::BuildIndexes(dataset);
  }
  {
    TraceSpan span("check", "scan");
    std::vector<const concord::ConfigIndex*> pointers;
    pointers.reserve(state->indexes.size());
    for (const concord::ConfigIndex& index : state->indexes) {
      pointers.push_back(&index);
    }
    concord::CheckOptions options;
    options.parallelism = parallelism;
    state->result = state->checker->Check(pointers, options);
  }
  std::string report;
  {
    TraceSpan span("report", "render");
    report = concord::ReportJson(state->result, *state->set, dataset.patterns);
  }
  counts->violations = std::move(state->result.violations);
  {
    TraceSpan span("memory", "free");
    state.reset();
  }
  return report;
}

// The end-to-end metrics shared by learn_wan and check_wan; the per-op wall
// and CPU times go to the notes.
void SetOpMetrics(Result* result, const std::vector<double>& op_s,
                  const std::vector<double>& op_cpu_s, double setup_s) {
  std::string times = "op wall/cpu s:";
  double total = 0;
  for (size_t i = 0; i < op_s.size(); ++i) {
    times += " " + std::to_string(op_s[i]) + "/" + std::to_string(op_cpu_s[i]);
    total += op_s[i];
  }
  result->notes.push_back(times);
  result->Set("ops_per_s", static_cast<double>(op_s.size()) / total, "1/s");
  result->Set("setup_s", setup_s, "s");
  result->Set("peak_rss_mb", PeakRssMb(), "MB");
}

// Per traced operation: each row's inclusive time, self allocations and the
// untraced time; the metrics are their medians.
struct LayerSamples {
  std::map<std::string, std::vector<double>> total_s;
  std::map<std::string, std::vector<double>> allocs;
  std::vector<double> untraced_s;
  std::vector<double> op_s;
  std::string last_table;

  void Add(const TracedOp& traced, const std::string& title) {
    std::map<std::string, LayerRow> rows = traced.Rows();
    for (const auto& [name, row] : rows) {
      total_s[name].push_back(row.total_s);
      allocs[name].push_back(static_cast<double>(row.self_allocs));
    }
    untraced_s.push_back(rows.at("bench/op").self_s);
    op_s.push_back(rows.at("bench/op").total_s);
    last_table = LayerTable(title, rows);
  }
  double Seconds(const std::string& row) { return Median(total_s[row]); }
  double Allocs(const std::string& row) { return Median(allocs[row]); }
};

std::string Describe(const char* workload, int devices, uint64_t seed,
                     const GeneratedCorpus& corpus) {
  return std::string(workload) + " corpus: wan role=2 scale=4 devices=" +
         std::to_string(devices) + " seed=" + std::to_string(seed) +
         " configs=" + std::to_string(corpus.configs.size()) +
         " lines=" + std::to_string(corpus.TotalLines());
}

// Writes a corpus as one file per config and metadata document under `dir`,
// the layout `concord learn --configs` reads.
void WriteCorpus(const GeneratedCorpus& corpus, const fs::path& dir) {
  fs::remove_all(dir);
  for (const concord::GeneratedConfig& config : corpus.configs) {
    concord::WriteFile((dir / "configs" / config.name).string(), config.text);
  }
  for (const concord::GeneratedConfig& meta : corpus.metadata) {
    concord::WriteFile((dir / "metadata" / meta.name).string(), meta.text);
  }
}

// The CLI's input loading: ExpandGlob and ReadFile over every file. Returns
// the texts in glob order.
std::vector<std::string> LoadCorpus(const fs::path& dir) {
  std::vector<std::string> texts;
  for (const char* part : {"configs", "metadata"}) {
    for (const std::string& file : concord::ExpandGlob((dir / part / "*").string())) {
      texts.push_back(concord::ReadFile(file));
    }
  }
  return texts;
}

// Planted faults localized: a violation on the planted config within one line.
size_t Localized(const std::vector<concord::Mutation>& planted,
                 const std::vector<concord::Violation>& violations) {
  size_t localized = 0;
  for (const concord::Mutation& m : planted) {
    for (const concord::Violation& v : violations) {
      if (v.config == m.config_name && std::abs(v.line_number - m.line_number) <= 1) {
        ++localized;
        break;
      }
    }
  }
  return localized;
}

}  // namespace

Result RunLearnWan(const Args& args) {
  Result result;
  const GeneratedCorpus corpus = WanCorpus(args.seed, kLearnDevices);
  const double lines = static_cast<double>(corpus.TotalLines());
  result.notes.push_back(Describe("learn_wan", kLearnDevices, args.seed, corpus));

  // Set-up: loading the corpus from disk as `concord learn --configs` does
  // before it parses. The files are written once, untimed.
  const fs::path dir = fs::path(args.out_dir) / ("learn-" + std::to_string(::getpid()));
  WriteCorpus(corpus, dir);
  std::vector<double> setup_s;
  size_t loaded = 0;
  for (int i = 0; i < kSetups; ++i) {
    Clock::time_point start = Clock::now();
    loaded = LoadCorpus(dir).size();
    setup_s.push_back(SecondsSince(start));
  }
  fs::remove_all(dir);
  if (loaded != corpus.configs.size() + corpus.metadata.size()) {
    result.Fail("loaded " + std::to_string(loaded) + " files of " +
                std::to_string(corpus.configs.size() + corpus.metadata.size()));
  }

  std::string reference;
  if (!args.trace) {
    // Serial reference (also the warm-up): every parallel learn must match it.
    reference = Learn(corpus, 1);
  }
  std::vector<double> op_s;
  std::vector<double> op_cpu_s;
  LayerSamples layers;
  std::vector<double> mine_cpu_s;
  std::vector<double> embed_s;
  Clock::time_point start = Clock::now();
  for (int i = 0; i < (args.trace ? 4 : 3) || SecondsSince(start) < args.seconds; ++i) {
    // A traced run alternates untraced and traced learns; its first learn is
    // the warm-up.
    const bool traced = args.trace && i % 2 == 1;
    std::string bytes;
    Clock::time_point op_start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    if (traced) {
      double other_cpu_s = 0;
      {
        TracedOp traced_op;
        bytes = Learn(corpus, kWorkers, &other_cpu_s);
        layers.Add(traced_op, "learn_wan traced learn (seed " + std::to_string(args.seed) + ")");
      }
      mine_cpu_s.push_back(other_cpu_s);
      embed_s.push_back(EmbedSeconds(corpus));
    } else {
      bytes = Learn(corpus, kWorkers);
      if (!args.trace || i > 0) {
        op_s.push_back(SecondsSince(op_start));
        op_cpu_s.push_back(ProcessCpuSeconds() - cpu_start);
      }
    }
    ++result.attempted;
    if (reference.empty()) {
      reference = bytes;
    }
    if (bytes != reference) {
      ++result.failed;
      result.Fail("learn " + std::to_string(i) + " contract bytes differ from the " +
                  (args.trace ? "first learn" : "parallelism=1 learn"));
    }
  }
  std::string previous;
  std::string digest = std::to_string(Digest(reference));
  if (!SameAsEarlierRun(args, "contracts", digest, &previous)) {
    result.Fail("contract digest " + digest + " differs from an earlier run's " + previous);
  }
  result.notes.push_back("contracts: " + std::to_string(reference.size()) + " bytes, digest " +
                         digest);

  if (!args.trace) {
    SetOpMetrics(&result, op_s, op_cpu_s, Median(setup_s));
    return result;
  }
  WriteChromeTrace(args);
  result.notes.push_back(layers.last_table);
  result.Set("pattern.parse_s", layers.Seconds("pattern/parse"), "s");
  result.Set("pattern.parse_allocs_per_line", layers.Allocs("pattern/parse") / lines, "count");
  result.Set("format.embed_s", Median(embed_s), "s");
  result.Set("learn.index_s", layers.Seconds("learn/index"), "s");
  result.Set("learn.mine_s", layers.Seconds("learn/mine"), "s");
  result.Set("learn.mine_cpu_s", Median(mine_cpu_s), "s");
  result.Set("learn.mine_allocs_per_line", layers.Allocs("learn/mine") / lines, "count");
  result.Set("learn.aggregate_s", layers.Seconds("learn/aggregate"), "s");
  result.Set("minimize.minimize_s", layers.Seconds("learn/minimize"), "s");
  result.Set("contracts.serialize_s", layers.Seconds("contracts/serialize"), "s");
  result.Set("memory.free_s", layers.Seconds("memory/free"), "s");
  result.Set("trace.untraced_s", Median(layers.untraced_s), "s");
  result.Set("trace.overhead_s", Median(layers.op_s) - Median(op_s), "s");
  return result;
}

Result RunCheckWan(const Args& args) {
  Result result;
  // The contracts are learned once, untimed, from the learn_wan corpus.
  const std::string contracts = Learn(WanCorpus(args.seed, kLearnDevices), kWorkers);
  // The checked corpus: held out, with faults planted by MutationEngine.
  GeneratedCorpus corpus = WanCorpus(HeldOutSeed(args.seed), kCheckDevices);
  std::vector<concord::Mutation> planted;
  {
    concord::MutationEngine engine(args.seed ^ 0xC0FFEEull);
    const size_t faults = corpus.configs.size() / kConfigsPerFault;
    for (size_t k = 0; planted.size() < faults && k < 4 * faults; ++k) {
      if (auto mutation = engine.Apply(&corpus, static_cast<concord::MutationKind>(k % 6))) {
        planted.push_back(*mutation);
      }
    }
  }
  const double lines = static_cast<double>(corpus.TotalLines());
  result.notes.push_back(Describe("check_wan", kCheckDevices, HeldOutSeed(args.seed), corpus) +
                         " planted=" + std::to_string(planted.size()));

  // Set-up: what `concord check` does before it reads a config: read the
  // contract file, intern it into a pattern table and plan the checker.
  const std::string contracts_path =
      (fs::path(args.out_dir) / ("contracts-" + std::to_string(::getpid()) + ".json")).string();
  concord::WriteFile(contracts_path, contracts);
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    Clock::time_point start = Clock::now();
    for (int k = 0; k < kPlansPerSetup; ++k) {
      concord::PatternTable table;
      std::string error;
      std::optional<concord::ContractSet> set =
          concord::ParseContracts(concord::ReadFile(contracts_path), &table, &error);
      if (!set) {
        throw std::runtime_error("cannot parse contracts: " + error);
      }
      concord::Checker checker(&*set, &table);
    }
    setup_s.push_back(SecondsSince(start) / kPlansPerSetup);
  }
  fs::remove(contracts_path);

  CheckCounts counts;
  std::string reference;
  if (!args.trace) {
    // Serial reference (also the warm-up): every parallel check must match it.
    reference = Check(contracts, corpus, 1, &counts);
  }
  std::vector<double> op_s;
  std::vector<double> op_cpu_s;
  LayerSamples layers;
  std::vector<double> embed_s;
  Clock::time_point start = Clock::now();
  for (int i = 0; i < (args.trace ? 6 : 5) || SecondsSince(start) < args.seconds; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    Clock::time_point op_start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    std::string report;
    if (traced) {
      TracedOp traced_op;
      report = Check(contracts, corpus, kWorkers, &counts);
      layers.Add(traced_op, "check_wan traced check (seed " + std::to_string(args.seed) + ")");
      embed_s.push_back(EmbedSeconds(corpus));
    } else {
      report = Check(contracts, corpus, kWorkers, &counts);
      if (!args.trace || i > 0) {  // A traced run's first check is its warm-up.
        op_s.push_back(SecondsSince(op_start));
        op_cpu_s.push_back(ProcessCpuSeconds() - cpu_start);
      }
    }
    ++result.attempted;
    if (reference.empty()) {
      reference = report;
    }
    if (report != reference) {
      ++result.failed;
      result.Fail("check " + std::to_string(i) + " report bytes differ from the " +
                  (args.trace ? "first check" : "parallelism=1 check"));
    }
  }

  const size_t localized = Localized(planted, counts.violations);
  result.notes.push_back("planted faults localized: " + std::to_string(localized) + "/" +
                         std::to_string(planted.size()) +
                         "; violations: " + std::to_string(counts.violations.size()));
  const double floor = args.min_localized >= 0
                           ? static_cast<double>(args.min_localized)
                           : kMinLocalizedShare * static_cast<double>(planted.size());
  if (static_cast<double>(localized) < floor) {
    result.Fail("only " + std::to_string(localized) + " of " + std::to_string(planted.size()) +
                " planted faults localized; " +
                (args.min_localized >= 0 ? "this seed's recorded count is "
                                         : "the floor for an unrecorded seed is ") +
                std::to_string(floor));
  }
  std::string previous;
  std::string digest = std::to_string(Digest(reference)) + " localized=" + std::to_string(localized);
  if (!SameAsEarlierRun(args, "report", digest, &previous)) {
    result.Fail("report digest/localization " + digest + " differs from an earlier run's " +
                previous);
  }

  if (!args.trace) {
    SetOpMetrics(&result, op_s, op_cpu_s, Median(setup_s));
    return result;
  }
  WriteChromeTrace(args);
  result.notes.push_back(layers.last_table);
  result.Set("pattern.parse_s", layers.Seconds("pattern/parse"), "s");
  result.Set("pattern.parse_allocs_per_line", layers.Allocs("pattern/parse") / lines, "count");
  result.Set("format.embed_s", Median(embed_s), "s");
  result.Set("pattern.table_growth",
             static_cast<double>(counts.patterns_after - counts.patterns_before), "count");
  result.Set("contracts.load_s", layers.Seconds("contracts/load"), "s");
  result.Set("check.plan_s", layers.Seconds("check/plan"), "s");
  result.Set("check.index_s", layers.Seconds("check/index"), "s");
  result.Set("check.scan_s", layers.Seconds("check/scan"), "s");
  result.Set("check.scan_allocs_per_line", (layers.Allocs("check/scan") + layers.Allocs("check/total")) / lines, "count");
  result.Set("report.render_s", layers.Seconds("report/render"), "s");
  result.Set("memory.free_s", layers.Seconds("memory/free"), "s");
  result.Set("trace.untraced_s", Median(layers.untraced_s), "s");
  result.Set("trace.overhead_s", Median(layers.op_s) - Median(op_s), "s");
  return result;
}

}  // namespace perfbench
