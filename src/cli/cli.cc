#include "src/cli/cli.h"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/analyze/analyzer.h"
#include "src/check/checker.h"
#include "src/cli/gen_commands.h"
#include "src/contracts/contract_io.h"
#include "src/contracts/suppression.h"
#include "src/format/json.h"
#include "src/learn/index.h"
#include "src/learn/learner.h"
#include "src/pattern/lexer.h"
#include "src/pattern/parser.h"
#include "src/report/report.h"
#include "src/service/service.h"
#include "src/service/socket_server.h"
#include "src/store/record_io.h"
#include "src/store/store.h"
#include "src/util/argparse.h"
#include "src/util/cancellation.h"
#include "src/util/glob.h"
#include "src/util/hash.h"
#include "src/util/io.h"
#include "src/util/stopwatch.h"
#include "src/util/trace.h"

namespace concord {

namespace {

void AddCommonFlags(ArgParser* parser) {
  parser->AddFlag("configs", "glob pattern for configuration files (repeatable)");
  parser->AddFlag("metadata", "glob pattern for metadata files (repeatable, §3.7)");
  parser->AddFlag("lexer", "file with custom lexer token definitions (`name regex` lines)");
  parser->AddFlag("deadline-ms", "wall-clock budget in milliseconds (0 = unlimited)", "0");
  parser->AddBoolFlag("no-embedding", "disable context embedding (§3.1)");
  parser->AddBoolFlag("constants", "enable constant learning of exact line text (§4)");
  parser->AddBoolFlag("quiet", "suppress the textual summary");
  parser->AddBoolFlag("profile", "print a per-stage time/allocation breakdown");
  parser->AddFlag("trace-out",
                  "with --profile: write a Chrome trace_event JSON file "
                  "(load via chrome://tracing or https://ui.perfetto.dev)");
}

// Owns the trace collector for a --profile run: full event collection plus
// allocation counting while alive; on destruction prints the per-stage
// breakdown, writes the Chrome trace (when requested), and switches tracing
// back off so a library embedder's process is left unperturbed.
class ProfileSession {
 public:
  ProfileSession(bool enabled, std::string trace_out, std::ostream* out,
                 std::ostream* err)
      : enabled_(enabled), trace_out_(std::move(trace_out)), out_(out), err_(err) {
    if (!enabled_) {
      return;
    }
    TraceCollector& collector = TraceCollector::Global();
    collector.Clear();
    collector.EnableStats();
    collector.EnableEvents();
    EnableAllocationCounting(true);
  }

  ProfileSession(const ProfileSession&) = delete;
  ProfileSession& operator=(const ProfileSession&) = delete;

  ~ProfileSession() {
    if (!enabled_) {
      return;
    }
    TraceCollector& collector = TraceCollector::Global();
    EnableAllocationCounting(false);
    if (out_ != nullptr) {
      *out_ << collector.ProfileText();
    }
    if (!trace_out_.empty()) {
      try {
        WriteFile(trace_out_, collector.ChromeTraceJson());
        if (out_ != nullptr) {
          *out_ << "wrote trace " << trace_out_ << "\n";
        }
      } catch (const std::exception& e) {
        if (err_ != nullptr) {
          *err_ << "error: cannot write trace: " << e.what() << "\n";
        }
      }
    }
    collector.Disable();
  }

 private:
  bool enabled_;
  std::string trace_out_;
  std::ostream* out_;
  std::ostream* err_;
};

Deadline DeadlineFromFlags(const ArgParser& args) {
  int64_t ms = args.GetInt("deadline-ms").value_or(0);
  return ms > 0 ? Deadline::After(ms) : Deadline::Never();
}

struct LoadedInputs {
  Lexer lexer;
  Dataset dataset;
  // Files that failed to read or parse; the run continues without them and the
  // CLI signals the partial result with exit code 3.
  std::vector<SkippedFile> skipped;
  // Under --store-dir only: per-config content keys for the store entry, and
  // the raw texts, since the durable store persists Parse-stage inputs, not
  // the pointer-laden parsed artifacts. Skipped files deliberately have no
  // key, so a file that parsed last run but fails now changes the entry and
  // forces a relearn. Metadata texts keep document order, which changes the
  // learn.
  std::map<std::string, uint64_t> config_keys;
  std::map<std::string, std::string> config_texts;
  std::vector<std::string> metadata_texts;
};

// Loads the --lexer definitions, when given, into `lexer`.
bool LoadLexer(const ArgParser& args, Lexer* lexer, std::ostream& err) {
  std::string error;
  if (args.Has("lexer") && !lexer->LoadDefinitions(ReadFile(args.Get("lexer")), &error)) {
    err << "error: bad lexer definition: " << error << "\n";
    return false;
  }
  return true;
}

// Expands every glob given for `flag`, in order, without repeats: overlapping
// globs must not load a file twice. The first occurrence wins; paths compare
// after lexically_normal.
std::vector<std::string> ExpandGlobs(const ArgParser& args, const std::string& flag) {
  std::vector<std::string> files;
  std::set<std::string> seen;
  for (const std::string& pattern : args.GetAll(flag)) {
    for (std::string& f : ExpandGlob(pattern)) {
      if (seen.insert(std::filesystem::path(f).lexically_normal().string()).second) {
        files.push_back(std::move(f));
      }
    }
  }
  return files;
}

// Expands globs, parses configs and metadata into a dataset with the lexer
// LoadLexer filled in. A single unreadable file does not abort the batch: it is
// recorded in inputs->skipped and the surviving configs load normally. Only a
// load that yields *no* usable configs fails outright. Files are read serially
// in input order, then parsed in `parallelism` blocks (ParseConfigs); skip
// records keep input order. The deadline is polled per file, while reading and
// while parsing, so a huge or slow-to-read corpus cannot blow past
// --deadline-ms before the learn/check phases ever consult it; expiry throws
// DeadlineExceeded. The parse span bills to `verb`'s trace category, so
// `check --profile` shows check/parse.
bool LoadInputs(const ArgParser& args, std::string_view verb, bool embed_context,
                bool constants, int parallelism, const Deadline& deadline,
                LoadedInputs* inputs, std::ostream& err) {
  if (!args.Has("configs")) {
    err << "error: --configs is required\n";
    return false;
  }
  ParseOptions options;
  options.embed_context = embed_context;
  options.constants = constants;

  std::vector<std::string> files = ExpandGlobs(args, "configs");
  if (files.empty()) {
    err << "error: no configuration files match the given globs\n";
    return false;
  }
  // Distinguish unreadable files (io_error) from files that read but did not
  // parse (parse_failed) — reports carry the code in their degraded section.
  std::vector<std::string> texts(files.size());
  std::vector<std::optional<SkippedFile>> skips(files.size());
  std::vector<ConfigSource> sources;
  std::vector<size_t> source_file;  // sources[k] reads files[source_file[k]].
  for (size_t i = 0; i < files.size(); ++i) {
    ThrowIfExpired(deadline);
    try {
      texts[i] = ReadFile(files[i]);
    } catch (const std::exception& e) {
      skips[i] = SkippedFile{files[i], e.what(), ErrorCode::kIoError};
      continue;
    }
    sources.push_back(ConfigSource{&files[i], &texts[i]});
    source_file.push_back(i);
  }
  std::vector<ParseFailure> failures;
  {
    TraceSpan span(verb, "parse");
    failures = ParseConfigs(inputs->lexer, options, sources, parallelism,
                            &inputs->dataset, deadline);
  }
  for (ParseFailure& failure : failures) {
    size_t i = source_file[failure.index];
    skips[i] = SkippedFile{files[i], std::move(failure.reason), ErrorCode::kParseFailed};
  }
  for (size_t i = 0; i < files.size(); ++i) {
    if (skips[i]) {
      inputs->skipped.push_back(std::move(*skips[i]));
      continue;
    }
    if (args.Has("store-dir")) {
      inputs->config_keys[files[i]] = ContentKey(files[i], texts[i]);
      inputs->config_texts[files[i]] = std::move(texts[i]);
    }
  }
  if (inputs->dataset.configs.empty()) {
    err << "error: all " << files.size() << " configuration file(s) failed to load:\n";
    for (const SkippedFile& s : inputs->skipped) {
      err << "  " << s.file << ": " << s.reason << "\n";
    }
    return false;
  }
  ConfigParser parser(&inputs->lexer, &inputs->dataset.patterns, options);
  for (const std::string& file : ExpandGlobs(args, "metadata")) {
    ThrowIfExpired(deadline);
    std::string text;
    try {
      text = ReadFile(file);
    } catch (const std::exception& e) {
      inputs->skipped.push_back(SkippedFile{file, e.what(), ErrorCode::kIoError});
      continue;
    }
    try {
      for (ParsedLine& line : parser.ParseMetadata(text)) {
        inputs->dataset.metadata.push_back(std::move(line));
      }
      if (args.Has("store-dir")) {
        inputs->metadata_texts.push_back(std::move(text));
      }
    } catch (const std::exception& e) {
      inputs->skipped.push_back(SkippedFile{file, e.what(), ErrorCode::kParseFailed});
    }
  }
  return true;
}

// True when two store entries record the same learn: equal inputs, options and
// parse settings. The output (contracts key and count) is not compared.
bool SameLearn(PersistedDatasetInfo a, const PersistedDatasetInfo& b) {
  a.contracts_key = b.contracts_key;
  a.contract_count = b.contract_count;
  return DatasetInfoToJson(a).Serialize(0) == DatasetInfoToJson(b).Serialize(0);
}

int RunLearn(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  ArgParser args;
  AddCommonFlags(&args);
  args.AddFlag("out", "output contract file", "contracts.json");
  args.AddFlag("store-dir",
               "durable artifact store directory: persist the learned dataset for "
               "warm serve restarts, and skip the learn when its entry is "
               "unchanged (DESIGN.md §10)");
  args.AddFlag("dataset", "dataset name in the store (with --store-dir)", "default");
  args.AddFlag("support", "minimum supporting configurations S", "5");
  args.AddFlag("confidence", "required holding fraction C", "0.96");
  args.AddFlag("score-threshold", "relational informativeness threshold", "4.0");
  args.AddFlag("parallelism", "worker threads for parsing and mining (0 = all cores)",
               "1");
  args.AddFlag("disable", "disable a category: present|ordering|type|sequence|unique|relational");
  args.AddBoolFlag("no-minimize", "skip relational contract minimization (§3.6)");
  if (!args.Parse(argc, argv, 2)) {
    err << "error: " << args.error() << "\n" << args.Usage();
    return 2;
  }
  ProfileSession profile(args.GetBool("profile"), args.Get("trace-out"), &out, &err);

  LearnOptions options;
  options.support = static_cast<int>(args.GetInt("support").value_or(5));
  options.confidence = args.GetDouble("confidence").value_or(0.96);
  options.score_threshold = args.GetDouble("score-threshold").value_or(4.0);
  options.constants = args.GetBool("constants");
  options.minimize = !args.GetBool("no-minimize");
  options.parallelism = static_cast<int>(args.GetInt("parallelism").value_or(1));
  for (const std::string& category : args.GetAll("disable")) {
    if (category == "present") {
      options.learn_present = false;
    } else if (category == "ordering") {
      options.learn_ordering = false;
    } else if (category == "type") {
      options.learn_type = false;
    } else if (category == "sequence") {
      options.learn_sequence = false;
    } else if (category == "unique") {
      options.learn_unique = false;
    } else if (category == "relational") {
      options.learn_relational = false;
    } else {
      err << "error: unknown category to disable: " << category << "\n";
      return 2;
    }
  }

  bool embed = !args.GetBool("no-embedding");
  bool quiet = args.GetBool("quiet");
  options.deadline = DeadlineFromFlags(args);
  LoadedInputs inputs;
  if (!LoadLexer(args, &inputs.lexer, err) ||
      !LoadInputs(args, "learn", embed, options.constants, options.parallelism,
                  options.deadline, &inputs, err)) {
    return 2;
  }

  // Under --store-dir the store is the learn cache (DESIGN.md §10). The entry
  // this learn would write names its inputs, options and parse settings; when
  // it equals the stored one and the stored contracts read clean, mining would
  // reproduce those bytes, so they are reused. A store failure degrades to a
  // warning and a plain learn.
  std::unique_ptr<DurableStore> store;
  PersistedDatasetInfo entry;
  if (args.Has("store-dir")) {
    entry.config_keys = std::move(inputs.config_keys);
    for (const std::string& text : inputs.metadata_texts) {
      entry.metadata_keys.push_back(MetadataBlobKey(text));
    }
    entry.options = options;
    entry.embed = embed;
    entry.lexer = inputs.lexer.DefinitionsKey();
    std::optional<PersistedDatasetInfo> stored;
    std::optional<std::string> contracts;
    try {
      store = std::make_unique<DurableStore>(args.Get("store-dir"));
      stored = store->GetDataset(args.Get("dataset"));
      if (stored && SameLearn(entry, *stored)) {
        contracts = store->GetObject(RecordType::kContracts, stored->contracts_key,
                                     "contracts");
      }
    } catch (const std::exception& e) {
      err << "warning: store read failed: " << e.what() << "\n";
      store.reset();
    }
    if (contracts) {
      WriteFile(args.Get("out"), *contracts);
      if (!quiet) {
        out << "store: dataset '" << args.Get("dataset") << "' unchanged; reused "
            << stored->contract_count << " contract(s)\n"
            << "wrote " << args.Get("out") << "\n";
      }
      return inputs.skipped.empty() ? 0 : 3;
    }
  }

  Stopwatch watch;
  Learner learner(options);
  LearnResult result = learner.Learn(inputs.dataset);
  result.set.embed_context = embed;
  result.set.lexer_key = inputs.lexer.DefinitionsKey();
  std::string serialized = SerializeContracts(result.set, inputs.dataset.patterns);
  WriteFile(args.Get("out"), serialized);
  if (store != nullptr) {
    // Best-effort, like serve's persist: the written contract file stands, and
    // `concord serve --store-dir` relearns what the store lacks.
    try {
      entry.contract_count = static_cast<int64_t>(result.set.contracts.size());
      std::vector<std::string_view> config_texts;
      config_texts.reserve(inputs.config_texts.size());
      for (const auto& [name, text] : inputs.config_texts) {
        config_texts.push_back(text);
      }
      size_t written = 0;
      store->PutLearnedDataset(args.Get("dataset"), std::move(entry), config_texts,
                               inputs.metadata_texts, serialized, &written);
      if (!quiet) {
        out << "store: persisted dataset '" << args.Get("dataset") << "' ("
            << store->object_count() << " objects, " << store->total_bytes()
            << " bytes)\n";
      }
    } catch (const std::exception& e) {
      err << "warning: store persist failed: " << e.what() << "\n";
    }
  }

  if (!quiet) {
    out << "configs: " << inputs.dataset.configs.size() << "\n"
        << "lines: " << inputs.dataset.TotalLines() << "\n"
        << "patterns: " << inputs.dataset.patterns.size() << "\n"
        << "parameters: " << inputs.dataset.TotalParameters() << "\n"
        << "contracts: " << result.set.contracts.size() << "\n";
    for (ContractKind kind :
         {ContractKind::kPresent, ContractKind::kOrdering, ContractKind::kType,
          ContractKind::kSequence, ContractKind::kUnique, ContractKind::kRelational}) {
      out << "  " << ContractKindName(kind) << ": " << result.set.CountKind(kind) << "\n";
    }
    if (result.relational_before_minimize > 0) {
      out << "minimization: " << result.relational_before_minimize << " -> "
          << result.relational_after_minimize << " relational contracts\n";
    }
    if (!inputs.skipped.empty()) {
      out << "degraded: " << inputs.skipped.size() << " input file(s) skipped\n";
      for (const SkippedFile& s : inputs.skipped) {
        out << "  " << s.file << ": " << s.reason << "\n";
      }
    }
    out << "learn time: " << watch.ElapsedSeconds() << "s\n"
        << "wrote " << args.Get("out") << "\n";
  }
  return inputs.skipped.empty() ? 0 : 3;
}

// The contract set check and analyze run against, with the parse settings it
// was learned with, which the configs must be parsed with too.
struct ContractSource {
  std::string text;
  bool embed = true;
  bool constants = false;
};

// Reads the persisted set of --dataset under --store-dir, else the --contracts
// file, and previews it for its parse settings; a damaged store surfaces as
// store_corrupt, never a crash or a silent pass. When configs will be lexed
// with `lexer` (null when none are), a set learned with other lexer
// definitions is refused: its patterns would not match what this lexer makes
// of the configs. Prints the error and returns false (exit 2) on failure.
bool ReadContractSource(const ArgParser& args, const Lexer* lexer, ContractSource* source,
                        std::ostream& err) {
  if (args.Has("store-dir")) {
    DurableStore store(args.Get("store-dir"));
    auto info = store.GetDataset(args.Get("dataset"));
    if (!info || info->contracts_key == 0) {
      err << "error: store has no contracts for dataset '" << args.Get("dataset")
          << "' in " << args.Get("store-dir") << "\n";
      return false;
    }
    bool corrupt = false;
    auto payload =
        store.GetObject(RecordType::kContracts, info->contracts_key, "contracts", &corrupt);
    if (!payload) {
      err << "error: store_corrupt: persisted contract set for dataset '"
          << args.Get("dataset") << "' is " << (corrupt ? "corrupt" : "missing")
          << "; relearn with `concord learn --store-dir`\n";
      return false;
    }
    source->text = std::move(*payload);
  } else {
    source->text = ReadFile(args.Get("contracts"));
  }
  PatternTable scratch;
  std::string error;
  auto preview = ParseContracts(source->text, &scratch, &error);
  if (!preview) {
    err << "error: cannot parse contracts: " << error << "\n";
    return false;
  }
  const uint64_t lexer_key = lexer != nullptr ? lexer->DefinitionsKey() : preview->lexer_key;
  if (preview->lexer_key != lexer_key) {
    err << "error: lexer mismatch: the contract set was learned with "
        << Lexer::DescribeKey(preview->lexer_key) << ", but this run lexes with "
        << Lexer::DescribeKey(lexer_key)
        << "; pass the --lexer file the set was learned with\n";
    return false;
  }
  source->embed = preview->embed_context && !args.GetBool("no-embedding");
  source->constants = preview->constants_mode || args.GetBool("constants");
  return true;
}

int RunCheck(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  ArgParser args;
  AddCommonFlags(&args);
  args.AddFlag("contracts", "contract file produced by `concord learn`", "contracts.json");
  args.AddFlag("store-dir",
               "durable artifact store directory: check against the persisted "
               "contract set instead of --contracts");
  args.AddFlag("dataset", "dataset name in the store (with --store-dir)", "default");
  args.AddFlag("json-out", "write the JSON violation report to this file");
  args.AddFlag("html-out", "write the HTML violation report to this file");
  args.AddFlag("coverage-out", "write the per-line coverage listing to this file (§3.9)");
  args.AddFlag("suppress", "file of contract keys to suppress (operator feedback, §4)");
  args.AddFlag("parallelism", "worker threads for parsing and checking (0 = all cores)",
               "1");
  args.AddBoolFlag("no-coverage", "skip coverage measurement (§3.9)");
  args.AddBoolFlag("prune-subsumed",
                   "skip subsumption-dominated contracts in the violation scan "
                   "(DESIGN.md §14); active only with --no-coverage, reports "
                   "stay byte-identical");
  if (!args.Parse(argc, argv, 2)) {
    err << "error: " << args.error() << "\n" << args.Usage();
    return 2;
  }
  ProfileSession profile(args.GetBool("profile"), args.Get("trace-out"), &out, &err);

  LoadedInputs inputs;
  ContractSource contracts;
  Deadline deadline = DeadlineFromFlags(args);
  int parallelism = static_cast<int>(args.GetInt("parallelism").value_or(1));
  if (!LoadLexer(args, &inputs.lexer, err) ||
      !ReadContractSource(args, &inputs.lexer, &contracts, err) ||
      !LoadInputs(args, "check", contracts.embed, contracts.constants, parallelism,
                  deadline, &inputs, err)) {
    return 2;
  }
  std::string error;
  auto set = ParseContracts(contracts.text, &inputs.dataset.patterns, &error);
  if (!set) {
    err << "error: cannot parse contracts: " << error << "\n";
    return 2;
  }
  if (args.Has("suppress")) {
    SuppressionList suppressions = SuppressionList::Parse(ReadFile(args.Get("suppress")));
    size_t dropped = suppressions.Apply(&*set, inputs.dataset.patterns);
    if (!args.GetBool("quiet")) {
      out << "suppressed " << dropped << " contract(s)\n";
    }
  }

  Stopwatch watch;
  Checker checker(&*set, &inputs.dataset.patterns);
  CheckOptions check_options;
  check_options.measure_coverage = !args.GetBool("no-coverage");
  check_options.deadline = deadline;
  check_options.parallelism = parallelism;
  AnalysisResult analysis;
  if (args.GetBool("prune-subsumed")) {
    // The subsumption verdict drives CheckOptions::prune_mask; the checker
    // itself refuses the mask when coverage is on (marks would change bytes).
    AnalyzeOptions analyze_options;
    analyze_options.conflicts = false;
    analyze_options.dead_rules = false;
    analyze_options.deadline = deadline;
    analysis = AnalyzeContracts(*set, inputs.dataset.patterns, analyze_options);
    check_options.prune_mask = &analysis.prunable;
  }
  CheckResult result = checker.Check(inputs.dataset, check_options);
  if (args.GetBool("prune-subsumed") && !args.GetBool("quiet")) {
    out << "pruned " << result.contracts_pruned << " of " << set->contracts.size()
        << " contract(s) (subsumption"
        << (check_options.measure_coverage ? "; inert with coverage on" : "")
        << ")\n";
  }
  result.skipped = inputs.skipped;

  if (args.Has("json-out")) {
    WriteFile(args.Get("json-out"), ReportJson(result, *set, inputs.dataset.patterns));
  }
  if (args.Has("html-out")) {
    WriteFile(args.Get("html-out"), ReportHtml(result, *set, inputs.dataset.patterns));
  }
  if (args.Has("coverage-out")) {
    WriteFile(args.Get("coverage-out"), CoverageReportText(result));
  }
  if (!args.GetBool("quiet")) {
    out << ReportText(result, *set, inputs.dataset.patterns);
    out << "check time: " << watch.ElapsedSeconds() << "s\n";
  }
  // Exit codes: 0 clean, 1 violations, 2 error, 3 partial (some inputs skipped).
  // Partial dominates: a report missing files is not a trustworthy pass/fail.
  if (!result.skipped.empty()) {
    return 3;
  }
  return result.violations.empty() ? 0 : 1;
}

// `concord analyze`: static analysis of a learned contract set (DESIGN.md §14).
// Configs are optional — when given, they feed the dead-pattern sub-pass the
// postings it needs; without them the analyzer runs set-only.
int RunAnalyze(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  ArgParser args;
  AddCommonFlags(&args);
  args.AddFlag("contracts", "contract file produced by `concord learn`", "contracts.json");
  args.AddFlag("store-dir",
               "durable artifact store directory: analyze the persisted "
               "contract set instead of --contracts");
  args.AddFlag("dataset", "dataset name in the store (with --store-dir)", "default");
  args.AddFlag("json-out", "write the JSON findings report to this file");
  args.AddFlag("fail-on",
               "lowest severity that fails the run: error, warning, info, or "
               "none", "warning");
  args.AddBoolFlag("no-conflicts", "skip the conflict pass");
  args.AddBoolFlag("no-subsumption", "skip the subsumption pass");
  args.AddBoolFlag("no-dead-rules", "skip the dead-rule pass");
  if (!args.Parse(argc, argv, 2)) {
    err << "error: " << args.error() << "\n" << args.Usage();
    return 2;
  }
  std::optional<FindingSeverity> fail_floor;
  {
    const std::string floor = args.Get("fail-on");
    if (floor == "error") {
      fail_floor = FindingSeverity::kError;
    } else if (floor == "warning") {
      fail_floor = FindingSeverity::kWarning;
    } else if (floor == "info") {
      fail_floor = FindingSeverity::kInfo;
    } else if (floor != "none") {
      err << "error: --fail-on must be error, warning, info, or none\n";
      return 2;
    }
  }
  ProfileSession profile(args.GetBool("profile"), args.Get("trace-out"), &out, &err);

  // The set's recorded parse options drive config parsing, as in RunCheck, so
  // the postings the dead-pattern pass sees match what checking would see.
  // Without configs the analyzer runs set-only and nothing is lexed.
  LoadedInputs inputs;
  ContractSource contracts;
  Deadline deadline = DeadlineFromFlags(args);
  const bool with_configs = args.Has("configs");
  if ((with_configs && !LoadLexer(args, &inputs.lexer, err)) ||
      !ReadContractSource(args, with_configs ? &inputs.lexer : nullptr, &contracts,
                          err)) {
    return 2;
  }
  std::vector<ConfigIndex> built;
  if (with_configs) {
    if (!LoadInputs(args, "analyze", contracts.embed, contracts.constants,
                    /*parallelism=*/1, deadline, &inputs, err)) {
      return 2;
    }
    built = BuildIndexes(inputs.dataset, &deadline);
  }
  const bool partial = !inputs.skipped.empty();
  std::string error;
  auto set = ParseContracts(contracts.text, &inputs.dataset.patterns, &error);
  if (!set) {
    err << "error: cannot parse contracts: " << error << "\n";
    return 2;
  }

  AnalyzeOptions options;
  options.conflicts = !args.GetBool("no-conflicts");
  options.subsumption = !args.GetBool("no-subsumption");
  options.dead_rules = !args.GetBool("no-dead-rules");
  options.deadline = deadline;
  std::vector<const ConfigIndex*> index_ptrs;
  index_ptrs.reserve(built.size());
  for (const ConfigIndex& index : built) {
    index_ptrs.push_back(&index);
  }
  AnalysisResult analysis =
      with_configs
          ? AnalyzeContracts(*set, inputs.dataset.patterns, index_ptrs, options)
          : AnalyzeContracts(*set, inputs.dataset.patterns, options);

  if (args.Has("json-out")) {
    WriteFile(args.Get("json-out"), AnalyzeReportJson(analysis));
  }
  if (!args.GetBool("quiet")) {
    out << AnalyzeReportText(analysis);
    for (const SkippedFile& s : inputs.skipped) {
      err << "warning: skipped " << s.file << ": " << s.reason << "\n";
    }
  }
  // Exit codes: 0 clean, 1 findings at or above --fail-on, 2 error, 3 partial
  // (some configs failed to load, so the dead-pattern verdicts are not
  // trustworthy). Partial dominates, as in `concord check`.
  if (partial) {
    return 3;
  }
  if (fail_floor && analysis.CountAtOrAbove(*fail_floor) > 0) {
    return 1;
  }
  return 0;
}

// Translates the socket-frontend CLI flags into SocketServerOptions
// (DESIGN.md §11).
SocketServerOptions FrontendOptionsFromArgs(const ArgParser& args) {
  SocketServerOptions options;
  options.max_line_bytes = static_cast<size_t>(
      std::max<int64_t>(1, args.GetInt("max-line-bytes").value_or(16777216)));
  options.backlog =
      static_cast<int>(std::max<int64_t>(1, args.GetInt("backlog").value_or(8)));
  options.max_connections = static_cast<int>(
      std::max<int64_t>(1, args.GetInt("max-connections").value_or(256)));
  options.idle_timeout_ms = args.GetInt("idle-timeout-ms").value_or(30000);
  options.drain_ms = args.GetInt("drain-ms").value_or(5000);
  options.listen = args.Get("listen");
  options.workers =
      static_cast<int>(std::max<int64_t>(1, args.GetInt("workers").value_or(4)));
  options.max_inflight = static_cast<size_t>(
      std::max<int64_t>(0, args.GetInt("max-inflight").value_or(64)));
  options.max_inflight_per_client = static_cast<size_t>(
      std::max<int64_t>(0, args.GetInt("max-inflight-per-client").value_or(8)));
  options.rate_limit = static_cast<size_t>(
      std::max<int64_t>(0, args.GetInt("rate-limit").value_or(0)));
  options.rate_window_ms =
      std::max<int64_t>(1, args.GetInt("rate-window-ms").value_or(1000));
  options.write_high_watermark = static_cast<size_t>(std::max<int64_t>(
      1, args.GetInt("write-high-watermark").value_or(4 * 1024 * 1024)));
  return options;
}

// `concord serve`: the persistent batched checking service (src/service/).
// Requests arrive as newline-delimited JSON on stdin (or a unix socket with
// --socket); each response is one line of JSON on stdout.
int RunServe(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  ArgParser args;
  args.AddFlag("contracts",
               "contract set to preload, as name=path or a bare path (repeatable; "
               "a bare path loads as 'default')");
  args.AddFlag("socket", "serve on this unix socket path instead of stdin/stdout");
  args.AddFlag("listen",
               "also (or only) serve on this TCP host:port; host '*' binds all "
               "interfaces, port 0 picks an ephemeral port");
  args.AddFlag("lexer", "file with custom lexer token definitions (`name regex` lines)");
  args.AddFlag("parallelism", "worker threads for batched checking (0 = all cores)", "0");
  args.AddFlag("cache-size", "parsed-config LRU entries per contract set", "256");
  args.AddFlag("max-line-bytes", "socket mode: cap on one NDJSON request line", "16777216");
  args.AddFlag("backlog", "socket mode: listen(2) backlog", "8");
  args.AddFlag("max-connections",
               "socket mode: open-connection cap; excess connections get a "
               "structured `overloaded` reply", "256");
  args.AddFlag("idle-timeout-ms", "socket mode: close idle connections (<=0 = never)", "30000");
  args.AddFlag("drain-ms", "socket mode: shutdown grace period for in-flight work", "5000");
  args.AddFlag("workers", "socket mode: threads executing admitted requests", "4");
  args.AddFlag("max-inflight",
               "socket mode: global queued+executing request cap; excess is "
               "shed with `overloaded` (0 = unbounded)", "64");
  args.AddFlag("max-inflight-per-client",
               "socket mode: the same cap per peer identity (0 = unbounded)", "8");
  args.AddFlag("rate-limit",
               "socket mode: per-peer admissions per window; excess is shed "
               "with `rate_limited` (0 = off)", "0");
  args.AddFlag("rate-window-ms", "socket mode: sliding rate-limit window width", "1000");
  args.AddFlag("write-high-watermark",
               "socket mode: pause reading a connection once this many "
               "response bytes are queued for it", "4194304");
  args.AddFlag("store-dir",
               "durable artifact store directory: warm-restart persisted datasets "
               "and persist learn/update results (DESIGN.md §10)");
  args.AddBoolFlag("quiet", "suppress the shutdown metrics summary");
  args.AddBoolFlag("prune-subsumed",
                   "skip subsumption-dominated contracts in coverage-off checks "
                   "(DESIGN.md §14)");
  if (!args.Parse(argc, argv, 2)) {
    err << "error: " << args.error() << "\n" << args.Usage();
    return 2;
  }

  ServiceOptions options;
  options.parallelism = static_cast<int>(args.GetInt("parallelism").value_or(0));
  options.cache_capacity =
      static_cast<size_t>(std::max<int64_t>(0, args.GetInt("cache-size").value_or(256)));
  options.store_dir = args.Get("store-dir");
  options.prune_subsumed = args.GetBool("prune-subsumed");
  Service service(options);

  if (args.Has("lexer")) {
    std::string error;
    if (!service.LoadLexerDefinitions(ReadFile(args.Get("lexer")), &error)) {
      err << "error: bad lexer definition: " << error << "\n";
      return 2;
    }
  }
  for (const std::string& spec : args.GetAll("contracts")) {
    size_t eq = spec.find('=');
    std::string name = eq == std::string::npos ? "default" : spec.substr(0, eq);
    std::string path = eq == std::string::npos ? spec : spec.substr(eq + 1);
    std::string error;
    if (!service.LoadContracts(name, path, &error)) {
      err << "error: cannot load contracts '" << name << "' from " << path << ": "
          << error << "\n";
      return 2;
    }
  }

  std::ostream* summary = args.GetBool("quiet") ? nullptr : &err;
  if (args.Has("socket") || args.Has("listen")) {
    return RunServiceSocket(service, args.Get("socket"), err, summary,
                            FrontendOptionsFromArgs(args));
  }
  return RunService(service, std::cin, out, summary);
}

// `concord store <ls|verify|gc>`: durable-store maintenance (DESIGN.md §10).
// Exit codes: 0 healthy, 1 damage found (verify), 2 usage/store errors.
int RunStore(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  if (argc < 3) {
    err << "usage: concord store <ls|verify|gc> --store-dir <dir>\n";
    return 2;
  }
  std::string sub = argv[2];
  ArgParser args;
  args.AddFlag("store-dir", "durable artifact store directory");
  if (!args.Parse(argc, argv, 3)) {
    err << "error: " << args.error() << "\n" << args.Usage();
    return 2;
  }
  if (!args.Has("store-dir")) {
    err << "error: --store-dir is required\n";
    return 2;
  }
  DurableStore store(args.Get("store-dir"));
  if (sub == "ls") {
    for (const auto& [name, info] : store.Datasets()) {
      out << name << ": " << info.config_keys.size() << " config(s), "
          << info.metadata_keys.size() << " metadata doc(s), "
          << info.contract_count << " contract(s) (key "
          << std::to_string(info.contracts_key) << ")\n";
    }
    out << "objects: " << store.object_count() << " (" << store.total_bytes()
        << " bytes)\n";
    if (store.manifest_corrupt()) {
      out << "warning: manifest is corrupt; datasets above are from the empty "
             "fallback\n";
      return 1;
    }
    return 0;
  }
  if (sub == "verify") {
    DurableStore::VerifyResult result = store.Verify();
    for (const std::string& problem : result.problems) {
      out << problem << "\n";
    }
    out << "objects: " << result.objects << ", corrupt: " << result.corrupt
        << ", missing refs: " << result.missing_refs << ", manifest: "
        << (result.manifest_ok ? "ok" : "corrupt") << "\n";
    return (result.corrupt == 0 && result.missing_refs == 0 && result.manifest_ok)
               ? 0
               : 1;
  }
  if (sub == "gc") {
    DurableStore::GcResult result = store.Gc();
    out << "removed " << result.removed << " object(s), reclaimed "
        << result.reclaimed_bytes << " bytes\n";
    return 0;
  }
  err << "error: unknown store command '" << sub << "' (expected ls, verify, or gc)\n";
  return 2;
}

}  // namespace

int RunConcord(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  if (argc < 2) {
    err << "usage: concord <learn|check|analyze|serve|store|datagen|fuzz> [flags]\n";
    return 2;
  }
  std::string mode = argv[1];
  try {
    if (mode == "learn") {
      return RunLearn(argc, argv, out, err);
    }
    if (mode == "check") {
      return RunCheck(argc, argv, out, err);
    }
    if (mode == "analyze") {
      return RunAnalyze(argc, argv, out, err);
    }
    if (mode == "serve") {
      return RunServe(argc, argv, out, err);
    }
    if (mode == "store") {
      return RunStore(argc, argv, out, err);
    }
    if (mode == "datagen") {
      return RunDatagen(argc, argv, out, err);
    }
    if (mode == "fuzz") {
      return RunFuzz(argc, argv, out, err);
    }
  } catch (const DeadlineExceeded&) {
    err << "error: deadline_exceeded\n";
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
  err << "error: unknown mode '" << mode
      << "' (expected learn, check, analyze, serve, store, datagen, or fuzz)\n";
  return 2;
}

}  // namespace concord
