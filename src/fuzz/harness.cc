#include "src/fuzz/harness.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/analyze/analyzer.h"
#include "src/check/checker.h"
#include "src/contracts/contract_io.h"
#include "src/format/json.h"
#include "src/learn/artifact_store.h"
#include "src/learn/learner.h"
#include "src/learn/index.h"
#include "src/pattern/lexer.h"
#include "src/pattern/parser.h"
#include "src/report/report.h"
#include "src/service/service.h"
#include "src/service/socket_server.h"
#include "src/util/cancellation.h"
#include "src/util/hash.h"
#include "src/util/io.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace concord {

namespace {

namespace fs = std::filesystem;

// A mismatch found by an oracle: thrown inside the pipeline, caught by
// RunOracles' triage tail. Distinct from std::exception-as-crash.
struct OracleMismatch {
  std::string oracle;
  std::string detail;
};

std::string Hex16(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

// ---- Oracle 1: incremental learn vs fresh learn ----------------------------

void RunLearnIdentityOracle(const GeneratedCorpus& corpus,
                            const OracleOptions& options, const Deadline& deadline) {
  ParseOptions parse_options;
  LearnOptions learn_options;
  learn_options.support = options.support;
  learn_options.deadline = deadline;
  Lexer lexer;
  Learner learner(learn_options);

  // Fresh: parse everything transiently, learn in one shot.
  Dataset dataset;
  ConfigParser parser(&lexer, &dataset.patterns, parse_options);
  for (const GeneratedConfig& config : corpus.configs) {
    dataset.configs.push_back(parser.Parse(config.name, config.text));
    ThrowIfExpired(deadline);
  }
  for (const GeneratedConfig& doc : corpus.metadata) {
    std::vector<ParsedLine> lines = parser.ParseMetadata(doc.text);
    dataset.metadata.insert(dataset.metadata.end(), lines.begin(), lines.end());
  }
  LearnResult fresh = learner.Learn(dataset);
  std::string fresh_json = SerializeContracts(fresh.set, dataset.patterns);
  ThrowIfExpired(deadline);

  // Incremental: the same texts through the artifact store.
  ArtifactStore store(&lexer, parse_options);
  for (const GeneratedConfig& config : corpus.configs) {
    store.Upsert(config.name, config.text);
    ThrowIfExpired(deadline);
  }
  std::vector<std::string> metadata_texts;
  for (const GeneratedConfig& doc : corpus.metadata) {
    metadata_texts.push_back(doc.text);
  }
  store.SetMetadata(metadata_texts);
  LearnResult incremental = learner.Learn(store);
  std::string incremental_json = SerializeContracts(incremental.set, store.patterns());
  if (options.hooks.perturb_incremental_contracts) {
    options.hooks.perturb_incremental_contracts(&incremental_json);
  }
  if (incremental_json != fresh_json) {
    throw OracleMismatch{"learn_identity",
                         "incremental contracts differ from fresh learn (" +
                             std::to_string(incremental_json.size()) + " vs " +
                             std::to_string(fresh_json.size()) + " bytes)"};
  }

  // Update/revert: touching one config and restoring it must converge back to
  // the fresh bytes — this is where stale per-config artifacts would show.
  if (!corpus.configs.empty()) {
    const GeneratedConfig& first = corpus.configs.front();
    store.Upsert(first.name, first.text + "\nfz-touch extra 1\n");
    learner.Learn(store);
    ThrowIfExpired(deadline);
    store.Upsert(first.name, first.text);
    LearnResult reverted = learner.Learn(store);
    std::string reverted_json = SerializeContracts(reverted.set, store.patterns());
    if (reverted_json != fresh_json) {
      throw OracleMismatch{"learn_identity",
                           "contracts after update/revert differ from fresh learn"};
    }
  }
}

// ---- Oracle 2: serve responses vs the CLI ----------------------------------

std::string BuildCheckLine(const std::vector<std::string>& config_paths,
                           const std::vector<std::string>& metadata_paths) {
  JsonValue request = JsonValue::Object();
  request.Set("v", JsonValue::Number(int64_t{1}));
  request.Set("verb", JsonValue::String("check"));
  request.Set("contracts", JsonValue::String("fuzz"));
  JsonValue configs = JsonValue::Array();
  for (const std::string& path : config_paths) {
    JsonValue item = JsonValue::Object();
    item.Set("name", JsonValue::String(path));
    item.Set("text", JsonValue::String(ReadFile(path)));
    configs.Append(std::move(item));
  }
  request.Set("configs", std::move(configs));
  if (!metadata_paths.empty()) {
    JsonValue metadata = JsonValue::Array();
    for (const std::string& path : metadata_paths) {
      JsonValue item = JsonValue::Object();
      item.Set("name", JsonValue::String(path));
      item.Set("text", JsonValue::String(ReadFile(path)));
      metadata.Append(std::move(item));
    }
    request.Set("metadata", std::move(metadata));
  }
  return request.Serialize(0);
}

int InvokeCli(CliRunner run_cli, const std::vector<std::string>& args,
              std::string* err_text) {
  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (const std::string& arg : args) {
    argv.push_back(arg.c_str());
  }
  std::ostringstream out;
  std::ostringstream err;
  int rc = run_cli(static_cast<int>(argv.size()), argv.data(), out, err);
  *err_text = err.str();
  return rc;
}

// rc 2 from the CLI is either the deadline (ours) or a defect (the fuzzer's
// catch): re-raise the former, report the latter.
void RequireCliRc(int rc, const std::string& err_text, const char* what,
                  std::initializer_list<int> allowed) {
  for (int ok : allowed) {
    if (rc == ok) {
      return;
    }
  }
  if (err_text.find("deadline_exceeded") != std::string::npos) {
    throw DeadlineExceeded();
  }
  throw std::runtime_error(std::string(what) + " exited " + std::to_string(rc) +
                           ": " + err_text);
}

// Runs the socket server on a single-worker pool and joins it no matter how
// the oracle exits: RequestShutdown() breaks the accept loop even if the
// graceful wire `shutdown` never arrived.
class ServerGuard {
 public:
  ServerGuard(Service* service, std::function<void()> server)
      : service_(service), pool_(1) {
    pool_.Submit(std::move(server));
  }
  ~ServerGuard() {
    service_->RequestShutdown();
    try {
      pool_.Wait();
    } catch (...) {
      // Server-loop failures already surfaced through the captured err stream;
      // teardown must not throw past the oracle's own exception.
    }
  }

 private:
  Service* service_;
  ThreadPool pool_;
};

int DialWithRetry(const std::string& path, std::string* error) {
  for (int attempt = 0; attempt < 400; ++attempt) {
    int fd = DialUnixClient(path, error);
    if (fd >= 0) {
      return fd;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return -1;
}

// One NDJSON request/response over a connected fd.
std::string RoundTrip(int fd, const std::string& line) {
  std::string payload = line + "\n";
  size_t sent = 0;
  while (sent < payload.size()) {
    ssize_t n = ::write(fd, payload.data() + sent, payload.size() - sent);
    if (n <= 0) {
      throw std::runtime_error("socket write failed");
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  while (true) {
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) {
      throw std::runtime_error("socket read failed (connection closed early)");
    }
    response.append(buffer, static_cast<size_t>(n));
    size_t nl = response.find('\n');
    if (nl != std::string::npos) {
      response.resize(nl);
      return response;
    }
  }
}

void RunServeIdentityOracle(const GeneratedCorpus& corpus,
                            const OracleOptions& options, const Deadline& deadline) {
  if (options.run_cli == nullptr || options.work_dir.empty() ||
      corpus.configs.empty()) {
    return;
  }
  fs::path base = options.work_dir;
  fs::remove_all(base);
  fs::create_directories(base / "configs");
  if (!corpus.metadata.empty()) {
    fs::create_directories(base / "meta");
  }
  std::vector<std::string> config_paths;
  for (const GeneratedConfig& config : corpus.configs) {
    std::string path = (base / "configs" / config.name).string();
    WriteFile(path, config.text);
    config_paths.push_back(path);
  }
  std::vector<std::string> metadata_paths;
  for (const GeneratedConfig& doc : corpus.metadata) {
    std::string path = (base / "meta" / doc.name).string();
    WriteFile(path, doc.text);
    metadata_paths.push_back(path);
  }
  // The CLI expands globs sorted; the request must list configs in the same
  // order for the reports to agree.
  std::sort(config_paths.begin(), config_paths.end());
  std::sort(metadata_paths.begin(), metadata_paths.end());

  std::string contracts_path = (base / "contracts.json").string();
  std::string report_path = (base / "report.json").string();
  std::string configs_glob = (base / "configs" / "*").string();
  std::string metadata_glob = (base / "meta" / "*").string();

  std::string cli_err;
  std::vector<std::string> learn_args = {
      "concord",   "learn",
      "--configs", configs_glob,
      "--out",     contracts_path,
      "--support", std::to_string(options.support),
      "--deadline-ms", std::to_string(std::max<int64_t>(1, deadline.remaining_ms())),
      "--quiet"};
  if (!metadata_paths.empty()) {
    learn_args.insert(learn_args.end(), {"--metadata", metadata_glob});
  }
  RequireCliRc(InvokeCli(options.run_cli, learn_args, &cli_err), cli_err,
               "concord learn", {0, 3});

  std::vector<std::string> check_args = {
      "concord",     "check",
      "--configs",   configs_glob,
      "--contracts", contracts_path,
      "--json-out",  report_path,
      "--deadline-ms", std::to_string(std::max<int64_t>(1, deadline.remaining_ms())),
      "--quiet"};
  if (!metadata_paths.empty()) {
    check_args.insert(check_args.end(), {"--metadata", metadata_glob});
  }
  RequireCliRc(InvokeCli(options.run_cli, check_args, &cli_err), cli_err,
               "concord check", {0, 1, 3});
  std::string cli_report = ReadFile(report_path);
  ThrowIfExpired(deadline);

  Service service(ServiceOptions{});
  std::string error;
  if (!service.LoadContracts("fuzz", contracts_path, &error)) {
    throw std::runtime_error("serve failed to load CLI-written contracts: " + error);
  }

  std::string check_line = BuildCheckLine(config_paths, metadata_paths);
  service.HandleLine(check_line);  // Cold run warms the parse cache.
  std::string warm_response = service.HandleLine(check_line);
  std::string parse_error;
  auto response = JsonValue::Parse(warm_response, &parse_error);
  if (!response) {
    throw std::runtime_error("serve check response is not JSON: " + parse_error);
  }
  if (response->GetBool("ok") != true) {
    throw std::runtime_error("serve check refused the corpus: " + warm_response);
  }
  const JsonValue* report = response->Find("report");
  if (report == nullptr) {
    throw std::runtime_error("serve check response has no report member");
  }
  std::string serve_report = report->Serialize(2);
  if (options.hooks.perturb_serve_report) {
    options.hooks.perturb_serve_report(&serve_report);
  }
  if (serve_report != cli_report) {
    throw OracleMismatch{"serve_identity",
                         "serve report differs from `concord check --json-out` (" +
                             std::to_string(serve_report.size()) + " vs " +
                             std::to_string(cli_report.size()) + " bytes)"};
  }
  ThrowIfExpired(deadline);

  // Warm standalone responses: the batch-slot oracle's reference bytes.
  std::vector<std::string> standalone_lines;
  std::vector<std::string> standalone_responses;
  for (const std::string& path : config_paths) {
    std::string line = BuildCheckLine({path}, metadata_paths);
    service.HandleLine(line);
    standalone_responses.push_back(service.HandleLine(line));
    standalone_lines.push_back(std::move(line));
    ThrowIfExpired(deadline);
  }

  // check_batch: one slot per config must reproduce each standalone response
  // byte for byte. Metadata is an envelope field — the batch handler applies
  // the *outer* metadata to every slot and ignores per-slot copies.
  JsonValue batch = JsonValue::Object();
  batch.Set("v", JsonValue::Number(int64_t{1}));
  batch.Set("verb", JsonValue::String("check_batch"));
  batch.Set("contracts", JsonValue::String("fuzz"));
  JsonValue requests = JsonValue::Array();
  for (const std::string& line : standalone_lines) {
    auto sub = JsonValue::Parse(line);
    if (!metadata_paths.empty() && !batch.Find("metadata")) {
      if (const JsonValue* meta = sub->Find("metadata")) {
        batch.Set("metadata", *meta);
      }
    }
    sub->members().erase(
        std::remove_if(sub->members().begin(), sub->members().end(),
                       [](const auto& member) {
                         return member.first == "v" || member.first == "verb" ||
                                member.first == "contracts" ||
                                member.first == "metadata";
                       }),
        sub->members().end());
    requests.Append(std::move(*sub));
  }
  batch.Set("requests", std::move(requests));
  std::string batch_line = batch.Serialize(0);

  auto check_batch_slots = [&](const std::string& batch_response, const char* path) {
    auto parsed = JsonValue::Parse(batch_response, &parse_error);
    if (!parsed) {
      throw std::runtime_error(std::string(path) +
                               " check_batch response is not JSON: " + parse_error);
    }
    if (parsed->GetBool("ok") != true) {
      throw std::runtime_error(std::string(path) +
                               " check_batch refused: " + batch_response);
    }
    const JsonValue* results = parsed->Find("results");
    if (results == nullptr || results->items().size() != standalone_responses.size()) {
      throw OracleMismatch{"batch_identity",
                           std::string(path) + " check_batch slot count differs"};
    }
    for (size_t i = 0; i < results->items().size(); ++i) {
      std::string slot = results->items()[i].Serialize(0);
      if (i == 0 && options.hooks.perturb_batch_slot) {
        options.hooks.perturb_batch_slot(&slot);
      }
      if (slot != standalone_responses[i]) {
        throw OracleMismatch{"batch_identity",
                             std::string(path) + " check_batch slot " +
                                 std::to_string(i) +
                                 " differs from the standalone check"};
      }
    }
  };
  check_batch_slots(service.HandleLine(batch_line), "in-process");
  ThrowIfExpired(deadline);

  if (!options.socket) {
    return;
  }
  // Round-trip the same lines through the epoll frontend: on-the-wire bytes
  // must match the in-process responses exactly.
  std::string socket_path = (base / "fuzz.sock").string();
  SocketServerOptions server_options;
  server_options.install_signal_handlers = false;
  server_options.workers = 2;
  server_options.idle_timeout_ms = 5000;
  server_options.drain_ms = 2000;
  std::ostringstream server_err;
  {
    ServerGuard guard(&service,
                      [&service, socket_path, &server_err, server_options] {
                        RunServiceSocket(service, socket_path, server_err,
                                         nullptr, server_options);
                      });
    int fd = DialWithRetry(socket_path, &error);
    if (fd < 0) {
      throw std::runtime_error("cannot dial fuzz socket: " + error);
    }
    try {
      std::string wire_response = RoundTrip(fd, check_line);
      if (wire_response != warm_response) {
        throw OracleMismatch{"serve_identity",
                             "socket check response differs from in-process bytes"};
      }
      check_batch_slots(RoundTrip(fd, batch_line), "socket");
      RoundTrip(fd, R"({"v":1,"verb":"shutdown"})");
    } catch (...) {
      ::close(fd);
      throw;
    }
    ::close(fd);
  }
}

// ---- The corpus learned once for the check-side oracles 3 and 4 ------------

struct LearnedCorpus {
  Dataset dataset;
  ContractSet set;
  std::vector<ConfigIndex> indexes;  // Point into `dataset`.
  std::vector<const ConfigIndex*> index_ptrs;
};

// Also the parse half of the parallel_identity oracle: ParseConfigs in
// `parallelism` blocks (more blocks than files in some cases, which it caps)
// must give the pattern table and parsed lines of the serial ConfigParser
// loop. A block boundary is where a parser's reused buffers could carry one
// file's state into the next.
void LearnCorpus(const GeneratedCorpus& corpus, int parallelism, const OracleOptions& options,
                 const Deadline& deadline, LearnedCorpus* out) {
  ParseOptions parse_options;
  LearnOptions learn_options;
  learn_options.support = options.support;
  learn_options.deadline = deadline;
  Lexer lexer;
  Dataset& dataset = out->dataset;
  ConfigParser parser(&lexer, &dataset.patterns, parse_options);
  for (const GeneratedConfig& config : corpus.configs) {
    dataset.configs.push_back(parser.Parse(config.name, config.text));
    ThrowIfExpired(deadline);
  }
  std::vector<ConfigSource> files;
  for (const GeneratedConfig& config : corpus.configs) {
    files.push_back(ConfigSource{&config.name, &config.text});
  }
  Dataset blocked;
  std::vector<ParseFailure> failures =
      ParseConfigs(lexer, parse_options, files, parallelism, &blocked, deadline);
  if (!failures.empty()) {
    throw std::runtime_error(failures.front().reason);
  }
  if (std::string diff = FirstParseDifference(dataset, blocked); !diff.empty()) {
    throw OracleMismatch{"parallel_identity", "parse in " + std::to_string(parallelism) +
                                                  " blocks differs from the serial loop: " +
                                                  diff};
  }
  for (const GeneratedConfig& doc : corpus.metadata) {
    std::vector<ParsedLine> lines = parser.ParseMetadata(doc.text);
    dataset.metadata.insert(dataset.metadata.end(), lines.begin(), lines.end());
  }
  out->set = Learner(learn_options).Learn(dataset).set;
  ThrowIfExpired(deadline);

  out->indexes = BuildIndexes(dataset, &deadline);
  out->index_ptrs.reserve(out->indexes.size());
  for (const ConfigIndex& index : out->indexes) {
    out->index_ptrs.push_back(&index);
  }
}

// ---- Oracle 3: analyzer total-ness and subsumption-prune identity -----------
//
// The analyzer must terminate cleanly on whatever the fuzzed corpus learns
// (any exception triages as crash, deadline expiry as timeout), and its
// prunable mask must be safe to hand to the checker: a coverage-off pruned
// check flags exactly the configs the unpruned check flags, its violations
// are exactly the unpruned run's minus the pruned contracts' own, and on a
// clean corpus the two report JSONs are byte-identical.
void RunAnalyzePruneOracle(const LearnedCorpus& learned, const OracleOptions& options,
                           const Deadline& deadline) {
  const Dataset& dataset = learned.dataset;
  const std::vector<const ConfigIndex*>& index_ptrs = learned.index_ptrs;

  // Total-ness: every pass, with the dead-pattern sub-pass fed real postings.
  AnalyzeOptions analyze_options;
  analyze_options.deadline = deadline;
  AnalysisResult analysis =
      AnalyzeContracts(learned.set, dataset.patterns, index_ptrs, analyze_options);

  Checker checker(&learned.set, &dataset.patterns);
  CheckOptions check_options;
  check_options.measure_coverage = false;
  check_options.deadline = deadline;
  CheckResult plain = checker.Check(index_ptrs, check_options);
  check_options.prune_mask = &analysis.prunable;
  CheckResult pruned = checker.Check(index_ptrs, check_options);
  if (pruned.contracts_pruned != analysis.PrunableCount() ||
      pruned.contracts_evaluated + pruned.contracts_pruned !=
          plain.contracts_evaluated) {
    throw OracleMismatch{"analyze_prune",
                         "pruned check evaluated " +
                             std::to_string(pruned.contracts_evaluated) +
                             " contracts, expected " +
                             std::to_string(plain.contracts_evaluated) + " minus " +
                             std::to_string(analysis.PrunableCount())};
  }

  // The pruned run must produce exactly the unpruned violations minus those
  // raised by pruned contracts — checked as report bytes so any drift in the
  // rendering surfaces too.
  CheckResult filtered = plain;
  filtered.violations.erase(
      std::remove_if(filtered.violations.begin(), filtered.violations.end(),
                     [&analysis](const Violation& v) {
                       return analysis.prunable[v.contract_index] != 0;
                     }),
      filtered.violations.end());
  std::string expected_json = ReportJson(filtered, learned.set, dataset.patterns);
  std::string pruned_json = ReportJson(pruned, learned.set, dataset.patterns);
  if (options.hooks.perturb_pruned_report) {
    options.hooks.perturb_pruned_report(&pruned_json);
  }
  if (pruned_json != expected_json) {
    throw OracleMismatch{"analyze_prune",
                         "pruned report differs from the unpruned report minus "
                         "pruned contracts' violations (" +
                             std::to_string(pruned_json.size()) + " vs " +
                             std::to_string(expected_json.size()) + " bytes)"};
  }

  // Detection equivalence (the soundness claim): pruning must not change
  // which configs are flagged — every pruned contract's violation is
  // accompanied by one from its unpruned dominator.
  std::set<std::string> flagged_plain;
  std::set<std::string> flagged_pruned;
  for (const Violation& v : plain.violations) {
    flagged_plain.insert(v.config);
  }
  for (const Violation& v : pruned.violations) {
    flagged_pruned.insert(v.config);
  }
  if (flagged_plain != flagged_pruned) {
    throw OracleMismatch{"analyze_prune",
                         "pruning changed the set of flagged configs (" +
                             std::to_string(flagged_plain.size()) + " vs " +
                             std::to_string(flagged_pruned.size()) + ")"};
  }

  // Clean corpus: byte identity outright (what the bench gate measures).
  if (plain.violations.empty() &&
      ReportJson(plain, learned.set, dataset.patterns) != pruned_json) {
    throw OracleMismatch{"analyze_prune",
                         "pruned report differs from unpruned on a clean corpus"};
  }
  ThrowIfExpired(deadline);
}

// ---- Oracle 4: parallel check identity --------------------------------------
//
// The check half of the parallel_identity oracle: the scan grid (config tiles
// x contract chunks) and the per-task key tables must not show in the output.
// The corpus's configs repeat in order until the batch holds more than one
// tile, so every case crosses a tile boundary. The batch checked at
// `parallelism` renders the report and per-line coverage bytes of the serial
// check. Both run the same tiles, so the serial check is also held to the
// batch's configs checked one at a time (each its own tile): every config gets
// the same violations and coverage, the unique contracts aside, since theirs
// is the one verdict that depends on the rest of the batch.
void RunParallelIdentityOracle(const LearnedCorpus& learned, int parallelism,
                               const OracleOptions& options, const Deadline& deadline) {
  if (learned.index_ptrs.empty()) {
    return;
  }
  std::vector<const ConfigIndex*> batch;
  while (batch.size() <= kCheckTileConfigs) {
    batch.insert(batch.end(), learned.index_ptrs.begin(), learned.index_ptrs.end());
  }
  Checker checker(&learned.set, &learned.dataset.patterns);
  auto check = [&](const std::vector<const ConfigIndex*>& indexes, int workers) {
    CheckOptions check_options;
    check_options.deadline = deadline;
    check_options.parallelism = workers;
    return checker.Check(indexes, check_options);
  };
  auto rendered = [&](const CheckResult& result) {
    return ReportJson(result, learned.set, learned.dataset.patterns) +
           CoverageReportText(result);
  };
  const CheckResult serial = check(batch, 1);
  const std::string serial_bytes = rendered(serial);
  std::string parallel = rendered(check(batch, parallelism));
  if (options.hooks.perturb_parallel_report) {
    options.hooks.perturb_parallel_report(&parallel);
  }
  if (parallel != serial_bytes) {
    throw OracleMismatch{"parallel_identity",
                         "check at parallelism " + std::to_string(parallelism) +
                             " renders other bytes than the serial check (" +
                             std::to_string(parallel.size()) + " vs " +
                             std::to_string(serial_bytes.size()) + " bytes)"};
  }

  auto per_config = [&](const CheckResult& result) {
    std::string out;
    for (const Violation& v : result.violations) {
      if (learned.set.contracts[v.contract_index].kind != ContractKind::kUnique) {
        out += v.config + ":" + std::to_string(v.line_number) + " " + v.message + "\n";
      }
    }
    return out + CoverageReportText(result);
  };
  CheckResult one_by_one;
  for (const ConfigIndex* index : batch) {
    CheckResult alone = check({index}, 1);
    std::move(alone.violations.begin(), alone.violations.end(),
              std::back_inserter(one_by_one.violations));
    std::move(alone.per_config.begin(), alone.per_config.end(),
              std::back_inserter(one_by_one.per_config));
  }
  if (per_config(serial) != per_config(one_by_one)) {
    throw OracleMismatch{"parallel_identity",
                         "a batch of " + std::to_string(batch.size()) +
                             " configs (" + std::to_string(learned.index_ptrs.size()) +
                             " repeated) checks its configs otherwise than one at a time"};
  }
}

}  // namespace

std::string_view TriageBucketName(TriageBucket bucket) {
  switch (bucket) {
    case TriageBucket::kClean:
      return "clean";
    case TriageBucket::kCrash:
      return "crash";
    case TriageBucket::kMismatch:
      return "mismatch";
    case TriageBucket::kTimeout:
      return "timeout";
  }
  return "unknown";
}

TriageResult RunOracles(const GeneratedCorpus& corpus, const OracleOptions& options) {
  TriageResult result;
  Deadline deadline = options.deadline_ms > 0 ? Deadline::After(options.deadline_ms)
                                              : Deadline::Never();
  try {
    RunLearnIdentityOracle(corpus, options, deadline);
    RunServeIdentityOracle(corpus, options, deadline);
    const int parallelism = 2 + static_cast<int>(CorpusFingerprint(corpus) % 6);
    LearnedCorpus learned;
    LearnCorpus(corpus, parallelism, options, deadline, &learned);
    RunAnalyzePruneOracle(learned, options, deadline);
    RunParallelIdentityOracle(learned, parallelism, options, deadline);
  } catch (const OracleMismatch& mismatch) {
    result.bucket = TriageBucket::kMismatch;
    result.oracle = mismatch.oracle;
    result.detail = mismatch.detail;
  } catch (const DeadlineExceeded&) {
    result.bucket = TriageBucket::kTimeout;
    result.oracle = "pipeline";
    result.detail = "deadline of " + std::to_string(options.deadline_ms) +
                    " ms expired";
  } catch (const std::exception& e) {
    result.bucket = TriageBucket::kCrash;
    result.oracle = "pipeline";
    result.detail = e.what();
  } catch (...) {
    result.bucket = TriageBucket::kCrash;
    result.oracle = "pipeline";
    result.detail = "non-standard exception";
  }
  return result;
}

FuzzCaseSpec MinimizeFailure(const GeneratorRegistry& registry,
                             const FuzzCaseSpec& spec, const TriageResult& failure,
                             const OracleOptions& options) {
  auto still_fails = [&](const FuzzCaseSpec& candidate) {
    try {
      GeneratedCorpus corpus = BuildFuzzCorpus(registry, candidate);
      TriageResult triage = RunOracles(corpus, options);
      return triage.bucket == failure.bucket && triage.oracle == failure.oracle;
    } catch (...) {
      return false;
    }
  };

  FuzzCaseSpec best = spec;
  // Fewest configs that still fail (the corpus is the unit of work downstream).
  for (int configs : {1, 2, 4, 8}) {
    FuzzCaseSpec candidate = best;
    candidate.knobs.Set("fuzz-max-configs", std::to_string(configs));
    if (still_fails(candidate)) {
      best = candidate;
      break;
    }
  }
  // Distortion passes that are not implicated get switched off.
  static const char* kRateKnobs[] = {
      "fuzz-nest-rate",   "fuzz-long-line-rate", "fuzz-ladder-rate",
      "fuzz-break-rate",  "fuzz-byte-rate",      "fuzz-splice-rate",
      "fuzz-near-miss-rate", "fuzz-edge-case-rate", "fuzz-metadata-rate"};
  for (const char* knob : kRateKnobs) {
    FuzzCaseSpec candidate = best;
    candidate.knobs.Set(knob, "0");
    if (still_fails(candidate)) {
      best = candidate;
    }
  }
  return best;
}

std::string SerializeRepro(const FuzzCaseSpec& spec, const TriageResult& triage) {
  JsonValue doc = JsonValue::Object();
  doc.Set("family", JsonValue::String(spec.family));
  // Seeds are full uint64 values; strings survive the double-typed JSON number.
  doc.Set("seed", JsonValue::String(std::to_string(spec.seed)));
  JsonValue knobs = JsonValue::Object();
  for (const auto& [key, value] : spec.knobs.values()) {
    knobs.Set(key, JsonValue::String(value));
  }
  doc.Set("knobs", std::move(knobs));
  if (triage.bucket != TriageBucket::kClean) {
    doc.Set("bucket", JsonValue::String(std::string(TriageBucketName(triage.bucket))));
    doc.Set("oracle", JsonValue::String(triage.oracle));
    doc.Set("detail", JsonValue::String(triage.detail));
  }
  return doc.Serialize(2) + "\n";
}

bool ParseRepro(const std::string& json, FuzzCaseSpec* spec, std::string* error) {
  auto doc = JsonValue::Parse(json, error);
  if (!doc) {
    return false;
  }
  auto family = doc->GetString("family");
  auto seed = doc->GetString("seed");
  if (!family || !seed) {
    if (error != nullptr) {
      *error = "repro must carry string 'family' and 'seed' members";
    }
    return false;
  }
  spec->family = *family;
  try {
    spec->seed = std::stoull(*seed);
  } catch (...) {
    if (error != nullptr) {
      *error = "seed '" + *seed + "' is not a uint64";
    }
    return false;
  }
  spec->knobs = Knobs();
  const JsonValue* knobs = doc->Find("knobs");
  if (knobs != nullptr) {
    for (const auto& [key, value] : knobs->members()) {
      spec->knobs.Set(key, value.AsString());
    }
  }
  return true;
}

CampaignResult RunFuzzCampaign(const GeneratorRegistry& registry,
                               const CampaignOptions& options, std::ostream& log) {
  CampaignResult result;
  result.verdict_fingerprint = kFnv1a64OffsetBasis;
  std::vector<std::string> families =
      options.families.empty() ? registry.FamilyNames() : options.families;
  if (families.empty()) {
    throw std::invalid_argument("no generator families registered");
  }

  auto run_case = [&](const FuzzCaseSpec& spec, bool replayed) {
    TriageResult triage;
    uint64_t fingerprint = 0;
    try {
      GeneratedCorpus corpus = BuildFuzzCorpus(registry, spec);
      fingerprint = CorpusFingerprint(corpus);
      triage = RunOracles(corpus, options.oracle);
    } catch (const std::exception& e) {
      triage.bucket = TriageBucket::kCrash;
      triage.oracle = "generate";
      triage.detail = e.what();
    }
    ++result.cases;
    if (replayed) {
      ++result.replayed;
    }
    switch (triage.bucket) {
      case TriageBucket::kClean:
        ++result.clean;
        break;
      case TriageBucket::kCrash:
        ++result.crashes;
        break;
      case TriageBucket::kMismatch:
        ++result.mismatches;
        break;
      case TriageBucket::kTimeout:
        ++result.timeouts;
        break;
    }
    result.verdict_fingerprint =
        Fnv1a64(spec.Identity() + "|" + Hex16(fingerprint) + "|" +
                    std::string(TriageBucketName(triage.bucket)) + "|" + triage.oracle,
                result.verdict_fingerprint);
    if (triage.bucket == TriageBucket::kClean) {
      if (options.verbose) {
        log << "ok " << spec.Identity() << "\n";
      }
      return;
    }
    FuzzCaseSpec reported = spec;
    if (options.minimize) {
      reported = MinimizeFailure(registry, spec, triage, options.oracle);
    }
    log << TriageBucketName(triage.bucket) << " [" << triage.oracle << "] "
        << reported.Identity() << ": " << triage.detail << "\n";
    FailureRecord record;
    record.spec = reported;
    record.triage = triage;
    record.corpus_fingerprint = fingerprint;
    if (!options.out_dir.empty()) {
      fs::create_directories(options.out_dir);
      std::string name =
          "repro-" + Hex16(Fnv1a64(reported.Identity())) + ".json";
      std::string path = (fs::path(options.out_dir) / name).string();
      WriteFile(path, SerializeRepro(reported, triage));
      log << "  repro written to " << path << "\n";
    }
    result.failures.push_back(std::move(record));
  };

  if (!options.corpus_dir.empty() && fs::is_directory(options.corpus_dir)) {
    std::vector<std::string> repro_paths;
    for (const auto& entry : fs::directory_iterator(options.corpus_dir)) {
      if (entry.path().extension() == ".json") {
        repro_paths.push_back(entry.path().string());
      }
    }
    std::sort(repro_paths.begin(), repro_paths.end());
    for (const std::string& path : repro_paths) {
      FuzzCaseSpec spec;
      std::string error;
      if (!ParseRepro(ReadFile(path), &spec, &error)) {
        log << "warning: skipping unreadable repro " << path << ": " << error << "\n";
        continue;
      }
      // Replays keep their recorded knobs verbatim — campaign-level knob
      // overrides apply to fresh cases only.
      run_case(spec, /*replayed=*/true);
    }
  }

  SplitMix64 sequence(options.seed);
  for (int i = 0; i < options.runs; ++i) {
    FuzzCaseSpec spec;
    spec.family = families[static_cast<size_t>(i) % families.size()];
    spec.seed = sequence.Next();
    spec.knobs = options.knobs;
    run_case(spec, /*replayed=*/false);
  }
  return result;
}

}  // namespace concord
