#include "src/service/service.h"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "src/analyze/analyzer.h"
#include "src/check/checker.h"
#include "src/contracts/contract_io.h"
#include "src/contracts/describe.h"
#include "src/pattern/parser.h"
#include "src/report/report.h"
#include "src/store/record_io.h"
#include "src/util/cancellation.h"
#include "src/util/error_code.h"
#include "src/util/hash.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"
#include "src/util/trace.h"

namespace concord {

namespace {

// Request-level failure that becomes a structured {"error":{code,...}} response.
struct ServiceError : std::runtime_error {
  ServiceError(ErrorCode code, const std::string& message,
               std::string detail = "")
      : std::runtime_error(message), code(code), detail(std::move(detail)) {}

  ErrorCode code;
  std::string detail;  // Offending field/file name, when there is one.
};

int64_t ToInt64(size_t n) { return static_cast<int64_t>(n); }

JsonValue ErrorEnvelope(ErrorCode code, const std::string& message,
                        const std::string& detail) {
  JsonValue error = JsonValue::Object();
  error.Set("code", JsonValue::String(std::string(ErrorCodeName(code))));
  error.Set("message", JsonValue::String(message));
  if (!detail.empty()) {
    error.Set("detail", JsonValue::String(detail));
  }
  return error;
}

// Optional per-request wall-clock budget; expiry raises DeadlineExceeded, which
// ResponseFor turns into a structured deadline_exceeded error.
Deadline RequestDeadline(const JsonValue& request) {
  if (auto ms = request.GetInt("deadline_ms"); ms.has_value() && *ms > 0) {
    return Deadline::After(*ms);
  }
  return Deadline::Never();
}

}  // namespace

struct Service::Verb {
  std::string_view name;
  std::vector<std::string_view> fields;
  JsonValue (*handle)(Service& service, const JsonValue& request);
};

// Every serve verb, in the order the missing- and unknown-verb errors list
// them. Under the v1 envelope a member outside the row's fields (and the
// v/id/verb envelope) is an unknown_field error rather than being silently
// ignored, so typos ("metdata") fail loudly.
const std::vector<Service::Verb>& Service::Verbs() {
  static const auto* verbs = new std::vector<Verb>{
      {"check",
       {"contracts", "configs", "metadata", "deadline_ms", "coverage"},
       [](Service& s, const JsonValue& r) {
         return s.HandleCheck(r, /*coverage_listing=*/false);
       }},
      // Slot fields (configs, deadline_ms, coverage) live inside the
      // "requests" entries; each slot dispatches through the check row.
      {"check_batch",
       {"contracts", "metadata", "requests"},
       [](Service& s, const JsonValue& r) { return s.HandleCheckBatch(r); }},
      {"coverage",
       {"contracts", "configs", "metadata", "deadline_ms", "coverage"},
       [](Service& s, const JsonValue& r) {
         return s.HandleCheck(r, /*coverage_listing=*/true);
       }},
      {"analyze",
       {"contracts", "dataset", "deadline_ms"},
       [](Service& s, const JsonValue& r) { return s.HandleAnalyze(r); }},
      // "name" is the v1 alias of "contracts".
      {"reload",
       {"contracts", "name", "path"},
       [](Service& s, const JsonValue& r) { return s.HandleReload(r); }},
      {"learn",
       {"dataset", "configs", "metadata", "options", "deadline_ms"},
       [](Service& s, const JsonValue& r) { return s.HandleLearn(r); }},
      // "upsert" is the v1 alias of "configs".
      {"update",
       {"dataset", "configs", "upsert", "remove", "metadata", "options",
        "deadline_ms"},
       [](Service& s, const JsonValue& r) { return s.HandleUpdate(r); }},
      {"stats", {}, [](Service& s, const JsonValue&) { return s.HandleStats(); }},
      {"metrics", {}, [](Service& s, const JsonValue&) { return s.HandleMetrics(); }},
      {"shutdown", {},
       [](Service& s, const JsonValue&) { return s.HandleShutdown(); }},
  };
  return *verbs;
}

const Service::Verb* Service::FindVerb(std::string_view name) {
  for (const Verb& verb : Verbs()) {
    if (verb.name == name) {
      return &verb;
    }
  }
  return nullptr;
}

std::string Service::VerbNames() {
  std::string names;
  for (const Verb& verb : Verbs()) {
    if (!names.empty()) {
      names += '|';
    }
    names += verb.name;
  }
  return names;
}

Service::Service(ServiceOptions options)
    : options_(options),
      store_(options.cache_capacity),
      pool_(options.parallelism <= 0 ? 0 : static_cast<size_t>(options.parallelism)) {
  // Per-stage accounting (cheap: coarse spans only) feeds the `metrics` verb's
  // concord_stage_* counters for as long as the service lives. Ring-buffer
  // event collection stays off unless something else (--profile) enables it.
  TraceCollector::Global().EnableStats();
  if (!options_.store_dir.empty()) {
    durable_ = std::make_unique<DurableStore>(options_.store_dir);
    WarmRestart();
  }
}

void Service::WarmRestart() {
  // Install every persisted contract set straight from disk: a warm restart
  // serves check traffic in milliseconds without relearning anything. The
  // store's "contracts" stage hit counters are the proof. A corrupt or missing
  // object is counted and skipped, and a set learned under another lexer is
  // refused by Install — either way the dataset relearns on its next use.
  for (const auto& [name, info] : durable_->Datasets()) {
    if (info.contracts_key == 0) {
      continue;
    }
    auto payload = durable_->GetObject(RecordType::kContracts, info.contracts_key,
                                       "contracts");
    if (!payload) {
      continue;
    }
    std::string error;
    store_.Install(name, *payload, /*path=*/"", lexer_.DefinitionsKey(), &error);
  }
}

bool Service::LoadContracts(const std::string& name, const std::string& path,
                            std::string* error) {
  return store_.Load(name, path, lexer_.DefinitionsKey(), error);
}

bool Service::LoadLexerDefinitions(const std::string& text, std::string* error) {
  if (!lexer_.LoadDefinitions(text, error)) {
    return false;
  }
  // The sets installed so far matched the previous lexer. Drop the ones this
  // lexer does not match, and warm-restart the persisted sets it does.
  store_.EvictOtherLexers(lexer_.DefinitionsKey());
  if (durable_ != nullptr) {
    WarmRestart();
  }
  return true;
}

std::string Service::HandleLine(const std::string& line) {
  Stopwatch watch;
  // Metrics label: a verb from the table, else "invalid", so hostile input
  // cannot grow the per-verb series without bound.
  std::string verb = "invalid";
  JsonValue id;
  bool has_id = false;
  bool ok = false;
  std::optional<JsonValue> response;
  ErrorCode error_code = ErrorCode::kInternal;
  std::string error_message;
  std::string error_detail;
  try {
    std::optional<JsonValue> request;
    {
      TraceSpan span("serve", "parse_request");
      std::string error;
      request = JsonValue::Parse(line, &error);
      if (!request) {
        throw ServiceError(ErrorCode::kMalformedRequest,
                           "malformed JSON request: " + error);
      }
      if (!request->is_object()) {
        throw ServiceError(ErrorCode::kMalformedRequest,
                           "request must be a JSON object");
      }
    }
    if (const JsonValue* i = request->Find("id")) {
      id = *i;
      has_id = true;
    }
    // Versioned envelope: "v" is required and must be the integer 1; a newer
    // version is rejected with a code the client can branch on.
    const JsonValue* version = request->Find("v");
    if (version == nullptr) {
      throw ServiceError(ErrorCode::kMissingField,
                         "missing 'v' (protocol version; this server speaks v1)",
                         "v");
    }
    if (!version->is_number()) {
      throw ServiceError(ErrorCode::kInvalidField,
                         "'v' must be the integer protocol version", "v");
    }
    if (version->AsInt() > 1) {
      throw ServiceError(ErrorCode::kUnsupportedVersion,
                         "protocol version " + version->NumberSpelling() +
                             " is not supported (this server speaks v1)",
                         "v");
    }
    if (version->AsInt() != 1) {
      throw ServiceError(ErrorCode::kInvalidField,
                         "'v' must be the integer protocol version 1", "v");
    }
    auto v = request->GetString("verb");
    if (!v) {
      throw ServiceError(ErrorCode::kMissingField,
                         "missing 'verb' (expected " + VerbNames() + ")", "verb");
    }
    if (FindVerb(*v) != nullptr) {
      verb = *v;
    }
    response = ResponseFor(*v, *request, &ok);
  } catch (const ServiceError& e) {
    error_code = e.code;
    error_message = e.what();
    error_detail = e.detail;
  } catch (const std::exception& e) {
    error_code = ErrorCode::kInternal;
    error_message = e.what();
  }
  if (!response) {
    // Pre-dispatch failure (malformed request, bad version, missing verb).
    response = AssembleResponse(/*ok=*/false, has_id, std::move(id), error_code,
                                error_message, error_detail, JsonValue());
  }
  metrics_.RecordRequest(verb, ok,
                         static_cast<uint64_t>(watch.ElapsedSeconds() * 1e6));
  TraceSpan span("serve", "serialize");
  return response->Serialize(0);
}

JsonValue Service::AssembleResponse(bool ok, bool has_id, JsonValue id,
                                    ErrorCode error_code,
                                    const std::string& error_message,
                                    const std::string& error_detail, JsonValue body) {
  JsonValue response = JsonValue::Object();
  response.Set("v", JsonValue::Number(int64_t{1}));
  response.Set("ok", JsonValue::Bool(ok));
  if (has_id) {
    response.Set("id", std::move(id));
  }
  if (!ok) {
    response.Set("error", ErrorEnvelope(error_code, error_message, error_detail));
  }
  for (auto& [key, value] : body.members()) {
    response.Set(key, std::move(value));
  }
  return response;
}

JsonValue Service::ResponseFor(const std::string& verb, const JsonValue& request,
                               bool* ok_out) {
  JsonValue id;
  bool has_id = false;
  if (const JsonValue* i = request.Find("id")) {
    id = *i;
    has_id = true;
  }
  JsonValue body;
  bool ok = false;
  ErrorCode error_code = ErrorCode::kInternal;
  std::string error_message;
  std::string error_detail;
  try {
    body = Dispatch(verb, request);
    ok = true;
  } catch (const DeadlineExceeded&) {
    // Structured so clients can retry with a larger budget without string-matching.
    error_code = ErrorCode::kDeadlineExceeded;
    error_message = "deadline_exceeded";
  } catch (const ServiceError& e) {
    error_code = e.code;
    error_message = e.what();
    error_detail = e.detail;
  } catch (const std::exception& e) {
    error_code = ErrorCode::kInternal;
    error_message = e.what();
  }
  if (ok_out != nullptr) {
    *ok_out = ok;
  }
  return AssembleResponse(ok, has_id, std::move(id), error_code, error_message,
                          error_detail, std::move(body));
}

JsonValue Service::Dispatch(const std::string& verb, const JsonValue& request) {
  const Verb* row = FindVerb(verb);
  if (row == nullptr) {
    throw ServiceError(ErrorCode::kUnknownVerb,
                       "unknown verb '" + verb + "' (expected " + VerbNames() + ")",
                       verb);
  }
  for (const auto& [field, value] : request.members()) {
    bool allowed = field == "v" || field == "id" || field == "verb" ||
                   std::find(row->fields.begin(), row->fields.end(), field) !=
                       row->fields.end();
    if (!allowed) {
      throw ServiceError(ErrorCode::kUnknownField,
                         "unknown field '" + field + "' for verb '" + verb + "'",
                         field);
    }
  }
  return row->handle(*this, request);
}

JsonValue Service::HandleStats() {
  JsonValue body = JsonValue::Object();
  body.Set("verb", JsonValue::String("stats"));
  body.Set("stats", metrics_.Snapshot());
  JsonValue sets = JsonValue::Array();
  for (const auto& entry : store_.All()) {
    JsonValue item = JsonValue::Object();
    item.Set("name", JsonValue::String(entry->name));
    item.Set("path", JsonValue::String(entry->path));
    item.Set("contracts", JsonValue::Number(ToInt64(entry->set.contracts.size())));
    item.Set("patterns", JsonValue::Number(ToInt64(entry->table.size())));
    item.Set("cached_configs", JsonValue::Number(ToInt64(entry->cache.size())));
    sets.Append(std::move(item));
  }
  body.Set("contract_sets", std::move(sets));
  if (durable_ != nullptr) {
    JsonValue store = JsonValue::Object();
    store.Set("dir", JsonValue::String(durable_->dir()));
    store.Set("objects", JsonValue::Number(static_cast<int64_t>(durable_->object_count())));
    store.Set("bytes", JsonValue::Number(static_cast<int64_t>(durable_->total_bytes())));
    store.Set("datasets", JsonValue::Number(ToInt64(durable_->Datasets().size())));
    store.Set("manifest_corrupt", JsonValue::Bool(durable_->manifest_corrupt()));
    JsonValue stages = JsonValue::Object();
    for (const auto& [stage, c] : durable_->Counters()) {
      JsonValue cell = JsonValue::Object();
      cell.Set("hits", JsonValue::Number(static_cast<int64_t>(c.hits)));
      cell.Set("misses", JsonValue::Number(static_cast<int64_t>(c.misses)));
      cell.Set("corrupt", JsonValue::Number(static_cast<int64_t>(c.corrupt)));
      stages.Set(stage, std::move(cell));
    }
    store.Set("stages", std::move(stages));
    body.Set("store", std::move(store));
  }
  return body;
}

JsonValue Service::HandleMetrics() {
  JsonValue body = JsonValue::Object();
  body.Set("verb", JsonValue::String("metrics"));
  body.Set("exposition", JsonValue::String(PrometheusText()));
  return body;
}

JsonValue Service::HandleShutdown() {
  RequestShutdown();
  JsonValue body = JsonValue::Object();
  body.Set("verb", JsonValue::String("shutdown"));
  body.Set("stats", metrics_.Snapshot());
  return body;
}

std::shared_ptr<LoadedContractSet> Service::ResolveContractSet(
    const JsonValue& request) {
  auto name = request.GetString("contracts");
  if (!name) {
    auto all = store_.All();
    if (all.size() != 1) {
      throw ServiceError(ErrorCode::kMissingField,
                         "'contracts' is required when " + std::to_string(all.size()) +
                             " contract sets are loaded",
                         "contracts");
    }
    return all[0];
  }
  std::shared_ptr<LoadedContractSet> entry = store_.Get(*name);
  if (entry == nullptr) {
    throw ServiceError(ErrorCode::kUnknownContractSet,
                       "unknown contract set '" + *name + "' (reload it with a path)",
                       *name);
  }
  return entry;
}

JsonValue Service::HandleCheck(const JsonValue& request, bool coverage_listing) {
  std::shared_ptr<LoadedContractSet> entry = ResolveContractSet(request);
  Deadline deadline = RequestDeadline(request);

  const JsonValue* configs = request.Find("configs");
  if (configs == nullptr || !configs->is_array() || configs->items().empty()) {
    throw ServiceError(ErrorCode::kInvalidField,
                       "'configs' must be a non-empty array of {name, text} objects",
                       "configs");
  }
  struct Item {
    const std::string* name;
    const std::string* text;
    uint64_t key = 0;
    std::shared_ptr<const ParsedConfig> parsed;
  };
  std::vector<Item> items;
  items.reserve(configs->items().size());
  for (const JsonValue& member : configs->items()) {
    if (!member.is_object()) {
      throw ServiceError(ErrorCode::kInvalidField,
                         "each configs entry must be a {name, text} object",
                         "configs");
    }
    const JsonValue* config_name = member.Find("name");
    const JsonValue* text = member.Find("text");
    if (config_name == nullptr || !config_name->is_string() || text == nullptr ||
        !text->is_string()) {
      throw ServiceError(ErrorCode::kInvalidField,
                         "each configs entry needs string 'name' and 'text' members",
                         "configs");
    }
    items.push_back(Item{&config_name->AsString(), &text->AsString(),
                         ContentKey(config_name->AsString(), text->AsString()), nullptr});
  }
  // Validated before any parsing work, like the configs.
  std::vector<const std::string*> metadata_texts;
  if (const JsonValue* meta = request.Find("metadata")) {
    if (!meta->is_array()) {
      throw ServiceError(ErrorCode::kInvalidField,
                         "'metadata' must be an array of {name, text} objects",
                         "metadata");
    }
    for (const JsonValue& member : meta->items()) {
      const JsonValue* text = member.is_object() ? member.Find("text") : nullptr;
      if (text == nullptr || !text->is_string()) {
        throw ServiceError(ErrorCode::kInvalidField,
                           "each metadata entry needs a string 'text' member",
                           "metadata");
      }
      metadata_texts.push_back(&text->AsString());
    }
  }

  // Cache probes and (for misses) parsing. Parsing interns patterns into the
  // entry's long-lived table, so it runs serially under the entry's parse mutex —
  // that is exactly the work the cache amortizes away on repeat traffic. The
  // metadata is parsed once per request and appended to every config's index,
  // so indexes are built per request and never cached.
  uint64_t hits = 0;
  uint64_t misses = 0;
  std::vector<SkippedFile> degraded;
  std::vector<ParsedLine> metadata;
  std::vector<const ParsedConfig*> parsed_configs;
  parsed_configs.reserve(items.size());
  // Covers the probe-or-parse pass and the index build.
  std::optional<TraceSpan> cache_span;
  cache_span.emplace("serve", "cache_lookup");
  {
    MutexLock lock(entry->parse_mu);
    ConfigParser parser(&lexer_, &entry->table, entry->parse_options);
    for (Item& item : items) {
      ThrowIfExpired(deadline);
      item.parsed = entry->cache.Get(item.key);
      if (item.parsed != nullptr) {
        ++hits;
      } else {
        ++misses;
        // Per-config fault isolation: one unparseable config degrades the batch
        // instead of failing it; the survivors are still checked.
        try {
          item.parsed =
              std::make_shared<ParsedConfig>(parser.Parse(*item.name, *item.text));
          entry->cache.Put(item.key, item.parsed);
        } catch (const std::exception& e) {
          degraded.push_back(SkippedFile{*item.name, e.what(), ErrorCode::kParseFailed});
          continue;
        }
      }
      parsed_configs.push_back(item.parsed.get());
    }
    for (const std::string* text : metadata_texts) {
      for (ParsedLine& parsed_line : parser.ParseMetadata(*text)) {
        metadata.push_back(std::move(parsed_line));
      }
    }
  }
  // `items` pins the parsed configs and `metadata` outlives the check, so the
  // indexes' line pointers stay valid.
  std::vector<ConfigIndex> built = BuildIndexes(parsed_configs, metadata, &deadline);
  cache_span.reset();
  if (built.empty()) {
    throw ServiceError(ErrorCode::kParseFailed,
                       "all " + std::to_string(items.size()) +
                           " configs failed to parse (first: " + degraded.front().file +
                           ": " + degraded.front().reason + ")");
  }
  std::vector<const ConfigIndex*> indexes;
  indexes.reserve(built.size());
  for (const ConfigIndex& index : built) {
    indexes.push_back(&index);
  }
  // The entry's checker was compiled at install time (type-rule grouping,
  // pattern slot table); per-request state rides in the options.
  CheckOptions check_options;
  check_options.measure_coverage =
      coverage_listing || request.GetBool("coverage").value_or(true);
  check_options.deadline = deadline;
  check_options.parallelism = static_cast<int>(pool_.num_threads());
  check_options.pool = &pool_;
  // Subsumption pruning (DESIGN.md §14). The checker itself refuses the mask
  // when coverage is on.
  if (options_.prune_subsumed && !entry->prune_mask.empty()) {
    check_options.prune_mask = &entry->prune_mask;
  }
  CheckResult result;
  {
    TraceSpan span("serve", "check");
    result = entry->checker->Check(indexes, check_options);
  }
  result.skipped = degraded;

  metrics_.RecordCacheProbe(hits, misses);
  metrics_.RecordCheckWork(indexes.size(), entry->set.contracts.size() * indexes.size(),
                           result.violations.size());

  JsonValue body = JsonValue::Object();
  body.Set("verb", JsonValue::String(coverage_listing ? "coverage" : "check"));
  body.Set("contracts", JsonValue::String(entry->name));
  body.Set("configs_checked", JsonValue::Number(ToInt64(indexes.size())));
  body.Set("cache_hits", JsonValue::Number(static_cast<int64_t>(hits)));
  body.Set("cache_misses", JsonValue::Number(static_cast<int64_t>(misses)));
  body.Set("violations", JsonValue::Number(ToInt64(result.violations.size())));
  // Per-config fault isolation: skipped configs, named with structured errors.
  // The {file, error} keys deliberately match the report JSON's degraded section
  // so clients consume one schema. Omitted for clean batches so clean responses
  // stay byte-identical.
  if (!degraded.empty()) {
    body.Set("degraded", DegradedJsonValue(degraded));
  }
  if (coverage_listing) {
    body.Set("coverage", CoverageJsonValue(result));
    body.Set("listing", JsonValue::String(CoverageReportText(result)));
  } else {
    body.Set("report", ReportJsonValue(result, entry->set, entry->table));
  }
  return body;
}

JsonValue Service::HandleCheckBatch(const JsonValue& request) {
  // Resolve the target contract set once for the whole batch, with the same
  // rules as `check`. Resolution failures fail the batch — there is nothing
  // per-slot to isolate yet.
  const std::string name = ResolveContractSet(request)->name;

  const JsonValue* requests = request.Find("requests");
  if (requests == nullptr || !requests->is_array() || requests->items().empty()) {
    throw ServiceError(
        ErrorCode::kInvalidField,
        "'requests' must be a non-empty array of {configs, deadline_ms?, coverage?} "
        "sub-requests",
        "requests");
  }
  const JsonValue* metadata = request.Find("metadata");

  // Each slot is the complete response the standalone `check` would have
  // produced for {contracts, metadata, <sub fields>} — byte-identical, because
  // it runs through the same dispatch and envelope path (ResponseFor). One
  // slot's failure (bad field, parse failure, expired deadline) becomes that
  // slot's error envelope; the batch itself still succeeds.
  JsonValue results = JsonValue::Array();
  for (const JsonValue& sub : requests->items()) {
    if (!sub.is_object()) {
      throw ServiceError(ErrorCode::kInvalidField,
                         "each requests entry must be an object", "requests");
    }
    JsonValue sub_request = JsonValue::Object();
    sub_request.Set("v", JsonValue::Number(int64_t{1}));
    if (const JsonValue* i = sub.Find("id")) {
      sub_request.Set("id", *i);
    }
    sub_request.Set("verb", JsonValue::String("check"));
    sub_request.Set("contracts", JsonValue::String(name));
    if (metadata != nullptr) {
      sub_request.Set("metadata", *metadata);
    }
    for (const auto& [field, value] : sub.members()) {
      if (field == "id" || field == "v" || field == "verb" ||
          field == "contracts" || field == "metadata") {
        // Envelope fields are owned by the outer request; entries cannot
        // override them, so every slot checks against the same set and
        // metadata.
        continue;
      }
      // configs / deadline_ms / coverage; anything else is rejected per slot by
      // the check dispatch's field validation.
      sub_request.Set(field, value);
    }
    results.Append(ResponseFor("check", sub_request));
  }

  JsonValue body = JsonValue::Object();
  body.Set("verb", JsonValue::String("check_batch"));
  body.Set("contracts", JsonValue::String(name));
  body.Set("requests", JsonValue::Number(ToInt64(requests->items().size())));
  body.Set("results", std::move(results));
  return body;
}

JsonValue Service::HandleReload(const JsonValue& request) {
  // "contracts" matches the check/coverage request shape; "name" is an alias.
  std::string name = request.GetString("contracts")
                         .value_or(request.GetString("name").value_or("default"));
  std::string path;
  if (auto p = request.GetString("path")) {
    path = *p;
  } else {
    auto existing = store_.Get(name);
    if (existing == nullptr) {
      throw ServiceError(ErrorCode::kUnknownContractSet,
                         "cannot reload unknown contract set '" + name +
                             "' without a 'path'",
                         name);
    }
    path = existing->path;
  }
  if (path.empty()) {
    throw ServiceError(ErrorCode::kMissingField,
                       "contract set '" + name +
                           "' was learned in memory; reload requires a 'path'",
                       "path");
  }
  std::string error;
  if (!store_.Load(name, path, lexer_.DefinitionsKey(), &error)) {
    throw ServiceError(ErrorCode::kIoError, "reload of '" + name + "' from " +
                                                path + " failed: " + error);
  }
  auto entry = store_.Get(name);
  JsonValue body = JsonValue::Object();
  body.Set("verb", JsonValue::String("reload"));
  body.Set("name", JsonValue::String(name));
  body.Set("path", JsonValue::String(path));
  body.Set("contracts", JsonValue::Number(ToInt64(entry->set.contracts.size())));
  return body;
}

namespace {

// Contract identity for the update delta (kind-tagged, since identity keys are
// only unique within a kind).
std::string ContractIdentity(const Contract& c, const PatternTable& table) {
  return std::to_string(static_cast<int>(c.kind)) + "|" + c.Key(table);
}

// Threshold overrides shared by learn (onto defaults) and update (onto the
// options the dataset was learned with). Members are validated like top-level
// request fields: an unknown one is unknown_field, a wrongly typed one
// invalid_field, so a typo ("suport") cannot silently learn with the default.
void MergeLearnOptions(const JsonValue& request, LearnOptions* options) {
  const JsonValue* opts = request.Find("options");
  if (opts == nullptr) {
    return;
  }
  if (!opts->is_object()) {
    throw ServiceError(ErrorCode::kInvalidField, "'options' must be an object",
                       "options");
  }
  for (const auto& [member, value] : opts->members()) {
    bool numeric =
        member == "support" || member == "confidence" || member == "score_threshold";
    if (!numeric && member != "minimize" && member != "constants") {
      throw ServiceError(ErrorCode::kUnknownField,
                         "unknown field '" + member + "' in 'options'", member);
    }
    if (numeric ? !value.is_number() : !value.is_bool()) {
      throw ServiceError(ErrorCode::kInvalidField,
                         "'options." + member + "' must be " +
                             (numeric ? "a number" : "a boolean"),
                         member);
    }
  }
  if (auto v = opts->GetInt("support")) {
    options->support = static_cast<int>(*v);
  }
  if (auto v = opts->GetDouble("confidence")) {
    options->confidence = *v;
  }
  if (auto v = opts->GetDouble("score_threshold")) {
    options->score_threshold = *v;
  }
  if (auto v = opts->GetBool("minimize")) {
    options->minimize = *v;
  }
  if (auto v = opts->GetBool("constants")) {
    options->constants = *v;
  }
}

// Upserts a {name, text} batch with per-config fault isolation: a config whose
// parse fails lands in `degraded` (keeping any previously resident version of
// it) instead of failing the request.
void UpsertBatch(ArtifactStore& store, const JsonValue& configs,
                 std::vector<SkippedFile>* degraded) {
  for (const JsonValue& member : configs.items()) {
    if (!member.is_object()) {
      throw ServiceError(ErrorCode::kInvalidField,
                         "each configs entry must be a {name, text} object",
                         "configs");
    }
    const JsonValue* config_name = member.Find("name");
    const JsonValue* text = member.Find("text");
    if (config_name == nullptr || !config_name->is_string() || text == nullptr ||
        !text->is_string()) {
      throw ServiceError(ErrorCode::kInvalidField,
                         "each configs entry needs string 'name' and 'text' members",
                         "configs");
    }
    try {
      store.Upsert(config_name->AsString(), text->AsString());
    } catch (const std::exception& e) {
      degraded->push_back(
          SkippedFile{config_name->AsString(), e.what(), ErrorCode::kParseFailed});
    }
  }
}

// Replaces the dataset metadata from the request's "metadata" array (one
// document per entry), when present.
void ApplyMetadata(ArtifactStore& store, const JsonValue& request) {
  const JsonValue* meta = request.Find("metadata");
  if (meta == nullptr) {
    return;
  }
  if (!meta->is_array()) {
    throw ServiceError(ErrorCode::kInvalidField,
                       "'metadata' must be an array of {name, text} objects",
                       "metadata");
  }
  std::vector<std::string> texts;
  for (const JsonValue& member : meta->items()) {
    auto text = member.GetString("text");
    if (!member.is_object() || !text) {
      throw ServiceError(ErrorCode::kInvalidField,
                         "each metadata entry needs a string 'text' member",
                         "metadata");
    }
    texts.push_back(std::move(*text));
  }
  store.SetMetadata(texts);
}

}  // namespace

JsonValue Service::HandleAnalyze(const JsonValue& request) {
  AnalyzeOptions analyze_options;
  analyze_options.deadline = RequestDeadline(request);

  JsonValue body = JsonValue::Object();
  body.Set("verb", JsonValue::String("analyze"));
  AnalysisResult analysis;
  if (auto dataset_name = request.GetString("dataset")) {
    // Resident-dataset form: the dataset's indexed configs feed the
    // dead-pattern sub-pass, so "this rule can never fire here" verdicts are
    // grounded in what the dataset actually contains.
    if (request.Find("contracts") != nullptr) {
      throw ServiceError(ErrorCode::kInvalidField,
                         "'contracts' and 'dataset' are mutually exclusive",
                         "contracts");
    }
    std::shared_ptr<ResidentDataset> dataset;
    {
      MutexLock map_lock(datasets_mu_);
      auto it = datasets_.find(*dataset_name);
      if (it != datasets_.end()) {
        dataset = it->second;
      }
    }
    if (dataset == nullptr) {
      throw ServiceError(ErrorCode::kUnknownDataset,
                         "unknown dataset '" + *dataset_name +
                             "' (define it with a learn request first)",
                         *dataset_name);
    }
    MutexLock lock(dataset->mu);
    if (!dataset->learned) {
      throw ServiceError(ErrorCode::kUnknownDataset,
                         "dataset '" + *dataset_name + "' has no learned contracts",
                         *dataset_name);
    }
    analysis = AnalyzeContracts(dataset->contracts, dataset->store.patterns(),
                                dataset->store.indexes(), analyze_options);
    body.Set("dataset", JsonValue::String(*dataset_name));
  } else {
    // Contract-set form, resolved like `check` (name optional when exactly one
    // set is loaded). No configs are at hand, so the analysis runs set-only.
    std::shared_ptr<LoadedContractSet> entry = ResolveContractSet(request);
    analysis = AnalyzeContracts(entry->set, entry->table, analyze_options);
    body.Set("contracts", JsonValue::String(entry->name));
  }

  metrics_.registry().Count("concord_analyze_runs_total",
                            "Contract-set analyzer runs.", {}, 1);
  std::map<std::string, uint64_t> per_rule;
  for (const Finding& finding : analysis.findings) {
    ++per_rule[finding.rule];
  }
  for (const auto& [rule, count] : per_rule) {
    metrics_.registry().Count("concord_analyze_findings_total",
                              "Analyzer findings, by rule id.",
                              {{"rule", rule}}, count);
  }

  body.Set("report", AnalyzeReportJsonValue(analysis));
  return body;
}

JsonValue Service::HandleLearn(const JsonValue& request) {
  std::string name = request.GetString("dataset").value_or("default");
  const JsonValue* configs = request.Find("configs");
  if (configs == nullptr || !configs->is_array() || configs->items().empty()) {
    throw ServiceError(ErrorCode::kInvalidField,
                       "'configs' must be a non-empty array of {name, text} objects",
                       "configs");
  }

  LearnOptions options;
  MergeLearnOptions(request, &options);
  options.parallelism = static_cast<int>(pool_.num_threads());
  options.deadline = RequestDeadline(request);

  ParseOptions parse_options;
  parse_options.constants = options.constants;

  // learn (re)defines the dataset from scratch; a failure below (deadline, all
  // configs unparseable) leaves any previous dataset of this name untouched.
  auto dataset = std::make_shared<ResidentDataset>(&lexer_, parse_options);

  std::vector<SkippedFile> degraded;
  JsonValue body;
  {
    MutexLock lock(dataset->mu);
    dataset->options = options;
    UpsertBatch(dataset->store, *configs, &degraded);
    ApplyMetadata(dataset->store, request);
    if (dataset->store.size() == 0) {
      throw ServiceError(ErrorCode::kParseFailed,
                         "all " + std::to_string(configs->items().size()) +
                             " configs failed to parse (first: " + degraded.front().file +
                             ": " + degraded.front().reason + ")");
    }

    body = RelearnAndInstall(name, *dataset, /*previous=*/{},
                             /*had_previous=*/false, std::move(degraded));
  }
  {
    // Publish only after a successful learn, and only after releasing the
    // dataset lock: the hierarchy is datasets_mu_ before ResidentDataset::mu,
    // never the inverse (DESIGN.md §9).
    MutexLock map_lock(datasets_mu_);
    datasets_[name] = dataset;
  }
  body.Set("verb", JsonValue::String("learn"));
  return body;
}

JsonValue Service::HandleUpdate(const JsonValue& request) {
  std::string name = request.GetString("dataset").value_or("default");
  std::shared_ptr<ResidentDataset> dataset;
  {
    MutexLock map_lock(datasets_mu_);
    auto it = datasets_.find(name);
    if (it != datasets_.end()) {
      dataset = it->second;
    }
  }
  std::vector<SkippedFile> degraded;
  if (dataset == nullptr && durable_ != nullptr) {
    // Lazy rehydration (DESIGN.md §10): the dataset was persisted by an earlier
    // process; rebuild its artifact store from the persisted blobs so this
    // update relearns incrementally instead of failing. Blobs lost to
    // corruption surface as degraded entries with the store_corrupt code.
    dataset = HydrateDataset(name, &degraded);
    if (dataset != nullptr) {
      MutexLock map_lock(datasets_mu_);
      auto [it, inserted] = datasets_.emplace(name, dataset);
      if (!inserted) {
        dataset = it->second;  // A concurrent update hydrated it first.
        degraded.clear();
      }
    }
  }
  if (dataset == nullptr) {
    throw ServiceError(ErrorCode::kUnknownDataset,
                       "unknown dataset '" + name +
                           "' (define it with a learn request first)",
                       name);
  }

  MutexLock lock(dataset->mu);
  dataset->options.deadline = RequestDeadline(request);
  MergeLearnOptions(request, &dataset->options);

  // Counters restart at the delta so the response proves exactly how much work
  // the update re-did (the artifact pipeline's incrementality contract).
  dataset->store.ResetCounters();

  // "configs" matches the learn/check request shape; "upsert" is an alias.
  const JsonValue* upsert = request.Find("configs");
  if (upsert == nullptr) {
    upsert = request.Find("upsert");
  }
  if (upsert != nullptr) {
    if (!upsert->is_array()) {
      throw ServiceError(ErrorCode::kInvalidField,
                         "'configs' must be an array of {name, text} objects",
                         "configs");
    }
    UpsertBatch(dataset->store, *upsert, &degraded);
  }
  size_t removed = 0;
  if (const JsonValue* remove = request.Find("remove")) {
    if (!remove->is_array()) {
      throw ServiceError(ErrorCode::kInvalidField,
                         "'remove' must be an array of config names", "remove");
    }
    for (const JsonValue& member : remove->items()) {
      if (!member.is_string()) {
        throw ServiceError(ErrorCode::kInvalidField,
                           "'remove' must be an array of config names", "remove");
      }
      if (dataset->store.Remove(member.AsString())) {
        ++removed;
      }
    }
  }
  ApplyMetadata(dataset->store, request);
  if (dataset->store.size() == 0) {
    throw ServiceError(ErrorCode::kInvalidField,
                       "update removed every config from dataset '" + name + "'",
                       "remove");
  }

  JsonValue body = RelearnAndInstall(name, *dataset, dataset->contracts.contracts,
                                     /*had_previous=*/true, std::move(degraded));
  body.Set("verb", JsonValue::String("update"));
  body.Set("removed_configs", JsonValue::Number(ToInt64(removed)));
  return body;
}

JsonValue Service::RelearnAndInstall(const std::string& name, ResidentDataset& dataset,
                                     const std::vector<Contract>& previous,
                                     bool had_previous,
                                     std::vector<SkippedFile> degraded) {
  Learner learner(dataset.options);
  LearnResult result = learner.Learn(dataset.store);
  result.set.embed_context = dataset.store.parse_options().embed_context;
  result.set.lexer_key = lexer_.DefinitionsKey();
  const PatternTable& table = dataset.store.patterns();

  std::string serialized = SerializeContracts(result.set, table);
  std::string error;
  if (!store_.Install(name, serialized, /*path=*/"", lexer_.DefinitionsKey(), &error)) {
    throw ServiceError(ErrorCode::kInternal, "installing learned contract set '" +
                                                 name + "' failed: " + error);
  }

  JsonValue body = JsonValue::Object();
  body.Set("dataset", JsonValue::String(name));
  body.Set("configs", JsonValue::Number(ToInt64(dataset.store.size())));
  body.Set("contracts", JsonValue::Number(ToInt64(result.set.contracts.size())));

  if (had_previous) {
    // Which contracts changed: identity-keyed set difference, keys capped so a
    // pathological churn cannot balloon the response.
    constexpr size_t kMaxDeltaKeys = 32;
    std::map<std::string, const Contract*> old_keys;
    std::map<std::string, const Contract*> new_keys;
    for (const Contract& c : previous) {
      old_keys.emplace(ContractIdentity(c, table), &c);
    }
    for (const Contract& c : result.set.contracts) {
      new_keys.emplace(ContractIdentity(c, table), &c);
    }
    JsonValue added = JsonValue::Array();
    JsonValue removed = JsonValue::Array();
    size_t added_count = 0;
    size_t removed_count = 0;
    for (const auto& [key, contract] : new_keys) {
      if (old_keys.count(key) == 0) {
        if (++added_count <= kMaxDeltaKeys) {
          added.Append(JsonValue::String(DescribeContract(*contract, table)));
        }
      }
    }
    for (const auto& [key, contract] : old_keys) {
      if (new_keys.count(key) == 0) {
        if (++removed_count <= kMaxDeltaKeys) {
          removed.Append(JsonValue::String(DescribeContract(*contract, table)));
        }
      }
    }
    JsonValue changed = JsonValue::Object();
    changed.Set("added", JsonValue::Number(ToInt64(added_count)));
    changed.Set("removed", JsonValue::Number(ToInt64(removed_count)));
    changed.Set("added_contracts", std::move(added));
    changed.Set("removed_contracts", std::move(removed));
    body.Set("changed", std::move(changed));
  }

  const ArtifactCounters& counters = dataset.store.counters();
  JsonValue artifacts = JsonValue::Object();
  artifacts.Set("parse_hits", JsonValue::Number(ToInt64(counters.parse_hits)));
  artifacts.Set("parse_misses", JsonValue::Number(ToInt64(counters.parse_misses)));
  artifacts.Set("index_hits", JsonValue::Number(ToInt64(counters.index_hits)));
  artifacts.Set("index_misses", JsonValue::Number(ToInt64(counters.index_misses)));
  artifacts.Set("mine_hits", JsonValue::Number(ToInt64(counters.mine_hits)));
  artifacts.Set("mine_misses", JsonValue::Number(ToInt64(counters.mine_misses)));
  body.Set("artifacts", std::move(artifacts));

  if (!degraded.empty()) {
    body.Set("degraded", DegradedJsonValue(degraded));
  }

  dataset.contracts = std::move(result.set);
  dataset.learned = true;
  if (durable_ != nullptr) {
    body.Set("store", PersistDataset(name, dataset, serialized));
  }
  return body;
}

JsonValue Service::PersistDataset(const std::string& name, ResidentDataset& dataset,
                                  const std::string& serialized_contracts) {
  JsonValue out = JsonValue::Object();
  size_t written = 0;
  try {
    PersistedDatasetInfo entry;
    std::vector<std::string_view> config_texts;
    for (const std::string& config : dataset.store.names()) {
      if (const std::string* text = dataset.store.TextOf(config)) {
        entry.config_keys[config] = dataset.store.ContentKeyOf(config);
        config_texts.push_back(*text);
      }
    }
    for (const std::string& text : dataset.store.metadata_texts()) {
      entry.metadata_keys.push_back(MetadataBlobKey(text));
    }
    entry.contract_count = ToInt64(dataset.contracts.contracts.size());
    entry.options = dataset.options;
    entry.embed = dataset.contracts.embed_context;
    entry.lexer = dataset.contracts.lexer_key;
    durable_->PutLearnedDataset(name, std::move(entry), config_texts,
                                dataset.store.metadata_texts(), serialized_contracts,
                                &written);
    out.Set("persisted", JsonValue::Bool(true));
    out.Set("objects_written", JsonValue::Number(ToInt64(written)));
  } catch (const std::exception& e) {
    // Persistence is best-effort: the in-memory learn result stands, the
    // client learns the store is behind, and the next learn/update retries.
    out.Set("persisted", JsonValue::Bool(false));
    out.Set("objects_written", JsonValue::Number(ToInt64(written)));
    out.Set("error", JsonValue::String(e.what()));
  }
  return out;
}

std::shared_ptr<Service::ResidentDataset> Service::HydrateDataset(
    const std::string& name, std::vector<SkippedFile>* degraded) {
  auto info = durable_->GetDataset(name);
  if (!info) {
    return nullptr;
  }
  ParseOptions parse_options;
  parse_options.constants = info->options.constants;
  parse_options.embed_context = info->embed;
  auto dataset = std::make_shared<ResidentDataset>(&lexer_, parse_options);
  MutexLock lock(dataset->mu);
  dataset->options = info->options;
  dataset->options.deadline = Deadline::Never();
  dataset->options.parallelism = static_cast<int>(pool_.num_threads());
  // Blobs replay in name order; learning aggregates in name order regardless of
  // insertion history, so rehydrated relearns stay bit-identical to the
  // original process's (the store oracle).
  for (const auto& [config, key] : info->config_keys) {
    bool corrupt = false;
    auto text = durable_->GetObject(RecordType::kBlob, key, "config", &corrupt);
    if (!text) {
      degraded->push_back(SkippedFile{
          config, std::string(corrupt ? "persisted config blob is corrupt"
                                      : "persisted config blob is missing"),
          ErrorCode::kStoreCorrupt});
      continue;
    }
    try {
      dataset->store.Upsert(config, *text);
    } catch (const std::exception& e) {
      degraded->push_back(SkippedFile{config, e.what(), ErrorCode::kParseFailed});
    }
  }
  std::vector<std::string> metadata_texts;
  for (size_t i = 0; i < info->metadata_keys.size(); ++i) {
    bool corrupt = false;
    auto text = durable_->GetObject(RecordType::kBlob, info->metadata_keys[i],
                                    "metadata", &corrupt);
    if (!text) {
      degraded->push_back(SkippedFile{
          "metadata#" + std::to_string(i),
          std::string(corrupt ? "persisted metadata blob is corrupt"
                              : "persisted metadata blob is missing"),
          ErrorCode::kStoreCorrupt});
      continue;
    }
    metadata_texts.push_back(std::move(*text));
  }
  if (!metadata_texts.empty()) {
    dataset->store.SetMetadata(metadata_texts);
  }
  if (dataset->store.size() == 0) {
    return nullptr;  // Nothing usable survived; the caller reports unknown_dataset.
  }
  // The persisted contracts become the "previous" set for update deltas. A
  // corrupt object degrades to an empty previous set (the relearn result is
  // unaffected — it derives from the rehydrated inputs). A set learned under
  // another lexer is left out like a missing object: its patterns are not
  // this lexer's, and interning them would shift the relearn's pattern ids.
  if (info->contracts_key != 0 && info->lexer == lexer_.DefinitionsKey()) {
    bool corrupt = false;
    auto payload = durable_->GetObject(RecordType::kContracts, info->contracts_key,
                                       "contracts", &corrupt);
    if (payload) {
      std::string error;
      auto set = ParseContracts(*payload, dataset->store.mutable_patterns(), &error);
      if (set) {
        dataset->contracts = std::move(*set);
        dataset->learned = true;
      }
    } else if (corrupt) {
      degraded->push_back(SkippedFile{"contracts",
                                      "persisted contract set is corrupt",
                                      ErrorCode::kStoreCorrupt});
    }
  }
  return dataset;
}

std::string Service::PrometheusText() const {
  // Request/cache/work families from the metrics registry, then the per-stage
  // trace counters (learn/check/serve spans) that EnableStats has been feeding.
  std::string out = metrics_.PrometheusText();
  TraceCollector::Global().AppendPrometheus(&out);
  // Per-contract-set gauges: resident sizes, useful for capacity dashboards.
  out += "# HELP concord_contract_set_contracts Contracts in each loaded set.\n";
  out += "# TYPE concord_contract_set_contracts gauge\n";
  auto all = store_.All();
  for (const auto& entry : all) {
    out += "concord_contract_set_contracts{set=\"" +
           MetricsRegistry::EscapeLabelValue(entry->name) +
           "\"} " + std::to_string(entry->set.contracts.size()) + "\n";
  }
  out += "# HELP concord_contract_set_patterns Interned patterns in each loaded set.\n";
  out += "# TYPE concord_contract_set_patterns gauge\n";
  for (const auto& entry : all) {
    out += "concord_contract_set_patterns{set=\"" +
           MetricsRegistry::EscapeLabelValue(entry->name) +
           "\"} " + std::to_string(entry->table.size()) + "\n";
  }
  out += "# HELP concord_contract_set_cached_configs Parsed configs resident in "
         "each set's cache.\n";
  out += "# TYPE concord_contract_set_cached_configs gauge\n";
  for (const auto& entry : all) {
    out += "concord_contract_set_cached_configs{set=\"" +
           MetricsRegistry::EscapeLabelValue(entry->name) +
           "\"} " + std::to_string(entry->cache.size()) + "\n";
  }
  // Dataset/store health (DESIGN.md §10). The resident gauge is always exposed;
  // the store families appear only when a durable store is attached.
  size_t resident = 0;
  {
    MutexLock lock(datasets_mu_);
    resident = datasets_.size();
  }
  out += "# HELP concord_resident_datasets Learned datasets resident in memory.\n";
  out += "# TYPE concord_resident_datasets gauge\n";
  out += "concord_resident_datasets " + std::to_string(resident) + "\n";
  if (durable_ != nullptr) {
    out += "# HELP concord_store_objects Content-addressed objects in the durable store.\n";
    out += "# TYPE concord_store_objects gauge\n";
    out += "concord_store_objects " + std::to_string(durable_->object_count()) + "\n";
    out += "# HELP concord_store_bytes Bytes of framed records in the durable store.\n";
    out += "# TYPE concord_store_bytes gauge\n";
    out += "concord_store_bytes " + std::to_string(durable_->total_bytes()) + "\n";
    out += "# HELP concord_store_datasets Datasets persisted in the store manifest.\n";
    out += "# TYPE concord_store_datasets gauge\n";
    out += "concord_store_datasets " + std::to_string(durable_->Datasets().size()) + "\n";
    out += "# HELP concord_store_stage_total Durable-store reads by stage and outcome.\n";
    out += "# TYPE concord_store_stage_total counter\n";
    for (const auto& [stage, c] : durable_->Counters()) {
      std::string prefix = "concord_store_stage_total{stage=\"" +
                           MetricsRegistry::EscapeLabelValue(stage) + "\",outcome=";
      out += prefix + "\"hit\"} " + std::to_string(c.hits) + "\n";
      out += prefix + "\"miss\"} " + std::to_string(c.misses) + "\n";
      out += prefix + "\"corrupt\"} " + std::to_string(c.corrupt) + "\n";
    }
  }
  return out;
}

int RunService(Service& service, std::istream& in, std::ostream& out,
               std::ostream* summary) {
  std::string line;
  while (!service.shutdown_requested() && std::getline(in, line)) {
    if (Trim(line).empty()) {
      continue;
    }
    out << service.HandleLine(line) << "\n" << std::flush;
  }
  if (summary != nullptr) {
    *summary << service.SummaryText();
  }
  return 0;
}

}  // namespace concord
