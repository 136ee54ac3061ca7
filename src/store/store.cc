#include "src/store/store.h"

#include <filesystem>

#include "src/util/hash.h"

namespace concord {

namespace {

constexpr char kManifestName[] = "manifest.rec";
constexpr char kObjectsDir[] = "objects";

std::string HexKey(uint64_t key) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[key & 0xf];
    key >>= 4;
  }
  return out;
}

std::optional<uint64_t> ParseHexKey(std::string_view hex) {
  if (hex.size() != 16) {
    return std::nullopt;
  }
  uint64_t key = 0;
  for (char c : hex) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
    key = (key << 4) | digit;
  }
  return key;
}

std::string DecimalKey(uint64_t key) { return std::to_string(key); }

std::optional<uint64_t> ParseDecimalKey(const JsonValue& v) {
  if (!v.is_string()) {
    return std::nullopt;
  }
  try {
    return std::stoull(v.AsString());
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

// Category toggles as a fixed-order bit string (order: present, ordering,
// type, sequence, unique, relational).
std::string CategoriesString(const LearnOptions& o) {
  std::string s;
  for (bool b : {o.learn_present, o.learn_ordering, o.learn_type,
                 o.learn_sequence, o.learn_unique, o.learn_relational}) {
    s += b ? '1' : '0';
  }
  return s;
}

}  // namespace

uint64_t MetadataBlobKey(std::string_view text) { return ContentKey("@meta", text); }

JsonValue DatasetInfoToJson(const PersistedDatasetInfo& info) {
  JsonValue out = JsonValue::Object();
  JsonValue configs = JsonValue::Object();
  for (const auto& [name, key] : info.config_keys) {
    configs.Set(name, JsonValue::String(DecimalKey(key)));
  }
  out.Set("configs", std::move(configs));
  JsonValue metadata = JsonValue::Array();
  for (uint64_t key : info.metadata_keys) {
    metadata.Append(JsonValue::String(DecimalKey(key)));
  }
  out.Set("metadata", std::move(metadata));
  out.Set("contracts_key", JsonValue::String(DecimalKey(info.contracts_key)));
  out.Set("contract_count", JsonValue::Number(info.contract_count));
  JsonValue options = JsonValue::Object();
  options.Set("support", JsonValue::Number(int64_t{info.options.support}));
  options.Set("confidence", JsonValue::Number(info.options.confidence));
  options.Set("score_threshold", JsonValue::Number(info.options.score_threshold));
  options.Set("minimize", JsonValue::Bool(info.options.minimize));
  options.Set("constants", JsonValue::Bool(info.options.constants));
  options.Set("categories", JsonValue::String(CategoriesString(info.options)));
  out.Set("options", std::move(options));
  if (!info.embed) {
    out.Set("embed", JsonValue::Bool(false));
  }
  if (info.lexer != 0) {
    out.Set("lexer", JsonValue::String(DecimalKey(info.lexer)));
  }
  return out;
}

std::optional<PersistedDatasetInfo> DatasetInfoFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return std::nullopt;
  }
  PersistedDatasetInfo info;
  const JsonValue* configs = json.Find("configs");
  if (configs == nullptr || !configs->is_object()) {
    return std::nullopt;
  }
  for (const auto& [name, key] : configs->members()) {
    auto parsed = ParseDecimalKey(key);
    if (!parsed) {
      return std::nullopt;
    }
    info.config_keys[name] = *parsed;
  }
  if (const JsonValue* metadata = json.Find("metadata")) {
    if (!metadata->is_array()) {
      return std::nullopt;
    }
    for (const JsonValue& key : metadata->items()) {
      auto parsed = ParseDecimalKey(key);
      if (!parsed) {
        return std::nullopt;
      }
      info.metadata_keys.push_back(*parsed);
    }
  }
  const JsonValue* contracts_key = json.Find("contracts_key");
  if (contracts_key == nullptr) {
    return std::nullopt;
  }
  auto parsed_contracts = ParseDecimalKey(*contracts_key);
  if (!parsed_contracts) {
    return std::nullopt;
  }
  info.contracts_key = *parsed_contracts;
  info.contract_count = json.GetInt("contract_count").value_or(0);
  const JsonValue* options = json.Find("options");
  if (options == nullptr || !options->is_object()) {
    return std::nullopt;
  }
  info.options.support =
      static_cast<int>(options->GetInt("support").value_or(info.options.support));
  info.options.confidence =
      options->GetDouble("confidence").value_or(info.options.confidence);
  info.options.score_threshold =
      options->GetDouble("score_threshold").value_or(info.options.score_threshold);
  info.options.minimize =
      options->GetBool("minimize").value_or(info.options.minimize);
  info.options.constants =
      options->GetBool("constants").value_or(info.options.constants);
  if (auto categories = options->GetString("categories");
      categories && categories->size() == 6) {
    const std::string& s = *categories;
    info.options.learn_present = s[0] == '1';
    info.options.learn_ordering = s[1] == '1';
    info.options.learn_type = s[2] == '1';
    info.options.learn_sequence = s[3] == '1';
    info.options.learn_unique = s[4] == '1';
    info.options.learn_relational = s[5] == '1';
  }
  info.embed = json.GetBool("embed").value_or(true);
  if (const JsonValue* lexer = json.Find("lexer")) {
    auto parsed = ParseDecimalKey(*lexer);
    if (!parsed) {
      return std::nullopt;
    }
    info.lexer = *parsed;
  }
  return info;
}

DurableStore::DurableStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(dir_) / kObjectsDir,
                                      ec);
  MutexLock lock(mu_);
  ScanObjects();
  LoadManifest();
}

std::string DurableStore::ObjectRelPath(uint64_t key) {
  std::string hex = HexKey(key);
  return std::string(kObjectsDir) + "/" + hex.substr(0, 2) + "/" + hex + ".rec";
}

std::string DurableStore::ObjectPath(uint64_t key) const {
  return dir_ + "/" + ObjectRelPath(key);
}

void DurableStore::ScanObjects() {
  object_count_ = 0;
  total_bytes_ = 0;
  std::error_code ec;
  std::filesystem::recursive_directory_iterator it(
      std::filesystem::path(dir_) / kObjectsDir, ec);
  if (ec) {
    return;
  }
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec) || entry.path().extension() != ".rec") {
      continue;
    }
    ++object_count_;
    total_bytes_ += static_cast<uint64_t>(entry.file_size(ec));
  }
}

void DurableStore::LoadManifest() {
  datasets_.clear();
  manifest_corrupt_ = false;
  std::string path = dir_ + "/" + kManifestName;
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return;  // Empty store; not a miss worth counting.
  }
  std::string payload;
  try {
    payload = ReadRecordFile(path, RecordType::kManifest);
  } catch (const std::exception&) {
    manifest_corrupt_ = true;
    ++CounterFor("manifest").corrupt;
    return;
  }
  auto json = JsonValue::Parse(payload);
  if (!json || !json->is_object() || json->GetInt("version").value_or(0) != 1) {
    manifest_corrupt_ = true;
    ++CounterFor("manifest").corrupt;
    return;
  }
  if (const JsonValue* datasets = json->Find("datasets");
      datasets != nullptr && datasets->is_object()) {
    for (const auto& [name, value] : datasets->members()) {
      auto info = DatasetInfoFromJson(value);
      if (!info) {
        manifest_corrupt_ = true;
        ++CounterFor("manifest").corrupt;
        continue;
      }
      datasets_[name] = std::move(*info);
    }
  }
  ++CounterFor("manifest").hits;
}

void DurableStore::SaveManifestLocked() {
  JsonValue root = JsonValue::Object();
  root.Set("version", JsonValue::Number(int64_t{1}));
  JsonValue datasets = JsonValue::Object();
  for (const auto& [name, info] : datasets_) {
    datasets.Set(name, DatasetInfoToJson(info));
  }
  root.Set("datasets", std::move(datasets));
  WriteRecordFile(dir_ + "/" + kManifestName, RecordType::kManifest,
                  root.Serialize(2));
  manifest_corrupt_ = false;
}

StoreStageCounters& DurableStore::CounterFor(std::string_view stage) {
  auto it = counters_.find(stage);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(stage), StoreStageCounters()).first;
  }
  return it->second;
}

bool DurableStore::PutObject(RecordType type, uint64_t key,
                             std::string_view payload, std::string_view stage) {
  std::string path = ObjectPath(key);
  std::error_code ec;
  const uintmax_t old_bytes = std::filesystem::file_size(path, ec);
  const bool exists = !ec;
  if (exists) {
    // Content-addressed: same key, same bytes, unless a read found them
    // damaged. Erasing claims the repair, so one concurrent put makes it.
    MutexLock lock(mu_);
    if (corrupt_keys_.erase(key) == 0) {
      return false;
    }
  }
  WriteRecordFile(path, type, payload);
  MutexLock lock(mu_);
  (void)CounterFor(stage);  // Materialize the stage row even if never read.
  if (exists) {
    total_bytes_ -= old_bytes;
  } else {
    ++object_count_;
  }
  total_bytes_ += kRecordHeaderBytes + payload.size() + kRecordTrailerBytes;
  return true;
}

std::optional<std::string> DurableStore::GetObject(RecordType type, uint64_t key,
                                                   std::string_view stage,
                                                   bool* corrupt) {
  if (corrupt != nullptr) {
    *corrupt = false;
  }
  std::string path = ObjectPath(key);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    MutexLock lock(mu_);
    ++CounterFor(stage).misses;
    return std::nullopt;
  }
  try {
    std::string payload = ReadRecordFile(path, type);
    MutexLock lock(mu_);
    ++CounterFor(stage).hits;
    return payload;
  } catch (const std::exception&) {
    // Damaged or unreadable: a structured degrade, never a crash. The caller
    // recomputes from upstream inputs or surfaces store_corrupt.
    if (corrupt != nullptr) {
      *corrupt = true;
    }
    MutexLock lock(mu_);
    ++CounterFor(stage).corrupt;
    corrupt_keys_.insert(key);
    return std::nullopt;
  }
}

bool DurableStore::HasObject(uint64_t key) const {
  std::error_code ec;
  return std::filesystem::exists(ObjectPath(key), ec);
}

std::map<std::string, PersistedDatasetInfo> DurableStore::Datasets() const {
  MutexLock lock(mu_);
  return datasets_;
}

std::optional<PersistedDatasetInfo> DurableStore::GetDataset(
    const std::string& name) const {
  MutexLock lock(mu_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void DurableStore::PutDataset(const std::string& name,
                              const PersistedDatasetInfo& info) {
  MutexLock lock(mu_);
  datasets_[name] = info;
  SaveManifestLocked();
}

void DurableStore::PutLearnedDataset(const std::string& name, PersistedDatasetInfo entry,
                                     const std::vector<std::string_view>& config_texts,
                                     const std::vector<std::string>& metadata_texts,
                                     std::string_view contracts, size_t* written) {
  auto put = [&](RecordType type, uint64_t key, std::string_view payload,
                 std::string_view stage) {
    if (PutObject(type, key, payload, stage)) {
      ++*written;
    }
  };
  auto config_text = config_texts.begin();
  for (const auto& [config, key] : entry.config_keys) {
    put(RecordType::kBlob, key, *config_text++, "config");
  }
  for (size_t i = 0; i < metadata_texts.size(); ++i) {
    put(RecordType::kBlob, entry.metadata_keys[i], metadata_texts[i], "metadata");
  }
  entry.contracts_key = Fnv1a64(contracts);
  put(RecordType::kContracts, entry.contracts_key, contracts, "contracts");
  PutDataset(name, entry);
}

bool DurableStore::RemoveDataset(const std::string& name) {
  MutexLock lock(mu_);
  if (datasets_.erase(name) == 0) {
    return false;
  }
  SaveManifestLocked();
  return true;
}

bool DurableStore::manifest_corrupt() const {
  MutexLock lock(mu_);
  return manifest_corrupt_;
}

DurableStore::VerifyResult DurableStore::Verify() const {
  VerifyResult result;
  std::map<std::string, PersistedDatasetInfo> datasets;
  {
    MutexLock lock(mu_);
    result.manifest_ok = !manifest_corrupt_;
    if (!result.manifest_ok) {
      result.problems.push_back(dir_ + "/" + kManifestName +
                                ": manifest corrupt or unreadable");
    }
    datasets = datasets_;
  }
  std::error_code ec;
  std::filesystem::recursive_directory_iterator it(
      std::filesystem::path(dir_) / kObjectsDir, ec);
  if (!ec) {
    for (const auto& entry : it) {
      if (!entry.is_regular_file(ec) || entry.path().extension() != ".rec") {
        continue;
      }
      ++result.objects;
      std::string path = entry.path().string();
      try {
        std::string image = ReadRecordFile(path, RecordType::kBlob);
        (void)image;
      } catch (const StoreCorruptError& blob_error) {
        // Objects carry one of two types; retry as contracts before judging.
        try {
          ReadRecordFile(path, RecordType::kContracts);
        } catch (const std::exception&) {
          ++result.corrupt;
          result.problems.push_back(std::string(blob_error.what()));
        }
      } catch (const std::exception& e) {
        ++result.corrupt;
        result.problems.push_back(e.what());
      }
    }
  }
  for (const auto& [name, info] : datasets) {
    auto require = [&](uint64_t key, const std::string& what) {
      if (!HasObject(key)) {
        ++result.missing_refs;
        result.problems.push_back("dataset " + name + ": " + what + " object " +
                                  HexKey(key) + " is missing");
      }
    };
    for (const auto& [config, key] : info.config_keys) {
      require(key, "config " + config);
    }
    for (uint64_t key : info.metadata_keys) {
      require(key, "metadata");
    }
    if (info.contracts_key != 0) {
      require(info.contracts_key, "contracts");
    }
  }
  return result;
}

DurableStore::GcResult DurableStore::Gc() {
  GcResult result;
  std::map<std::string, PersistedDatasetInfo> datasets;
  {
    MutexLock lock(mu_);
    datasets = datasets_;
  }
  std::map<uint64_t, bool> referenced;
  for (const auto& [name, info] : datasets) {
    for (const auto& [config, key] : info.config_keys) {
      referenced[key] = true;
    }
    for (uint64_t key : info.metadata_keys) {
      referenced[key] = true;
    }
    if (info.contracts_key != 0) {
      referenced[info.contracts_key] = true;
    }
  }
  std::error_code ec;
  std::filesystem::recursive_directory_iterator it(
      std::filesystem::path(dir_) / kObjectsDir, ec);
  if (ec) {
    return result;
  }
  std::vector<std::filesystem::path> doomed;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) {
      continue;
    }
    const std::filesystem::path& path = entry.path();
    if (path.extension() != ".rec") {
      doomed.push_back(path);  // Stray temp file from an interrupted write.
      continue;
    }
    auto key = ParseHexKey(path.stem().string());
    if (!key || referenced.count(*key) == 0) {
      doomed.push_back(path);
    }
  }
  for (const std::filesystem::path& path : doomed) {
    uint64_t bytes = static_cast<uint64_t>(std::filesystem::file_size(path, ec));
    if (std::filesystem::remove(path, ec)) {
      ++result.removed;
      result.reclaimed_bytes += bytes;
    }
  }
  MutexLock lock(mu_);
  ScanObjects();
  return result;
}

uint64_t DurableStore::object_count() const {
  MutexLock lock(mu_);
  return object_count_;
}

uint64_t DurableStore::total_bytes() const {
  MutexLock lock(mu_);
  return total_bytes_;
}

std::map<std::string, StoreStageCounters> DurableStore::Counters() const {
  MutexLock lock(mu_);
  return {counters_.begin(), counters_.end()};
}

}  // namespace concord
