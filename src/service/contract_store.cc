#include "src/service/contract_store.h"

#include <algorithm>
#include <exception>
#include <iterator>

#include "src/analyze/analyzer.h"
#include "src/contracts/contract_io.h"
#include "src/pattern/lexer.h"
#include "src/util/io.h"

namespace concord {

bool ContractStore::Load(const std::string& name, const std::string& path,
                         uint64_t lexer_key, std::string* error) {
  std::string text;
  try {
    text = ReadFile(path);
  } catch (const std::exception& e) {
    *error = e.what();
    return false;
  }
  return Install(name, text, path, lexer_key, error);
}

bool ContractStore::Install(const std::string& name, const std::string& serialized,
                            const std::string& path, uint64_t lexer_key,
                            std::string* error) {
  auto entry = std::make_shared<LoadedContractSet>(cache_capacity_);
  entry->name = name;
  entry->path = path;
  auto set = ParseContracts(serialized, &entry->table, error);
  if (!set) {
    return false;
  }
  if (set->lexer_key != lexer_key) {
    *error = "lexer mismatch: the contract set was learned with " +
             Lexer::DescribeKey(set->lexer_key) + ", but this service lexes with " +
             Lexer::DescribeKey(lexer_key);
    return false;
  }
  entry->set = std::move(*set);
  entry->parse_options.embed_context = entry->set.embed_context;
  entry->parse_options.constants = entry->set.constants_mode;
  entry->checker = std::make_unique<const Checker>(&entry->set, &entry->table);
  AnalyzeOptions analyze_options;
  analyze_options.conflicts = false;
  analyze_options.dead_rules = false;
  AnalysisResult analysis =
      AnalyzeContracts(entry->set, entry->table, analyze_options);
  entry->prunable_count = analysis.PrunableCount();
  entry->prune_mask = std::move(analysis.prunable);

  MutexLock lock(mu_);
  sets_[name] = std::move(entry);  // Hot swap; old entry drains via shared_ptr.
  return true;
}

void ContractStore::EvictOtherLexers(uint64_t lexer_key) {
  MutexLock lock(mu_);
  for (auto it = sets_.begin(); it != sets_.end();) {
    it = it->second->set.lexer_key != lexer_key ? sets_.erase(it) : std::next(it);
  }
}

std::shared_ptr<LoadedContractSet> ContractStore::Get(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = sets_.find(name);
  return it == sets_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<LoadedContractSet>> ContractStore::All() const {
  std::vector<std::shared_ptr<LoadedContractSet>> all;
  {
    MutexLock lock(mu_);
    for (const auto& [name, entry] : sets_) {
      all.push_back(entry);
    }
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a->name < b->name; });
  return all;
}

}  // namespace concord
