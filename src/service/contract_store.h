// Read-mostly store of loaded contract sets, keyed by name (role/dataset).
//
// Each entry bundles everything one `check` needs: the parsed ContractSet, the
// pattern table its patterns are interned in (which keeps growing as new configs
// are parsed against it — that growth is the cross-request amortization win), the
// parse options recorded in the contract file, and the set's one cache: parsed
// configs keyed by ContentKey(name, text), the key ArtifactStore gives its Parse
// stage. Indexes are per request (they carry the request's metadata lines).
//
// Lookups hold one mutex only for a map probe; entries are handed out as
// shared_ptr so `reload` can hot-swap a fresh entry while in-flight requests finish
// against the old one.
#ifndef SRC_SERVICE_CONTRACT_STORE_H_
#define SRC_SERVICE_CONTRACT_STORE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/check/checker.h"
#include "src/contracts/contract.h"
#include "src/pattern/parser.h"
#include "src/pattern/pattern_table.h"
#include "src/service/lru_cache.h"
#include "src/util/sync.h"

namespace concord {

// One loaded contract set. Immutable after load except for `table` (grows under
// `parse_mu` as configs are parsed) and the cache (internally synchronized).
struct LoadedContractSet {
  explicit LoadedContractSet(size_t cache_capacity) : cache(cache_capacity) {}

  std::string name;
  std::string path;  // Source file; empty for sets learned in memory.
  ContractSet set;
  PatternTable table;
  ParseOptions parse_options;  // Derived from the set's recorded flags.
  // Built once at install time: the checker's constructor compiles the contract
  // set into its check plan (type-rule grouping, pattern slot table), so every
  // request against this set skips that work. Immutable — concurrent requests
  // share it, passing per-request knobs via CheckOptions. Reads the table
  // lock-free (contract patterns are already interned; growth is append-only).
  std::unique_ptr<const Checker> checker;
  // Subsumption verdict (DESIGN.md §14), computed once at install like the
  // check plan. CheckOptions::prune_mask consumes it when the service runs
  // with --prune-subsumed; the checker only honors it with coverage off.
  std::vector<uint8_t> prune_mask;
  size_t prunable_count = 0;
  LruCache<ParsedConfig> cache;
  // Serializes table growth across requests. `table` itself is deliberately not
  // GUARDED_BY(parse_mu): checkers read already-interned patterns lock-free
  // while another request's parse phase appends new ones under this mutex
  // (PatternTable storage is append-only and id-stable). Leaf lock in the
  // hierarchy: never acquired while holding the store or a dataset lock.
  Mutex parse_mu;
};

class ContractStore {
 public:
  explicit ContractStore(size_t cache_capacity) : cache_capacity_(cache_capacity) {}

  // Loads (or hot-swaps) the named set from `path`. Parsing happens outside the
  // store lock; on failure the previous entry, if any, stays untouched. A set
  // whose recorded lexer key (Lexer::DefinitionsKey) is not `lexer_key` is
  // refused: the configs it would check are lexed with other tokens.
  bool Load(const std::string& name, const std::string& path, uint64_t lexer_key,
            std::string* error);

  // Installs (or hot-swaps) a set from serialized contract text that never
  // touched disk — the serve `learn`/`update` verbs and the warm restart
  // install their results this way. `path` labels the provenance (empty = not
  // reloadable from disk). Refuses another lexer's set as Load does.
  bool Install(const std::string& name, const std::string& serialized,
               const std::string& path, uint64_t lexer_key, std::string* error);

  // Drops every set learned under a lexer key other than `lexer_key`.
  void EvictOtherLexers(uint64_t lexer_key);

  // Returns the named entry, or nullptr when absent.
  std::shared_ptr<LoadedContractSet> Get(const std::string& name) const;

  // Every loaded entry, sorted by name (for stable stats output).
  std::vector<std::shared_ptr<LoadedContractSet>> All() const;

 private:
  size_t cache_capacity_;
  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<LoadedContractSet>> sets_
      CONCORD_GUARDED_BY(mu_);
};

}  // namespace concord

#endif  // SRC_SERVICE_CONTRACT_STORE_H_
