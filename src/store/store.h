// The durable artifact store: crash-safe persistence for learned datasets
// (DESIGN.md §10).
//
// A store directory holds content-addressed objects plus one manifest:
//
//   <dir>/objects/<kk>/<16-hex-key>.rec   framed record (record_io.h); <kk> is
//                                         the first two hex digits of the key
//   <dir>/manifest.rec                    framed JSON manifest, atomically
//                                         swapped via write-temp-then-rename
//
// Objects are keyed by the same FNV-1a 64 content keys the in-memory artifact
// pipeline already uses as identities: a config blob by ContentKey(name, text),
// a serialized contract set by Fnv1a64 of its bytes. Content addressing makes
// writes idempotent (an object that exists is rewritten only to repair one a
// read found corrupt) and makes the manifest swap the single linearization
// point: a crash mid-persist leaves at worst unreferenced objects, which
// `concord store gc` reclaims.
//
// What persists, per dataset (see PersistedDatasetInfo):
//   Parse stage   config and metadata texts as blobs. Parsing is deterministic,
//                 so re-parsing a persisted blob reproduces the Parse artifact
//                 bit for bit; persisting the text rather than the pointer-laden
//                 ParsedConfig keeps the format trivial and mmap-friendly.
//   Learn output  the serialized contract set — what a warm restart must not
//                 recompute. Index/Mine artifacts are pointer-tied to resident
//                 memory and cheap to rebuild incrementally; they are rebuilt
//                 lazily on the first update after a restart.
//
// Corruption policy: a damaged object yields a `corrupt` counter tick and a
// structured miss (the caller relearns the artifact from upstream inputs or
// surfaces ErrorCode::kStoreCorrupt); it never terminates the process.
//
// Thread safety: fully synchronized (one mutex over manifest state and
// counters); file operations themselves rely on record_io's atomic writes.
#ifndef SRC_STORE_STORE_H_
#define SRC_STORE_STORE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/format/json.h"
#include "src/learn/options.h"
#include "src/store/record_io.h"
#include "src/util/sync.h"

namespace concord {

// Per-stage disk cache accounting, mirroring ArtifactCounters for the disk
// tier. `corrupt` counts reads that failed framing validation (every corrupt
// read is also a miss from the caller's point of view, but is counted once,
// under corrupt, so the exposition distinguishes "never written" from
// "damaged").
struct StoreStageCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t corrupt = 0;
};

// One dataset's entry in the manifest.
struct PersistedDatasetInfo {
  // Config name -> blob content key (ContentKey(name, text)), name-sorted like
  // the in-memory ArtifactStore so hydration replays in learn order.
  std::map<std::string, uint64_t> config_keys;
  // Metadata document blob keys, in document order (order changes the learn).
  std::vector<uint64_t> metadata_keys;
  // Serialized contract set object (Fnv1a64 of the serialized bytes); 0 when
  // the dataset has no persisted learn output.
  uint64_t contracts_key = 0;
  int64_t contract_count = 0;
  // The options the contracts were learned with; a warm restart must relearn
  // with exactly these for bit-identity. Deadline/parallelism are runtime-only
  // and not persisted.
  LearnOptions options;
  // The parse settings the configs were read with, which change the learned
  // bytes as much as the options do. The manifest records each only when it is
  // not the default, so entries written without them keep their bytes.
  bool embed = true;   // Context embedding (§3.1); false under --no-embedding.
  uint64_t lexer = 0;  // Lexer::DefinitionsKey; 0 = the built-in lexer.
};

// Content key of a metadata blob.
uint64_t MetadataBlobKey(std::string_view text);

class DurableStore {
 public:
  // Opens (creating if needed) a store rooted at `dir` and loads the manifest.
  // A missing manifest means an empty store; a corrupt one degrades to empty
  // (counted under stage "manifest") — `concord store verify` reports it.
  explicit DurableStore(std::string dir);

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  const std::string& dir() const { return dir_; }

  // ---- Objects. ----

  // Writes the object unless it already exists (content addressing makes the
  // existing bytes equal by construction). An existing object that read back
  // corrupt through this store is rewritten, so relearning its bytes repairs
  // it; a healthy put costs one stat either way. Returns true when a file was
  // written. `stage` labels the counters ("config", "metadata", "contracts").
  bool PutObject(RecordType type, uint64_t key, std::string_view payload,
                 std::string_view stage);

  // Reads an object. nullopt on missing (stage miss) or corrupt (stage
  // corrupt; *corrupt set when non-null) — callers treat both as "recompute
  // from upstream", surfacing kStoreCorrupt only when no upstream exists.
  std::optional<std::string> GetObject(RecordType type, uint64_t key,
                                       std::string_view stage,
                                       bool* corrupt = nullptr);

  bool HasObject(uint64_t key) const;

  // Relative object path for a key ("objects/ab/abcdef....rec").
  static std::string ObjectRelPath(uint64_t key);

  // ---- Manifest. ----

  // Snapshot of every persisted dataset, name-sorted.
  std::map<std::string, PersistedDatasetInfo> Datasets() const;

  std::optional<PersistedDatasetInfo> GetDataset(const std::string& name) const;

  // Installs/replaces a dataset entry and atomically swaps the manifest.
  void PutDataset(const std::string& name, const PersistedDatasetInfo& info);

  // Persists one learned dataset in commit order: a blob per config text
  // (`config_texts` parallels entry.config_keys) and per metadata text
  // (parallel to entry.metadata_keys), then the contract object, whose key it
  // sets in `entry`, then the manifest entry. The manifest swap publishes the
  // dataset, so a crash before it leaves only unreferenced objects for gc.
  // Counts the object files written in `*written`, also when a write throws.
  void PutLearnedDataset(const std::string& name, PersistedDatasetInfo entry,
                         const std::vector<std::string_view>& config_texts,
                         const std::vector<std::string>& metadata_texts,
                         std::string_view contracts, size_t* written);

  // Removes a dataset entry (objects stay until gc). False when absent.
  bool RemoveDataset(const std::string& name);

  bool manifest_corrupt() const;

  // ---- Maintenance (concord store verify|gc) and stats. ----

  struct VerifyResult {
    size_t objects = 0;
    size_t corrupt = 0;
    bool manifest_ok = true;
    size_t missing_refs = 0;                // Manifest refs with no object file.
    std::vector<std::string> problems;      // Human-readable, path-qualified.
  };
  // Validates the manifest and every object file's framing; read-only.
  VerifyResult Verify() const;

  struct GcResult {
    size_t removed = 0;
    uint64_t reclaimed_bytes = 0;
  };
  // Deletes objects (and stray temp files) unreachable from the manifest.
  GcResult Gc();

  // Store-wide totals, maintained incrementally after an opening scan.
  uint64_t object_count() const;
  uint64_t total_bytes() const;

  // Stage -> counters, stage-name-sorted (stable for tests and exposition).
  std::map<std::string, StoreStageCounters> Counters() const;

 private:
  std::string ObjectPath(uint64_t key) const;
  void ScanObjects() CONCORD_REQUIRES(mu_);
  void LoadManifest() CONCORD_REQUIRES(mu_);
  void SaveManifestLocked() CONCORD_REQUIRES(mu_);
  StoreStageCounters& CounterFor(std::string_view stage) CONCORD_REQUIRES(mu_);

  const std::string dir_;
  mutable Mutex mu_;
  std::map<std::string, PersistedDatasetInfo> datasets_ CONCORD_GUARDED_BY(mu_);
  bool manifest_corrupt_ CONCORD_GUARDED_BY(mu_) = false;
  uint64_t object_count_ CONCORD_GUARDED_BY(mu_) = 0;
  uint64_t total_bytes_ CONCORD_GUARDED_BY(mu_) = 0;
  std::map<std::string, StoreStageCounters, std::less<>> counters_
      CONCORD_GUARDED_BY(mu_);
  // Objects whose reads failed validation; PutObject rewrites them.
  std::set<uint64_t> corrupt_keys_ CONCORD_GUARDED_BY(mu_);
};

// Manifest (de)serialization, exposed for tests. Keys are decimal strings —
// JSON numbers round-trip through double and would corrupt 64-bit hashes.
JsonValue DatasetInfoToJson(const PersistedDatasetInfo& info);
std::optional<PersistedDatasetInfo> DatasetInfoFromJson(const JsonValue& json);

}  // namespace concord

#endif  // SRC_STORE_STORE_H_
