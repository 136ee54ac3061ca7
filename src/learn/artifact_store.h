// Content-addressed, per-configuration artifact store — the incremental engine
// behind `Learner::Learn(ArtifactStore&)` and the serve `learn`/`update` verbs
// (see DESIGN.md "Artifact pipeline").
//
// Each resident configuration carries three staged artifacts:
//
//   Parse   ParsedConfig, keyed by ContentKey(name, text) (FNV-1a 64). Upsert with
//           unchanged text is a no-op; changed text reparses just that config.
//   Index   ConfigIndex (lines + by_pattern), additionally keyed by the metadata
//           epoch: metadata lines are logically appended to every config (§3.7),
//           so a metadata change invalidates every Index but no Parse.
//   Mine    ConfigSummary (per-config miner inputs, src/learn/summaries.h), valid
//           for the index it was computed from and the category mask it covered.
//           Summaries are threshold-independent: changing support/confidence/score
//           does not invalidate them.
//
// Invalidation is strictly downstream: replacing a config's text invalidates its
// Parse, Index, and Mine artifacts and nobody else's; dataset-level aggregates are
// recomputed from cached summaries on every Learn, which is what makes an
// incremental relearn bit-identical to a from-scratch one (both run the same
// aggregation code over the same summaries, merged in name order).
//
// The store keeps one RelationalTable (src/learn/relational.h) across relearns,
// as it keeps its pattern table: Refresh interns each summary it recomputes, and
// aggregation reads the ids. Ids of replaced or removed summaries stay behind
// unnamed, so when the table holds more than twice the ids it held after its
// last rebuild, Refresh re-interns every resident summary into a fresh table:
// one batch-style merge each time the table doubles keeps it bounded.
//
// The store is not internally synchronized: callers serialize mutations (the
// service guards each resident dataset with a mutex). Refresh() may use a thread
// pool internally, but reads the table and entries only.
#ifndef SRC_LEARN_ARTIFACT_STORE_H_
#define SRC_LEARN_ARTIFACT_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/learn/index.h"
#include "src/learn/options.h"
#include "src/learn/relational.h"
#include "src/learn/summaries.h"
#include "src/pattern/parser.h"

namespace concord {

// Stage-level cache accounting. A Refresh() counts one hit or one miss per
// resident config per stage; Upsert counts a parse hit (unchanged text) or miss
// (reparse). Tests and the serve `update` verb use these to prove a delta
// recomputed only the artifacts it had to.
struct ArtifactCounters {
  size_t parse_hits = 0;
  size_t parse_misses = 0;
  size_t index_hits = 0;
  size_t index_misses = 0;
  size_t mine_hits = 0;
  size_t mine_misses = 0;
};

class ArtifactStore {
 public:
  // `lexer` must outlive the store. The store owns the pattern table all its
  // configs are interned into (append-only, so cached artifacts never go stale
  // from table growth).
  ArtifactStore(const Lexer* lexer, ParseOptions options);

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  // Adds or replaces a configuration. Returns true when the content actually
  // changed (the config was reparsed and its downstream artifacts invalidated);
  // false when the text was already resident (a parse hit, nothing to do).
  bool Upsert(const std::string& name, const std::string& text);

  // Removes a configuration; returns false when no such config is resident.
  // Removal invalidates nothing else: remaining summaries stay valid, only the
  // dataset aggregates (recomputed on every Learn) see the smaller corpus.
  bool Remove(const std::string& name);

  bool Contains(const std::string& name) const { return entries_.count(name) > 0; }

  // Replaces the dataset-wide metadata (§3.7) with a sequence of metadata
  // documents, each parsed separately. An unchanged sequence is a no-op; a
  // changed one bumps the metadata epoch, invalidating every Index and Mine
  // artifact (but no Parse artifact).
  void SetMetadata(const std::vector<std::string>& texts);

  // Brings every Index and Mine artifact up to date for the categories
  // `options` enables, sharding stale configs across a pool of
  // `options.parallelism` threads (1 = serial). Counts one hit/miss per
  // config per stage. Raises DeadlineExceeded on `options.deadline` expiry,
  // leaving refreshed artifacts cached (a retry resumes where it stopped).
  void Refresh(const LearnOptions& options);

  // ---- Read side (valid after Refresh; name-sorted, so deterministic). ----

  size_t size() const { return entries_.size(); }
  const ParseOptions& parse_options() const { return parse_options_; }
  const PatternTable& patterns() const { return table_; }
  PatternTable* mutable_patterns() { return &table_; }
  const std::vector<ParsedLine>& metadata() const { return metadata_; }

  // Raw source texts, retained for durable persistence (src/store/): parsing is
  // deterministic, so persisting the Parse-stage *inputs* reproduces every
  // downstream artifact bit for bit on rehydration.
  const std::string* TextOf(const std::string& name) const;
  const std::vector<std::string>& metadata_texts() const { return metadata_texts_; }

  // Metadata type-use counts (the metadata half of the Mine stage).
  const TypeCountsMap& metadata_types() const { return metadata_types_; }

  // The table every resident summary's relational half is interned into.
  const RelationalTable& relational_table() const { return relational_; }

  std::vector<std::string> names() const;
  std::vector<const ParsedConfig*> configs() const;
  std::vector<const ConfigIndex*> indexes() const;
  std::vector<const ConfigSummary*> summaries() const;

  // Content key of a resident config; 0 when absent (ContentKey never returns 0
  // for real input in practice, and callers only compare keys for equality).
  uint64_t ContentKeyOf(const std::string& name) const;

  const ArtifactCounters& counters() const { return counters_; }
  void ResetCounters() { counters_ = ArtifactCounters(); }

 private:
  struct Entry {
    uint64_t content_key = 0;
    std::string text;  // Raw source; the durable store persists this blob.
    ParsedConfig config;
    ConfigIndex index;
    ConfigSummary summary;
    bool index_valid = false;
    bool summary_valid = false;
    uint8_t summary_categories = 0;
  };

  // Interns the summaries of `stale` that this refresh mined (`mined[i]`), or
  // rebuilds the table when it outgrew its bound.
  void InternRelational(const std::vector<Entry*>& stale, const std::vector<uint8_t>& mined);

  const Lexer* lexer_;
  ParseOptions parse_options_;
  PatternTable table_;
  ConfigParser parser_;
  std::vector<ParsedLine> metadata_;
  std::vector<std::string> metadata_texts_;
  uint64_t metadata_key_;
  TypeCountsMap metadata_types_;
  RelationalTable relational_;
  size_t relational_rebuilt_size_ = 0;  // relational_.size() after its last rebuild.
  // Name-keyed and name-iterated: configs enter aggregation in name order
  // regardless of insertion/update history, keeping learns deterministic.
  std::map<std::string, std::unique_ptr<Entry>> entries_;
  ArtifactCounters counters_;
};

}  // namespace concord

#endif  // SRC_LEARN_ARTIFACT_STORE_H_
