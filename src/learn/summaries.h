// Per-configuration mining summaries — the "Mine inputs" stage of the artifact
// pipeline (see DESIGN.md "Artifact pipeline").
//
// Every miner factors into two halves:
//
//   Summarize (per configuration): everything the category needs to know about one
//   config, computed from its ConfigIndex alone. Summaries are deliberately
//   independent of the learning thresholds (support/confidence/score), so a cached
//   summary stays valid when only the options change.
//
//   Aggregate (per dataset): merge the summaries in configuration order, apply the
//   support/confidence/score thresholds, and emit contracts.
//
// The batch learner computes summaries transiently; the ArtifactStore caches them
// per config (keyed by content hash + metadata epoch) so an incremental relearn
// only recomputes the summaries of configs whose text actually changed. Both paths
// run the exact same aggregation code, which is what makes incremental relearning
// bit-identical to a from-scratch learn.
#ifndef SRC_LEARN_SUMMARIES_H_
#define SRC_LEARN_SUMMARIES_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/contracts/contract.h"
#include "src/learn/index.h"
#include "src/learn/options.h"

namespace concord {

// ---- Relational summary types (filled by src/learn/relational.cc). ----

// A (pattern, param, transform) node packed into 64 bits for fast map keys.
uint64_t PackRelationalNode(PatternId pattern, uint16_t param, Transform t);
PatternId RelationalNodePattern(uint64_t node);
uint16_t RelationalNodeParam(uint64_t node);
Transform RelationalNodeTransform(uint64_t node);

// Candidate identity: forall node, exists node, relation.
struct RelationalKey {
  uint64_t forall_node = 0;
  uint64_t exists_node = 0;
  RelationKind relation = RelationKind::kEquals;

  bool operator==(const RelationalKey& o) const {
    return forall_node == o.forall_node && exists_node == o.exists_node &&
           relation == o.relation;
  }
};

struct RelationalKeyHash {
  size_t operator()(const RelationalKey& k) const {
    uint64_t h = k.forall_node * 0x9e3779b97f4a7c15ULL;
    h ^= (k.exists_node + 0x517cc1b727220a95ULL) * 0xbf58476d1ce4e5b9ULL;
    h ^= static_cast<uint64_t>(k.relation) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(h ^ (h >> 29));
  }
};

// One candidate's evidence within one configuration.
struct RelationalCandidate {
  RelationalKey key;
  // Did every forall-side line of this config find a witness?
  bool holds = false;
};

// One distinct witness key of one candidate with its instance score (diversity,
// §3.5). Scores are multiples of 1/16 no larger than 8, so a float holds them
// exactly.
struct RelationalWitness {
  uint32_t candidate = 0;  // Index into RelationalConfigSummary::candidates.
  uint32_t text = 0;       // Index into the summary's witness-text pool.
  float score = 0.0f;
};

// Flat per-config relational evidence (see src/learn/relational.h): candidates in
// first-mark order, (candidate, witness, score) entries in mark order, and one
// pool of the distinct witness texts those entries name.
struct RelationalConfigSummary {
  std::vector<RelationalCandidate> candidates;
  std::vector<RelationalWitness> witnesses;
  std::string witness_text;               // Witness texts, concatenated.
  std::vector<uint32_t> witness_offsets;  // Text i is [offsets[i], offsets[i + 1]).

  size_t num_witness_texts() const {
    return witness_offsets.empty() ? 0 : witness_offsets.size() - 1;
  }
  std::string_view WitnessText(uint32_t i) const {
    return std::string_view(witness_text)
        .substr(witness_offsets[i], witness_offsets[i + 1] - witness_offsets[i]);
  }
};

// ---- Non-relational summary types. ----

// "In this config, every line matching p1 is immediately followed (successor) or
// preceded by a line matching p2."
struct OrderingObservation {
  PatternId p1 = kInvalidPattern;
  PatternId p2 = kInvalidPattern;
  bool successor = true;
};

// One eligible (pattern, numeric param) pair: did its values form an equidistant
// monotonic run, and were there >= 3 instances (real evidence)?
struct SequenceObservation {
  PatternId pattern = kInvalidPattern;
  uint16_t param = 0;
  bool holds = false;
  bool strong = false;
};

// Per-parameter value-type use counts for one untyped pattern.
struct TypeUseCounts {
  std::vector<std::map<ValueType, uint32_t>> per_param;
  uint32_t uses = 0;
};
using TypeCountsMap = std::map<std::string, TypeUseCounts>;

// The values a (pattern, param) carries in this config. Pointers alias the
// summarized config's lines: a summary is only valid while its ParsedConfig lives.
struct UniqueObservation {
  PatternId pattern = kInvalidPattern;
  uint16_t param = 0;
  std::vector<const Value*> values;
};

// Category bits for selective summarization (pattern presence is always recorded:
// every aggregate needs the per-pattern config counts).
enum SummaryCategory : uint8_t {
  kSummaryOrdering = 1u << 0,
  kSummaryType = 1u << 1,
  kSummarySequence = 1u << 2,
  kSummaryUnique = 1u << 3,
  kSummaryRelational = 1u << 4,
  kSummaryAll = 0x1f,
};

uint8_t SummaryCategoriesFor(const LearnOptions& options);

struct ConfigSummary {
  std::vector<PatternId> patterns_present;      // Sorted ids from index.by_pattern.
  std::vector<OrderingObservation> ordering;
  TypeCountsMap type_counts;                    // Own lines only (metadata counts once
                                                // per dataset, not once per config).
  std::vector<std::string> type_patterns_seen;  // Sorted untyped texts (incl. metadata).
  std::vector<SequenceObservation> sequence;
  std::vector<UniqueObservation> unique;
  RelationalConfigSummary relational;
  uint8_t categories = 0;  // Which SummaryCategory bits were actually computed.
};

// Computes the summary of one configuration. Returns false when `deadline` expired
// mid-computation (the partial summary must be discarded); never throws, so it is
// safe inside shared-pool tasks.
//
// `relational_support_filter`, when non-null, enables the batch miner's global
// pre-filter for the relational category (see SummarizeRelationalConfig). Cacheable
// summaries must pass nullptr: the filter depends on the whole dataset, and a
// filtered summary would go stale as other configs change. The learned contracts
// are identical either way.
bool SummarizeConfig(const PatternTable& patterns, const ConfigIndex& index,
                     uint8_t categories, const Deadline& deadline, ConfigSummary* out,
                     const std::vector<uint32_t>* relational_support_filter = nullptr,
                     int relational_support = 0);

// Type-use counts of the dataset-wide metadata lines (§3.7): metadata is logically
// appended to every config but its values are accounted once per dataset.
TypeCountsMap SummarizeMetadataTypes(const PatternTable& patterns,
                                     const std::vector<ParsedLine>& metadata);

// ---- Aggregates (merge in configuration order, threshold, emit contracts). ----

// Number of configurations whose summary contains each pattern (dense by PatternId).
std::vector<uint32_t> CountConfigsFromSummaries(
    size_t num_patterns, const std::vector<const ConfigSummary*>& summaries);

std::vector<Contract> AggregatePresent(const std::vector<uint32_t>& config_counts,
                                       size_t num_configs, const LearnOptions& options);

std::vector<Contract> AggregateOrdering(const std::vector<const ConfigSummary*>& summaries,
                                        const std::vector<uint32_t>& config_counts,
                                        const LearnOptions& options);

std::vector<Contract> AggregateType(const std::vector<const ConfigSummary*>& summaries,
                                    const TypeCountsMap* metadata_types,
                                    const LearnOptions& options);

std::vector<Contract> AggregateSequence(const std::vector<const ConfigSummary*>& summaries,
                                        const LearnOptions& options);

std::vector<Contract> AggregateUnique(const std::vector<const ConfigSummary*>& summaries,
                                      const std::vector<uint32_t>& config_counts,
                                      const LearnOptions& options);

}  // namespace concord

#endif  // SRC_LEARN_SUMMARIES_H_
