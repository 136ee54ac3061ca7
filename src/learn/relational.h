// Relational contract learning (§3.5).
//
// Naively, candidate relational contracts are every (pattern, param, transform) pair
// with every relation — quadratic in the tens of thousands of parameters real configs
// carry. Concord instead discovers candidates from *actual matches*:
//
//   Pass 1 (per configuration): render every (line, param, transform) key once into
//   a KeyInterner (src/relations/key_interner.h, shared with the checker), which
//   keeps one text buffer and gives equal texts one dense id. Every node (pattern,
//   param, transform) with an informative key gets a dense per-config id and lists
//   its key texts in line order, one per line. A text id is an equality bucket of
//   dense node ids and a witness identity. Each distinct identity text of 2+
//   characters goes into the forward and reversed affix tries once, and its
//   proper affixes are looked up once; prefixes go into the prefix trie.
//
//   Pass 2 (per configuration, node-major): walk each node over its texts. A
//   candidate's evidence lives in an array slot of the walking node, indexed by
//   the other node's dense id, so a mark is an increment, not a hash probe. The
//   walk of node A marks equals, contains, startswith and endswith with A on the
//   forall side, and prefixOf and suffixOf with A on the exists side (a shorter
//   text's line counts once, the first time A meets that text). A text is offered
//   as a witness only the first time the walk meets it: a later offer would repeat
//   a witness the slot already has, or meet a slot that is full. Per config, a
//   candidate holds when *every* line of the forall pattern found a witness.
//
// Each candidate is marked from one walk only, in that node's line order, so it
// keeps its first 256 distinct witnesses in mark order, each with the score it was
// first offered with. A config's RelationalConfigSummary (src/learn/summaries.h) is
// flat: candidates, (candidate, witness, score) entries, and one pool of the
// distinct witness texts those entries index. A summary is a few vectors, so
// building, caching and freeing one costs a few allocations, not one per mark.
//
// Candidates are aggregated across configurations through a RelationalTable, which
// gives every candidate key and witness text an append-only id; a summary carries
// the ids of its keys and texts, with each candidate's hold bit and entry count, so
// aggregation counts in arrays and gathers witnesses in one pass. A contract is
// learned when it meets support S, confidence C, and the cumulative informativeness
// threshold (diversity-aggregated over distinct witness keys, §3.5 "reducing false
// positives"). The diversity set is the 256 lexicographically smallest distinct
// witness texts over all configs, each with its largest score, so it does not
// depend on config order.
#ifndef SRC_LEARN_RELATIONAL_H_
#define SRC_LEARN_RELATIONAL_H_

#include <string_view>
#include <vector>

#include "src/contracts/contract.h"
#include "src/learn/index.h"
#include "src/learn/options.h"
#include "src/learn/summaries.h"
#include "src/relations/key_interner.h"
#include "src/util/flat_map.h"

namespace concord {

// The per-config half of relational mining: passes 1 and 2 over one configuration,
// recording candidate evidence in `out`. When `support_filter` is non-null, marks
// whose forall-side pattern falls below `support` in it are skipped — the batch
// miner's pre-filter optimization. Cacheable summaries must pass nullptr (the
// filter depends on the whole dataset); the skipped candidates are dropped at
// aggregate time either way, so the learned contracts are identical. Returns false
// when `deadline` expired mid-pass (discard the partial summary); never throws.
// Its working arrays are per thread and sized by the largest config the thread
// has summarized.
bool SummarizeRelationalConfig(const PatternTable& patterns, const ConfigIndex& index,
                               const std::vector<uint32_t>* support_filter, int support,
                               const Deadline& deadline, RelationalConfigSummary* out);

// Append-only ids for the candidate keys and witness texts of many summaries.
// The batch learner fills one per learn; an ArtifactStore keeps one across
// relearns and rebuilds it when it doubles (src/learn/artifact_store.h).
class RelationalTable {
 public:
  // Pre-sizes for about `keys` candidate keys and `texts` witness texts.
  void Reserve(size_t keys, size_t texts);

  // Fills summary->interned and summary->witness_ids, giving keys and texts the
  // table has not seen the next ids.
  void Intern(RelationalConfigSummary* summary);

  uint32_t num_keys() const { return static_cast<uint32_t>(keys_.size()); }
  uint32_t num_texts() const { return texts_.size(); }
  // Keys plus witness texts: what the store's rebuild bound counts.
  size_t size() const { return keys_.size() + texts_.size(); }

  const RelationalKey& key(uint32_t id) const { return keys_[id]; }
  std::string_view text(uint32_t id) const { return texts_.Text(id); }

 private:
  FlatMap<RelationalKey, uint32_t, RelationalKeyHash> key_ids_;
  std::vector<RelationalKey> keys_;
  KeyInterner texts_;
};

// Merges relational summaries interned into `table`, applies support, confidence,
// and the informativeness score threshold, and emits the relational contracts.
// Only keys some summary in `summaries` names can become contracts.
std::vector<Contract> AggregateRelational(
    const std::vector<const ConfigSummary*>& summaries, const RelationalTable& table,
    const std::vector<uint32_t>& config_counts, const LearnOptions& options);

}  // namespace concord

#endif  // SRC_LEARN_RELATIONAL_H_
