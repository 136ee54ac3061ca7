// Relational contract learning (§3.5).
//
// Naively, candidate relational contracts are every (pattern, param, transform) pair
// with every relation — quadratic in the tens of thousands of parameters real configs
// carry. Concord instead discovers candidates from *actual matches*:
//
//   Pass 1 (per configuration): render every (line, param, transform) key once into
//   a KeyInterner (src/relations/key_interner.h, shared with the checker), which
//   keeps one text buffer and gives equal texts one dense id. An id is both an
//   equality bucket, whose distinct nodes are listed once, and a witness
//   identity. Identity keys go into the forward and reversed affix tries,
//   prefixes into the prefix trie.
//
//   Pass 2 (per configuration): look each value up, producing candidate (forall,
//   relation, exists) keys together with the forall-side line that found a witness.
//   Marks go into one FlatMap of candidates plus flat records, folded at the end.
//   Per config, a candidate holds when *every* line of the forall pattern found a
//   witness.
//
// A config's RelationalConfigSummary (src/learn/summaries.h) is flat: candidates in
// first-mark order, (candidate, witness, score) entries, and one pool of the
// distinct witness texts those entries index. Each candidate keeps its first 256
// distinct witnesses in mark order, each with the score it was first offered with.
// A summary is a few vectors, so building, caching and freeing one costs a few
// allocations, not one per mark.
//
// Candidates are aggregated across configurations; a contract is learned when it meets
// support S, confidence C, and the cumulative informativeness threshold (diversity-
// aggregated over distinct witness keys, §3.5 "reducing false positives"). The
// diversity set is the 256 lexicographically smallest distinct witness texts over
// all configs, each with its largest score, so it does not depend on config order.
#ifndef SRC_LEARN_RELATIONAL_H_
#define SRC_LEARN_RELATIONAL_H_

#include <vector>

#include "src/contracts/contract.h"
#include "src/learn/index.h"
#include "src/learn/options.h"
#include "src/learn/summaries.h"

namespace concord {

// The per-config half of relational mining: passes 1 and 2 over one configuration,
// recording candidate evidence in `out`. When `support_filter` is non-null, marks
// whose forall-side pattern falls below `support` in it are skipped — the batch
// miner's pre-filter optimization. Cacheable summaries must pass nullptr (the
// filter depends on the whole dataset); the skipped candidates are dropped at
// aggregate time either way, so the learned contracts are identical. Returns false
// when `deadline` expired mid-pass (discard the partial summary); never throws.
bool SummarizeRelationalConfig(const PatternTable& patterns, const ConfigIndex& index,
                               const std::vector<uint32_t>* support_filter, int support,
                               const Deadline& deadline, RelationalConfigSummary* out);

// Merges relational summaries in configuration order, applies support, confidence,
// and the informativeness score threshold, and emits the relational contracts.
std::vector<Contract> AggregateRelational(
    const std::vector<const ConfigSummary*>& summaries,
    const std::vector<uint32_t>& config_counts, const LearnOptions& options);

}  // namespace concord

#endif  // SRC_LEARN_RELATIONAL_H_
