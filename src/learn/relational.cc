#include "src/learn/relational.h"

#include <algorithm>
#include <string_view>

#include "src/util/cancellation.h"
#include "src/util/flat_map.h"
#include "src/util/trace.h"

#include "src/relations/affix_trie.h"
#include "src/relations/key_interner.h"
#include "src/relations/param_ref.h"
#include "src/relations/prefix_trie.h"
#include "src/relations/score.h"
#include "src/relations/transform.h"

namespace concord {

uint64_t PackRelationalNode(PatternId pattern, uint16_t param, Transform t) {
  return (static_cast<uint64_t>(pattern) << 32) | (static_cast<uint64_t>(param) << 16) |
         (static_cast<uint64_t>(t.kind) << 8) | t.arg;
}

PatternId RelationalNodePattern(uint64_t node) { return static_cast<PatternId>(node >> 32); }
uint16_t RelationalNodeParam(uint64_t node) {
  return static_cast<uint16_t>((node >> 16) & 0xffff);
}
Transform RelationalNodeTransform(uint64_t node) {
  return Transform{static_cast<TransformKind>((node >> 8) & 0xff),
                   static_cast<uint8_t>(node & 0xff)};
}

namespace {

constexpr size_t kMaxBucketNodes = 32;   // Values shared by more nodes are noise.
constexpr size_t kMaxDiversityKeys = 256;
constexpr uint32_t kNone = static_cast<uint32_t>(-1);

// One (line, param, transform) key of the config, computed once in pass 1.
struct KeyRecord {
  uint64_t node = 0;  // Packed (pattern, param, transform).
  uint32_t text = 0;  // Interned key text id.
};

// Pass-2 state of one candidate within the config.
struct MarkState {
  RelationalKey key;
  uint32_t last_line = kNone;     // Forall-side marks: the last line counted.
  uint32_t lines = 0;             // Distinct forall-side lines marked.
  uint32_t last_witness = kNone;  // Skips a witness repeated back to back.
  uint32_t witnesses = 0;         // Distinct witnesses kept.
};

bool MarksHitLine(RelationKind relation) {
  return relation == RelationKind::kPrefixOf || relation == RelationKind::kSuffixOf;
}

}  // namespace

bool SummarizeRelationalConfig(const PatternTable& patterns, const ConfigIndex& index,
                               const std::vector<uint32_t>* support_filter, int support,
                               const Deadline& deadline, RelationalConfigSummary* out) {
  (void)patterns;
  if (deadline.expired()) {
    return false;
  }
  const uint32_t num_lines = static_cast<uint32_t>(index.lines.size());

  // ---- Pass 1: render every key once and build the relation-finding structures.
  // Records of value v (the param-th value of line li is v = value_begin[li] +
  // param) are records[record_begin[v], record_begin[v + 1]), identity first.
  // Equal key texts share one interned id, which is the equality bucket and the
  // witness identity alike.
  std::vector<KeyRecord> records;
  std::vector<uint32_t> record_begin;
  std::vector<uint32_t> value_begin(num_lines + 1, 0);
  KeyInterner texts;
  PrefixTrie pfx;
  AffixTrie fwd(/*reversed=*/false);
  AffixTrie rev(/*reversed=*/true);
  for (uint32_t li = 0; li < num_lines; ++li) {
    if ((li & 511u) == 511u && deadline.expired()) {
      return false;
    }
    const ParsedLine& line = *index.lines[li];
    value_begin[li] = static_cast<uint32_t>(record_begin.size());
    for (uint16_t param = 0; param < line.values.size(); ++param) {
      record_begin.push_back(static_cast<uint32_t>(records.size()));
      const Value& value = line.values[param];
      for (const Transform& t : TransformsFor(value.type())) {
        auto key = t.Apply(value);
        if (!key) {
          continue;
        }
        records.push_back(KeyRecord{PackRelationalNode(line.pattern, param, t),
                                    texts.Intern(*key)});
        // Zero-informativeness keys never witness anything (§3.5).
        if (t == IdTransform() && key->size() >= 2 && KeyScore(*key) > 0.0) {
          ParamRef ref{line.pattern, param, t, li};
          fwd.Insert(*key, ref);
          rev.Insert(*key, ref);
        }
      }
      if (value.type() == ValueType::kPfx4 && value.AsPfx4().prefix_len() > 0) {
        pfx.Insert(value.AsPfx4(), ParamRef{line.pattern, param, IdTransform(), li});
      } else if (value.type() == ValueType::kPfx6 && value.AsPfx6().prefix_len() > 0) {
        pfx.Insert(value.AsPfx6(), ParamRef{line.pattern, param, IdTransform(), li});
      }
    }
  }
  value_begin[num_lines] = static_cast<uint32_t>(record_begin.size());
  record_begin.push_back(static_cast<uint32_t>(records.size()));

  const uint32_t num_texts = texts.size();
  std::vector<double> text_score(num_texts);
  for (uint32_t id = 0; id < num_texts; ++id) {
    text_score[id] = KeyScore(texts.Text(id));
  }
  auto value_of = [&](uint32_t line, uint16_t param) { return value_begin[line] + param; };
  // The identity record of value v: its key is the value's canonical text.
  auto id_text = [&](uint32_t v) { return records[record_begin[v]].text; };

  // Equality buckets: the distinct nodes whose key is each text, in record order.
  // Zero-informativeness keys join no bucket. A bucket that reaches
  // kMaxBucketNodes + 1 nodes is noise and skipped.
  std::vector<uint32_t> bucket_begin(num_texts + 1, 0);
  for (const KeyRecord& rec : records) {
    if (text_score[rec.text] > 0.0) {
      ++bucket_begin[rec.text + 1];
    }
  }
  for (size_t b = 0; b < num_texts; ++b) {
    bucket_begin[b + 1] += bucket_begin[b];
  }
  std::vector<uint64_t> bucket_nodes(bucket_begin.back());
  std::vector<uint32_t> bucket_size(num_texts, 0);
  for (const KeyRecord& rec : records) {
    if (text_score[rec.text] <= 0.0) {
      continue;
    }
    uint64_t* nodes = &bucket_nodes[bucket_begin[rec.text]];
    uint32_t& size = bucket_size[rec.text];
    if (size <= kMaxBucketNodes && std::find(nodes, nodes + size, rec.node) == nodes + size) {
      nodes[size++] = rec.node;
    }
  }

  // ---- Pass 2: look values up, marking candidate contracts per forall line. ----
  // Forall-side lines arrive in line order for every relation but kPrefixOf and
  // kSuffixOf, which mark the *hit* line from many queries; only those need
  // (candidate, line) records, sorted and de-duplicated at fold time. Each
  // candidate keeps its first kMaxDiversityKeys distinct witnesses in mark order,
  // each with the score it was first offered with.
  FlatMap<RelationalKey, uint32_t, RelationalKeyHash> candidate_ids;
  std::vector<MarkState> candidates;
  std::vector<uint64_t> hit_lines;
  FlatMap<uint64_t, bool> kept;                       // (candidate, text) pairs kept.
  std::vector<uint32_t> pooled(num_texts, kNone);  // Text id -> summary witness id.
  out->witness_offsets.push_back(0);
  std::vector<PrefixTrie::Hit> pfx_hits;
  std::vector<AffixTrie::Hit> affix_hits;

  auto keep_witness = [&](uint32_t id, uint32_t text, double score) {
    if (!kept.TryEmplace((static_cast<uint64_t>(id) << 32) | text).second) {
      return;
    }
    if (pooled[text] == kNone) {
      pooled[text] = static_cast<uint32_t>(out->num_witness_texts());
      out->witness_text += texts.Text(text);
      out->witness_offsets.push_back(static_cast<uint32_t>(out->witness_text.size()));
    }
    out->witnesses.push_back(RelationalWitness{id, pooled[text], static_cast<float>(score)});
    ++candidates[id].witnesses;
  };

  auto mark = [&](const RelationalKey& key, uint32_t line, uint32_t witness, double score) {
    auto [slot, inserted] =
        candidate_ids.TryEmplace(key, static_cast<uint32_t>(candidates.size()));
    const uint32_t id = *slot;
    if (inserted) {
      candidates.push_back(MarkState{key});
    }
    MarkState& state = candidates[id];
    if (MarksHitLine(key.relation)) {
      hit_lines.push_back((static_cast<uint64_t>(id) << 32) | line);
    } else if (state.last_line != line) {
      state.last_line = line;
      ++state.lines;
    }
    if (state.last_witness != witness && state.witnesses < kMaxDiversityKeys) {
      state.last_witness = witness;
      keep_witness(id, witness, score);
    }
  };

  for (uint32_t li = 0; li < num_lines; ++li) {
    // Pass 2 dominates mining cost; poll the deadline every 512 lines so a
    // single huge config cannot blow past the budget.
    if ((li & 511u) == 511u && deadline.expired()) {
      return false;
    }
    const ParsedLine& line = *index.lines[li];
    // Support pre-filter (batch path only): a pattern below support can never be a
    // forall side, but its lines must still be *queried* because the flipped affix
    // directions mark the hit line, whose pattern may well meet support.
    const bool self_ok =
        support_filter == nullptr ||
        static_cast<int>((*support_filter)[line.pattern]) >= support;
    auto hit_ok = [&](uint64_t node) {
      return support_filter == nullptr ||
             static_cast<int>((*support_filter)[RelationalNodePattern(node)]) >= support;
    };
    for (uint16_t param = 0; param < line.values.size(); ++param) {
      const Value& value = line.values[param];
      const uint32_t v = value_of(li, param);

      // Equality candidates, all transforms.
      if (self_ok) {
        for (uint32_t r = record_begin[v]; r < record_begin[v + 1]; ++r) {
          const KeyRecord& rec = records[r];
          double score = text_score[rec.text];
          if (score <= 0.0 || bucket_size[rec.text] > kMaxBucketNodes) {
            continue;
          }
          const uint64_t* nodes = &bucket_nodes[bucket_begin[rec.text]];
          for (uint32_t k = 0; k < bucket_size[rec.text]; ++k) {
            if (nodes[k] != rec.node) {
              mark(RelationalKey{rec.node, nodes[k], RelationKind::kEquals}, li, rec.text,
                   score);
            }
          }
        }
      }

      // Containment candidates (identity transform only).
      bool is_pfx4 = value.type() == ValueType::kPfx4;
      bool is_pfx6 = value.type() == ValueType::kPfx6;
      if (self_ok &&
          (value.type() == ValueType::kIp4 || value.type() == ValueType::kIp6 || is_pfx4 ||
           is_pfx6)) {
        pfx_hits.clear();
        bool v6 = false;
        if (value.type() == ValueType::kIp4) {
          pfx.FindContaining(value.AsIp4(), &pfx_hits);
        } else if (is_pfx4) {
          pfx.FindContaining(value.AsPfx4(), &pfx_hits);
        } else if (value.type() == ValueType::kIp6) {
          pfx.FindContaining(value.AsIp6(), &pfx_hits);
          v6 = true;
        } else {
          pfx.FindContaining(value.AsPfx6(), &pfx_hits);
          v6 = true;
        }
        uint64_t self = PackRelationalNode(line.pattern, param, IdTransform());
        for (const PrefixTrie::Hit& hit : pfx_hits) {
          uint64_t node = PackRelationalNode(hit.ref.pattern, hit.ref.param, hit.ref.transform);
          if (node == self) {
            continue;
          }
          mark(RelationalKey{self, node, RelationKind::kContains}, li, id_text(v),
               PrefixScore(hit.prefix_len, v6));
        }
      }

      // Affix candidates (identity transform only). A hit h is a proper affix of
      // this value's key k; that yields candidates in both quantification orders.
      // The shared affix is the hit's own key, so it is the witness.
      std::string_view key = texts.Text(id_text(v));
      if (key.size() < 2) {
        continue;
      }
      uint64_t self = PackRelationalNode(line.pattern, param, IdTransform());
      for (const AffixTrie* trie : {&fwd, &rev}) {
        const bool forward = trie == &fwd;
        affix_hits.clear();
        trie->FindAffixesOf(key, &affix_hits);
        for (const AffixTrie::Hit& hit : affix_hits) {
          uint32_t shared = id_text(value_of(hit.ref.line, hit.ref.param));
          double score = text_score[shared];
          uint64_t node = PackRelationalNode(hit.ref.pattern, hit.ref.param, hit.ref.transform);
          if (score <= 0.0 || node == self) {
            continue;
          }
          if (self_ok) {
            // forall this-line: it starts (ends) with the existing shorter value.
            mark(RelationalKey{self, node,
                               forward ? RelationKind::kStartsWith : RelationKind::kEndsWith},
                 li, shared, score);
          }
          if (hit_ok(node)) {
            // forall the shorter value's line: it is a prefix (suffix) of this value.
            mark(RelationalKey{node, self,
                               forward ? RelationKind::kPrefixOf : RelationKind::kSuffixOf},
                 hit.ref.line, shared, score);
          }
        }
      }
    }
  }

  // ---- Fold this config's marks into per-candidate hold bits. ----
  std::sort(hit_lines.begin(), hit_lines.end());
  hit_lines.erase(std::unique(hit_lines.begin(), hit_lines.end()), hit_lines.end());
  for (uint64_t hit : hit_lines) {
    ++candidates[hit >> 32].lines;
  }

  out->candidates.reserve(candidates.size());
  for (const MarkState& state : candidates) {
    auto it = index.by_pattern.find(RelationalNodePattern(state.key.forall_node));
    uint32_t total = it == index.by_pattern.end() ? 0 : static_cast<uint32_t>(it->second.size());
    out->candidates.push_back(RelationalCandidate{state.key, total > 0 && state.lines == total});
  }
  return true;
}

std::vector<Contract> AggregateRelational(
    const std::vector<const ConfigSummary*>& summaries,
    const std::vector<uint32_t>& config_counts, const LearnOptions& options) {
  // Nested inside the learner's Aggregate span: relational aggregation is the
  // one sub-stage heavy enough to deserve its own line in a profile.
  TraceSpan span("learn", "relational");

  // ---- Merge hold counts per candidate, in configuration order. ----
  FlatMap<RelationalKey, uint32_t, RelationalKeyHash> ids;
  std::vector<RelationalKey> keys;
  std::vector<uint32_t> holds;
  std::vector<uint32_t> merged;  // Global id of every summary candidate, in order.
  for (const ConfigSummary* summary : summaries) {
    for (const RelationalCandidate& cand : summary->relational.candidates) {
      auto [slot, inserted] = ids.TryEmplace(cand.key, static_cast<uint32_t>(keys.size()));
      const uint32_t id = *slot;
      if (inserted) {
        keys.push_back(cand.key);
        holds.push_back(0);
      }
      if (cand.holds) {
        ++holds[id];
      }
      merged.push_back(id);
    }
  }
  // ---- Support and confidence first: only survivors need a diversity score. ----
  std::vector<uint32_t> survivors;
  std::vector<uint32_t> survivor_of(keys.size(), kNone);
  for (uint32_t id = 0; id < keys.size(); ++id) {
    uint32_t support = config_counts[RelationalNodePattern(keys[id].forall_node)];
    if (static_cast<int>(support) < options.support ||
        static_cast<double>(holds[id]) / static_cast<double>(support) < options.confidence) {
      continue;
    }
    survivor_of[id] = static_cast<uint32_t>(survivors.size());
    survivors.push_back(id);
  }

  // ---- Gather the survivors' witness entries, interning witness texts. ----
  struct Entry {
    uint32_t witness;
    float score;
  };
  std::vector<std::vector<Entry>> gathered(survivors.size());
  FlatMap<std::string_view, uint32_t> witness_ids;
  std::vector<std::string_view> witness_texts;
  {
    std::vector<uint32_t> global_of;  // Summary witness id -> interned id.
    size_t base = 0;                  // The summary's first entry in `merged`.
    for (const ConfigSummary* summary : summaries) {
      const RelationalConfigSummary& rel = summary->relational;
      global_of.assign(rel.num_witness_texts(), kNone);
      for (const RelationalWitness& witness : rel.witnesses) {
        const uint32_t s = survivor_of[merged[base + witness.candidate]];
        if (s == kNone) {
          continue;
        }
        uint32_t& global = global_of[witness.text];
        if (global == kNone) {
          std::string_view text = rel.WitnessText(witness.text);
          global =
              *witness_ids.TryEmplace(text, static_cast<uint32_t>(witness_texts.size())).first;
          if (global == witness_texts.size()) {
            witness_texts.push_back(text);
          }
        }
        gathered[s].push_back(Entry{global, witness.score});
      }
      base += rel.candidates.size();
    }
  }

  // ---- Diversity score and threshold per survivor. ----
  // The diversity set is the kMaxDiversityKeys lexicographically smallest
  // distinct witness texts of the union of the per-config sets, each carrying
  // the largest score any config gave it. A bottom-k set does not depend on the
  // order configs merge in, so neither does the score: config order,
  // parallelism and the artifact store all learn the same bytes. Scores are
  // multiples of 1/16 and the set is capped, so the sum is exact in any order.
  std::vector<Contract> out;
  std::vector<uint32_t> seen_by(witness_texts.size(), kNone);
  std::vector<uint32_t> position(witness_texts.size(), 0);
  std::vector<Entry> distinct;
  for (uint32_t s = 0; s < survivors.size(); ++s) {
    distinct.clear();
    for (const Entry& entry : gathered[s]) {
      if (seen_by[entry.witness] != s) {
        seen_by[entry.witness] = s;
        position[entry.witness] = static_cast<uint32_t>(distinct.size());
        distinct.push_back(entry);
      } else {
        float& score = distinct[position[entry.witness]].score;
        score = std::max(score, entry.score);
      }
    }
    if (distinct.size() > kMaxDiversityKeys) {
      std::nth_element(distinct.begin(), distinct.begin() + kMaxDiversityKeys, distinct.end(),
                       [&](const Entry& a, const Entry& b) {
                         return witness_texts[a.witness] < witness_texts[b.witness];
                       });
      distinct.resize(kMaxDiversityKeys);
    }
    double score = 0.0;
    for (const Entry& entry : distinct) {
      score += entry.score;
    }
    if (score < options.score_threshold) {
      continue;
    }
    const RelationalKey& key = keys[survivors[s]];
    PatternId p1 = RelationalNodePattern(key.forall_node);
    uint32_t support = config_counts[p1];
    Contract c;
    c.kind = ContractKind::kRelational;
    c.pattern = p1;
    c.param = RelationalNodeParam(key.forall_node);
    c.transform1 = RelationalNodeTransform(key.forall_node);
    c.relation = key.relation;
    c.pattern2 = RelationalNodePattern(key.exists_node);
    c.param2 = RelationalNodeParam(key.exists_node);
    c.transform2 = RelationalNodeTransform(key.exists_node);
    c.support = static_cast<int>(support);
    c.confidence = static_cast<double>(holds[survivors[s]]) / static_cast<double>(support);
    c.score = score;
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace concord
