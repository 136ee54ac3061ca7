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
constexpr uint32_t kMaxDiversityKeys = 256;
constexpr uint32_t kNone = static_cast<uint32_t>(-1);

// The relations a node's walk marks. The walking node is the forall side of the
// first four and the exists side of the last two.
enum WalkRelation : uint32_t {
  kWalkEquals,
  kWalkContains,
  kWalkStartsWith,
  kWalkEndsWith,
  kWalkPrefixOf,
  kWalkSuffixOf,
  kWalkRelations,
};

constexpr RelationKind kWalkKinds[kWalkRelations] = {
    RelationKind::kEquals,   RelationKind::kContains, RelationKind::kStartsWith,
    RelationKind::kEndsWith, RelationKind::kPrefixOf, RelationKind::kSuffixOf};

// One informative key of the config, from pass 1: `node` (a dense id) carries
// `text` on `line`.
struct KeyRecord {
  uint32_t node = 0;
  uint32_t text = 0;
  uint32_t line = 0;
};

// An identity node that carries an affix text, and on how many lines.
struct TextNode {
  uint32_t node = 0;
  uint32_t lines = 0;
};

// The walking node's evidence for one candidate.
struct Slot {
  uint32_t walk = 0;       // The walk that owns the slot; any other stamp is stale.
  uint32_t candidate = 0;  // Index into the summary's candidates.
  uint32_t lines = 0;      // Forall-side lines counted.
  uint32_t witnesses = 0;  // Witnesses kept.
  uint32_t line = kNone;   // The last walking-node line counted.
};

// Per-thread working arrays of SummarizeRelationalConfig. Every config clears
// or reassigns what it reads, so capacity carries over from config to config
// and a worker stops allocating once it has seen its largest config.
struct Scratch {
  KeyInterner texts;
  std::vector<double> text_score;
  std::vector<uint8_t> text_affix;       // Text is an identity text of 2+ chars.
  FlatMap<uint64_t, uint32_t> node_ids;  // Packed node -> dense id.
  std::vector<uint64_t> nodes;           // Dense id -> packed node.
  std::vector<KeyRecord> records;        // Line order.
  std::vector<uint32_t> value_begin;     // Line -> first value index.
  std::vector<uint32_t> value_text;      // Value -> identity text.
  std::vector<uint32_t> value_node;      // Value -> identity node; kNone if none.
  PrefixTrie pfx;
  AffixTrie fwd_trie{/*reversed=*/false};
  AffixTrie rev_trie{/*reversed=*/true};

  // Derived from the records after pass 1.
  std::vector<uint32_t> cursor;      // Counting-sort fill positions.
  std::vector<uint32_t> node_begin;  // Node n's keys: keys[node_begin[n], [n + 1]).
  std::vector<KeyRecord> keys;       // Grouped by node, line order within.
  std::vector<uint32_t> node_total;  // Lines of the node's pattern.
  std::vector<uint8_t> node_ok;      // The node's pattern meets the support filter.
  std::vector<uint32_t> bucket_begin;
  std::vector<uint32_t> bucket_size;
  std::vector<uint32_t> bucket_nodes;
  std::vector<uint32_t> text_node_begin;  // Text t's nodes: [begin[t], end[t]).
  std::vector<uint32_t> text_node_end;
  std::vector<TextNode> text_nodes;
  std::vector<uint32_t> prefix_begin;  // Text t's proper prefixes: prefixes[begin[t], [t + 1]).
  std::vector<uint32_t> prefixes;
  std::vector<uint32_t> suffix_begin;  // Text t's proper suffixes, likewise.
  std::vector<uint32_t> suffixes;

  // Pass 2.
  std::vector<Slot> slots;  // kWalkRelations x nodes.
  std::vector<uint32_t> touched;
  std::vector<uint32_t> own_seen;  // Text -> the last walk that met it as a key.
  std::vector<uint32_t> prefix_seen;  // ... as a proper prefix.
  std::vector<uint32_t> suffix_seen;  // ... as a proper suffix.
  std::vector<uint32_t> pooled;    // Text -> summary witness id.
  std::vector<PrefixTrie::Hit> pfx_hits;
  std::vector<AffixTrie::Hit> affix_hits;
  RelationalConfigSummary out;
};

// Counting sort: begin[k] .. begin[k + 1] will be key k's range of `count`
// items, given each item's key (kNone leaves an item out).
template <typename KeyOf>
void BucketBegins(size_t keys, size_t count, KeyOf key_of, std::vector<uint32_t>* begin) {
  begin->assign(keys + 1, 0);
  for (size_t i = 0; i < count; ++i) {
    const uint32_t key = key_of(i);
    if (key != kNone) {
      ++(*begin)[key + 1];
    }
  }
  for (size_t k = 0; k < keys; ++k) {
    (*begin)[k + 1] += (*begin)[k];
  }
}

// Pass 1: render every key once, give informative nodes dense ids, and build
// the tries. Returns false when `deadline` expired.
bool CollectKeys(const ConfigIndex& index, const Deadline& deadline, Scratch* s) {
  const uint32_t num_lines = static_cast<uint32_t>(index.lines.size());
  s->texts.Clear();
  s->text_score.clear();
  s->text_affix.clear();
  s->node_ids.clear();
  s->nodes.clear();
  s->records.clear();
  s->value_begin.resize(num_lines + 1);
  s->value_text.clear();
  s->value_node.clear();
  s->pfx.Clear();
  s->fwd_trie.Clear();
  s->rev_trie.Clear();
  for (uint32_t li = 0; li < num_lines; ++li) {
    if ((li & 511u) == 511u && deadline.expired()) {
      return false;
    }
    const ParsedLine& line = *index.lines[li];
    s->value_begin[li] = static_cast<uint32_t>(s->value_text.size());
    for (uint16_t param = 0; param < line.values.size(); ++param) {
      const Value& value = line.values[param];
      const size_t v = s->value_text.size();
      s->value_text.push_back(kNone);
      s->value_node.push_back(kNone);
      for (const Transform& t : TransformsFor(value.type())) {
        auto key = t.Apply(value);
        if (!key) {
          continue;
        }
        const uint32_t text = s->texts.Intern(*key);
        if (text == s->text_score.size()) {
          s->text_score.push_back(KeyScore(*key));
          s->text_affix.push_back(0);
        }
        const bool identity = t == IdTransform();
        if (identity) {
          s->value_text[v] = text;
        }
        // Zero-informativeness keys never witness anything (§3.5).
        if (s->text_score[text] <= 0.0) {
          continue;
        }
        auto [id, inserted] = s->node_ids.TryEmplace(
            PackRelationalNode(line.pattern, param, t), static_cast<uint32_t>(s->nodes.size()));
        if (inserted) {
          s->nodes.push_back(PackRelationalNode(line.pattern, param, t));
        }
        s->records.push_back(KeyRecord{*id, text, li});
        if (!identity) {
          continue;
        }
        s->value_node[v] = *id;
        // Each distinct affix text enters the tries once; a hit names the text
        // through the occurrence it was inserted with.
        if (key->size() >= 2 && s->text_affix[text] == 0) {
          s->text_affix[text] = 1;
          ParamRef ref{line.pattern, param, t, li};
          s->fwd_trie.Insert(*key, ref);
          s->rev_trie.Insert(*key, ref);
        }
      }
      if (value.type() == ValueType::kPfx4 && value.AsPfx4().prefix_len() > 0) {
        s->pfx.Insert(value.AsPfx4(), ParamRef{line.pattern, param, IdTransform(), li});
      } else if (value.type() == ValueType::kPfx6 && value.AsPfx6().prefix_len() > 0) {
        s->pfx.Insert(value.AsPfx6(), ParamRef{line.pattern, param, IdTransform(), li});
      }
    }
  }
  s->value_begin[num_lines] = static_cast<uint32_t>(s->value_text.size());
  return true;
}

// The per-node, per-text and per-affix tables pass 2 reads, from pass 1's records.
void BuildTables(const ConfigIndex& index, const std::vector<uint32_t>* support_filter,
                 int support, Scratch* s) {
  const size_t num_nodes = s->nodes.size();
  const size_t num_texts = s->texts.size();
  const std::vector<KeyRecord>& records = s->records;

  // Each node's keys, in line order.
  BucketBegins(num_nodes, records.size(), [&](size_t r) { return records[r].node; },
               &s->node_begin);
  s->keys.resize(records.size());
  s->cursor.assign(s->node_begin.begin(), s->node_begin.end() - 1);
  for (const KeyRecord& rec : records) {
    s->keys[s->cursor[rec.node]++] = rec;
  }
  s->node_total.resize(num_nodes);
  s->node_ok.resize(num_nodes);
  for (size_t n = 0; n < num_nodes; ++n) {
    const PatternId pattern = RelationalNodePattern(s->nodes[n]);
    auto it = index.by_pattern.find(pattern);
    s->node_total[n] = it == index.by_pattern.end() ? 0 : static_cast<uint32_t>(it->second.size());
    s->node_ok[n] = support_filter == nullptr ||
                    static_cast<int>((*support_filter)[pattern]) >= support;
  }

  // Equality buckets: the distinct nodes whose key is each text, in record
  // order. A bucket that reaches kMaxBucketNodes + 1 nodes is noise and skipped.
  BucketBegins(num_texts, records.size(), [&](size_t r) { return records[r].text; },
               &s->bucket_begin);
  s->bucket_nodes.resize(records.size());
  s->bucket_size.assign(num_texts, 0);
  for (const KeyRecord& rec : records) {
    uint32_t* nodes = &s->bucket_nodes[s->bucket_begin[rec.text]];
    uint32_t& size = s->bucket_size[rec.text];
    if (size <= kMaxBucketNodes && std::find(nodes, nodes + size, rec.node) == nodes + size) {
      nodes[size++] = rec.node;
    }
  }

  // Each affix text's identity nodes and their line counts. Walking the keys
  // node by node puts a text's entry for the current node last in its list.
  auto is_affix_key = [&](const KeyRecord& rec) {
    return s->text_affix[rec.text] != 0 &&
           RelationalNodeTransform(s->nodes[rec.node]) == IdTransform();
  };
  BucketBegins(num_texts, records.size(),
               [&](size_t r) { return is_affix_key(records[r]) ? records[r].text : kNone; },
               &s->text_node_begin);
  s->text_node_end.assign(s->text_node_begin.begin(), s->text_node_begin.end() - 1);
  s->text_nodes.resize(s->text_node_begin.back());
  for (const KeyRecord& rec : s->keys) {
    if (!is_affix_key(rec)) {
      continue;
    }
    uint32_t& end = s->text_node_end[rec.text];
    if (end > s->text_node_begin[rec.text] && s->text_nodes[end - 1].node == rec.node) {
      ++s->text_nodes[end - 1].lines;
    } else {
      s->text_nodes[end++] = TextNode{rec.node, 1};
    }
  }

  // Each affix text's proper affixes among the affix texts, shortest first.
  auto affixes_of = [&](const AffixTrie& trie, std::vector<uint32_t>* begin,
                        std::vector<uint32_t>* out) {
    begin->resize(num_texts + 1);
    out->clear();
    for (uint32_t t = 0; t < num_texts; ++t) {
      (*begin)[t] = static_cast<uint32_t>(out->size());
      if (s->text_affix[t] == 0) {
        continue;
      }
      s->affix_hits.clear();
      trie.FindAffixesOf(s->texts.Text(t), &s->affix_hits);
      for (const AffixTrie::Hit& hit : s->affix_hits) {
        out->push_back(s->value_text[s->value_begin[hit.ref.line] + hit.ref.param]);
      }
    }
    (*begin)[num_texts] = static_cast<uint32_t>(out->size());
  };
  affixes_of(s->fwd_trie, &s->prefix_begin, &s->prefixes);
  affixes_of(s->rev_trie, &s->suffix_begin, &s->suffixes);
}

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

}  // namespace

bool SummarizeRelationalConfig(const PatternTable& patterns, const ConfigIndex& index,
                               const std::vector<uint32_t>* support_filter, int support,
                               const Deadline& deadline, RelationalConfigSummary* out) {
  (void)patterns;
  if (deadline.expired()) {
    return false;
  }
  Scratch& s = ThreadScratch();
  if (!CollectKeys(index, deadline, &s)) {
    return false;
  }
  BuildTables(index, support_filter, support, &s);

  // ---- Pass 2: walk each node over its keys, marking candidates in its slots. ----
  const uint32_t num_nodes = static_cast<uint32_t>(s.nodes.size());
  const size_t num_texts = s.texts.size();
  s.slots.assign(kWalkRelations * static_cast<size_t>(num_nodes), Slot{});
  s.own_seen.assign(num_texts, 0);
  s.prefix_seen.assign(num_texts, 0);
  s.suffix_seen.assign(num_texts, 0);
  s.pooled.assign(num_texts, kNone);
  RelationalConfigSummary& sum = s.out;
  sum.candidates.clear();
  sum.witnesses.clear();
  sum.witness_text.clear();
  sum.witness_offsets.assign(1, 0);

  for (uint32_t a = 0; a < num_nodes; ++a) {
    if ((a & 255u) == 255u && deadline.expired()) {
      return false;
    }
    const uint32_t walk = a + 1;
    const uint64_t self = s.nodes[a];
    const bool self_ok = s.node_ok[a] != 0;
    const bool identity = RelationalNodeTransform(self) == IdTransform();
    const uint16_t param = RelationalNodeParam(self);
    s.touched.clear();

    auto slot_of = [&](uint32_t relation, uint32_t b) -> Slot& {
      const size_t at = relation * static_cast<size_t>(num_nodes) + b;
      Slot& slot = s.slots[at];
      if (slot.walk != walk) {
        slot = Slot{walk, static_cast<uint32_t>(sum.candidates.size()), 0, 0, kNone};
        const RelationalKey key = relation < kWalkPrefixOf
                                      ? RelationalKey{self, s.nodes[b], kWalkKinds[relation]}
                                      : RelationalKey{s.nodes[b], self, kWalkKinds[relation]};
        sum.candidates.push_back(RelationalCandidate{key, false});
        s.touched.push_back(static_cast<uint32_t>(at));
      }
      return slot;
    };
    auto offer = [&](Slot& slot, uint32_t text, double score) {
      if (slot.witnesses == kMaxDiversityKeys) {
        return;
      }
      ++slot.witnesses;
      uint32_t& pooled = s.pooled[text];
      if (pooled == kNone) {
        pooled = static_cast<uint32_t>(sum.num_witness_texts());
        sum.witness_text += s.texts.Text(text);
        sum.witness_offsets.push_back(static_cast<uint32_t>(sum.witness_text.size()));
      }
      sum.witnesses.push_back(RelationalWitness{slot.candidate, pooled, static_cast<float>(score)});
    };
    // Affix candidates of one key in one direction. A shorter text h is the
    // shared witness; this node's line starts (ends) with it, and every line
    // carrying h is a prefix (suffix) of this node's value.
    auto affixes = [&](uint32_t line, const std::vector<uint32_t>& begin,
                       const std::vector<uint32_t>& found, std::vector<uint32_t>* seen,
                       uint32_t with_relation, uint32_t of_relation, uint32_t text) {
      for (uint32_t i = begin[text]; i < begin[text + 1]; ++i) {
        const uint32_t h = found[i];
        const bool first = (*seen)[h] != walk;
        (*seen)[h] = walk;
        const double score = s.text_score[h];
        for (uint32_t j = s.text_node_begin[h]; j < s.text_node_end[h]; ++j) {
          const TextNode& other = s.text_nodes[j];
          if (other.node == a) {
            continue;
          }
          if (self_ok) {
            Slot& with = slot_of(with_relation, other.node);
            if (with.line != line) {
              with.line = line;
              ++with.lines;
            }
            if (first) {
              offer(with, h, score);
            }
          }
          if (first && s.node_ok[other.node] != 0) {
            Slot& of = slot_of(of_relation, other.node);
            of.lines += other.lines;
            offer(of, h, score);
          }
        }
      }
    };

    for (uint32_t k = s.node_begin[a]; k < s.node_begin[a + 1]; ++k) {
      const uint32_t line = s.keys[k].line;
      const uint32_t text = s.keys[k].text;
      const bool first = s.own_seen[text] != walk;
      s.own_seen[text] = walk;

      // Equality candidates, all transforms.
      if (self_ok && s.bucket_size[text] <= kMaxBucketNodes) {
        const double score = s.text_score[text];
        const uint32_t* others = &s.bucket_nodes[s.bucket_begin[text]];
        for (uint32_t i = 0; i < s.bucket_size[text]; ++i) {
          if (others[i] == a) {
            continue;
          }
          Slot& eq = slot_of(kWalkEquals, others[i]);
          ++eq.lines;
          if (first) {
            offer(eq, text, score);
          }
        }
      }
      if (!identity) {
        continue;
      }

      // Containment candidates. A value's hits depend on the value alone, so a
      // repeated text offers nothing new; within one query, the first hit of a
      // node in trie order (its shortest containing prefix) sets the score.
      const Value& value = index.lines[line]->values[param];
      const ValueType type = value.type();
      if (self_ok && (type == ValueType::kIp4 || type == ValueType::kIp6 ||
                      type == ValueType::kPfx4 || type == ValueType::kPfx6)) {
        s.pfx_hits.clear();
        if (type == ValueType::kIp4) {
          s.pfx.FindContaining(value.AsIp4(), &s.pfx_hits);
        } else if (type == ValueType::kPfx4) {
          s.pfx.FindContaining(value.AsPfx4(), &s.pfx_hits);
        } else if (type == ValueType::kIp6) {
          s.pfx.FindContaining(value.AsIp6(), &s.pfx_hits);
        } else {
          s.pfx.FindContaining(value.AsPfx6(), &s.pfx_hits);
        }
        const bool v6 = type == ValueType::kIp6 || type == ValueType::kPfx6;
        for (const PrefixTrie::Hit& hit : s.pfx_hits) {
          const uint32_t b = s.value_node[s.value_begin[hit.ref.line] + hit.ref.param];
          if (b == a) {
            continue;
          }
          Slot& contains = slot_of(kWalkContains, b);
          if (contains.line == line) {
            continue;
          }
          contains.line = line;
          ++contains.lines;
          if (first) {
            offer(contains, text, PrefixScore(hit.prefix_len, v6));
          }
        }
      }

      // Affix candidates (identity keys of 2+ characters).
      if (s.text_affix[text] != 0) {
        affixes(line, s.prefix_begin, s.prefixes, &s.prefix_seen, kWalkStartsWith,
                kWalkPrefixOf, text);
        affixes(line, s.suffix_begin, s.suffixes, &s.suffix_seen, kWalkEndsWith,
                kWalkSuffixOf, text);
      }
    }

    // A candidate holds when it counted every line of its forall pattern.
    for (uint32_t at : s.touched) {
      const Slot& done = s.slots[at];
      const uint32_t relation = at / num_nodes;
      const uint32_t forall = relation < kWalkPrefixOf ? a : at % num_nodes;
      const uint32_t total = s.node_total[forall];
      sum.candidates[done.candidate].holds = total > 0 && done.lines == total;
    }
  }

  // Exact-size copies: the summary outlives the scratch's next config.
  out->candidates.assign(sum.candidates.begin(), sum.candidates.end());
  out->witnesses.assign(sum.witnesses.begin(), sum.witnesses.end());
  out->witness_text.assign(sum.witness_text);
  out->witness_offsets.assign(sum.witness_offsets.begin(), sum.witness_offsets.end());
  out->interned.clear();
  out->witness_ids.clear();
  return true;
}

void RelationalTable::Reserve(size_t keys, size_t texts) {
  key_ids_.reserve(keys);
  keys_.reserve(keys);
  texts_.Reserve(texts);
}

void RelationalTable::Intern(RelationalConfigSummary* summary) {
  summary->interned.resize(summary->candidates.size());
  for (size_t i = 0; i < summary->candidates.size(); ++i) {
    const RelationalCandidate& candidate = summary->candidates[i];
    auto [id, inserted] = key_ids_.TryEmplace(candidate.key, num_keys());
    if (inserted) {
      keys_.push_back(candidate.key);
    }
    summary->interned[i] = InternedCandidate{*id, 0, candidate.holds};
  }
  for (const RelationalWitness& w : summary->witnesses) {
    ++summary->interned[w.candidate].witnesses;
  }
  summary->witness_ids.resize(summary->num_witness_texts());
  for (uint32_t i = 0; i < summary->witness_ids.size(); ++i) {
    summary->witness_ids[i] = texts_.Intern(summary->WitnessText(i));
  }
}

std::vector<Contract> AggregateRelational(
    const std::vector<const ConfigSummary*>& summaries, const RelationalTable& table,
    const std::vector<uint32_t>& config_counts, const LearnOptions& options) {
  // Nested inside the learner's Aggregate span: relational aggregation is the
  // one sub-stage heavy enough to deserve its own line in a profile.
  TraceSpan span("learn", "relational");

  // ---- Count holds and witness entries per key id; only ids a summary names
  // can survive. ----
  const uint32_t num_keys = table.num_keys();
  constexpr uint32_t kUnnamed = kNone;
  std::vector<uint32_t> holds(num_keys, kUnnamed);
  std::vector<uint32_t> entries(num_keys, 0);
  for (const ConfigSummary* summary : summaries) {
    for (const InternedCandidate& candidate : summary->relational.interned) {
      uint32_t& count = holds[candidate.key];
      count = (count == kUnnamed ? 0 : count) + (candidate.holds ? 1 : 0);
      entries[candidate.key] += candidate.witnesses;
    }
  }

  // ---- Support and confidence first: only survivors need a diversity score. ----
  std::vector<uint32_t> survivors;
  std::vector<uint32_t> survivor_of(num_keys, kNone);
  for (uint32_t id = 0; id < num_keys; ++id) {
    if (holds[id] == kUnnamed) {
      continue;
    }
    uint32_t support = config_counts[RelationalNodePattern(table.key(id).forall_node)];
    if (static_cast<int>(support) < options.support ||
        static_cast<double>(holds[id]) / static_cast<double>(support) < options.confidence) {
      continue;
    }
    survivor_of[id] = static_cast<uint32_t>(survivors.size());
    survivors.push_back(id);
  }

  // ---- Gather the survivors' witness entries into one flat array. ----
  // Survivor s's entries are gathered[begin[s], begin[s + 1]), sized from the
  // entry counts of the first pass.
  struct Entry {
    uint32_t witness;  // Table text id.
    float score;
  };
  std::vector<uint32_t> begin(survivors.size() + 1, 0);
  for (size_t s = 0; s < survivors.size(); ++s) {
    begin[s + 1] = begin[s] + entries[survivors[s]];
  }
  std::vector<Entry> gathered(begin.back());
  {
    std::vector<uint32_t> cursor(begin.begin(), begin.end() - 1);
    for (const ConfigSummary* summary : summaries) {
      const RelationalConfigSummary& rel = summary->relational;
      for (const RelationalWitness& w : rel.witnesses) {
        const uint32_t s = survivor_of[rel.interned[w.candidate].key];
        if (s != kNone) {
          gathered[cursor[s]++] = Entry{rel.witness_ids[w.text], w.score};
        }
      }
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
  std::vector<uint32_t> seen_by(table.num_texts(), kNone);
  std::vector<uint32_t> position(table.num_texts(), 0);
  std::vector<Entry> distinct;
  for (uint32_t s = 0; s < survivors.size(); ++s) {
    distinct.clear();
    for (uint32_t e = begin[s]; e < begin[s + 1]; ++e) {
      const Entry& entry = gathered[e];
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
                       [&](const Entry& x, const Entry& y) {
                         return table.text(x.witness) < table.text(y.witness);
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
    const RelationalKey& key = table.key(survivors[s]);
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
