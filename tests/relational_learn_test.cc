#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string_view>
#include <tuple>
#include <utility>

#include "src/contracts/contract_io.h"
#include "src/datagen/corpus.h"
#include "src/learn/artifact_store.h"
#include "src/learn/learner.h"
#include "src/learn/relational.h"
#include "src/relations/affix_trie.h"
#include "src/relations/key_interner.h"
#include "src/relations/param_ref.h"
#include "src/relations/prefix_trie.h"
#include "src/relations/score.h"
#include "src/relations/transform.h"
#include "src/util/flat_map.h"
#include "src/util/strings.h"
#include "tests/test_util.h"

namespace concord {
namespace {

LearnOptions SmallOptions() {
  LearnOptions options;
  options.support = 3;
  options.confidence = 0.9;
  options.score_threshold = 3.0;
  return options;
}

// Builds one Figure-1-style edge config; the variable pieces differ per device so that
// diversity scoring can accumulate.
std::string EdgeConfig(int i) {
  int channel = 100 + i * 7;           // Port channel number.
  std::string mac_last = ToHex(100 + i * 7);
  int vlan = 200 + i * 13;
  std::string ip = "10.14." + std::to_string(i + 1) + ".34";
  std::string out;
  out += "hostname DEV" + std::to_string(i) + "\n";
  out += "interface Loopback0\n";
  out += "   ip address " + ip + "\n";
  out += "interface Port-Channel" + std::to_string(channel) + "\n";
  out += "   evpn ether-segment\n";
  out += "      route-target import 00:00:0c:d3:00:" + mac_last + "\n";
  out += "ip prefix-list loopback\n";
  out += "   seq 10 permit " + ip + "/32\n";
  out += "   seq 20 permit 0.0.0.0/0\n";
  out += "router bgp 65015\n";
  out += "   vlan " + std::to_string(vlan) + "\n";
  out += "      rd 10.99.0." + std::to_string(i + 1) + ":10" + std::to_string(vlan) + "\n";
  return out;
}

Dataset EdgeDataset(int n) {
  std::vector<std::string> texts;
  for (int i = 0; i < n; ++i) {
    texts.push_back(EdgeConfig(i));
  }
  return BuildDataset(texts);
}

const Contract* Find(const std::vector<Contract>& contracts, const Dataset& d,
                     RelationKind relation, const std::string& p1_sub,
                     const std::string& p2_sub) {
  for (const Contract& c : contracts) {
    if (c.relation != relation) {
      continue;
    }
    if (d.patterns.Get(c.pattern).text.find(p1_sub) == std::string::npos) {
      continue;
    }
    if (d.patterns.Get(c.pattern2).text.find(p2_sub) == std::string::npos) {
      continue;
    }
    return &c;
  }
  return nullptr;
}

TEST(LearnRelational, LearnsFigure1Contract1_HexMacEquality) {
  Dataset d = EdgeDataset(8);
  auto contracts = LearnKind(ContractKind::kRelational, d, SmallOptions());
  const Contract* c =
      Find(contracts, d, RelationKind::kEquals, "interface Port-Channel[a:num]",
           "route-target import [a:mac]");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->transform1.kind, TransformKind::kHex);
  EXPECT_EQ(c->transform2.kind, TransformKind::kMacSegment);
  EXPECT_EQ(c->transform2.arg, 6);
  EXPECT_GE(c->confidence, 0.99);
}

TEST(LearnRelational, LearnsFigure1Contract2_IpContainedInPrefixList) {
  Dataset d = EdgeDataset(8);
  auto contracts = LearnKind(ContractKind::kRelational, d, SmallOptions());
  const Contract* c = Find(contracts, d, RelationKind::kContains, "ip address [a:ip4]",
                           "seq [a:num] permit [b:pfx4]");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->param, 0);
  EXPECT_EQ(c->param2, 1);  // The pfx4 is the second captured value.
}

TEST(LearnRelational, LearnsFigure1Contract3_VlanSuffixOfRd) {
  Dataset d = EdgeDataset(8);
  auto contracts = LearnKind(ContractKind::kRelational, d, SmallOptions());
  const Contract* c =
      Find(contracts, d, RelationKind::kSuffixOf, "vlan [a:num]", "rd [a:ip4]:[b:num]");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->param2, 1);
}

TEST(LearnRelational, SpuriousDefaultPrefixContractRejected) {
  // The rd IP (10.99.0.x) is only contained in 0.0.0.0/0, which scores zero — the
  // spurious contract from Challenge 3 must not be learned.
  Dataset d = EdgeDataset(8);
  auto contracts = LearnKind(ContractKind::kRelational, d, SmallOptions());
  const Contract* c =
      Find(contracts, d, RelationKind::kContains, "rd [a:ip4]:[b:num]", "seq [a:num] permit");
  EXPECT_EQ(c, nullptr);
}

TEST(LearnRelational, BrokenDependencyLowersConfidence) {
  // In 3 of 10 configs the MAC does not encode the channel number: confidence 0.7 < C.
  std::vector<std::string> texts;
  for (int i = 0; i < 10; ++i) {
    std::string cfg = EdgeConfig(i);
    if (i < 3) {
      cfg = ReplaceAll(cfg, "00:00:0c:d3:00:", "00:00:0c:d3:ff:");
      cfg = ReplaceAll(cfg, "route-target import 00:00:0c:d3:ff:" + ToHex(100 + i * 7),
                       "route-target import 00:00:0c:d3:ff:01");
    }
    texts.push_back(cfg);
  }
  Dataset d = BuildDataset(texts);
  auto contracts = LearnKind(ContractKind::kRelational, d, SmallOptions());
  const Contract* c =
      Find(contracts, d, RelationKind::kEquals, "interface Port-Channel[a:num]",
           "route-target import [a:mac]");
  EXPECT_EQ(c, nullptr);
}

TEST(LearnRelational, ScoreThresholdFiltersLowDiversity) {
  // All configs relate the same single small value; diversity score stays tiny.
  std::vector<std::string> texts(8, "left 5\nright 5\n");
  Dataset d = BuildDataset(texts);
  LearnOptions options = SmallOptions();
  options.score_threshold = 3.0;
  auto contracts = LearnKind(ContractKind::kRelational, d, options);
  EXPECT_EQ(Find(contracts, d, RelationKind::kEquals, "left", "right"), nullptr);

  // With diverse, specific values the same shape is learned.
  texts.clear();
  for (int i = 0; i < 8; ++i) {
    std::string v = std::to_string(4000 + i * 37);
    texts.push_back("left " + v + "\nright " + v + "\n");
  }
  Dataset d2 = BuildDataset(texts);
  auto contracts2 = LearnKind(ContractKind::kRelational, d2, options);
  EXPECT_NE(Find(contracts2, d2, RelationKind::kEquals, "left", "right"), nullptr);
}

TEST(LearnRelational, SupportFilterSkipsRarePatterns) {
  std::vector<std::string> texts(8, "alpha 4242\nbeta 4242\n");
  texts[0] += "gamma 4242\n";  // gamma appears once: below support.
  Dataset d = BuildDataset(texts);
  auto contracts = LearnKind(ContractKind::kRelational, d, SmallOptions());
  for (const Contract& c : contracts) {
    EXPECT_EQ(d.patterns.Get(c.pattern).text.find("gamma"), std::string::npos);
  }
}

TEST(LearnRelational, MetadataRelationsLearned) {
  // §3.7 / RQ4 example 2: config vlans must match metadata vlan ids.
  std::vector<std::string> texts;
  Dataset d;
  Lexer lexer;
  ConfigParser parser(&lexer, &d.patterns, ParseOptions{});
  for (int i = 0; i < 6; ++i) {
    int vlan = 1000 + i * 17;
    d.configs.push_back(parser.Parse(
        "cfg" + std::to_string(i) + ".cfg",
        "router bgp 65015\n   vlan " + std::to_string(vlan) + "\n"));
    // Shared metadata describes every vlan.
    if (i == 0) {
      std::string meta = "{\"nfInfos\": [";
      for (int j = 0; j < 6; ++j) {
        if (j > 0) {
          meta += ",";
        }
        meta += "{\"vlanId\": " + std::to_string(1000 + j * 17) + "}";
      }
      meta += "]}";
      d.metadata = parser.ParseMetadata(meta);
    }
  }
  auto contracts = LearnKind(ContractKind::kRelational, d, SmallOptions());
  const Contract* c = Find(contracts, d, RelationKind::kEquals, "vlan [a:num]", "@meta");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(d.patterns.Get(c->pattern2).text, "@meta/nfInfos/vlanId [a:num]");
}

// 120 configs relating `left N` to `right N`, three values each: 2-digit values
// in the first third, 3-digit in the second, 4-digit in the last. The equality
// candidates see 360 distinct witnesses, more than the 256 the diversity score
// keeps, and which 256 they are decides the learned score.
std::vector<std::string> CappedDiversityCorpus() {
  std::vector<std::string> texts;
  for (int i = 0; i < 120; ++i) {
    const int base = i < 40 ? 10 : i < 80 ? 100 : 1000;
    std::string text;
    for (int k = 0; k < 3; ++k) {
      std::string v = std::to_string(base + (i % 40) * 3 + k);
      text += "left " + v + "\nright " + v + "\n";
    }
    texts.push_back(text);
  }
  return texts;
}

// The diversity cap keeps the 256 smallest witness texts of the union, so the
// learned bytes do not depend on config order, parallelism or the store, which
// aggregates in name order (cfg0, cfg1, cfg10, ...).
TEST(LearnRelational, DiversityCapIsIndependentOfConfigOrder) {
  const std::vector<std::string> texts = CappedDiversityCorpus();
  std::vector<std::string> reversed(texts.rbegin(), texts.rend());
  auto learn = [](const std::vector<std::string>& corpus, LearnOptions options) {
    Dataset d = BuildDataset(corpus);
    return SerializeContracts(Learner(options).Learn(d).set, d.patterns);
  };
  const std::string expected = learn(texts, LearnOptions{});
  EXPECT_NE(expected.find("\"score\""), std::string::npos);
  for (int parallelism : {1, 4}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    LearnOptions options;
    options.parallelism = parallelism;
    EXPECT_EQ(learn(texts, options), expected);
    EXPECT_EQ(learn(reversed, options), expected);

    Lexer lexer;
    ArtifactStore store(&lexer, ParseOptions{});
    for (size_t i = texts.size(); i-- > 0;) {
      store.Upsert("cfg" + std::to_string(i), texts[i]);
    }
    EXPECT_EQ(SerializeContracts(Learner(options).Learn(store).set, store.patterns()),
              expected);
  }
}


// ---- The per-line summarizer, kept as the reference for the node-major one ----
//
// SummarizeRelationalConfig as it was before marking went node-major: pass 2
// walks the lines in order and probes a hash map of candidates per mark. The
// node-major summarizer must give the same evidence per config: the same
// candidates with the same hold bits, and per candidate the same (witness text,
// score) entries. Only the order of candidates and entries may differ.
namespace reference {

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

bool ReferenceSummarize(const ConfigIndex& index, const std::vector<uint32_t>* support_filter,
                        int support, const Deadline& deadline, RelationalConfigSummary* out) {
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


}  // namespace reference

// A candidate's identity, comparable across summaries.
using CandidateKey = std::tuple<uint64_t, uint64_t, int>;

CandidateKey KeyOf(const RelationalKey& key) {
  return {key.forall_node, key.exists_node, static_cast<int>(key.relation)};
}

// A summary as order-free evidence: each candidate's hold bit, and its sorted
// (witness text, score) entries. Entries stay a multiset, so a witness kept
// twice shows as a difference.
struct Evidence {
  std::map<CandidateKey, bool> holds;
  std::map<CandidateKey, std::vector<std::pair<std::string, float>>> witnesses;
};

Evidence EvidenceOf(const RelationalConfigSummary& summary) {
  Evidence evidence;
  for (const RelationalCandidate& cand : summary.candidates) {
    evidence.holds[KeyOf(cand.key)] = cand.holds;
  }
  for (const RelationalWitness& w : summary.witnesses) {
    evidence.witnesses[KeyOf(summary.candidates[w.candidate].key)].emplace_back(
        std::string(summary.WitnessText(w.text)), w.score);
  }
  for (auto& [key, entries] : evidence.witnesses) {
    std::sort(entries.begin(), entries.end());
  }
  return evidence;
}

std::string Describe(const CandidateKey& key, const PatternTable& patterns) {
  const auto& [forall, exists, relation] = key;
  return patterns.Get(RelationalNodePattern(forall)).text + " #" +
         std::to_string(RelationalNodeParam(forall)) + " " +
         RelationalNodeTransform(forall).Name() + " " +
         std::string(RelationKindName(static_cast<RelationKind>(relation))) + " " +
         patterns.Get(RelationalNodePattern(exists)).text + " #" +
         std::to_string(RelationalNodeParam(exists)) + " " +
         RelationalNodeTransform(exists).Name();
}

// The first difference between the reference's evidence and the node-major
// summarizer's on one config, or "" when they agree.
std::string SummaryDifference(const PatternTable& patterns, const ConfigIndex& index,
                              const std::vector<uint32_t>* filter, int support) {
  RelationalConfigSummary want;
  RelationalConfigSummary got;
  if (!reference::ReferenceSummarize(index, filter, support, Deadline::Never(), &want) ||
      !SummarizeRelationalConfig(patterns, index, filter, support, Deadline::Never(), &got)) {
    return "a summarizer gave up without a deadline";
  }
  const Evidence a = EvidenceOf(want);
  const Evidence b = EvidenceOf(got);
  if (want.candidates.size() != got.candidates.size()) {
    return std::to_string(want.candidates.size()) + " candidates expected, got " +
           std::to_string(got.candidates.size());
  }
  for (const auto& [key, holds] : a.holds) {
    auto it = b.holds.find(key);
    if (it == b.holds.end()) {
      return "missing candidate " + Describe(key, patterns);
    }
    if (it->second != holds) {
      return "hold bit differs for " + Describe(key, patterns);
    }
  }
  for (const auto& [key, entries] : a.witnesses) {
    auto it = b.witnesses.find(key);
    if (it == b.witnesses.end() || it->second != entries) {
      return "witnesses differ for " + Describe(key, patterns) + ": " +
             std::to_string(entries.size()) + " expected, got " +
             std::to_string(it == b.witnesses.end() ? 0 : it->second.size());
    }
  }
  if (a.witnesses.size() != b.witnesses.size()) {
    return "witnesses for a candidate the reference gave none";
  }
  return "";
}

// Summarizes every config of `dataset` with both summarizers, one after the
// other on this thread (so the node-major one reuses its scratch across
// configs of different sizes), and reports the first config that differs.
void ExpectSameSummaries(const Dataset& dataset, const std::vector<uint32_t>* filter,
                         int support) {
  std::vector<ConfigIndex> indexes = BuildIndexes(dataset);
  for (size_t ci = 0; ci < indexes.size(); ++ci) {
    SCOPED_TRACE(dataset.configs[ci].name);
    EXPECT_EQ(SummaryDifference(dataset.patterns, indexes[ci], filter, support), "");
  }
}

TEST(RelationalSummary, NodeMajorMatchesTheReferenceOnEveryFamily) {
  for (const char* family : kFamilies) {
    SCOPED_TRACE(family);
    Dataset dataset = ParseCorpus(SmallFamilyCorpus(family, 1));
    ASSERT_FALSE(dataset.metadata.empty() && std::string(family) == "edge");
    std::vector<uint32_t> counts = CountConfigsPerPattern(dataset, BuildIndexes(dataset));
    ExpectSameSummaries(dataset, nullptr, 0);
    ExpectSameSummaries(dataset, &counts, 3);
  }
}

// Letter-only names, so each is a distinct literal pattern word.
std::string Word(size_t i) {
  std::string word = "node";
  do {
    word += static_cast<char>('g' + i % 20);
    i /= 20;
  } while (i > 0);
  return word;
}

// Hand-built configs, one per edge of the marking rules.
std::vector<std::string> EdgeCaseConfigs() {
  std::vector<std::string> texts;
  // A text shared by exactly 32 nodes is a bucket; one shared by 33 is noise.
  std::string buckets;
  for (size_t i = 0; i < 33; ++i) {
    if (i < 32) {
      buckets += Word(i) + " 5555\n";
    }
    buckets += Word(100 + i) + " 7777\n";
  }
  texts.push_back(buckets);
  // One candidate meets 300 distinct witnesses, each on two lines in a row, so
  // a repeated offer would fill its 256 slots with half as many texts.
  std::string many;
  for (int v = 0; v < 300; ++v) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      many += "left " + std::to_string(1000 + v) + "\nright " + std::to_string(1000 + v) + "\n";
    }
  }
  texts.push_back(many);
  // One-character keys, and 0.
  texts.push_back("one 5\ntwo 5\nthree 0\nfour 0\nfive 0 5\nsix x\nseven x\n");
  // An affix chain over many lines, in both directions.
  std::string chain;
  for (int i = 0; i < 25; ++i) {
    chain += "short 10\nmid 100\nlong 1000\nlonger 10000\n";
    chain += "tail " + std::to_string(i % 3 == 0 ? 7100 : 9100) + "\n";
    if (i % 4 == 0) {
      chain += "mid 101\nshort 11\n";
    }
  }
  texts.push_back(chain);
  // A shorter key on a supported pattern, a longer one on a rare pattern.
  texts.push_back("base 42\nbase 43\nrare 4242\nrare 4343\nrare 4299\n");
  // One address inside two prefixes of one node, in both insertion orders,
  // and on two lines.
  texts.push_back(
      "permit 10.0.0.0/8\npermit 10.1.0.0/16\nip address 10.1.2.3\n"
      "ip address 10.1.2.3\nip address 10.9.9.9\n");
  texts.push_back(
      "permit 10.1.0.0/16\npermit 10.0.0.0/8\nip address 10.1.2.3\nip address 10.1.7.7\n");
  // IPv4 and IPv6 containment side by side.
  texts.push_back(
      "route 2001:db8::/32\nroute 2001:db8:1::/48\nneighbor 2001:db8:1::1\n"
      "neighbor 2001:db9::1\nroute 192.168.0.0/16\nneighbor 192.168.1.1\n"
      "network 192.168.1.0/24\n");
  // The same two patterns the other way round: the shorter keys on the rare
  // pattern, the longer ones on the supported pattern.
  texts.push_back("rare 42\nrare 43\nbase 4242\nbase 4343\nbase 4299\n");
  return texts;
}

TEST(RelationalSummary, NodeMajorMatchesTheReferenceOnEdgeCases) {
  Dataset dataset = BuildDataset(EdgeCaseConfigs());
  ExpectSameSummaries(dataset, nullptr, 0);
  // A filter that keeps every pattern but the rare one: its lines are still
  // queried, and the supported shorter keys' prefixOf lines still count.
  std::vector<uint32_t> filter(dataset.patterns.size(), 10);
  for (PatternId p = 0; p < dataset.patterns.size(); ++p) {
    if (dataset.patterns.Get(p).text.find("rare") != std::string::npos) {
      filter[p] = 1;
    }
  }
  ExpectSameSummaries(dataset, &filter, 5);

  // The inputs reach the rules they are for.
  std::vector<ConfigIndex> indexes = BuildIndexes(dataset);
  auto summary = [&](size_t ci) {
    RelationalConfigSummary out;
    EXPECT_TRUE(SummarizeRelationalConfig(dataset.patterns, indexes[ci], &filter, 5,
                                          Deadline::Never(), &out));
    return EvidenceOf(out);
  };
  auto count = [](const Evidence& e, RelationKind relation) {
    size_t n = 0;
    for (const auto& [key, holds] : e.holds) {
      n += std::get<2>(key) == static_cast<int>(relation) ? 1 : 0;
    }
    return n;
  };
  // 32 nodes sharing a text pair up 32 * 31 ways, once for 5555 and once for
  // its hex key; the 33 sharing 7777 (and its hex key) do not.
  EXPECT_EQ(count(summary(0), RelationKind::kEquals), 2u * 32u * 31u);
  size_t capped = 0;
  for (const auto& [key, entries] : summary(1).witnesses) {
    capped = std::max(capped, entries.size());
  }
  EXPECT_EQ(capped, 256u);
  EXPECT_GT(count(summary(4), RelationKind::kPrefixOf), 0u);
  EXPECT_GT(count(summary(5), RelationKind::kContains), 0u);
  EXPECT_GT(count(summary(7), RelationKind::kContains), 1u);
  // A rare shorter key: its startswith partner counts, its prefixOf is filtered.
  EXPECT_GT(count(summary(8), RelationKind::kStartsWith), 0u);
  EXPECT_EQ(count(summary(8), RelationKind::kPrefixOf), 0u);
}

// Interning records, per candidate, the table id of its key, its hold bit and
// its number of witness entries, which aggregation sizes its gather from; and
// per pooled text, the id of a table text equal to it.
TEST(RelationalTable, InternRecordsKeysHoldsAndEntryCounts) {
  Dataset dataset = ParseCorpus(SmallFamilyCorpus("wan", 1));
  std::vector<ConfigIndex> indexes = BuildIndexes(dataset);
  RelationalTable table;
  std::vector<RelationalConfigSummary> summaries(indexes.size());
  for (size_t ci = 0; ci < indexes.size(); ++ci) {
    ASSERT_TRUE(SummarizeRelationalConfig(dataset.patterns, indexes[ci], nullptr, 0,
                                          Deadline::Never(), &summaries[ci]));
    table.Intern(&summaries[ci]);
  }
  size_t checked = 0;
  for (const RelationalConfigSummary& summary : summaries) {
    ASSERT_EQ(summary.interned.size(), summary.candidates.size());
    std::vector<uint32_t> entries(summary.candidates.size(), 0);
    for (const RelationalWitness& w : summary.witnesses) {
      ++entries[w.candidate];
    }
    for (size_t i = 0; i < summary.candidates.size(); ++i) {
      const InternedCandidate& interned = summary.interned[i];
      EXPECT_TRUE(table.key(interned.key) == summary.candidates[i].key);
      EXPECT_EQ(interned.holds, summary.candidates[i].holds);
      EXPECT_EQ(interned.witnesses, entries[i]);
    }
    ASSERT_EQ(summary.witness_ids.size(), summary.num_witness_texts());
    for (uint32_t t = 0; t < summary.num_witness_texts(); ++t) {
      EXPECT_EQ(table.text(summary.witness_ids[t]), summary.WitnessText(t));
    }
    checked += summary.candidates.size();
  }
  EXPECT_GT(checked, 0u);
  // Equal keys share an id: the table holds fewer keys than the summaries name.
  EXPECT_LT(table.num_keys(), checked);
}

// The affix tries take texts of 2+ characters with a positive score, and look up
// every text of 2+ characters; the two gates agree because KeyScore is positive
// on every text of 2+ characters.
TEST(RelationalSummary, EveryKeyOfTwoOrMoreCharactersScores) {
  std::string zero;
  for (char a = 32; a < 127; ++a) {
    for (char b = 32; b < 127; ++b) {
      const std::string key{a, b};
      if (!(KeyScore(key) > 0.0)) {
        zero += "'" + key + "' ";
      }
    }
  }
  for (std::string key : {"000", "0000000000000000000000000", "0x0", "00:00", "  "}) {
    if (!(KeyScore(key) > 0.0)) {
      zero += "'" + key + "' ";
    }
  }
  EXPECT_EQ(zero, "");
}
}  // namespace
}  // namespace concord
