#include "src/check/checker.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/learn/summaries.h"
#include "src/relations/key_interner.h"
#include "src/util/arena.h"
#include "src/util/fault.h"
#include "src/util/thread_pool.h"
#include "src/util/trace.h"

namespace concord {

std::string_view CoverageKindName(CoverageKind kind) {
  switch (kind) {
    case CoverageKind::kPresent:
      return "present";
    case CoverageKind::kOrdering:
      return "ordering";
    case CoverageKind::kUnique:
      return "unique";
    case CoverageKind::kSequence:
      return "sequence";
    case CoverageKind::kRelEquality:
      return "rel-equality";
    case CoverageKind::kRelContains:
      return "rel-contains";
    case CoverageKind::kRelAffix:
      return "rel-affix";
  }
  return "present";
}

std::optional<CoverageKind> CoverageKindOf(const Contract& contract) {
  switch (contract.kind) {
    case ContractKind::kPresent:
      return CoverageKind::kPresent;
    case ContractKind::kOrdering:
      return CoverageKind::kOrdering;
    case ContractKind::kUnique:
      return CoverageKind::kUnique;
    case ContractKind::kSequence:
      return CoverageKind::kSequence;
    case ContractKind::kType:
      return std::nullopt;
    case ContractKind::kRelational:
      switch (contract.relation) {
        case RelationKind::kEquals:
          return CoverageKind::kRelEquality;
        case RelationKind::kContains:
          return CoverageKind::kRelContains;
        case RelationKind::kStartsWith:
        case RelationKind::kPrefixOf:
        case RelationKind::kEndsWith:
        case RelationKind::kSuffixOf:
          return CoverageKind::kRelAffix;
      }
      return CoverageKind::kRelAffix;
  }
  return std::nullopt;
}

namespace {

// Per-config coverage bitmask: one byte per line, bit i = CoverageKind i.
// Atomic because the contract chunks of one tile can mark the same config; OR is
// commutative, so marking order never shows in the result. Null when coverage
// is off. Storage comes from the request arena.
using CoverFlags = std::atomic<uint8_t>*;

void MarkCovered(CoverFlags flags, const ConfigIndex& index, uint32_t line,
                 CoverageKind kind) {
  if (line < index.own_line_count) {
    flags[line].fetch_or(static_cast<uint8_t>(1u << static_cast<uint8_t>(kind)),
                         std::memory_order_relaxed);
  }
}

// One config's occurrence list for one contract-pattern slot of the batch
// postings table (DESIGN.md §12): built by a single scan over every config's
// index, so the scan below finds a contract's occurrences without a hash probe.
struct Posting {
  uint32_t ordinal;                   // Config position in the batch.
  const std::vector<uint32_t>* occ;   // That config's occurrence list.
};

constexpr uint32_t kNoKey = KeyInterner::kNone;

// The relational keys of one config. Each (pattern, param, transform) a task's
// contracts read is rendered on first use into per-occurrence ids of one
// KeyInterner, and every later contract on the config reuses them. A task
// Reset()s the table between configs; the storage stays, so a task allocates
// only while its table grows.
class ConfigKeys {
 public:
  void Reset() {
    interner_.Clear();
    runs_.clear();
    ids_.clear();
  }

  // Offset into ids() of the key ids of `occ` (the lines of `pattern`) under
  // (param, t), one per occurrence: kNoKey where the line lacks the parameter
  // or `t` does not apply to its value.
  uint32_t Run(const ConfigIndex& index, PatternId pattern, uint16_t param,
               const Transform& t, const std::vector<uint32_t>& occ) {
    auto [run, inserted] = runs_.TryEmplace(PackRelationalNode(pattern, param, t),
                                            static_cast<uint32_t>(ids_.size()));
    if (inserted) {
      for (uint32_t line : occ) {
        const std::vector<Value>& values = index.lines[line]->values;
        std::optional<std::string> key;
        if (param < values.size()) {
          key = t.Apply(values[param]);
        }
        ids_.push_back(key ? interner_.Intern(*key) : kNoKey);
      }
    }
    return *run;
  }

  const uint32_t* ids() const { return ids_.data(); }
  std::string_view Text(uint32_t id) const { return interner_.Text(id); }
  uint32_t size() const { return interner_.size(); }

 private:
  KeyInterner interner_;
  FlatMap<uint64_t, uint32_t> runs_;  // Packed node -> offset into ids_.
  std::vector<uint32_t> ids_;
};

// Does a contains or affix relation hold between the forall-side line l1 and
// exists-side line l2 of `contract`? Affixes compare the transformed key texts;
// containment evaluates on the actual typed values. (Equality compares key
// ids and never gets here.)
bool RelationHolds(const Contract& contract, std::string_view key1, const Value& value1,
                   std::string_view key2, const Value& value2) {
  switch (contract.relation) {
    case RelationKind::kEquals:
      return key1 == key2;
    case RelationKind::kContains: {
      // value2 (a prefix) must contain value1 (an address or narrower prefix).
      if (value2.type() == ValueType::kPfx4) {
        if (value1.type() == ValueType::kIp4) {
          return value2.AsPfx4().Contains(value1.AsIp4());
        }
        if (value1.type() == ValueType::kPfx4) {
          return value2.AsPfx4().Contains(value1.AsPfx4());
        }
        return false;
      }
      if (value2.type() == ValueType::kPfx6) {
        if (value1.type() == ValueType::kIp6) {
          return value2.AsPfx6().Contains(value1.AsIp6());
        }
        if (value1.type() == ValueType::kPfx6) {
          return value2.AsPfx6().Contains(value1.AsPfx6());
        }
        return false;
      }
      return false;
    }
    case RelationKind::kStartsWith:
      return key1.size() > key2.size() && key1.compare(0, key2.size(), key2) == 0;
    case RelationKind::kPrefixOf:
      return key2.size() > key1.size() && key2.compare(0, key1.size(), key1) == 0;
    case RelationKind::kEndsWith:
      return key1.size() > key2.size() &&
             key1.compare(key1.size() - key2.size(), key2.size(), key2) == 0;
    case RelationKind::kSuffixOf:
      return key2.size() > key1.size() &&
             key2.compare(key2.size() - key1.size(), key1.size(), key1) == 0;
  }
  return false;
}

struct ValueFlatHash {
  uint64_t operator()(const Value& v) const {
    return static_cast<uint64_t>(ValueHash{}(v));
  }
};

}  // namespace

Checker::Checker(const ContractSet* set, const PatternTable* table)
    : set_(set), table_(table) {
  // Compile the check plan: everything here depends only on the contract set,
  // so repeated checks against a resident set skip the rebuild entirely.
  contract_slot_.reserve(set_->contracts.size());
  for (size_t k = 0; k < set_->contracts.size(); ++k) {
    const Contract& c = set_->contracts[k];
    if (c.kind == ContractKind::kType) {
      type_rules_[c.untyped_pattern].push_back(TypeRule{c.param, c.invalid_type, k});
      contract_slot_.push_back(kNoSlot);
      continue;
    }
    auto [slot, inserted] = pattern_slots_.TryEmplace(c.pattern, num_slots_);
    if (inserted) {
      ++num_slots_;
    }
    contract_slot_.push_back(*slot);
    if (c.kind == ContractKind::kUnique) {
      unique_contracts_.push_back(k);
    }
  }
  // Dense type-rule view, filled only after type_rules_ is frozen (rehashing
  // would invalidate the pointers).
  if (!type_rules_.empty()) {
    type_rules_by_id_.resize(table_->size(), nullptr);
    for (PatternId id = 0; id < type_rules_by_id_.size(); ++id) {
      auto it = type_rules_.find(table_->Get(id).untyped);
      if (it != type_rules_.end()) {
        type_rules_by_id_[id] = &it->second;
      }
    }
  }
}

CheckResult Checker::Check(const Dataset& dataset, const CheckOptions& options) const {
  std::vector<ConfigIndex> owned;
  {
    TraceSpan span("check", "index");
    owned = BuildIndexes(dataset, &options.deadline);
  }
  std::vector<const ConfigIndex*> indexes;
  indexes.reserve(owned.size());
  for (const ConfigIndex& index : owned) {
    indexes.push_back(&index);
  }
  return Check(indexes, options);
}

CheckResult Checker::Check(const std::vector<const ConfigIndex*>& indexes,
                           const CheckOptions& options) const {
  if (FaultPoint("check")) {
    throw std::runtime_error(FaultMessage("check"));
  }
  const Deadline& deadline = options.deadline;
  const bool measure_coverage = options.measure_coverage;
  ThrowIfExpired(deadline);
  TraceSpan total_span("check", "total");
  // Per-contract-kind attribution. Contracts are canonically sorted by kind, so
  // timing only at kind boundaries keeps this to a handful of clock reads per
  // config and task; with tracing off there are none at all.
  TraceCollector& tracer = TraceCollector::Global();
  const bool trace_on = tracer.mode() != 0;
  constexpr size_t kNumKinds = 6;
  std::array<std::atomic<uint64_t>, kNumKinds> kind_micros{};

  const size_t n = indexes.size();
  const size_t num_contracts = set_->contracts.size();
  CheckResult result;
  result.configs_checked = n;

  // Subsumption pruning (see CheckOptions::prune_mask): active only when
  // coverage is off — a pruned contract's coverage marks would be observable.
  const std::vector<uint8_t>* prune = options.prune_mask;
  if (prune != nullptr && (measure_coverage || prune->size() != num_contracts)) {
    prune = nullptr;
  }
  auto pruned = [prune](size_t k) { return prune != nullptr && (*prune)[k] != 0; };
  if (prune != nullptr) {
    for (uint8_t p : *prune) {
      result.contracts_pruned += p != 0 ? 1 : 0;
    }
  }
  result.contracts_evaluated = num_contracts - result.contracts_pruned;

  // Request scratch: coverage bitmaps and the postings table live exactly as
  // long as this call, so they come from one bump arena instead of the heap.
  Arena arena;
  std::vector<CoverFlags> cover(n, nullptr);
  for (size_t ci = 0; ci < n; ++ci) {
    result.total_lines += indexes[ci]->own_line_count;
    if (measure_coverage) {
      size_t lines = indexes[ci]->lines.size();
      CoverFlags flags = arena.AllocateArray<std::atomic<uint8_t>>(lines);
      for (size_t li = 0; li < lines; ++li) {
        new (&flags[li]) std::atomic<uint8_t>(0);
      }
      cover[ci] = flags;
    }
  }

  // ---- Batch postings: one scan over every config's index. ----
  // postings[slot] lists, in batch order, each config that contains the slot's
  // pattern. The scan below reads these lists instead of probing N hash maps
  // per contract — the amortization that makes batches fast.
  std::vector<ArenaVector<Posting>> postings;
  postings.reserve(num_slots_);
  for (uint32_t s = 0; s < num_slots_; ++s) {
    postings.emplace_back(ArenaAllocator<Posting>(&arena));
  }
  for (size_t ci = 0; ci < n; ++ci) {
    if ((ci & 63u) == 63u) {
      ThrowIfExpired(deadline);
    }
    for (const auto& [pattern, occurrences] : indexes[ci]->by_pattern) {
      auto it = pattern_slots_.find(pattern);
      if (it != pattern_slots_.end()) {
        postings[it->second].push_back(
            Posting{static_cast<uint32_t>(ci), &occurrences});
      }
    }
  }

  // Deadline expiry inside parallel sections is recorded in a flag and re-raised
  // from the calling thread afterwards: pool tasks must not throw, because the
  // service shares one pool across concurrent requests and a pool-delivered
  // exception could surface in the wrong request's Wait().
  std::atomic<bool> deadline_hit{false};

  // ---- Type contracts: one pass over each config's lines (config-major; the
  // per-line rule lookup is independent of other configs). ----
  std::vector<std::vector<Violation>> type_violations(n);
  auto check_types = [&](size_t ci) {
    if (deadline_hit.load(std::memory_order_relaxed)) {
      return;
    }
    if (deadline.expired()) {
      deadline_hit.store(true, std::memory_order_relaxed);
      return;
    }
    const ConfigIndex& index = *indexes[ci];
    uint64_t start = trace_on ? tracer.NowMicros() : 0;
    for (uint32_t li = 0; li < index.lines.size(); ++li) {
      const ParsedLine& line = *index.lines[li];
      const std::vector<TypeRule>* rules;
      if (line.pattern < type_rules_by_id_.size()) {
        rules = type_rules_by_id_[line.pattern];
      } else {
        auto it = type_rules_.find(table_->Get(line.pattern).untyped);
        rules = it == type_rules_.end() ? nullptr : &it->second;
      }
      if (rules == nullptr) {
        continue;
      }
      const PatternInfo& info = table_->Get(line.pattern);
      for (const TypeRule& rule : *rules) {
        if (pruned(rule.contract_index)) {
          continue;
        }
        if (rule.param < info.param_types.size() &&
            info.param_types[rule.param] == rule.invalid) {
          type_violations[ci].push_back(Violation{
              rule.contract_index, index.config->name, line.line_number,
              "mistyped value: parameter " + PatternTable::ParamName(rule.param) +
                  " has disallowed type [" + std::string(ValueTypeName(rule.invalid)) +
                  "] in pattern " + info.untyped});
        }
      }
    }
    if (trace_on) {
      kind_micros[static_cast<size_t>(ContractKind::kType)].fetch_add(
          tracer.NowMicros() - start, std::memory_order_relaxed);
    }
  };

  // ---- The scan grid: config tiles x contract chunks (DESIGN.md §12). ----
  // A batch of many tiles runs one task per tile over the whole contract set,
  // so every contract on a config reads one shared key table. A batch with too
  // few tiles to keep the workers busy (every serve request is one tile) also
  // cuts the contracts into contiguous, count-cut chunks. A task walks its tile
  // one config at a time, so the config's lines and keys stay cache-resident
  // while each of the task's contracts reads them; per-contract cursors into
  // the ordinal-sorted postings find each config's occurrences.
  const bool parallel = options.parallelism != 1;
  size_t worker_count = 1;
  if (parallel) {
    if (options.pool != nullptr) {
      worker_count = options.pool->num_threads();
    } else if (options.parallelism <= 0) {
      worker_count = std::thread::hardware_concurrency();
    } else {
      worker_count = static_cast<size_t>(options.parallelism);
    }
    if (worker_count == 0) {
      worker_count = 1;
    }
  }
  const size_t tiles = (n + kCheckTileConfigs - 1) / kCheckTileConfigs;
  size_t chunk_len = num_contracts;
  if (parallel && tiles > 0 && num_contracts > 0) {
    const size_t want = std::min(num_contracts, (4 * worker_count + tiles - 1) / tiles);
    chunk_len = (num_contracts + want - 1) / want;
  }
  const size_t chunks = chunk_len == 0 ? 0 : (num_contracts + chunk_len - 1) / chunk_len;
  const size_t num_tasks = tiles * chunks;

  // One task's violations in (config, contract) order, each with its config's
  // ordinal; allocated only when the task finds one.
  struct TaskViolations {
    std::vector<uint32_t> ordinals;
    std::vector<Violation> violations;
  };
  std::vector<TaskViolations> task_violations(num_tasks);
  auto run_task = [&](size_t t) {
    if (deadline_hit.load(std::memory_order_relaxed)) {
      return;
    }
    const size_t tile_begin = (t / chunks) * kCheckTileConfigs;
    const size_t tile_end = std::min(n, tile_begin + kCheckTileConfigs);
    const size_t k_begin = (t % chunks) * chunk_len;
    const size_t k_end = std::min(num_contracts, k_begin + chunk_len);
    TaskViolations& out = task_violations[t];
    auto violate = [&](size_t ci, size_t contract_index, int line_number,
                       std::string message) {
      out.ordinals.push_back(static_cast<uint32_t>(ci));
      out.violations.push_back(Violation{contract_index, indexes[ci]->config->name,
                                         line_number, std::move(message)});
    };
    auto violate_relation = [&](size_t ci, size_t contract_index, const Contract& c,
                                const ParsedLine& l1) {
      violate(ci, contract_index, l1.line_number,
              "no line matching " + table_->Get(c.pattern2).text + " satisfies " +
                  std::string(RelationKindName(c.relation)) + " with value " +
                  l1.values[c.param].ToString());
    };

    // Task scratch; tasks never share it, so nothing here is synchronized.
    Arena task_arena;
    // Per-contract cursor into its ordinal-sorted postings, started at the
    // tile by binary search; each config of the tile consumes its posting.
    ArenaVector<size_t> cursor{ArenaAllocator<size_t>(&task_arena)};
    cursor.resize(k_end - k_begin, 0);
    for (size_t k = k_begin; k < k_end; ++k) {
      if (contract_slot_[k] != kNoSlot) {
        const ArenaVector<Posting>& ps = postings[contract_slot_[k]];
        cursor[k - k_begin] = static_cast<size_t>(
            std::lower_bound(ps.begin(), ps.end(), tile_begin,
                             [](const Posting& p, size_t ordinal) {
                               return p.ordinal < ordinal;
                             }) -
            ps.begin());
      }
    }
    ConfigKeys keys;
    // Equality: per key id, the exists-side lines carrying it and the first.
    struct Tally {
      uint32_t count = 0;
      uint32_t line = 0;
    };
    std::vector<Tally> tally;
    // Contains and affix: the exists-side keys, read as text and typed value.
    struct Witness {
      uint32_t key;
      const Value* value;
      uint32_t line;
    };
    ArenaVector<Witness> witnesses{ArenaAllocator<Witness>(&task_arena)};

    int timed_kind = -1;
    uint64_t mark = trace_on ? tracer.NowMicros() : 0;
    for (size_t ci = tile_begin; ci < tile_end; ++ci) {
      const ConfigIndex& index = *indexes[ci];
      keys.Reset();
      for (size_t k = k_begin; k < k_end; ++k) {
        if (((k - k_begin) & 15u) == 15u && deadline.expired()) {
          deadline_hit.store(true, std::memory_order_relaxed);
          return;
        }
        const Contract& c = set_->contracts[k];
        // Type contracts ran in the line pass above; unique runs globally below.
        if (pruned(k) || c.kind == ContractKind::kType || c.kind == ContractKind::kUnique) {
          continue;
        }
        if (trace_on && static_cast<int>(c.kind) != timed_kind) {
          uint64_t now = tracer.NowMicros();
          if (timed_kind >= 0) {
            kind_micros[static_cast<size_t>(timed_kind)].fetch_add(
                now - mark, std::memory_order_relaxed);
          }
          mark = now;
          timed_kind = static_cast<int>(c.kind);
        }
        // This config's occurrences of the contract's forall pattern, if any.
        const ArenaVector<Posting>& ps = postings[contract_slot_[k]];
        size_t& pi = cursor[k - k_begin];
        const std::vector<uint32_t>* occ = nullptr;
        if (pi < ps.size() && ps[pi].ordinal == ci) {
          occ = ps[pi].occ;
          ++pi;
        }
        if (c.kind == ContractKind::kPresent) {
          if (occ == nullptr) {
            violate(ci, k, 0, "missing line matching pattern " + table_->Get(c.pattern).text);
          } else if (measure_coverage && occ->size() == 1) {
            MarkCovered(cover[ci], index, (*occ)[0], CoverageKind::kPresent);
          }
          continue;
        }
        if (occ == nullptr) {
          continue;  // Vacuous in this config.
        }

        switch (c.kind) {
          case ContractKind::kType:
          case ContractKind::kUnique:
          case ContractKind::kPresent:
            break;

          case ContractKind::kOrdering: {
            const bool stream_constant = table_->Get(c.pattern).is_constant;
            auto pattern_at = [&](uint32_t line) {
              return stream_constant ? index.lines[line]->const_pattern
                                     : index.lines[line]->pattern;
            };
            for (uint32_t i : *occ) {
              if (i >= index.own_line_count) {
                continue;  // Metadata has no meaningful adjacency.
              }
              uint32_t j;
              bool in_range;
              if (c.successor) {
                j = i + 1;
                in_range = j < index.own_line_count;
              } else {
                in_range = i > 0;
                j = in_range ? i - 1 : 0;
              }
              PatternId neighbor = in_range ? pattern_at(j) : kInvalidPattern;
              if (neighbor != c.pattern2) {
                violate(ci, k, index.lines[i]->line_number,
                        std::string("line is not immediately ") +
                            (c.successor ? "followed" : "preceded") +
                            " by a line matching " + table_->Get(c.pattern2).text);
              } else if (measure_coverage) {
                // Strict removal semantics: removing the witness j only violates the
                // contract if the line sliding into its place does NOT also match p2.
                PatternId replacement = kInvalidPattern;
                if (c.successor) {
                  if (j + 1 < index.own_line_count) {
                    replacement = pattern_at(j + 1);
                  }
                } else if (j > 0) {
                  replacement = pattern_at(j - 1);
                }
                if (replacement != c.pattern2) {
                  MarkCovered(cover[ci], index, j, CoverageKind::kOrdering);
                }
              }
            }
            break;
          }

          case ContractKind::kSequence: {
            if (occ->size() < 2) {
              break;
            }
            bool holds = true;
            bool have_step = false;
            BigInt step;
            int direction = 0;
            for (size_t m = 1; m < occ->size(); ++m) {
              const BigInt& prev = index.lines[(*occ)[m - 1]]->values[c.param].AsBigInt();
              const BigInt& cur = index.lines[(*occ)[m]]->values[c.param].AsBigInt();
              int dir = cur.Compare(prev);
              BigInt diff = cur.AbsDiff(prev);
              bool ok = dir != 0 && (!have_step || (diff == step && dir == direction));
              if (!ok) {
                holds = false;
                violate(ci, k, index.lines[(*occ)[m]]->line_number,
                        "breaks the equidistant sequence of parameter " +
                            PatternTable::ParamName(c.param) + " (value " +
                            cur.ToDecimal() + ")");
                break;
              }
              if (!have_step) {
                step = diff;
                direction = dir;
                have_step = true;
              }
            }
            if (holds && measure_coverage && occ->size() >= 4) {
              for (size_t m = 1; m + 1 < occ->size(); ++m) {
                MarkCovered(cover[ci], index, (*occ)[m], CoverageKind::kSequence);
              }
            }
            break;
          }

          case ContractKind::kRelational: {
            // Both sides' keys come from the config's shared key table: each
            // (pattern, param, transform) is rendered once per config, whichever
            // contract asks first.
            auto it2 = index.by_pattern.find(c.pattern2);
            const std::vector<uint32_t>* occ2 =
                it2 == index.by_pattern.end() ? nullptr : &it2->second;
            const uint32_t run1 = keys.Run(index, c.pattern, c.param, c.transform1, *occ);
            const uint32_t run2 =
                occ2 == nullptr ? 0 : keys.Run(index, c.pattern2, c.param2, c.transform2, *occ2);
            const uint32_t* ids1 = keys.ids() + run1;
            const uint32_t* ids2 = keys.ids() + run2;
            const size_t occ2_size = occ2 == nullptr ? 0 : occ2->size();
            const std::optional<CoverageKind> cover_kind = CoverageKindOf(c);

            if (c.relation == RelationKind::kEquals) {
              // Equality holds iff the key ids match, so the witnesses collapse
              // into a dense tally per id: O(occ1 + occ2) per config. The tally
              // keeps the match count and the first (sole) witness line, which is
              // all the violation and sole-witness coverage rules read.
              if (tally.size() < keys.size()) {
                tally.resize(keys.size());
              }
              for (size_t m = 0; m < occ2_size; ++m) {
                if (ids2[m] != kNoKey && tally[ids2[m]].count++ == 0) {
                  tally[ids2[m]].line = (*occ2)[m];
                }
              }
              for (size_t m = 0; m < occ->size(); ++m) {
                if (ids1[m] == kNoKey) {
                  continue;
                }
                const uint32_t i = (*occ)[m];
                const Tally& hit = tally[ids1[m]];
                if (hit.count == 0) {
                  violate_relation(ci, k, c, *index.lines[i]);
                } else if (hit.count == 1 && measure_coverage && hit.line != i && cover_kind) {
                  // An intra-line witness disappears together with the forall
                  // line (vacuous), so it cannot count as coverage.
                  MarkCovered(cover[ci], index, hit.line, *cover_kind);
                }
              }
              for (size_t m = 0; m < occ2_size; ++m) {
                if (ids2[m] != kNoKey) {
                  tally[ids2[m]].count = 0;
                }
              }
              break;
            }

            witnesses.clear();
            for (size_t m = 0; m < occ2_size; ++m) {
              if (ids2[m] != kNoKey) {
                const uint32_t j = (*occ2)[m];
                witnesses.push_back(Witness{ids2[m], &index.lines[j]->values[c.param2], j});
              }
            }
            for (size_t m = 0; m < occ->size(); ++m) {
              if (ids1[m] == kNoKey) {
                continue;
              }
              const uint32_t i = (*occ)[m];
              const ParsedLine& l1 = *index.lines[i];
              const std::string_view key1 = keys.Text(ids1[m]);
              uint32_t sole_witness = 0;
              int found = 0;
              for (const Witness& w : witnesses) {
                // An intra-line witness (another parameter of the same line)
                // counts too.
                if (RelationHolds(c, key1, l1.values[c.param], keys.Text(w.key), *w.value)) {
                  ++found;
                  sole_witness = w.line;
                  if (found > 1 && !measure_coverage) {
                    break;
                  }
                }
              }
              if (found == 0) {
                violate_relation(ci, k, c, l1);
              } else if (found == 1 && measure_coverage && sole_witness != i && cover_kind) {
                // An intra-line witness disappears together with the forall line
                // (vacuous), so it cannot count as coverage.
                MarkCovered(cover[ci], index, sole_witness, *cover_kind);
              }
            }
            break;
          }
        }
      }
    }
    if (trace_on && timed_kind >= 0) {
      kind_micros[static_cast<size_t>(timed_kind)].fetch_add(
          tracer.NowMicros() - mark, std::memory_order_relaxed);
    }
  };

  // Dispatch: the two waves (config-major type pass, the scan grid) share one
  // pool. Callers run Check from outside the pool (serve's check_batch runs its
  // slots one after another), so these waves never nest inside a pool worker.
  const bool parallel_types = parallel && !type_rules_.empty() && n > 1;
  const bool parallel_tasks = parallel && num_tasks > 1;
  ThreadPool* pool = options.pool;
  std::unique_ptr<ThreadPool> owned_pool;
  if ((parallel_types || parallel_tasks) && pool == nullptr) {
    owned_pool = std::make_unique<ThreadPool>(
        options.parallelism < 0 ? 0 : static_cast<size_t>(options.parallelism));
    pool = owned_pool.get();
  }
  if (!type_rules_.empty()) {
    if (parallel_types) {
      pool->ParallelFor(n, check_types);
    } else {
      for (size_t ci = 0; ci < n; ++ci) {
        check_types(ci);
      }
    }
  }
  if (parallel_tasks) {
    pool->ParallelFor(num_tasks, run_task);
  } else {
    for (size_t t = 0; t < num_tasks; ++t) {
      run_task(t);
    }
  }
  if (deadline_hit.load(std::memory_order_relaxed)) {
    throw DeadlineExceeded();
  }

  // Merge in the order a serial config-by-config scan emits: per config, type
  // violations first, then the chunks of its tile ascending (each task's
  // violations are already in config, then contract order). Byte identity
  // across parallelism levels depends on this.
  std::vector<size_t> next(num_tasks, 0);
  for (size_t ci = 0; ci < n; ++ci) {
    for (Violation& v : type_violations[ci]) {
      result.violations.push_back(std::move(v));
    }
    const size_t first_task = (ci / kCheckTileConfigs) * chunks;
    for (size_t t = first_task; t < first_task + chunks; ++t) {
      TaskViolations& found = task_violations[t];
      for (size_t& i = next[t]; i < found.ordinals.size() && found.ordinals[i] == ci; ++i) {
        result.violations.push_back(std::move(found.violations[i]));
      }
    }
  }

  // ---- Unique contracts: global pass (cross-config by definition), walking
  // the same postings lists in batch order. ----
  uint64_t unique_start = trace_on ? tracer.NowMicros() : 0;
  for (size_t contract_index : unique_contracts_) {
    if (pruned(contract_index)) {
      continue;
    }
    const Contract& c = set_->contracts[contract_index];
    FlatMap<Value, std::pair<size_t, int>, ValueFlatHash> first;  // config, line no.
    for (const Posting& p : postings[contract_slot_[contract_index]]) {
      const size_t ci = p.ordinal;
      const ConfigIndex& index = *indexes[ci];
      for (uint32_t i : *p.occ) {
        if (i >= index.own_line_count) {
          continue;  // Metadata is shared text; skip.
        }
        const ParsedLine& line = *index.lines[i];
        if (c.param >= line.values.size()) {
          continue;
        }
        auto [pos, inserted] =
            first.TryEmplace(line.values[c.param], std::make_pair(ci, line.line_number));
        if (!inserted && pos->first != ci) {
          result.violations.push_back(Violation{
              contract_index, index.config->name, line.line_number,
              "value " + line.values[c.param].ToString() + " reuses a unique parameter (first seen in " +
                  indexes[pos->first]->config->name + ":" +
                  std::to_string(pos->second) + ")"});
        } else if (!inserted) {
          result.violations.push_back(
              Violation{contract_index, index.config->name, line.line_number,
                        "value " + line.values[c.param].ToString() +
                            " duplicated within the configuration (line " +
                            std::to_string(pos->second) + ")"});
        }
        if (measure_coverage) {
          MarkCovered(cover[ci], index, i, CoverageKind::kUnique);
        }
      }
    }
  }
  if (trace_on) {
    kind_micros[static_cast<size_t>(ContractKind::kUnique)].fetch_add(
        tracer.NowMicros() - unique_start, std::memory_order_relaxed);
    for (size_t kind = 0; kind < kNumKinds; ++kind) {
      uint64_t micros = kind_micros[kind].load(std::memory_order_relaxed);
      if (micros > 0) {
        tracer.AddStageTime("check",
                            ContractKindName(static_cast<ContractKind>(kind)),
                            micros);
      }
    }
  }

  // ---- Fold coverage. ----
  if (measure_coverage) {
    result.per_config.reserve(n);
    for (size_t ci = 0; ci < n; ++ci) {
      const ConfigIndex& index = *indexes[ci];
      ConfigCoverage per;
      per.config = index.config->name;
      per.line_numbers.reserve(index.own_line_count);
      per.kind_bits.reserve(index.own_line_count);
      for (uint32_t li = 0; li < index.own_line_count; ++li) {
        uint8_t bits = cover[ci][li].load(std::memory_order_relaxed);
        per.line_numbers.push_back(index.lines[li]->line_number);
        per.kind_bits.push_back(bits);
        if (bits != 0) {
          ++result.covered_lines;
        }
        for (size_t kind = 0; kind < kNumCoverageKinds; ++kind) {
          if (bits & (1u << kind)) {
            ++result.covered_by_kind[kind];
          }
        }
      }
      result.per_config.push_back(std::move(per));
    }
  }
  return result;
}

}  // namespace concord
