// Per-config summaries and dataset aggregates for every contract category
// (src/learn/summaries.h); relational mining lives in src/learn/relational.cc.
#include "src/learn/summaries.h"

#include <algorithm>
#include <array>
#include <functional>
#include <map>

#include "src/learn/relational.h"
#include "src/util/cancellation.h"
#include "src/util/flat_map.h"

namespace concord {

uint8_t SummaryCategoriesFor(const LearnOptions& options) {
  uint8_t mask = 0;
  if (options.learn_ordering) {
    mask |= kSummaryOrdering;
  }
  if (options.learn_type) {
    mask |= kSummaryType;
  }
  if (options.learn_sequence) {
    mask |= kSummarySequence;
  }
  if (options.learn_unique) {
    mask |= kSummaryUnique;
  }
  if (options.learn_relational) {
    mask |= kSummaryRelational;
  }
  return mask;
}

namespace {

// Pattern id of a line in the same stream (constant vs normal) as `stream_constant`.
PatternId StreamPattern(const ParsedLine& line, bool stream_constant) {
  return stream_constant ? line.const_pattern : line.pattern;
}

void SummarizeOrdering(const PatternTable& patterns, const ConfigIndex& index,
                       ConfigSummary* out) {
  for (const auto& [p, occurrences] : index.by_pattern) {
    bool stream_constant = patterns.Get(p).is_constant;
    // Candidate common follower / predecessor across every occurrence of p within
    // the config's own region.
    PatternId follower = kInvalidPattern;
    PatternId predecessor = kInvalidPattern;
    bool follower_ok = true;
    bool predecessor_ok = true;
    bool any = false;
    for (uint32_t i : occurrences) {
      if (i >= index.own_line_count) {
        continue;  // Metadata region: no meaningful adjacency.
      }
      any = true;
      PatternId next = (i + 1 < index.own_line_count)
                           ? StreamPattern(*index.lines[i + 1], stream_constant)
                           : kInvalidPattern;
      PatternId prev =
          (i > 0) ? StreamPattern(*index.lines[i - 1], stream_constant) : kInvalidPattern;
      if (follower == kInvalidPattern && follower_ok) {
        follower = next;
      }
      if (next != follower || next == kInvalidPattern) {
        follower_ok = false;
      }
      if (predecessor == kInvalidPattern && predecessor_ok) {
        predecessor = prev;
      }
      if (prev != predecessor || prev == kInvalidPattern) {
        predecessor_ok = false;
      }
    }
    if (!any) {
      continue;
    }
    if (follower_ok && follower != p) {
      out->ordering.push_back(OrderingObservation{p, follower, /*successor=*/true});
    }
    if (predecessor_ok && predecessor != p) {
      out->ordering.push_back(OrderingObservation{p, predecessor, /*successor=*/false});
    }
  }
}

void AccountTypeLine(const PatternTable& patterns, const ParsedLine& line,
                     TypeCountsMap* counts) {
  const PatternInfo& info = patterns.Get(line.pattern);
  if (info.is_constant || info.param_types.empty()) {
    return;
  }
  TypeUseCounts& g = (*counts)[info.untyped];
  if (g.per_param.size() < info.param_types.size()) {
    g.per_param.resize(info.param_types.size());
  }
  ++g.uses;
  for (size_t i = 0; i < info.param_types.size(); ++i) {
    ++g.per_param[i][static_cast<size_t>(info.param_types[i])];
  }
}

bool SummarizeType(const PatternTable& patterns, const ConfigIndex& index,
                   const Deadline& deadline, ConfigSummary* out) {
  // Uses are counted over the config's own lines; the shared metadata lines are
  // accounted once per dataset by SummarizeMetadataTypes.
  for (uint32_t li = 0; li < index.own_line_count; ++li) {
    if ((li & 511u) == 511u && deadline.expired()) {
      return false;
    }
    AccountTypeLine(patterns, *index.lines[li], &out->type_counts);
  }
  // Which untyped patterns this config uses at all (metadata included: a pattern
  // present only via metadata still contributes config support, matching the
  // by_pattern-driven batch accounting).
  for (const auto& [p, lines] : index.by_pattern) {
    const PatternInfo& info = patterns.Get(p);
    if (!info.is_constant && !info.param_types.empty()) {
      out->type_patterns_seen.push_back(info.untyped);
    }
  }
  std::sort(out->type_patterns_seen.begin(), out->type_patterns_seen.end());
  out->type_patterns_seen.erase(
      std::unique(out->type_patterns_seen.begin(), out->type_patterns_seen.end()),
      out->type_patterns_seen.end());
  return true;
}

void SummarizeSequence(const PatternTable& patterns, const ConfigIndex& index,
                       ConfigSummary* out) {
  for (const auto& [p, occurrences] : index.by_pattern) {
    const PatternInfo& info = patterns.Get(p);
    if (info.is_constant || occurrences.size() < 2) {
      continue;
    }
    for (uint16_t param = 0; param < info.param_types.size(); ++param) {
      if (info.param_types[param] != ValueType::kNum) {
        continue;
      }
      bool holds = true;
      bool have_step = false;
      BigInt step;
      int direction = 0;
      for (size_t k = 1; k < occurrences.size() && holds; ++k) {
        const BigInt& prev = index.lines[occurrences[k - 1]]->values[param].AsBigInt();
        const BigInt& cur = index.lines[occurrences[k]]->values[param].AsBigInt();
        int dir = cur.Compare(prev);
        BigInt diff = cur.AbsDiff(prev);
        if (dir == 0) {
          holds = false;  // Repeated values are "constant", not a sequence.
          break;
        }
        if (!have_step) {
          step = diff;
          direction = dir;
          have_step = true;
        } else if (!(diff == step) || dir != direction) {
          holds = false;
        }
      }
      out->sequence.push_back(
          SequenceObservation{p, param, holds, occurrences.size() >= 3});
    }
  }
}

bool SummarizeUnique(const PatternTable& patterns, const ConfigIndex& index,
                     const Deadline& deadline, ConfigSummary* out) {
  // Uniqueness is measured across configs over their own lines; metadata is shared
  // text and would trivially repeat per config.
  std::map<std::pair<PatternId, uint16_t>, std::vector<const Value*>> values;
  for (uint32_t li = 0; li < index.own_line_count; ++li) {
    if ((li & 511u) == 511u && deadline.expired()) {
      return false;
    }
    const ParsedLine& line = *index.lines[li];
    const PatternInfo& info = patterns.Get(line.pattern);
    for (uint16_t param = 0; param < info.param_types.size(); ++param) {
      if (info.param_types[param] == ValueType::kBool) {
        continue;  // Two possible values can never be globally unique.
      }
      values[{line.pattern, param}].push_back(&line.values[param]);
    }
  }
  out->unique.reserve(values.size());
  for (auto& [key, vals] : values) {
    out->unique.push_back(UniqueObservation{key.first, key.second, std::move(vals)});
  }
  return true;
}

}  // namespace

bool SummarizeConfig(const PatternTable& patterns, const ConfigIndex& index,
                     uint8_t categories, const Deadline& deadline, ConfigSummary* out,
                     const std::vector<uint32_t>* relational_support_filter,
                     int relational_support) {
  if (deadline.expired()) {
    return false;
  }
  out->categories = categories;
  // Presence is always recorded: every aggregate needs per-pattern config counts.
  out->patterns_present.reserve(index.by_pattern.size());
  for (const auto& [p, lines] : index.by_pattern) {
    out->patterns_present.push_back(p);
  }
  std::sort(out->patterns_present.begin(), out->patterns_present.end());

  if ((categories & kSummaryOrdering) != 0) {
    SummarizeOrdering(patterns, index, out);
  }
  if ((categories & kSummaryType) != 0 && !SummarizeType(patterns, index, deadline, out)) {
    return false;
  }
  if ((categories & kSummarySequence) != 0) {
    if (deadline.expired()) {
      return false;
    }
    SummarizeSequence(patterns, index, out);
  }
  if ((categories & kSummaryUnique) != 0 &&
      !SummarizeUnique(patterns, index, deadline, out)) {
    return false;
  }
  if ((categories & kSummaryRelational) != 0 &&
      !SummarizeRelationalConfig(patterns, index, relational_support_filter,
                                 relational_support, deadline, &out->relational)) {
    return false;
  }
  return !deadline.expired();
}

TypeCountsMap SummarizeMetadataTypes(const PatternTable& patterns,
                                     const std::vector<ParsedLine>& metadata) {
  TypeCountsMap counts;
  for (const ParsedLine& line : metadata) {
    AccountTypeLine(patterns, line, &counts);
  }
  return counts;
}

std::vector<uint32_t> CountConfigsFromSummaries(
    size_t num_patterns, const std::vector<const ConfigSummary*>& summaries) {
  std::vector<uint32_t> counts(num_patterns, 0);
  for (const ConfigSummary* summary : summaries) {
    for (PatternId p : summary->patterns_present) {
      ++counts[p];
    }
  }
  return counts;
}

std::vector<Contract> AggregatePresent(const std::vector<uint32_t>& config_counts,
                                       size_t num_configs, const LearnOptions& options) {
  std::vector<Contract> out;
  if (num_configs == 0) {
    return out;
  }
  const double total = static_cast<double>(num_configs);
  for (PatternId id = 0; id < config_counts.size(); ++id) {
    uint32_t count = config_counts[id];
    if (count == 0) {
      continue;
    }
    double fraction = static_cast<double>(count) / total;
    if (static_cast<int>(count) >= options.support && fraction >= options.confidence) {
      Contract c;
      c.kind = ContractKind::kPresent;
      c.pattern = id;
      c.support = static_cast<int>(count);
      c.confidence = fraction;
      out.push_back(std::move(c));
    }
  }
  return out;
}

namespace {

// Key for an ordering candidate.
struct OrderKey {
  PatternId p1 = kInvalidPattern;
  PatternId p2 = kInvalidPattern;
  bool successor = true;

  bool operator==(const OrderKey& o) const {
    return p1 == o.p1 && p2 == o.p2 && successor == o.successor;
  }
};

struct OrderKeyHash {
  uint64_t operator()(const OrderKey& k) const {
    return ((static_cast<uint64_t>(k.p1) << 32) | k.p2) * 0x9e3779b97f4a7c15ULL +
           (k.successor ? 1 : 0);
  }
};

// A value hashed and compared by content, without copying it.
struct ValueRef {
  const Value* value = nullptr;

  bool operator==(const ValueRef& o) const { return *value == *o.value; }
};

struct ValueRefHash {
  uint64_t operator()(const ValueRef& r) const { return r.value->Hash(); }
};

}  // namespace

std::vector<Contract> AggregateOrdering(const std::vector<const ConfigSummary*>& summaries,
                                        const std::vector<uint32_t>& config_counts,
                                        const LearnOptions& options) {
  // Emission order is free: the learner sorts contracts canonically.
  FlatMap<OrderKey, uint32_t, OrderKeyHash> holds;
  for (const ConfigSummary* summary : summaries) {
    for (const OrderingObservation& obs : summary->ordering) {
      ++holds[OrderKey{obs.p1, obs.p2, obs.successor}];
    }
  }

  std::vector<Contract> out;
  for (const auto& [key, hold_count] : holds) {
    uint32_t support = config_counts[key.p1];
    uint32_t partner_support = config_counts[key.p2];
    if (static_cast<int>(support) < options.support ||
        static_cast<int>(partner_support) < options.support) {
      continue;
    }
    double conf = static_cast<double>(hold_count) / static_cast<double>(support);
    if (conf < options.confidence) {
      continue;
    }
    Contract c;
    c.kind = ContractKind::kOrdering;
    c.pattern = key.p1;
    c.pattern2 = key.p2;
    c.successor = key.successor;
    c.support = static_cast<int>(support);
    c.confidence = conf;
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<Contract> AggregateType(const std::vector<const ConfigSummary*>& summaries,
                                    const TypeCountsMap* metadata_types,
                                    const LearnOptions& options) {
  // Per untyped pattern: per parameter, use counts per value type; plus the number
  // of configurations in which the untyped pattern occurs. Groups are keyed by
  // views of the summaries' texts, which outlive this call; emission order is
  // free (the learner sorts).
  struct Group {
    std::string_view untyped;
    std::vector<std::array<uint32_t, kNumValueTypes>> per_param;
    uint32_t total_uses = 0;
    uint32_t config_count = 0;
  };
  struct ViewHash {
    uint64_t operator()(std::string_view text) const {
      return std::hash<std::string_view>()(text);  // Word-at-a-time; these texts are long.
    }
  };
  FlatMap<std::string_view, uint32_t, ViewHash> group_of;
  std::vector<Group> groups;
  auto group_for = [&](std::string_view untyped) -> Group& {
    auto [g, inserted] = group_of.TryEmplace(untyped, static_cast<uint32_t>(groups.size()));
    if (inserted) {
      groups.emplace_back();
      groups.back().untyped = untyped;
    }
    return groups[*g];
  };

  auto merge_counts = [&](const TypeCountsMap& counts) {
    for (const auto& [untyped, uses] : counts) {
      Group& g = group_for(untyped);
      if (g.per_param.size() < uses.per_param.size()) {
        g.per_param.resize(uses.per_param.size());
      }
      g.total_uses += uses.uses;
      for (size_t i = 0; i < uses.per_param.size(); ++i) {
        for (size_t type = 0; type < kNumValueTypes; ++type) {
          g.per_param[i][type] += uses.per_param[i][type];
        }
      }
    }
  };

  for (const ConfigSummary* summary : summaries) {
    merge_counts(summary->type_counts);
    for (const std::string& untyped : summary->type_patterns_seen) {
      ++group_for(untyped).config_count;
    }
  }
  if (metadata_types != nullptr) {
    merge_counts(*metadata_types);
  }

  std::vector<Contract> out;
  for (const Group& group : groups) {
    if (static_cast<int>(group.config_count) < options.support ||
        static_cast<int>(group.total_uses) < options.support) {
      continue;
    }
    for (size_t param = 0; param < group.per_param.size(); ++param) {
      const auto& type_counts = group.per_param[param];
      if (std::count_if(type_counts.begin(), type_counts.end(),
                        [](uint32_t uses) { return uses > 0; }) < 2) {
        continue;  // A single observed type is the norm, not a violation.
      }
      for (size_t type = 0; type < kNumValueTypes; ++type) {
        const uint32_t uses = type_counts[type];
        if (uses == 0) {
          continue;
        }
        double fraction = static_cast<double>(uses) / static_cast<double>(group.total_uses);
        if (fraction < 1.0 - options.confidence) {
          Contract c;
          c.kind = ContractKind::kType;
          c.untyped_pattern = std::string(group.untyped);
          c.param = static_cast<uint16_t>(param);
          c.invalid_type = static_cast<ValueType>(type);
          c.support = static_cast<int>(group.config_count);
          c.confidence = 1.0 - fraction;
          out.push_back(std::move(c));
        }
      }
    }
  }
  return out;
}

std::vector<Contract> AggregateSequence(const std::vector<const ConfigSummary*>& summaries,
                                        const LearnOptions& options) {
  struct Stats {
    uint32_t eligible = 0;  // Configs with >= 2 instances.
    uint32_t holds = 0;     // ... that are equidistant and strictly monotonic.
    uint32_t strong = 0;    // Configs with >= 3 instances (real evidence).
  };
  std::map<std::pair<PatternId, uint16_t>, Stats> stats;
  for (const ConfigSummary* summary : summaries) {
    for (const SequenceObservation& obs : summary->sequence) {
      Stats& s = stats[{obs.pattern, obs.param}];
      ++s.eligible;
      if (obs.holds) {
        ++s.holds;
      }
      if (obs.strong) {
        ++s.strong;
      }
    }
  }

  std::vector<Contract> out;
  for (const auto& [key, s] : stats) {
    if (static_cast<int>(s.strong) < options.support) {
      continue;
    }
    double conf = static_cast<double>(s.holds) / static_cast<double>(s.eligible);
    if (conf < options.confidence) {
      continue;
    }
    Contract c;
    c.kind = ContractKind::kSequence;
    c.pattern = key.first;
    c.param = key.second;
    c.support = static_cast<int>(s.eligible);
    c.confidence = conf;
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<Contract> AggregateUnique(const std::vector<const ConfigSummary*>& summaries,
                                      const std::vector<uint32_t>& config_counts,
                                      const LearnOptions& options) {
  // Totals per (pattern, param) first: only a group that meets support needs
  // its distinct values counted. Emission order is free (the learner sorts).
  struct Group {
    PatternId pattern = kInvalidPattern;
    uint16_t param = 0;
    uint32_t total = 0;
  };
  FlatMap<uint64_t, uint32_t> group_of;
  std::vector<Group> groups;
  for (const ConfigSummary* summary : summaries) {
    for (const UniqueObservation& obs : summary->unique) {
      auto [g, inserted] = group_of.TryEmplace(
          (static_cast<uint64_t>(obs.pattern) << 16) | obs.param,
          static_cast<uint32_t>(groups.size()));
      if (inserted) {
        groups.push_back(Group{obs.pattern, obs.param, 0});
      }
      groups[*g].total += static_cast<uint32_t>(obs.values.size());
    }
  }
  auto supported = [&](const Group& g) {
    return static_cast<int>(config_counts[g.pattern]) >= options.support &&
           static_cast<int>(g.total) >= options.support;
  };

  std::vector<FlatMap<ValueRef, bool, ValueRefHash>> distinct(groups.size());
  for (const ConfigSummary* summary : summaries) {
    for (const UniqueObservation& obs : summary->unique) {
      const uint32_t g = group_of.at((static_cast<uint64_t>(obs.pattern) << 16) | obs.param);
      if (!supported(groups[g])) {
        continue;
      }
      distinct[g].reserve(groups[g].total);
      for (const Value* value : obs.values) {
        distinct[g].TryEmplace(ValueRef{value});
      }
    }
  }

  std::vector<Contract> out;
  for (uint32_t g = 0; g < groups.size(); ++g) {
    if (!supported(groups[g])) {
      continue;
    }
    double conf =
        static_cast<double>(distinct[g].size()) / static_cast<double>(groups[g].total);
    if (conf < options.confidence) {
      continue;
    }
    Contract c;
    c.kind = ContractKind::kUnique;
    c.pattern = groups[g].pattern;
    c.param = groups[g].param;
    c.support = static_cast<int>(config_counts[groups[g].pattern]);
    c.confidence = conf;
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace concord
