#include "src/learn/learner.h"

#include <algorithm>
#include <atomic>
#include <tuple>

#include "src/learn/artifact_store.h"
#include "src/learn/index.h"
#include "src/learn/relational.h"
#include "src/learn/summaries.h"
#include "src/minimize/minimize.h"
#include "src/util/thread_pool.h"
#include "src/util/trace.h"

namespace concord {

namespace {

// The dataset half of learning, shared by both drivers: aggregate the per-config
// summaries (in the caller-supplied order; their relational halves interned into
// `relational`) and apply the thresholds.
std::vector<Contract> AggregateAll(const std::vector<const ConfigSummary*>& summaries,
                                   const RelationalTable& relational,
                                   const std::vector<uint32_t>& config_counts,
                                   const TypeCountsMap* metadata_types,
                                   const LearnOptions& options) {
  std::vector<Contract> all;
  auto append = [&all](std::vector<Contract> contracts) {
    for (Contract& c : contracts) {
      all.push_back(std::move(c));
    }
  };
  if (options.learn_present) {
    append(AggregatePresent(config_counts, summaries.size(), options));
  }
  if (options.learn_ordering) {
    append(AggregateOrdering(summaries, config_counts, options));
  }
  if (options.learn_type) {
    append(AggregateType(summaries, metadata_types, options));
  }
  if (options.learn_sequence) {
    append(AggregateSequence(summaries, options));
  }
  if (options.learn_unique) {
    append(AggregateUnique(summaries, config_counts, options));
  }
  if (options.learn_relational) {
    append(AggregateRelational(summaries, relational, config_counts, options));
  }
  return all;
}

// Canonical (kind, identity-key) order. Identity keys are pattern *text*, so the
// order is independent of how PatternIds happened to be assigned.
void SortByKindAndKey(std::vector<Contract>* contracts, const PatternTable& patterns) {
  std::vector<std::tuple<ContractKind, std::string, size_t>> order;
  order.reserve(contracts->size());
  for (size_t i = 0; i < contracts->size(); ++i) {
    const Contract& c = (*contracts)[i];
    order.emplace_back(c.kind, c.Key(patterns), i);
  }
  std::sort(order.begin(), order.end());
  std::vector<Contract> sorted;
  sorted.reserve(contracts->size());
  for (auto& [kind, key, i] : order) {
    sorted.push_back(std::move((*contracts)[i]));
  }
  *contracts = std::move(sorted);
}

LearnResult Finalize(std::vector<Contract> all, const PatternTable& patterns,
                     const LearnOptions& options) {
  // The canonical sorts bracket minimization, so the whole tail bills to the
  // Minimize stage.
  TraceSpan span("learn", "minimize");
  // Aggregation emits contracts in hash order of id-packed keys, which differs
  // between a fresh dataset table and a store's append-only table even for the
  // same corpus. Minimization's node numbering and representative picks follow
  // input order, so canonicalize *before* minimizing — this is what keeps an
  // incremental relearn bit-identical to a from-scratch one.
  SortByKindAndKey(&all, patterns);
  LearnResult result;
  if (options.minimize) {
    MinimizeResult minimized = MinimizeContracts(std::move(all));
    result.set.contracts = std::move(minimized.contracts);
    result.relational_before_minimize = minimized.relational_before;
    result.relational_after_minimize = minimized.relational_after;
  } else {
    result.set.contracts = std::move(all);
  }
  result.set.constants_mode = options.constants;
  // Re-sort: minimization regroups and can synthesize cycle-closing contracts.
  SortByKindAndKey(&result.set.contracts, patterns);
  return result;
}

}  // namespace

LearnResult Learner::Learn(const Dataset& dataset) const {
  // The stage spans below tile this one, so "total" is the wall-clock reference
  // a --profile breakdown's per-stage rows are validated against.
  TraceSpan total_span("learn", "total");
  ThrowIfExpired(options_.deadline);
  std::vector<ConfigIndex> indexes;
  std::vector<uint32_t> config_counts;
  {
    TraceSpan span("learn", "index");
    indexes = BuildIndexes(dataset, &options_.deadline);
    config_counts = CountConfigsPerPattern(dataset, indexes);
  }
  const uint8_t categories = SummaryCategoriesFor(options_);

  // Configurations are independent; shard the summarization (the dominant cost)
  // across the pool. The batch path knows the whole dataset up front, so it can
  // hand the relational summarizer the global-support pre-filter.
  //
  // Deadline expiry inside tasks is flagged and re-raised from the calling
  // thread after the parallel section (pool tasks must not throw).
  std::vector<ConfigSummary> summaries;
  {
    TraceSpan span("learn", "mine");
    summaries.resize(indexes.size());
    std::atomic<bool> deadline_hit{false};
    auto summarize = [&](size_t ci) {
      if (deadline_hit.load(std::memory_order_relaxed)) {
        return;
      }
      if (!SummarizeConfig(dataset.patterns, indexes[ci], categories,
                           options_.deadline, &summaries[ci], &config_counts,
                           options_.support)) {
        deadline_hit.store(true, std::memory_order_relaxed);
      }
    };
    if (options_.parallelism != 1 && indexes.size() > 1) {
      ThreadPool pool(static_cast<size_t>(std::max(0, options_.parallelism)));
      pool.ParallelFor(indexes.size(), summarize);
    } else {
      for (size_t ci = 0; ci < indexes.size(); ++ci) {
        summarize(ci);
      }
    }
    if (deadline_hit.load(std::memory_order_relaxed)) {
      throw DeadlineExceeded();
    }
  }

  std::vector<Contract> all;
  {
    TraceSpan span("learn", "aggregate");
    std::vector<const ConfigSummary*> views;
    views.reserve(summaries.size());
    // Interning runs serially, in config order, after the mine wave.
    RelationalTable relational;
    size_t max_keys = 0;
    size_t max_texts = 0;
    for (const ConfigSummary& summary : summaries) {
      max_keys = std::max(max_keys, summary.relational.candidates.size());
      max_texts = std::max(max_texts, summary.relational.num_witness_texts());
    }
    relational.Reserve(max_keys, max_texts);
    for (ConfigSummary& summary : summaries) {
      relational.Intern(&summary.relational);
      views.push_back(&summary);
    }
    TypeCountsMap metadata_types;
    if (options_.learn_type) {
      metadata_types = SummarizeMetadataTypes(dataset.patterns, dataset.metadata);
    }
    ThrowIfExpired(options_.deadline);
    all = AggregateAll(views, relational, config_counts, &metadata_types, options_);
  }
  return Finalize(std::move(all), dataset.patterns, options_);
}

LearnResult Learner::Learn(ArtifactStore& store) const {
  TraceSpan total_span("learn", "total");
  ThrowIfExpired(options_.deadline);
  store.Refresh(options_);  // Bills its work to the Index/Mine stages itself.
  std::vector<Contract> all;
  {
    TraceSpan span("learn", "aggregate");
    std::vector<const ConfigSummary*> views = store.summaries();
    std::vector<uint32_t> config_counts =
        CountConfigsFromSummaries(store.patterns().size(), views);
    ThrowIfExpired(options_.deadline);
    all = AggregateAll(views, store.relational_table(), config_counts,
                       &store.metadata_types(), options_);
  }
  return Finalize(std::move(all), store.patterns(), options_);
}

}  // namespace concord
