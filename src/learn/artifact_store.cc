#include "src/learn/artifact_store.h"

#include <algorithm>
#include <atomic>

#include "src/util/cancellation.h"
#include "src/util/hash.h"
#include "src/util/thread_pool.h"
#include "src/util/trace.h"

namespace concord {

ArtifactStore::ArtifactStore(const Lexer* lexer, ParseOptions options)
    : lexer_(lexer),
      parse_options_(options),
      parser_(lexer, &table_, options),
      metadata_key_(ContentKey("@meta", "")) {}

bool ArtifactStore::Upsert(const std::string& name, const std::string& text) {
  uint64_t key = ContentKey(name, text);
  auto it = entries_.find(name);
  if (it != entries_.end() && it->second->content_key == key) {
    ++counters_.parse_hits;
    return false;
  }
  ++counters_.parse_misses;
  // A fresh Entry (not an in-place reset) so the old ParsedConfig, and every
  // index/summary pointer into it, dies atomically with the old entry.
  auto entry = std::make_unique<Entry>();
  entry->content_key = key;
  entry->text = text;
  {
    TraceSpan span("learn", "parse");
    entry->config = parser_.Parse(name, text);
  }
  if (it == entries_.end()) {
    entries_.emplace(name, std::move(entry));
  } else {
    it->second = std::move(entry);
  }
  return true;
}

bool ArtifactStore::Remove(const std::string& name) { return entries_.erase(name) > 0; }

const std::string* ArtifactStore::TextOf(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second->text;
}

void ArtifactStore::SetMetadata(const std::vector<std::string>& texts) {
  // Chained content key over the document sequence; each document is parsed
  // separately (format detection is per document, so concatenation would not be
  // equivalent).
  uint64_t key = ContentKey("@meta", "");
  for (const std::string& text : texts) {
    key = Fnv1a64(std::string_view("\0", 1), key);
    key = Fnv1a64(text, key);
  }
  if (key == metadata_key_) {
    return;
  }
  metadata_key_ = key;
  metadata_texts_ = texts;
  metadata_.clear();
  for (const std::string& text : texts) {
    for (ParsedLine& line : parser_.ParseMetadata(text)) {
      metadata_.push_back(std::move(line));
    }
  }
  metadata_types_ = SummarizeMetadataTypes(table_, metadata_);
  // Metadata is appended to every config's index, so every Index (and the
  // summaries computed from them) is stale; the Parse artifacts are not.
  for (auto& [name, entry] : entries_) {
    entry->index_valid = false;
    entry->summary_valid = false;
  }
}

void ArtifactStore::Refresh(const LearnOptions& options) {
  ThrowIfExpired(options.deadline);
  const uint8_t needed = SummaryCategoriesFor(options);

  std::vector<Entry*> stale;
  for (auto& [name, entry] : entries_) {
    // An invalid index always implies an invalid summary (the summary reads the
    // index), so the mine stage never hits when the index stage missed.
    bool index_ok = entry->index_valid;
    bool summary_ok = entry->summary_valid && (needed & ~entry->summary_categories) == 0;
    if (index_ok) {
      ++counters_.index_hits;
    } else {
      ++counters_.index_misses;
    }
    if (summary_ok) {
      ++counters_.mine_hits;
    } else {
      ++counters_.mine_misses;
    }
    if (!index_ok || !summary_ok) {
      stale.push_back(entry.get());
    }
  }
  if (stale.empty()) {
    return;
  }

  // Stale configs are independent; shard them. Deadline expiry is flagged, not
  // thrown, inside pool tasks and re-raised afterwards. Artifacts finished
  // before expiry stay cached, so a retry only faces the remainder.
  std::atomic<bool> deadline_hit{false};
  // Stage attribution happens per task: index/mine work interleaves inside each
  // worker, so the totals are accumulated out-of-band and folded into the
  // collector once the wave finishes (clock reads only when tracing is on).
  TraceCollector& tracer = TraceCollector::Global();
  const bool trace_on = tracer.mode() != 0;
  std::atomic<uint64_t> index_micros{0};
  std::atomic<uint64_t> mine_micros{0};
  std::vector<uint8_t> mined(stale.size(), 0);  // Written by task wi only.
  auto refresh_one = [&](size_t wi) {
    if (deadline_hit.load(std::memory_order_relaxed)) {
      return;
    }
    Entry* entry = stale[wi];
    if (!entry->index_valid) {
      uint64_t start = trace_on ? tracer.NowMicros() : 0;
      entry->index = BuildConfigIndex(&entry->config, metadata_);
      entry->index_valid = true;
      if (trace_on) {
        index_micros.fetch_add(tracer.NowMicros() - start,
                               std::memory_order_relaxed);
      }
    }
    if (!entry->summary_valid || (needed & ~entry->summary_categories) != 0) {
      uint64_t start = trace_on ? tracer.NowMicros() : 0;
      ConfigSummary summary;
      if (!SummarizeConfig(table_, entry->index, needed, options.deadline, &summary)) {
        deadline_hit.store(true, std::memory_order_relaxed);
        return;
      }
      entry->summary = std::move(summary);
      entry->summary_valid = true;
      entry->summary_categories = needed;
      mined[wi] = 1;
      if (trace_on) {
        mine_micros.fetch_add(tracer.NowMicros() - start,
                              std::memory_order_relaxed);
      }
    }
  };

  size_t workers = 1;
  if (options.parallelism != 1 && stale.size() > 1) {
    workers = stale.size();  // ParallelFor chunks; the pool caps real threads.
  }
  if (workers <= 1) {
    for (size_t wi = 0; wi < stale.size(); ++wi) {
      refresh_one(wi);
    }
  } else {
    ThreadPool pool(static_cast<size_t>(std::max(0, options.parallelism)));
    pool.ParallelFor(stale.size(), refresh_one);
  }
  InternRelational(stale, mined);
  if (trace_on) {
    tracer.AddStageTime("learn", "index",
                        index_micros.load(std::memory_order_relaxed),
                        stale.size());
    tracer.AddStageTime("learn", "mine",
                        mine_micros.load(std::memory_order_relaxed),
                        stale.size());
  }
  if (deadline_hit.load(std::memory_order_relaxed)) {
    throw DeadlineExceeded();
  }
}

void ArtifactStore::InternRelational(const std::vector<Entry*>& stale,
                                     const std::vector<uint8_t>& mined) {
  // Serial, in name order, after the wave. A refresh that mined every resident
  // summary interns into a fresh table, which is a rebuild.
  const bool all_mined = stale.size() == entries_.size() &&
                         std::all_of(mined.begin(), mined.end(), [](uint8_t m) { return m; });
  if (!all_mined) {
    for (size_t wi = 0; wi < stale.size(); ++wi) {
      if (mined[wi] != 0) {
        relational_.Intern(&stale[wi]->summary.relational);
      }
    }
    if (relational_.size() <= 2 * relational_rebuilt_size_) {
      return;
    }
  }
  relational_ = RelationalTable();
  for (auto& [name, entry] : entries_) {
    if (entry->summary_valid) {
      relational_.Intern(&entry->summary.relational);
    }
  }
  relational_rebuilt_size_ = relational_.size();
}

std::vector<std::string> ArtifactStore::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    out.push_back(name);
  }
  return out;
}

std::vector<const ParsedConfig*> ArtifactStore::configs() const {
  std::vector<const ParsedConfig*> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    out.push_back(&entry->config);
  }
  return out;
}

std::vector<const ConfigIndex*> ArtifactStore::indexes() const {
  std::vector<const ConfigIndex*> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    out.push_back(&entry->index);
  }
  return out;
}

std::vector<const ConfigSummary*> ArtifactStore::summaries() const {
  std::vector<const ConfigSummary*> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    out.push_back(&entry->summary);
  }
  return out;
}

uint64_t ArtifactStore::ContentKeyOf(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second->content_key;
}

}  // namespace concord
