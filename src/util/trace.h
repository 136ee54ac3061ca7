// Lightweight in-process tracing: scoped spans feeding a process-global
// collector (ISSUE 4 tentpole; DESIGN.md §8).
//
// Two independent collection modes, both off by default:
//
//   stats  — per-(category, stage) totals: run count, cumulative/max duration,
//            allocation delta. Cheap enough to leave on for a resident server;
//            `concord serve` enables it so {"verb":"metrics"} can expose
//            per-stage counters, and --profile prints them as a breakdown.
//   events — every finished span lands in a bounded ring buffer (oldest entries
//            overwritten, a dropped counter keeps the books honest). Exported
//            as Chrome trace_event JSON ("ph":"X" complete events) loadable in
//            chrome://tracing / Perfetto for flame-chart viewing.
//
// When both modes are off a TraceSpan costs one relaxed atomic load and no
// clock reads — safe to leave in steady-state hot paths. Instrumentation
// convention: category is the pipeline ("learn", "check", "serve"), name is the
// stage ("parse", "index", "mine", "aggregate", "minimize", per-contract-kind
// names, "cache_lookup", ...). Span category/name must outlive the span; pass
// string literals.
//
// Allocation accounting (--profile) counts global operator new calls via a
// replaced operator new in trace.cc that, when enabled, bumps a counter slot of
// the calling thread; AllocationCount() sums every thread's slot. A span's
// delta therefore includes the allocations of every thread while it is open:
// pool workers bill to the span their caller holds, and so does any unrelated
// work running at the same time.
#ifndef SRC_UTIL_TRACE_H_
#define SRC_UTIL_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/sync.h"

namespace concord {

// One finished span, as stored in the ring buffer. Times are microseconds
// relative to the collector's epoch (its construction or last Clear()).
struct TraceEvent {
  std::string category;
  std::string name;
  uint64_t start_micros = 0;
  uint64_t duration_micros = 0;
  uint64_t thread_id = 0;  // Dense per-process id, 0 for the first thread seen.
  uint32_t depth = 0;      // Nesting depth within its thread at span open.
  uint64_t allocations = 0;  // Operator-new calls during the span (when counting).
};

// Cumulative per-stage accounting, keyed by (category, name).
struct StageTotal {
  std::string category;
  std::string name;
  uint64_t count = 0;
  uint64_t total_micros = 0;
  uint64_t max_micros = 0;
  uint64_t allocations = 0;
};

class TraceCollector {
 public:
  static constexpr uint32_t kStatsBit = 1;
  static constexpr uint32_t kEventsBit = 2;
  static constexpr size_t kDefaultEventCapacity = 65536;

  // The process-global collector every TraceSpan reports to.
  static TraceCollector& Global();

  TraceCollector();

  void EnableStats() { mode_.fetch_or(kStatsBit, std::memory_order_relaxed); }
  void EnableEvents(size_t capacity = kDefaultEventCapacity);
  void Disable() { mode_.store(0, std::memory_order_relaxed); }

  // Drops all collected data (events, stage totals, dropped counter) and
  // restarts the epoch. Does not change the enabled modes.
  void Clear();

  uint32_t mode() const { return mode_.load(std::memory_order_relaxed); }
  bool stats_enabled() const { return (mode() & kStatsBit) != 0; }
  bool events_enabled() const { return (mode() & kEventsBit) != 0; }

  // Microseconds since the collector epoch (monotonic).
  uint64_t NowMicros() const;

  // Adds one finished span to whatever modes are enabled. Used by TraceSpan;
  // also callable directly for stages whose duration is accumulated out-of-band
  // (the checker's per-contract-kind totals).
  void RecordSpan(std::string_view category, std::string_view name,
                  uint64_t start_micros, uint64_t duration_micros, uint32_t depth,
                  uint64_t allocations);

  // Folds pre-aggregated time into the stage totals without emitting an event.
  void AddStageTime(std::string_view category, std::string_view name,
                    uint64_t micros, uint64_t count = 1, uint64_t allocations = 0);

  // Ring-buffer contents, oldest first, plus how many events were overwritten.
  std::vector<TraceEvent> Events() const;
  uint64_t dropped_events() const;

  // Stage totals sorted by (category, name).
  std::vector<StageTotal> StageTotals() const;

  // Chrome trace_event JSON ({"traceEvents":[...]}), loadable in
  // chrome://tracing and Perfetto.
  std::string ChromeTraceJson() const;

  // Human-readable per-stage breakdown for `--profile`.
  std::string ProfileText() const;

  // Appends the stage totals as Prometheus text exposition
  // (concord_stage_duration_micros_total / concord_stage_runs_total).
  void AppendPrometheus(std::string* out) const;

 private:
  // Dense id for the calling thread.
  uint64_t ThreadIdLocked() CONCORD_REQUIRES(mu_);

  std::atomic<uint32_t> mode_{0};
  // Collector epoch as a steady_clock duration count. Atomic (not guarded by
  // mu_) because every enabled TraceSpan reads it lock-free via NowMicros()
  // while Clear() restarts it.
  std::atomic<std::chrono::steady_clock::rep> epoch_;

  mutable Mutex mu_;
  std::vector<TraceEvent> ring_ CONCORD_GUARDED_BY(mu_);
  size_t ring_capacity_ CONCORD_GUARDED_BY(mu_) = kDefaultEventCapacity;
  size_t ring_next_ CONCORD_GUARDED_BY(mu_) = 0;
  size_t ring_size_ CONCORD_GUARDED_BY(mu_) = 0;
  uint64_t dropped_ CONCORD_GUARDED_BY(mu_) = 0;
  std::map<std::pair<std::string, std::string>, StageTotal> stages_
      CONCORD_GUARDED_BY(mu_);
  std::map<std::thread::id, uint64_t> thread_ids_ CONCORD_GUARDED_BY(mu_);
};

// RAII span. Construction snapshots the clock/allocation counter only when a
// collection mode is on; destruction reports to the global collector.
class TraceSpan {
 public:
  TraceSpan(std::string_view category, std::string_view name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  uint32_t mode_;
  std::string_view category_;
  std::string_view name_;
  uint64_t start_micros_ = 0;
  uint64_t start_allocations_ = 0;
  uint32_t depth_ = 0;
};

// Process-wide operator-new call counter, summed over per-thread slots (see
// file comment). Counting is off by default; --profile turns it on for the run.
void EnableAllocationCounting(bool enabled);
uint64_t AllocationCount();

}  // namespace concord

#endif  // SRC_UTIL_TRACE_H_
