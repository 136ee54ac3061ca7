#include "src/util/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <sstream>

namespace concord {

namespace {

// Replaced-operator-new bookkeeping. Each thread counts into its own
// cache-line-padded slot, so threads allocating in parallel never contend on
// one counter; AllocationCount() sums the slots. A thread takes the next slot
// round-robin on its first counted allocation, so after kAllocationSlots
// threads, threads share slots; that stays exact because a slot is an atomic.
// Everything here is constant-initialized, so allocations during static
// initialization (before anyone can enable counting) are safe.
std::atomic<bool> g_count_allocations{false};

constexpr size_t kAllocationSlots = 64;
struct alignas(64) AllocationSlot {
  std::atomic<uint64_t> count{0};
};
AllocationSlot g_allocation_slots[kAllocationSlots];
std::atomic<size_t> g_next_allocation_slot{0};
thread_local AllocationSlot* t_allocation_slot = nullptr;

void CountAllocation() {
  if (t_allocation_slot == nullptr) {
    size_t slot = g_next_allocation_slot.fetch_add(1, std::memory_order_relaxed);
    t_allocation_slot = &g_allocation_slots[slot % kAllocationSlots];
  }
  t_allocation_slot->count.fetch_add(1, std::memory_order_relaxed);
}

// Span nesting depth of the current thread. Purely thread-local, so spans on
// pool workers nest independently of the thread that opened the enclosing span.
thread_local uint32_t t_span_depth = 0;

void AppendJsonEscaped(std::string* out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendPromLabel(std::string* out, std::string_view value) {
  for (char c : value) {
    if (c == '"' || c == '\\') {
      *out += '\\';
    }
    *out += c;
  }
}

}  // namespace

void EnableAllocationCounting(bool enabled) {
  g_count_allocations.store(enabled, std::memory_order_relaxed);
}

uint64_t AllocationCount() {
  // Slots are handed out from 0, so only the taken ones can be non-zero; with
  // counting never enabled (a serve run's spans) the sum reads no slot at all.
  size_t taken = std::min(g_next_allocation_slot.load(std::memory_order_relaxed),
                          kAllocationSlots);
  uint64_t total = 0;
  for (size_t i = 0; i < taken; ++i) {
    total += g_allocation_slots[i].count.load(std::memory_order_relaxed);
  }
  return total;
}

TraceCollector& TraceCollector::Global() {
  static TraceCollector* collector = new TraceCollector();
  return *collector;
}

TraceCollector::TraceCollector()
    : epoch_(std::chrono::steady_clock::now().time_since_epoch().count()) {}

void TraceCollector::EnableEvents(size_t capacity) {
  {
    MutexLock lock(mu_);
    ring_capacity_ = capacity == 0 ? 1 : capacity;
    if (ring_.size() > ring_capacity_) {
      ring_.clear();
      ring_next_ = 0;
      ring_size_ = 0;
    }
  }
  mode_.fetch_or(kEventsBit, std::memory_order_relaxed);
}

void TraceCollector::Clear() {
  MutexLock lock(mu_);
  ring_.clear();
  ring_next_ = 0;
  ring_size_ = 0;
  dropped_ = 0;
  stages_.clear();
  epoch_.store(std::chrono::steady_clock::now().time_since_epoch().count(),
               std::memory_order_relaxed);
}

uint64_t TraceCollector::NowMicros() const {
  std::chrono::steady_clock::rep elapsed =
      std::chrono::steady_clock::now().time_since_epoch().count() -
      epoch_.load(std::memory_order_relaxed);
  if (elapsed < 0) {
    return 0;  // A concurrent Clear() moved the epoch past our clock read.
  }
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::duration(elapsed))
                                   .count());
}

uint64_t TraceCollector::ThreadIdLocked() {
  auto [it, inserted] =
      thread_ids_.emplace(std::this_thread::get_id(), thread_ids_.size());
  return it->second;
}

void TraceCollector::RecordSpan(std::string_view category, std::string_view name,
                                uint64_t start_micros, uint64_t duration_micros,
                                uint32_t depth, uint64_t allocations) {
  uint32_t mode = this->mode();
  if (mode == 0) {
    return;
  }
  MutexLock lock(mu_);
  if ((mode & kStatsBit) != 0) {
    StageTotal& total = stages_[{std::string(category), std::string(name)}];
    if (total.count == 0) {
      total.category = std::string(category);
      total.name = std::string(name);
    }
    ++total.count;
    total.total_micros += duration_micros;
    total.max_micros = std::max(total.max_micros, duration_micros);
    total.allocations += allocations;
  }
  if ((mode & kEventsBit) != 0) {
    TraceEvent event;
    event.category = std::string(category);
    event.name = std::string(name);
    event.start_micros = start_micros;
    event.duration_micros = duration_micros;
    event.thread_id = ThreadIdLocked();
    event.depth = depth;
    event.allocations = allocations;
    if (ring_.size() < ring_capacity_) {
      ring_.push_back(std::move(event));
      ring_next_ = ring_.size() % ring_capacity_;
      ring_size_ = ring_.size();
    } else {
      // Full: overwrite the oldest slot and account for the loss.
      ring_[ring_next_] = std::move(event);
      ring_next_ = (ring_next_ + 1) % ring_capacity_;
      ++dropped_;
    }
  }
}

void TraceCollector::AddStageTime(std::string_view category, std::string_view name,
                                  uint64_t micros, uint64_t count,
                                  uint64_t allocations) {
  if ((mode() & kStatsBit) == 0) {
    return;
  }
  MutexLock lock(mu_);
  StageTotal& total = stages_[{std::string(category), std::string(name)}];
  if (total.count == 0) {
    total.category = std::string(category);
    total.name = std::string(name);
  }
  total.count += count;
  total.total_micros += micros;
  total.max_micros = std::max(total.max_micros, micros);
  total.allocations += allocations;
}

std::vector<TraceEvent> TraceCollector::Events() const {
  MutexLock lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_size_);
  // Oldest first: when the ring has wrapped, ring_next_ points at the oldest.
  size_t start = ring_size_ < ring_capacity_ ? 0 : ring_next_;
  for (size_t i = 0; i < ring_size_; ++i) {
    out.push_back(ring_[(start + i) % ring_size_]);
  }
  return out;
}

uint64_t TraceCollector::dropped_events() const {
  MutexLock lock(mu_);
  return dropped_;
}

std::vector<StageTotal> TraceCollector::StageTotals() const {
  MutexLock lock(mu_);
  std::vector<StageTotal> out;
  out.reserve(stages_.size());
  for (const auto& [key, total] : stages_) {
    out.push_back(total);
  }
  return out;
}

std::string TraceCollector::ChromeTraceJson() const {
  std::vector<TraceEvent> events = Events();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, event.name);
    out += "\",\"cat\":\"";
    AppendJsonEscaped(&out, event.category);
    out += "\",\"ph\":\"X\",\"ts\":" + std::to_string(event.start_micros) +
           ",\"dur\":" + std::to_string(event.duration_micros) +
           ",\"pid\":1,\"tid\":" + std::to_string(event.thread_id) +
           ",\"args\":{\"depth\":" + std::to_string(event.depth) +
           ",\"allocations\":" + std::to_string(event.allocations) + "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string TraceCollector::ProfileText() const {
  std::vector<StageTotal> totals = StageTotals();
  std::ostringstream out;
  out << "profile: per-stage breakdown\n";
  out << "  stage                     runs     total ms      mean ms        allocs\n";
  for (const StageTotal& total : totals) {
    std::string stage = total.category + "/" + total.name;
    if (stage.size() < 24) {
      stage.resize(24, ' ');
    }
    char line[160];
    double total_ms = static_cast<double>(total.total_micros) / 1e3;
    double mean_ms =
        total.count == 0 ? 0.0 : total_ms / static_cast<double>(total.count);
    std::snprintf(line, sizeof(line), "  %s %6llu %12.3f %12.3f %13llu\n",
                  stage.c_str(), static_cast<unsigned long long>(total.count),
                  total_ms, mean_ms,
                  static_cast<unsigned long long>(total.allocations));
    out << line;
  }
  uint64_t dropped = dropped_events();
  if (dropped > 0) {
    out << "  (trace ring dropped " << dropped << " events)\n";
  }
  return out.str();
}

void TraceCollector::AppendPrometheus(std::string* out) const {
  std::vector<StageTotal> totals = StageTotals();
  if (totals.empty()) {
    return;
  }
  *out +=
      "# HELP concord_stage_duration_micros_total Cumulative stage wall time in "
      "microseconds.\n# TYPE concord_stage_duration_micros_total counter\n";
  for (const StageTotal& total : totals) {
    *out += "concord_stage_duration_micros_total{category=\"";
    AppendPromLabel(out, total.category);
    *out += "\",stage=\"";
    AppendPromLabel(out, total.name);
    *out += "\"} " + std::to_string(total.total_micros) + "\n";
  }
  *out +=
      "# HELP concord_stage_runs_total Number of completed stage executions.\n"
      "# TYPE concord_stage_runs_total counter\n";
  for (const StageTotal& total : totals) {
    *out += "concord_stage_runs_total{category=\"";
    AppendPromLabel(out, total.category);
    *out += "\",stage=\"";
    AppendPromLabel(out, total.name);
    *out += "\"} " + std::to_string(total.count) + "\n";
  }
}

TraceSpan::TraceSpan(std::string_view category, std::string_view name)
    : mode_(TraceCollector::Global().mode()), category_(category), name_(name) {
  if (mode_ == 0) {
    return;  // Disabled: no clock read, no counter read, nothing to undo.
  }
  start_micros_ = TraceCollector::Global().NowMicros();
  start_allocations_ = AllocationCount();
  depth_ = t_span_depth++;
}

TraceSpan::~TraceSpan() {
  if (mode_ == 0) {
    return;
  }
  --t_span_depth;
  TraceCollector& collector = TraceCollector::Global();
  uint64_t end = collector.NowMicros();
  uint64_t duration = end > start_micros_ ? end - start_micros_ : 0;
  uint64_t allocations = AllocationCount() - start_allocations_;
  collector.RecordSpan(category_, name_, start_micros_, duration, depth_,
                       allocations);
}

}  // namespace concord

// ---------------------------------------------------------------------------
// Replaced global allocation functions: malloc/free-backed so new/delete stay
// a matched pair process-wide, plus one relaxed bump of the thread's counter
// slot when --profile has allocation counting enabled. Sanitizers intercept
// malloc/free underneath, so ASan/TSan diagnostics keep working.
// ---------------------------------------------------------------------------

namespace {

void* ConcordAllocate(std::size_t size) {
  if (concord::g_count_allocations.load(std::memory_order_relaxed)) {
    concord::CountAllocation();
  }
  if (size == 0) {
    size = 1;
  }
  return std::malloc(size);
}

void* ConcordAllocateAligned(std::size_t size, std::size_t alignment) {
  if (concord::g_count_allocations.load(std::memory_order_relaxed)) {
    concord::CountAllocation();
  }
  if (size == 0) {
    size = 1;
  }
  void* ptr = nullptr;
  if (posix_memalign(&ptr, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size) != 0) {
    return nullptr;
  }
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) {
  void* ptr = ConcordAllocate(size);
  if (ptr == nullptr) {
    throw std::bad_alloc();
  }
  return ptr;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return ConcordAllocate(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ConcordAllocate(size);
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  void* ptr = ConcordAllocateAligned(size, static_cast<std::size_t>(alignment));
  if (ptr == nullptr) {
    throw std::bad_alloc();
  }
  return ptr;
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  return ::operator new(size, alignment);
}

void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  return ConcordAllocateAligned(size, static_cast<std::size_t>(alignment));
}

void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return ConcordAllocateAligned(size, static_cast<std::size_t>(alignment));
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept { std::free(ptr); }
void operator delete[](void* ptr, const std::nothrow_t&) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
