// Shared pieces of the benchmark program: run arguments, the result record,
// timing statistics, process memory, and the per-layer table behind --trace 1.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Every workload's operations run on this many worker threads; with the
// calling (or client) thread added, no workload asks for more than 4 cores.
inline constexpr int kWorkers = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // Scratch for contract files, stores, traces, digests.
  // check_wan: planted faults this seed must localize (its recorded count), or
  // -1 for a seed with no record.
  int64_t min_localized = -1;
};

struct Metric {
  double value = 0;
  std::string unit;
};

// What a workload reports. `correct` false means a correctness check failed;
// the run then prints no metric.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  // Printed to stderr (check details, tables).

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("CORRECTNESS: " + why);
  }
};

// The metrics a run reports: every end-to-end metric (--trace 0), or every
// per-layer metric (--trace 1). All workloads share the per-layer list that
// BENCHMARK.json declares; a layer off a workload's path, or a reply counter
// the service does not send, reads 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};
inline constexpr MetricSpec kEndToEndMetrics[] = {
    {"ops_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};
inline constexpr MetricSpec kPerLayerMetrics[] = {
    {"pattern.parse_s", "s"},
    {"pattern.parse_allocs_per_line", "count"},
    {"format.embed_s", "s"},
    {"pattern.table_growth", "count"},
    {"learn.index_s", "s"},
    {"learn.mine_s", "s"},
    {"learn.mine_cpu_s", "s"},
    {"learn.mine_allocs_per_line", "count"},
    {"learn.aggregate_s", "s"},
    {"learn.artifact_mine_hit_ratio", "ratio"},
    {"minimize.minimize_s", "s"},
    {"contracts.serialize_s", "s"},
    {"contracts.load_s", "s"},
    {"check.plan_s", "s"},
    {"check.index_s", "s"},
    {"check.scan_s", "s"},
    {"check.scan_allocs_per_line", "count"},
    {"report.render_s", "s"},
    {"memory.free_s", "s"},
    {"service.handle_p50_ms", "ms"},
    {"service.frontend_ms", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.index_cache_hit_ratio", "ratio"},
    {"service.shed", "count"},
    {"service.check_p99_ms", "ms"},
    {"service.update_p50_ms", "ms"},
    {"service.check_batch_p50_ms", "ms"},
    {"service.rss_growth_mb", "MB"},
    {"store.update_write_ms", "ms"},
    {"trace.untraced_s", "s"},
    {"trace.overhead_s", "s"},
};

using Clock = std::chrono::steady_clock;

// The seed of a workload's held-out corpus: derived from, and never equal
// to, the workload seed.
inline uint64_t HeldOutSeed(uint64_t seed) {
  return seed * 0x9E3779B97F4A7C15ull + 0x5DEECE66Dull;
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 if empty.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

// Machine-wide CPU time from /proc/stat, in clock ticks: time the hypervisor
// gave to other guests ("steal") explains otherwise puzzling slow runs.
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostCpu ReadHostCpu();

double PeakRssMb();
double ProcessCpuSeconds();  // User + system time of every thread so far.
double ThreadCpuSeconds();   // User + system time of the calling thread.
double CurrentRssMb();

// FNV-1a of a byte string, for digests of contract and report bytes.
uint64_t Digest(const std::string& bytes);

// Cross-run identity: the first run of (workload, seed) in a build records
// `value` under `key`; later runs must reproduce it. Returns false on mismatch.
bool SameAsEarlierRun(const Args& args, const std::string& key, const std::string& value,
                      std::string* previous);

// One traced operation's layers, read from the events that concord's global
// TraceCollector recorded on the operation's thread. The benchmark opens a
// "bench/op" span around the operation and a span around each of its own
// calls into a layer; the program's own spans (learn/mine, check/total, ...)
// nest inside those. Rows are keyed "category/name".
struct LayerRow {
  double total_s = 0;  // Summed span durations.
  double self_s = 0;   // total_s minus the spans directly nested in them.
  uint64_t self_allocs = 0;
};
class TracedOp {
 public:
  // Turns on event recording and allocation counting until destroyed.
  TracedOp();
  ~TracedOp();
  TracedOp(const TracedOp&) = delete;
  TracedOp& operator=(const TracedOp&) = delete;

  // The rows of the spans that started since construction (call after the
  // op span has closed). The "bench/op" row's self time is the untraced time.
  std::map<std::string, LayerRow> Rows() const;

 private:
  uint64_t since_micros_;
};

// Renders one operation's rows: self time and allocations per layer, the
// `untraced` row (the op span's self time) and the op's wall time.
std::string LayerTable(const std::string& title, const std::map<std::string, LayerRow>& rows);

// Writes the collector's events as Chrome trace JSON to
// <out_dir>/trace-<workload>-<seed>.json.
void WriteChromeTrace(const Args& args);

// Workload entry points.
Result RunLearnWan(const Args& args);
Result RunCheckWan(const Args& args);
Result RunServeEdge(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
