#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include "src/util/trace.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

HostCpu ReadHostCpu() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;  // "cpu": user nice system idle iowait irq softirq steal ...
  HostCpu cpu;
  uint64_t value = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    cpu.total += value;
    if (field == 7) {
      cpu.steal = value;
    }
  }
  return cpu;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

double ThreadCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

uint64_t Digest(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h = (h ^ c) * 0x100000001b3ull;
  }
  return h;
}

bool SameAsEarlierRun(const Args& args, const std::string& key, const std::string& value,
                      std::string* previous) {
  namespace fs = std::filesystem;
  fs::path dir = fs::path(args.out_dir) / "digests";
  fs::create_directories(dir);
  fs::path file = dir / (args.workload + "-" + std::to_string(args.seed) + "-" + key);
  std::ifstream in(file);
  if (in) {
    std::getline(in, *previous);
    return *previous == value;
  }
  std::ofstream(file) << value << "\n";
  return true;
}

TracedOp::TracedOp() {
  concord::TraceCollector& collector = concord::TraceCollector::Global();
  collector.EnableEvents();
  concord::EnableAllocationCounting(true);
  since_micros_ = collector.NowMicros();
}

TracedOp::~TracedOp() {
  concord::EnableAllocationCounting(false);
  concord::TraceCollector::Global().Disable();
}

std::map<std::string, LayerRow> TracedOp::Rows() const {
  std::vector<concord::TraceEvent> events;
  for (concord::TraceEvent& event : concord::TraceCollector::Global().Events()) {
    if (event.start_micros >= since_micros_) {
      events.push_back(std::move(event));
    }
  }
  // Outer spans first: by thread, start, then depth.
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    return std::tie(a.thread_id, a.start_micros, a.depth) <
           std::tie(b.thread_id, b.start_micros, b.depth);
  });
  std::vector<uint64_t> child_micros(events.size(), 0);
  std::vector<uint64_t> child_allocs(events.size(), 0);
  std::vector<size_t> open;  // Enclosing spans of the current event, innermost last.
  uint64_t op_thread = UINT64_MAX;
  for (size_t i = 0; i < events.size(); ++i) {
    const concord::TraceEvent& e = events[i];
    while (!open.empty() && (events[open.back()].thread_id != e.thread_id ||
                             events[open.back()].depth >= e.depth)) {
      open.pop_back();
    }
    if (!open.empty()) {
      child_micros[open.back()] += e.duration_micros;
      child_allocs[open.back()] += e.allocations;
    }
    open.push_back(i);
    if (e.category == "bench" && e.name == "op") {
      op_thread = e.thread_id;
    }
  }
  std::map<std::string, LayerRow> rows;
  for (size_t i = 0; i < events.size(); ++i) {
    const concord::TraceEvent& e = events[i];
    if (e.thread_id != op_thread) {
      continue;
    }
    LayerRow& row = rows[e.category + "/" + e.name];
    row.total_s += static_cast<double>(e.duration_micros) / 1e6;
    row.self_s += static_cast<double>(e.duration_micros - std::min(e.duration_micros,
                                                                   child_micros[i])) /
                  1e6;
    row.self_allocs += e.allocations - std::min(e.allocations, child_allocs[i]);
  }
  return rows;
}

std::string LayerTable(const std::string& title, const std::map<std::string, LayerRow>& rows) {
  const LayerRow& op = rows.at("bench/op");
  std::ostringstream out;
  char line[160];
  out << title << "\n";
  std::snprintf(line, sizeof(line), "  %-24s %10s %7s %14s\n", "layer", "self_s", "share",
                "self_allocs");
  out << line;
  for (const auto& [name, row] : rows) {
    if (name == "bench/op") {
      continue;
    }
    std::snprintf(line, sizeof(line), "  %-24s %10.4f %6.1f%% %14llu\n", name.c_str(),
                  row.self_s, 100.0 * row.self_s / op.total_s,
                  static_cast<unsigned long long>(row.self_allocs));
    out << line;
  }
  std::snprintf(line, sizeof(line), "  %-24s %10.4f %6.1f%% %14llu\n", "untraced", op.self_s,
                100.0 * op.self_s / op.total_s, static_cast<unsigned long long>(op.self_allocs));
  out << line;
  std::snprintf(line, sizeof(line), "  %-24s %10.4f %6.1f%%\n", "op wall", op.total_s, 100.0);
  out << line;
  return out.str();
}

void WriteChromeTrace(const Args& args) {
  std::filesystem::path path = std::filesystem::path(args.out_dir) /
                               ("trace-" + args.workload + "-" + std::to_string(args.seed) +
                                ".json");
  std::ofstream(path) << concord::TraceCollector::Global().ChromeTraceJson();
}

}  // namespace perfbench
