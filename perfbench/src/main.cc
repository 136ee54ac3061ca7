// concord_perfbench: runs one benchmark workload and prints one JSON result
// line on stdout (`correct`, `attempted`, `failed`, `metrics`). Diagnostics,
// correctness details and the per-layer table go to stderr.
//
//   concord_perfbench --workload learn_wan|check_wan|serve_edge --seed N
//                     --seconds S --trace 0|1 [--out-dir DIR] [--min-localized N]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced variant
// and reports the per-layer metrics. See perfbench/README.md.
#include <charconv>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>
#include <thread>

#include "bench.h"

namespace {

std::string Number(double value) {
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc() ? std::string(buffer, end) : "0";
}

void PrintResult(const perfbench::Result& result) {
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  if (result.correct) {
    for (const auto& [name, metric] : result.metrics) {
      line += first ? "" : ", ";
      line += "\"" + name + "\": {\"value\": " + Number(metric.value) + ", \"unit\": \"" +
              metric.unit + "\"}";
      first = false;
    }
  }
  line += "}}";
  std::cout << line << std::endl;
}

// Holds a run to the declared metric set: per-layer metrics a workload does
// not measure read 0; an undeclared or missing end-to-end metric is a bug.
template <size_t N>
bool Complete(const perfbench::MetricSpec (&specs)[N], bool fill_zero,
              perfbench::Result* result) {
  std::set<std::string> declared;
  for (const perfbench::MetricSpec& spec : specs) {
    declared.insert(spec.name);
    if (result->metrics.count(spec.name) == 0) {
      if (!fill_zero) {
        std::cerr << "error: metric " << spec.name << " was not measured\n";
        return false;
      }
      result->Set(spec.name, 0, spec.unit);
    }
  }
  for (const auto& [name, metric] : result->metrics) {
    if (declared.count(name) == 0) {
      std::cerr << "error: metric " << name << " is not declared\n";
      return false;
    }
  }
  return true;
}

bool Complete(const perfbench::Args& args, perfbench::Result* result) {
  if (!result->correct) {
    return true;  // No metric is printed.
  }
  if (!args.trace) {
    return Complete(perfbench::kEndToEndMetrics, false, result);
  }
  return Complete(perfbench::kPerLayerMetrics, true, result);
}

int Usage(const char* why) {
  std::cerr << "error: " << why
            << "\nusage: concord_perfbench --workload learn_wan|check_wan|serve_edge "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] [--min-localized N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.out_dir = ".bench_build/perfbench-out";
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--min-localized") {
      args.min_localized = std::stoll(value);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) {
    return Usage("flags take one value each");
  }
  if (args.seconds <= 0) {
    return Usage("--seconds must be positive");
  }

  // Timings from unoptimized or instrumented builds are not comparable.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string flags = PERFBENCH_CXX_FLAGS;
  std::cerr << "fingerprint: nproc=" << std::thread::hardware_concurrency()
            << " build_type=" << build_type << " compiler=" << PERFBENCH_COMPILER
            << " workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n";
  if (build_type == "Debug" || flags.find("-fsanitize") != std::string::npos ||
      flags.find("-O0") != std::string::npos) {
    std::cerr << "error: refusing to time a " << build_type << " build (flags: " << flags
              << ")\n";
    return 2;
  }

  std::filesystem::create_directories(args.out_dir);
  const perfbench::HostCpu cpu_before = perfbench::ReadHostCpu();
  perfbench::Result result;
  try {
    if (args.workload == "learn_wan") {
      result = perfbench::RunLearnWan(args);
    } else if (args.workload == "check_wan") {
      result = perfbench::RunCheckWan(args);
    } else if (args.workload == "serve_edge") {
      result = perfbench::RunServeEdge(args);
    } else {
      return Usage(("unknown workload '" + args.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << args.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  const perfbench::HostCpu cpu_after = perfbench::ReadHostCpu();
  const double total = static_cast<double>(cpu_after.total - cpu_before.total);
  result.notes.push_back(
      "host: steal " +
      std::to_string(total > 0 ? 100.0 * static_cast<double>(cpu_after.steal - cpu_before.steal) /
                                     total
                               : 0.0) +
      "% of CPU time during the run");
  for (const std::string& note : result.notes) {
    std::cerr << note << "\n";
  }
  if (!Complete(args, &result)) {
    return 1;
  }
  for (const auto& [name, metric] : result.metrics) {
    std::cerr << "  " << name << " = " << Number(metric.value) << " " << metric.unit << "\n";
  }
  PrintResult(result);
  return result.correct ? 0 : 1;
}
