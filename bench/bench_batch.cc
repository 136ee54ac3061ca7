// Batched-checking harness (DESIGN.md §12): how much does one wide request
// amortize per-check fixed costs when N configs ride in it together?
//
// Four measurements, all on a generated WAN corpus:
//
//   1. Checker core: one Check call over n indexes vs n single-index calls,
//      swept at n = 1/10/100/1000. The contract-major scan must never lose to
//      the sequential loop; its win here is modest because per-config work
//      (relational witnesses, value transforms) dominates and is symmetric.
//   2. Service in process: a warm `check` carrying 100 configs vs 100 warm
//      single-config `check` requests, plus the `check_batch` verb whose slots
//      must be byte-identical to the standalone responses (gated).
//   3. Socket serve path — the acceptance gate. The same comparison through a
//      service behind a real Unix socket: 100 single-config round trips vs one
//      round trip whose `check` carries all 100 configs into one batched
//      Check. This is the deployment batching exists for (a CI/CD client
//      validating a fleet), and where the fixed cost being amortized —
//      syscalls, framing, envelope parse/dispatch, per-call scan setup — is
//      real. The wide check must beat sequential by >= 3x; per-config finding
//      identity is proved by the `check_batch` slots, which must be
//      byte-identical to the standalone responses at this layer too.
//   4. Scale sweep: one batched check over a million-line corpus at 1/4, 1/2,
//      and full size, reporting lines/s.
//
// Results merge into BENCH_SERVE.json under a "batch" member, preserving
// whatever bench_overload last wrote (that bench still overwrites the file
// wholesale, so run it before this one when refreshing both).
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/check/checker.h"
#include "src/datagen/corpus.h"
#include "src/datagen/wan_gen.h"
#include "src/format/json.h"
#include "src/learn/index.h"
#include "src/learn/learner.h"
#include "src/service/service.h"
#include "src/service/socket_server.h"
#include "src/util/stopwatch.h"
#include "src/util/trace.h"

namespace concord {
namespace {

constexpr size_t kSampleConfigs = 48;   // Learn on this prefix of the corpus.
constexpr size_t kGateBatch = 100;      // The n the acceptance gate reads.
constexpr double kGateSpeedup = 3.0;    // batch=100 must beat sequential by this.
constexpr const char* kOutPath = "BENCH_SERVE.json";

size_t TargetLines() {
  if (const char* env = std::getenv("CONCORD_BATCH_LINES")) {
    long parsed = std::atol(env);
    if (parsed > 0) {
      return static_cast<size_t>(parsed);
    }
  }
  return 1000000;
}

int EnvInt(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    long parsed = std::atol(env);
    if (parsed > 0) {
      return static_cast<int>(parsed);
    }
  }
  return fallback;
}

// Sizes the corpus by probing lines-per-device, then generates enough devices
// to clear the line target (and always enough configs for the n=1000 sweep).
GeneratedCorpus SizedWanCorpus(size_t target_lines) {
  WanOptions probe_options;
  // W7 is the WAN's small flat edge role (~35 lines/device at scale 1) — the
  // fleet shape where per-request fixed costs matter most relative to
  // per-config work, which is exactly what batching amortizes. Larger roles
  // are a knob away (CONCORD_BATCH_ROLE / CONCORD_BATCH_SCALE).
  probe_options.role = EnvInt("CONCORD_BATCH_ROLE", 7);
  probe_options.devices = 32;
  probe_options.scale = EnvInt("CONCORD_BATCH_SCALE", 1);
  probe_options.seed = 7;
  GeneratedCorpus probe = GenerateWan(probe_options);
  size_t lines_per_device =
      probe.TotalLines() / (probe.configs.empty() ? 1 : probe.configs.size());
  if (lines_per_device == 0) {
    lines_per_device = 1;
  }
  WanOptions options = probe_options;
  size_t devices = (target_lines + lines_per_device - 1) / lines_per_device;
  if (devices < 1001) {
    devices = 1001;  // The sweep's largest point needs 1000 + sample overlap.
  }
  options.devices = static_cast<int>(devices);
  return GenerateWan(options);
}

std::string CheckLineFor(const std::vector<const GeneratedConfig*>& configs) {
  JsonValue request = JsonValue::Object();
  request.Set("v", JsonValue::Number(int64_t{1}));
  request.Set("verb", JsonValue::String("check"));
  request.Set("contracts", JsonValue::String("bench"));
  JsonValue items = JsonValue::Array();
  for (const GeneratedConfig* config : configs) {
    JsonValue item = JsonValue::Object();
    item.Set("name", JsonValue::String(config->name));
    item.Set("text", JsonValue::String(config->text));
    items.Append(std::move(item));
  }
  request.Set("configs", std::move(items));
  return request.Serialize(0);
}

std::string LearnLine(const GeneratedCorpus& corpus, size_t count) {
  JsonValue request = JsonValue::Object();
  request.Set("v", JsonValue::Number(int64_t{1}));
  request.Set("verb", JsonValue::String("learn"));
  request.Set("dataset", JsonValue::String("bench"));
  JsonValue items = JsonValue::Array();
  for (size_t i = 0; i < count && i < corpus.configs.size(); ++i) {
    JsonValue item = JsonValue::Object();
    item.Set("name", JsonValue::String(corpus.configs[i].name));
    item.Set("text", JsonValue::String(corpus.configs[i].text));
    items.Append(std::move(item));
  }
  request.Set("configs", std::move(items));
  return request.Serialize(0);
}

std::string CheckBatchLine(const GeneratedCorpus& corpus, size_t count) {
  JsonValue request = JsonValue::Object();
  request.Set("v", JsonValue::Number(int64_t{1}));
  request.Set("verb", JsonValue::String("check_batch"));
  request.Set("contracts", JsonValue::String("bench"));
  JsonValue subs = JsonValue::Array();
  for (size_t i = 0; i < count && i < corpus.configs.size(); ++i) {
    JsonValue sub = JsonValue::Object();
    JsonValue items = JsonValue::Array();
    JsonValue item = JsonValue::Object();
    item.Set("name", JsonValue::String(corpus.configs[i].name));
    item.Set("text", JsonValue::String(corpus.configs[i].text));
    items.Append(std::move(item));
    sub.Set("configs", std::move(items));
    subs.Append(std::move(sub));
  }
  request.Set("requests", std::move(subs));
  return request.Serialize(0);
}

// Sends one request line on a connected fd and returns its one-line reply
// (without the newline); "" when the connection fails.
std::string Exchange(int fd, const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  size_t written = 0;
  while (written < framed.size()) {
    ssize_t n = ::write(fd, framed.data() + written, framed.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return "";
    }
    written += static_cast<size_t>(n);
  }
  std::string reply;
  char chunk[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    reply.append(chunk, static_cast<size_t>(n));
    if (reply.back() == '\n') {
      break;
    }
  }
  while (!reply.empty() && (reply.back() == '\n' || reply.back() == '\r')) {
    reply.pop_back();
  }
  return reply;
}

// One request over a fresh connection — the shape of a CI loop shelling out
// per config (each CLI/curl invocation dials, sends one line, reads one
// line, hangs up). The batched client pays this setup once for all 100
// configs; the sequential baseline pays it per config.
std::string RoundTrip(const std::string& socket_path, const std::string& line) {
  int fd = DialUnixClient(socket_path, nullptr);
  if (fd < 0) {
    return "";
  }
  std::string reply = Exchange(fd, line);
  ::close(fd);
  return reply;
}

struct SweepPoint {
  size_t n = 0;
  double batched_s = 0;      // One Check call over n indexes, per pass.
  double sequential_s = 0;   // n single-index Check calls, per pass.
  double speedup = 0;
};

struct ScalePoint {
  size_t configs = 0;
  size_t lines = 0;
  double seconds = 0;
  double lines_per_s = 0;
  size_t violations = 0;
};

}  // namespace
}  // namespace concord

int main() {
  using namespace concord;

  size_t target_lines = TargetLines();
  std::printf("generating WAN corpus (~%zu lines)...\n", target_lines);
  GeneratedCorpus corpus = SizedWanCorpus(target_lines);
  std::printf("corpus: role=%s configs=%zu lines=%zu\n", corpus.role.c_str(),
              corpus.configs.size(), corpus.TotalLines());

  Stopwatch parse_watch;
  ParseOptions parse_options;
  parse_options.constants = std::getenv("CONCORD_BATCH_CONSTANTS") != nullptr;
  Dataset full = ParseCorpus(corpus, parse_options);
  double parse_s = parse_watch.ElapsedSeconds();

  // Learn on a prefix sample sharing the full corpus's pattern table, so the
  // learned contracts' PatternIds are valid against every full-corpus index.
  size_t sample_size =
      static_cast<size_t>(EnvInt("CONCORD_BATCH_SAMPLE", kSampleConfigs));
  Dataset sample;
  sample.patterns = full.patterns;
  sample.metadata = full.metadata;
  for (size_t i = 0; i < sample_size && i < full.configs.size(); ++i) {
    sample.configs.push_back(full.configs[i]);
  }
  Stopwatch learn_watch;
  LearnOptions learn_options;
  learn_options.support = EnvInt("CONCORD_BATCH_SUPPORT", learn_options.support);
  learn_options.constants = parse_options.constants;
  Learner learner{learn_options};
  LearnResult learned = learner.Learn(sample);
  double learn_s = learn_watch.ElapsedSeconds();

  Stopwatch index_watch;
  std::vector<ConfigIndex> indexes = BuildIndexes(full);
  double index_s = index_watch.ElapsedSeconds();
  std::vector<const ConfigIndex*> index_ptrs;
  index_ptrs.reserve(indexes.size());
  for (const ConfigIndex& index : indexes) {
    index_ptrs.push_back(&index);
  }
  std::printf(
      "parse %.2fs, learn(%zu cfgs) %.2fs -> %zu contracts, index %.2fs\n\n",
      parse_s, sample.configs.size(), learn_s,
      learned.set.contracts.size(), index_s);

  Checker checker(&learned.set, &full.patterns);
  CheckOptions options;  // Coverage on: the service's default check path.

  // ---- 1. Checker-core sweep: one batched call vs n sequential calls. ----
  std::printf("%-14s %12s %12s %10s\n", "checker core", "batched_s",
              "sequential_s", "speedup");
  std::vector<SweepPoint> sweep;
  double gate_speedup = 0;
  for (size_t n : {size_t{1}, size_t{10}, size_t{100}, size_t{1000}}) {
    if (n > index_ptrs.size()) {
      std::printf("  (skipping n=%zu: corpus has %zu configs)\n", n,
                  index_ptrs.size());
      continue;
    }
    std::vector<const ConfigIndex*> slice(index_ptrs.begin(),
                                          index_ptrs.begin() + n);
    int reps = n <= 10 ? 50 : (n <= 100 ? 10 : 2);
    checker.Check(slice, options);  // Warm.
    Stopwatch batched_watch;
    for (int r = 0; r < reps; ++r) {
      checker.Check(slice, options);
    }
    double batched_s = batched_watch.ElapsedSeconds() / reps;
    Stopwatch sequential_watch;
    for (int r = 0; r < reps; ++r) {
      for (size_t i = 0; i < n; ++i) {
        checker.Check({index_ptrs[i]}, options);
      }
    }
    double sequential_s = sequential_watch.ElapsedSeconds() / reps;
    SweepPoint point;
    point.n = n;
    point.batched_s = batched_s;
    point.sequential_s = sequential_s;
    point.speedup = batched_s > 0 ? sequential_s / batched_s : 0;
    sweep.push_back(point);
    if (n == kGateBatch) {
      gate_speedup = point.speedup;
    }
    std::printf("%-14s %12.5f %12.5f %9.2fx\n",
                ("n=" + std::to_string(n)).c_str(), batched_s, sequential_s,
                point.speedup);
  }

  size_t profile_n = static_cast<size_t>(EnvInt("CONCORD_BATCH_PROFILE", 0));
  if (profile_n > 0 && index_ptrs.size() >= profile_n) {
    TraceCollector& tracer = TraceCollector::Global();
    std::vector<const ConfigIndex*> slice(index_ptrs.begin(),
                                          index_ptrs.begin() + profile_n);
    tracer.EnableStats();
    tracer.Clear();
    for (size_t i = 0; i < profile_n; ++i) {
      checker.Check({index_ptrs[i]}, options);
    }
    std::printf("\n-- sequential x%zu profile --\n%s", profile_n,
                tracer.ProfileText().c_str());
    tracer.Clear();
    checker.Check(slice, options);
    std::printf("-- batched n=%zu profile --\n%s", profile_n,
                tracer.ProfileText().c_str());
    tracer.Disable();
  }

  // ---- 2. Service in process: warm 100-config check, check_batch identity. --
  Service service{ServiceOptions{}};
  service.HandleLine(LearnLine(corpus, sample_size));
  std::vector<const GeneratedConfig*> gate_configs;
  std::vector<std::string> single_lines;
  for (size_t i = 0; i < kGateBatch && i < corpus.configs.size(); ++i) {
    gate_configs.push_back(&corpus.configs[i]);
    single_lines.push_back(CheckLineFor({&corpus.configs[i]}));
  }
  std::string wide_line = CheckLineFor(gate_configs);
  std::string batch_line = CheckBatchLine(corpus, gate_configs.size());

  // Warm every cache, then capture warm standalone responses as the oracle.
  std::vector<std::string> oracle;
  for (const std::string& line : single_lines) {
    service.HandleLine(line);
  }
  for (const std::string& line : single_lines) {
    oracle.push_back(service.HandleLine(line));
  }
  service.HandleLine(wide_line);

  // check_batch slots must be byte-identical to the warm standalone responses.
  bool slots_identical = false;
  {
    std::optional<JsonValue> batch_response =
        JsonValue::Parse(service.HandleLine(batch_line));
    const JsonValue* results =
        batch_response ? batch_response->Find("results") : nullptr;
    if (results != nullptr && results->is_array() &&
        results->items().size() == oracle.size()) {
      slots_identical = true;
      for (size_t i = 0; i < oracle.size(); ++i) {
        if (results->items()[i].Serialize(0) != oracle[i]) {
          slots_identical = false;
          break;
        }
      }
    }
  }

  constexpr int kServiceReps = 5;
  bool sequential_stable = true;
  Stopwatch seq_watch;
  for (int r = 0; r < kServiceReps; ++r) {
    for (size_t i = 0; i < single_lines.size(); ++i) {
      sequential_stable =
          service.HandleLine(single_lines[i]) == oracle[i] && sequential_stable;
    }
  }
  double service_seq_s = seq_watch.ElapsedSeconds() / kServiceReps;
  Stopwatch wide_watch;
  for (int r = 0; r < kServiceReps; ++r) {
    service.HandleLine(wide_line);
  }
  double service_wide_s = wide_watch.ElapsedSeconds() / kServiceReps;
  Stopwatch batch_watch;
  for (int r = 0; r < kServiceReps; ++r) {
    service.HandleLine(batch_line);
  }
  double service_batch_s = batch_watch.ElapsedSeconds() / kServiceReps;
  double service_wide_speedup =
      service_wide_s > 0 ? service_seq_s / service_wide_s : 0;
  double service_batch_speedup =
      service_batch_s > 0 ? service_seq_s / service_batch_s : 0;

  std::printf("\n%-26s %12s %10s\n", "service (100 configs)", "seconds",
              "speedup");
  std::printf("%-26s %12.5f %10s\n", "100 sequential checks", service_seq_s,
              "1.00x");
  std::printf("%-26s %12.5f %9.2fx\n", "one 100-config check",
              service_wide_s, service_wide_speedup);
  std::printf("%-26s %12.5f %9.2fx   (slot amortization only)\n",
              "check_batch, 100 slots", service_batch_s, service_batch_speedup);
  std::printf("check_batch slots byte-identical to standalone checks: %s\n",
              slots_identical ? "yes" : "NO");
  std::printf("sequential responses stable across reps: %s\n",
              sequential_stable ? "yes" : "NO");

  // ---- 3. Socket serve path: the acceptance gate. -------------------------
  // A CI loop checking 100 configs one by one (one connection and one round
  // trip per config, as 100 CLI/curl invocations would dial) vs one
  // connection carrying all 100 configs in a single batched check. A
  // persistent-connection sequential client is also timed so the report
  // separates connection setup from round-trip cost. Byte-identity is
  // re-proved at this layer: every check_batch slot must equal the warm
  // standalone response the same socket returns.
  std::filesystem::path socket_dir =
      std::filesystem::temp_directory_path() / "concord_bench_batch";
  std::filesystem::remove_all(socket_dir);
  std::filesystem::create_directories(socket_dir);
  double socket_seq_s = 0;
  double socket_persistent_s = 0;
  double socket_wide_s = 0;
  double socket_batch_s = 0;
  double socket_wide_speedup = 0;
  double socket_batch_speedup = 0;
  bool socket_slots_identical = false;
  bool socket_ok = false;
  // A second Service behind the epoll frontend on a background thread; `fd`
  // is one persistent client connection to it.
  Service socket_service{ServiceOptions{}};
  const std::string socket_path = (socket_dir / "batch.sock").string();
  std::ostringstream server_err;
  SocketServerOptions server_options;
  server_options.install_signal_handlers = false;
  server_options.idle_timeout_ms = 0;
  std::thread server_thread([&] {
    RunServiceSocket(socket_service, socket_path, server_err, nullptr,
                     server_options);
  });
  std::string dial_error;
  int fd = -1;
  for (int attempt = 0; attempt < 500 && fd < 0; ++attempt) {
    fd = DialUnixClient(socket_path, &dial_error);
    if (fd < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  if (fd >= 0) {
    socket_ok = true;
    Exchange(fd, LearnLine(corpus, sample_size));
    for (const std::string& line : single_lines) {  // Warm every cache.
      Exchange(fd, line);
    }
    std::vector<std::string> socket_oracle;
    for (const std::string& line : single_lines) {
      socket_oracle.push_back(Exchange(fd, line));
    }
    Exchange(fd, wide_line);
    Exchange(fd, batch_line);

    std::optional<JsonValue> batch_response =
        JsonValue::Parse(Exchange(fd, batch_line));
    const JsonValue* results =
        batch_response ? batch_response->Find("results") : nullptr;
    if (results != nullptr && results->is_array() &&
        results->items().size() == socket_oracle.size()) {
      socket_slots_identical = true;
      for (size_t i = 0; i < socket_oracle.size(); ++i) {
        if (results->items()[i].Serialize(0) != socket_oracle[i]) {
          socket_slots_identical = false;
          break;
        }
      }
    }

    RoundTrip(socket_path, single_lines[0]);  // Warm the accept path.
    const int kSocketReps = EnvInt("CONCORD_BATCH_SOCKET_REPS", 5);
    Stopwatch socket_seq_watch;
    for (int r = 0; r < kSocketReps; ++r) {
      for (const std::string& line : single_lines) {
        RoundTrip(socket_path, line);
      }
    }
    socket_seq_s = socket_seq_watch.ElapsedSeconds() / kSocketReps;
    Stopwatch socket_persistent_watch;
    for (int r = 0; r < kSocketReps; ++r) {
      for (const std::string& line : single_lines) {
        Exchange(fd, line);
      }
    }
    socket_persistent_s = socket_persistent_watch.ElapsedSeconds() / kSocketReps;
    Stopwatch socket_wide_watch;
    for (int r = 0; r < kSocketReps; ++r) {
      RoundTrip(socket_path, wide_line);
    }
    socket_wide_s = socket_wide_watch.ElapsedSeconds() / kSocketReps;
    Stopwatch socket_batch_watch;
    for (int r = 0; r < kSocketReps; ++r) {
      RoundTrip(socket_path, batch_line);
    }
    socket_batch_s = socket_batch_watch.ElapsedSeconds() / kSocketReps;
    socket_wide_speedup = socket_wide_s > 0 ? socket_seq_s / socket_wide_s : 0;
    socket_batch_speedup =
        socket_batch_s > 0 ? socket_seq_s / socket_batch_s : 0;

    std::printf("\n%-26s %12s %10s\n", "socket (100 configs)", "seconds",
                "speedup");
    std::printf("%-26s %12.5f %10s\n", "100 connect+round trips",
                socket_seq_s, "1.00x");
    std::printf("%-26s %12.5f %9.2fx   (persistent connection)\n",
                "100 round trips", socket_persistent_s,
                socket_persistent_s > 0 ? socket_seq_s / socket_persistent_s
                                        : 0);
    std::printf("%-26s %12.5f %9.2fx   <-- gate\n", "one 100-config check",
                socket_wide_s, socket_wide_speedup);
    std::printf("%-26s %12.5f %9.2fx   (per-slot isolation kept)\n",
                "check_batch, 100 slots", socket_batch_s,
                socket_batch_speedup);
    std::printf("socket check_batch slots byte-identical: %s\n",
                socket_slots_identical ? "yes" : "NO");
    Exchange(fd, R"({"v":1,"verb":"shutdown"})");
    ::close(fd);
  } else {
    socket_service.RequestShutdown();
  }
  server_thread.join();
  if (!socket_ok) {
    std::printf("\nsocket phase skipped: %s %s\n", dial_error.c_str(),
                server_err.str().c_str());
  }
  std::filesystem::remove_all(socket_dir);

  // ---- 4. Million-line scale sweep: one batched check per corpus slice. ----
  std::printf("\n%-14s %10s %12s %10s %14s\n", "scale sweep", "configs",
              "lines", "seconds", "lines/s");
  std::vector<ScalePoint> scale;
  for (int quarter : {1, 2, 4}) {
    size_t count = index_ptrs.size() * quarter / 4;
    if (count == 0) {
      continue;
    }
    std::vector<const ConfigIndex*> slice(index_ptrs.begin(),
                                          index_ptrs.begin() + count);
    Stopwatch watch;
    CheckResult result = checker.Check(slice, options);
    ScalePoint point;
    point.configs = count;
    point.lines = result.total_lines;
    point.seconds = watch.ElapsedSeconds();
    point.lines_per_s = point.seconds > 0 ? point.lines / point.seconds : 0;
    point.violations = result.violations.size();
    scale.push_back(point);
    std::printf("%-14s %10zu %12zu %10.3f %14.0f\n",
                (std::to_string(quarter) + "/4 corpus").c_str(), point.configs,
                point.lines, point.seconds, point.lines_per_s);
  }

  bool pass = socket_ok && socket_wide_speedup >= kGateSpeedup &&
              socket_slots_identical && slots_identical && sequential_stable &&
              !scale.empty();

  // Merge under "batch", preserving bench_overload's fields if present.
  JsonValue root = JsonValue::Object();
  {
    std::ifstream in(kOutPath);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      if (std::optional<JsonValue> existing = JsonValue::Parse(buffer.str());
          existing && existing->is_object()) {
        root = std::move(*existing);
      }
    }
  }
  JsonValue batch = JsonValue::Object();
  batch.Set("dataset", JsonValue::String(corpus.role));
  batch.Set("configs", JsonValue::Number(static_cast<int64_t>(corpus.configs.size())));
  batch.Set("corpus_lines", JsonValue::Number(static_cast<int64_t>(corpus.TotalLines())));
  batch.Set("contracts", JsonValue::Number(static_cast<int64_t>(learned.set.contracts.size())));
  JsonValue sweep_json = JsonValue::Array();
  for (const SweepPoint& point : sweep) {
    JsonValue row = JsonValue::Object();
    row.Set("n", JsonValue::Number(static_cast<int64_t>(point.n)));
    row.Set("batched_s", JsonValue::Number(point.batched_s));
    row.Set("sequential_s", JsonValue::Number(point.sequential_s));
    row.Set("speedup", JsonValue::Number(point.speedup));
    sweep_json.Append(std::move(row));
  }
  batch.Set("checker_sweep", std::move(sweep_json));
  JsonValue service_json = JsonValue::Object();
  service_json.Set("sequential_100_s", JsonValue::Number(service_seq_s));
  service_json.Set("wide_check_100_s", JsonValue::Number(service_wide_s));
  service_json.Set("wide_check_speedup", JsonValue::Number(service_wide_speedup));
  service_json.Set("check_batch_100_s", JsonValue::Number(service_batch_s));
  service_json.Set("check_batch_speedup", JsonValue::Number(service_batch_speedup));
  service_json.Set("slots_identical", JsonValue::Bool(slots_identical));
  batch.Set("service", std::move(service_json));
  JsonValue socket_json = JsonValue::Object();
  socket_json.Set("sequential_100_s", JsonValue::Number(socket_seq_s));
  socket_json.Set("sequential_persistent_100_s",
                  JsonValue::Number(socket_persistent_s));
  socket_json.Set("wide_check_100_s", JsonValue::Number(socket_wide_s));
  socket_json.Set("wide_check_speedup", JsonValue::Number(socket_wide_speedup));
  socket_json.Set("check_batch_100_s", JsonValue::Number(socket_batch_s));
  socket_json.Set("check_batch_speedup",
                  JsonValue::Number(socket_batch_speedup));
  socket_json.Set("slots_identical", JsonValue::Bool(socket_slots_identical));
  batch.Set("socket", std::move(socket_json));
  JsonValue scale_json = JsonValue::Array();
  for (const ScalePoint& point : scale) {
    JsonValue row = JsonValue::Object();
    row.Set("configs", JsonValue::Number(static_cast<int64_t>(point.configs)));
    row.Set("lines", JsonValue::Number(static_cast<int64_t>(point.lines)));
    row.Set("seconds", JsonValue::Number(point.seconds));
    row.Set("lines_per_s", JsonValue::Number(point.lines_per_s));
    row.Set("violations", JsonValue::Number(static_cast<int64_t>(point.violations)));
    scale_json.Append(std::move(row));
  }
  batch.Set("scale_sweep", std::move(scale_json));
  JsonValue acceptance = JsonValue::Object();
  acceptance.Set("gate_batch", JsonValue::Number(static_cast<int64_t>(kGateBatch)));
  acceptance.Set("gate_speedup_min", JsonValue::Number(kGateSpeedup));
  acceptance.Set("batch100_speedup", JsonValue::Number(socket_wide_speedup));
  acceptance.Set("checker_core_batch100_speedup",
                 JsonValue::Number(gate_speedup));
  acceptance.Set("slots_identical",
                 JsonValue::Bool(slots_identical && socket_slots_identical));
  acceptance.Set("pass", JsonValue::Bool(pass));
  batch.Set("acceptance", std::move(acceptance));
  root.Set("batch", std::move(batch));

  std::string json = root.Serialize(2);
  json.push_back('\n');
  if (std::FILE* f = std::fopen(kOutPath, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", kOutPath);
  } else {
    std::printf("\nwarning: could not write %s\n", kOutPath);
  }
  std::printf(
      "acceptance (socket batch=%zu check >= %.1fx over %zu sequential round "
      "trips, check_batch slots byte-identical): %s\n",
      kGateBatch, kGateSpeedup, kGateBatch, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
