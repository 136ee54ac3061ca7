#include "src/service/service.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/cli/cli.h"
#include "src/datagen/edge_gen.h"
#include "src/format/json.h"
#include "src/service/socket_server.h"
#include "src/util/fault.h"
#include "src/util/io.h"
#include "src/util/trace.h"

namespace concord {
namespace {

// Connects to a unix socket, retrying while the server thread binds it.
int ConnectTo(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return -1;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  for (int attempt = 0; attempt < 500; ++attempt) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

// Reads one newline-terminated response (the newline is stripped).
std::string ReadLine(int fd) {
  std::string line;
  char c;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') {
      return line;
    }
    line.push_back(c);
  }
  return line;
}

// Reads until the server closes the connection.
std::string ReadUntilEof(int fd) {
  std::string received;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    received.append(chunk, static_cast<size_t>(n));
  }
  return received;
}

bool WriteStr(int fd, const std::string& data) {
  return ::write(fd, data.data(), data.size()) == static_cast<ssize_t>(data.size());
}

// Drives the service the way `concord serve` does, via the in-process entry points;
// contracts come from real `concord learn` runs over the cli_test fixture configs
// and an EdgeGenerator corpus (datagen_test.cc's fixtures).
class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process path: concurrent runs (e.g. plain and sanitized ctest in
    // side-by-side build trees) must not race on remove_all below.
    dir_ = std::filesystem::temp_directory_path() /
           ("concord_service_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_ / "configs");
    for (int i = 1; i <= 6; ++i) {
      WriteFile(ConfigPath(i), Config(i));
    }
    ASSERT_EQ(RunCli({"learn", "--configs", ConfigsGlob(), "--support", "3",
                      "--score-threshold", "3", "--out", ContractsPath()}),
              0);
  }

  void TearDown() override {
    FaultInjector::Global().Reset();
    std::filesystem::remove_all(dir_);
  }

  static std::string Config(int i) {
    std::string s = std::to_string(i);
    return "hostname DEV" + s +
           "\n"
           "interface Loopback0\n"
           "   ip address 10.14." +
           s +
           ".34\n"
           "ip prefix-list loopback\n"
           "   seq 10 permit 10.14." +
           s +
           ".34/32\n"
           "router bgp 65015\n"
           "   vlan 25" +
           s +
           "\n"
           "      rd 10.99.0." +
           s + ":1025" + s + "\n";
  }

  int RunCli(const std::vector<std::string>& args, std::string* stdout_text = nullptr) {
    std::vector<const char*> argv;
    argv.push_back("concord");
    for (const std::string& a : args) {
      argv.push_back(a.c_str());
    }
    std::ostringstream out, err;
    int code = RunConcord(static_cast<int>(argv.size()), argv.data(), out, err);
    if (stdout_text != nullptr) {
      *stdout_text = out.str();
    }
    return code;
  }

  // Builds a check/coverage request over the fixture configs; names are the file
  // paths so reports are byte-comparable with a one-shot `concord check` run.
  static std::string CheckRequest(const std::string& verb, const std::string& set_name,
                                  const std::vector<std::string>& paths,
                                  const std::vector<std::string>& metadata_paths = {}) {
    JsonValue request = JsonValue::Object();
    request.Set("v", JsonValue::Number(int64_t{1}));
    request.Set("verb", JsonValue::String(verb));
    if (!set_name.empty()) {
      request.Set("contracts", JsonValue::String(set_name));
    }
    JsonValue configs = JsonValue::Array();
    for (const std::string& path : paths) {
      JsonValue item = JsonValue::Object();
      item.Set("name", JsonValue::String(path));
      item.Set("text", JsonValue::String(ReadFile(path)));
      configs.Append(std::move(item));
    }
    request.Set("configs", std::move(configs));
    if (!metadata_paths.empty()) {
      JsonValue metadata = JsonValue::Array();
      for (const std::string& path : metadata_paths) {
        JsonValue item = JsonValue::Object();
        item.Set("name", JsonValue::String(path));
        item.Set("text", JsonValue::String(ReadFile(path)));
        metadata.Append(std::move(item));
      }
      request.Set("metadata", std::move(metadata));
    }
    return request.Serialize(0);
  }

  // Sends one request and parses the one-line response.
  static JsonValue Respond(Service& service, const std::string& line) {
    std::string text = service.HandleLine(line);
    EXPECT_EQ(text.find('\n'), std::string::npos) << text;
    std::string error;
    auto parsed = JsonValue::Parse(text, &error);
    EXPECT_TRUE(parsed.has_value()) << error << " in: " << text;
    return parsed ? *parsed : JsonValue::Null();
  }

  std::string ConfigPath(int i) const {
    return (dir_ / "configs" / ("dev" + std::to_string(i) + ".cfg")).string();
  }
  std::vector<std::string> ConfigPaths() const {
    std::vector<std::string> paths;
    for (int i = 1; i <= 6; ++i) {
      paths.push_back(ConfigPath(i));
    }
    return paths;
  }
  std::string ConfigsGlob() const { return (dir_ / "configs" / "*.cfg").string(); }
  std::string ContractsPath() const { return (dir_ / "contracts.json").string(); }

  void BreakDev3() {
    std::string bad = Config(3);
    bad = bad.replace(bad.find("seq 10 permit 10.14.3.34/32"),
                      std::string("seq 10 permit 10.14.3.34/32").size(),
                      "seq 10 permit 10.14.77.34/32");
    WriteFile(ConfigPath(3), bad);
  }

  std::unique_ptr<Service> MakeService(const std::string& name = "edge") {
    auto service = std::make_unique<Service>(ServiceOptions{});
    std::string error;
    EXPECT_TRUE(service->LoadContracts(name, ContractsPath(), &error)) << error;
    return service;
  }

  std::filesystem::path dir_;
};

TEST_F(ServiceTest, BatchedCheckMatchesOneShotByteIdentical) {
  BreakDev3();
  std::string json_path = (dir_ / "report.json").string();
  ASSERT_EQ(RunCli({"check", "--configs", ConfigsGlob(), "--contracts", ContractsPath(),
                    "--json-out", json_path}),
            1);

  auto service = MakeService();
  JsonValue response = Respond(*service, CheckRequest("check", "edge", ConfigPaths()));
  EXPECT_EQ(response.GetBool("ok"), true);
  EXPECT_EQ(response.GetInt("v"), 1);
  EXPECT_GT(response.GetInt("violations").value_or(0), 0);
  EXPECT_EQ(response.GetInt("configs_checked"), 6);
  const JsonValue* report = response.Find("report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->Serialize(2), ReadFile(json_path));
}

TEST_F(ServiceTest, RepeatedCheckHitsCacheAndReportsIdentically) {
  BreakDev3();
  auto service = MakeService();
  std::string request = CheckRequest("check", "edge", ConfigPaths());

  JsonValue first = Respond(*service, request);
  EXPECT_EQ(first.GetInt("cache_hits"), 0);
  EXPECT_EQ(first.GetInt("cache_misses"), 6);

  JsonValue second = Respond(*service, request);
  EXPECT_EQ(second.GetInt("cache_hits"), 6);
  EXPECT_EQ(second.GetInt("cache_misses"), 0);
  ASSERT_NE(second.Find("report"), nullptr);
  EXPECT_EQ(first.Find("report")->Serialize(2), second.Find("report")->Serialize(2));

  // The cache hit is visible in stats.
  JsonValue stats = Respond(*service, R"({"v":1,"verb":"stats"})");
  const JsonValue* cache = stats.Find("stats")->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->GetInt("hits"), 6);
  EXPECT_EQ(cache->GetInt("misses"), 6);
}

TEST_F(ServiceTest, EdgeCorpusBatchMatchesOneShot) {
  // Reuse the EdgeGenerator fixture from datagen_test.cc as a bigger batch with
  // metadata (§3.7).
  EdgeOptions options;
  options.sites = 3;
  options.devices_per_site = 2;
  options.seed = 7;
  GeneratedCorpus corpus = GenerateEdge(options);
  auto edge_dir = dir_ / "edge";
  std::filesystem::create_directories(edge_dir);
  std::vector<std::string> config_paths;
  std::vector<std::string> metadata_paths;
  for (const GeneratedConfig& config : corpus.configs) {
    config_paths.push_back((edge_dir / config.name).string());
    WriteFile(config_paths.back(), config.text);
  }
  for (const GeneratedConfig& metadata : corpus.metadata) {
    metadata_paths.push_back((edge_dir / metadata.name).string());
    WriteFile(metadata_paths.back(), metadata.text);
  }
  std::string contracts = (dir_ / "edge_contracts.json").string();
  std::string configs_glob = (edge_dir / "*.cfg").string();
  std::string metadata_glob = (edge_dir / "*.meta.json").string();
  ASSERT_EQ(RunCli({"learn", "--configs", configs_glob, "--metadata", metadata_glob,
                    "--support", "3", "--out", contracts}),
            0);
  std::string json_path = (dir_ / "edge_report.json").string();
  int one_shot = RunCli({"check", "--configs", configs_glob, "--metadata", metadata_glob,
                         "--contracts", contracts, "--json-out", json_path});
  ASSERT_LE(one_shot, 1);  // Clean or violations; either way the reports must agree.

  Service service(ServiceOptions{});
  std::string error;
  ASSERT_TRUE(service.LoadContracts("edge", contracts, &error)) << error;
  JsonValue response =
      Respond(service, CheckRequest("check", "edge", config_paths, metadata_paths));
  EXPECT_EQ(response.GetBool("ok"), true);
  EXPECT_EQ(response.GetInt("configs_checked"),
            static_cast<int64_t>(corpus.configs.size()));
  ASSERT_NE(response.Find("report"), nullptr);
  EXPECT_EQ(response.Find("report")->Serialize(2), ReadFile(json_path));
}

// The same metadata text split across two documents is different metadata:
// `{"vlan": ` and `7}` parse as neither the document nor its `vlan` line. A
// warm service must answer the split request exactly as a fresh one does, so
// nothing it caches may be keyed by the concatenated metadata text.
TEST_F(ServiceTest, SplitMetadataDocumentsAreNotTheWholeDocument) {
  auto vlan_dir = dir_ / "vlan";
  std::filesystem::create_directories(vlan_dir);
  for (int i = 1; i <= 3; ++i) {
    WriteFile((vlan_dir / ("dev" + std::to_string(i) + ".cfg")).string(),
              "hostname DEV" + std::to_string(i) + "\nvlan 7\n");
  }
  auto meta = [this](const std::string& file, const std::string& text) {
    std::string path = (dir_ / file).string();
    WriteFile(path, text);
    return path;
  };
  const std::string whole = meta("whole.meta.json", "{\"vlan\": 7}");
  const std::string head = meta("head.meta.json", "{\"vlan\": ");
  const std::string tail = meta("tail.meta.json", "7}");
  std::string contracts = (dir_ / "vlan_contracts.json").string();
  ASSERT_EQ(RunCli({"learn", "--configs", (vlan_dir / "*.cfg").string(), "--metadata",
                    whole, "--support", "2", "--out", contracts}),
            0);
  ASSERT_NE(ReadFile(contracts).find("@meta/vlan [a:num]"), std::string::npos);
  const std::string config = (vlan_dir / "dev1.cfg").string();
  const std::string split = CheckRequest("check", "vlan", {config}, {head, tail});
  std::string error;

  Service fresh(ServiceOptions{});
  ASSERT_TRUE(fresh.LoadContracts("vlan", contracts, &error)) << error;
  JsonValue expected = Respond(fresh, split);
  EXPECT_EQ(expected.GetInt("violations"), 1);  // missing @meta/vlan [a:num]
  ASSERT_NE(expected.Find("report"), nullptr);

  Service warm(ServiceOptions{});
  ASSERT_TRUE(warm.LoadContracts("vlan", contracts, &error)) << error;
  JsonValue first = Respond(warm, CheckRequest("check", "vlan", {config}, {whole}));
  EXPECT_EQ(first.GetInt("violations"), 0);
  JsonValue second = Respond(warm, split);
  EXPECT_EQ(second.GetInt("cache_hits"), 1);  // The config's parse is reused.
  ASSERT_NE(second.Find("report"), nullptr);
  EXPECT_EQ(second.Find("report")->Serialize(2), expected.Find("report")->Serialize(2));
}

TEST_F(ServiceTest, CoverageVerbReturnsListing) {
  auto service = MakeService();
  JsonValue response = Respond(*service, CheckRequest("coverage", "edge", ConfigPaths()));
  EXPECT_EQ(response.GetBool("ok"), true);
  const JsonValue* coverage = response.Find("coverage");
  ASSERT_NE(coverage, nullptr);
  EXPECT_GT(coverage->GetInt("totalLines").value_or(0), 0);
  auto listing = response.GetString("listing");
  ASSERT_TRUE(listing.has_value());
  EXPECT_NE(listing->find("dev1.cfg:1 "), std::string::npos);
}

TEST_F(ServiceTest, ReloadHotSwapsContractsAndDropsCache) {
  // A second contract set learned with relational contracts disabled misses the
  // planted dev3 violation.
  std::string relaxed = (dir_ / "relaxed.json").string();
  ASSERT_EQ(RunCli({"learn", "--configs", ConfigsGlob(), "--support", "3",
                    "--disable", "relational", "--out", relaxed}),
            0);
  BreakDev3();

  auto service = MakeService();
  std::string request = CheckRequest("check", "edge", ConfigPaths());
  JsonValue before = Respond(*service, request);
  EXPECT_GT(before.GetInt("violations").value_or(0), 0);

  JsonValue reload = Respond(
      *service, R"({"v":1,"verb":"reload","name":"edge","path":")" + relaxed + "\"}");
  EXPECT_EQ(reload.GetBool("ok"), true);
  EXPECT_GT(reload.GetInt("contracts").value_or(0), 0);

  JsonValue after = Respond(*service, request);
  EXPECT_EQ(after.GetInt("violations"), 0);
  // The swap rebuilt the pattern table, so the config cache starts cold again.
  EXPECT_EQ(after.GetInt("cache_misses"), 6);

  // Reload without a path re-reads the remembered file; "contracts" selects
  // the set just like in check requests ("name" is an accepted alias).
  JsonValue again = Respond(*service, R"({"v":1,"verb":"reload","contracts":"edge"})");
  EXPECT_EQ(again.GetBool("ok"), true);
  EXPECT_EQ(again.GetString("path"), relaxed);
}

TEST_F(ServiceTest, StatsExposesVerbsCacheWorkAndSets) {
  auto service = MakeService();
  Respond(*service, CheckRequest("check", "edge", ConfigPaths()));
  Respond(*service, CheckRequest("check", "edge", ConfigPaths()));
  JsonValue response = Respond(*service, R"({"v":1,"verb":"stats"})");
  EXPECT_EQ(response.GetBool("ok"), true);

  const JsonValue* stats = response.Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->GetInt("requests"), 2);
  const JsonValue* check_stats = stats->Find("verbs")->Find("check");
  ASSERT_NE(check_stats, nullptr);
  EXPECT_EQ(check_stats->GetInt("count"), 2);
  EXPECT_GT(check_stats->Find("latency")->GetInt("count").value_or(0), 0);
  EXPECT_EQ(stats->Find("cache")->GetInt("hits"), 6);
  EXPECT_EQ(stats->Find("work")->GetInt("configs_checked"), 12);

  const JsonValue* sets = response.Find("contract_sets");
  ASSERT_NE(sets, nullptr);
  ASSERT_EQ(sets->items().size(), 1u);
  EXPECT_EQ(sets->items()[0].GetString("name"), "edge");
  EXPECT_GT(sets->items()[0].GetInt("cached_configs").value_or(0), 0);
}

TEST_F(ServiceTest, MalformedRequestsGetErrorsWithoutKillingTheLoop) {
  auto service = MakeService();
  std::istringstream in(
      "{this is not json\n"
      "42\n"
      "{\"v\":1,\"verb\":\"frobnicate\"}\n"
      "{\"v\":1,\"verb\":\"check\",\"contracts\":\"nope\",\"configs\":[{\"name\":\"a\",\"text\":\"b\"}]}\n"
      "{\"v\":1,\"verb\":\"check\",\"contracts\":\"edge\"}\n"
      "{\"v\":1,\"verb\":\"check\",\"contracts\":\"edge\",\"configs\":[{\"name\":7}]}\n"
      "{\"v\":1,\"verb\":\"reload\",\"name\":\"edge\",\"path\":\"/nonexistent.json\"}\n"
      "\n"
      "{\"v\":1,\"verb\":\"stats\",\"id\":7}\n"
      "{\"v\":1,\"verb\":\"shutdown\"}\n");
  std::ostringstream out, summary;
  EXPECT_EQ(RunService(*service, in, out, &summary), 0);

  std::vector<std::string> lines;
  std::istringstream responses(out.str());
  for (std::string line; std::getline(responses, line);) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 9u);  // Every non-empty request got exactly one response.
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string error;
    auto parsed = JsonValue::Parse(lines[i], &error);
    ASSERT_TRUE(parsed.has_value()) << error << " in: " << lines[i];
    EXPECT_EQ(parsed->GetInt("v"), 1) << lines[i];
    bool expect_ok = i >= 7;
    EXPECT_EQ(parsed->GetBool("ok"), expect_ok) << lines[i];
    if (!expect_ok) {
      // The v1 error envelope: an object with a closed-enum code and a message.
      const JsonValue* err_obj = parsed->Find("error");
      ASSERT_NE(err_obj, nullptr) << lines[i];
      ASSERT_TRUE(err_obj->is_object()) << lines[i];
      EXPECT_TRUE(err_obj->GetString("code").has_value()) << lines[i];
      EXPECT_TRUE(err_obj->GetString("message").has_value()) << lines[i];
    }
  }
  // Spot-check codes: malformed JSON, unknown verb, unknown set, bad field.
  auto code_of = [&lines](size_t i) {
    return JsonValue::Parse(lines[i])->Find("error")->GetString("code").value_or("");
  };
  EXPECT_EQ(code_of(0), "malformed_request");
  EXPECT_EQ(code_of(1), "malformed_request");
  EXPECT_EQ(code_of(2), "unknown_verb");
  EXPECT_EQ(code_of(3), "unknown_contract_set");
  EXPECT_EQ(code_of(4), "invalid_field");
  EXPECT_EQ(code_of(5), "invalid_field");
  EXPECT_EQ(code_of(6), "io_error");
  // The id is echoed and the summary names the failed requests.
  std::string stats_error;
  auto stats = JsonValue::Parse(lines[7], &stats_error);
  EXPECT_EQ(stats->GetInt("id"), 7);
  EXPECT_NE(summary.str().find("concord serve summary"), std::string::npos);
  EXPECT_NE(summary.str().find("errors"), std::string::npos);

  // A failed reload never clobbers the resident set: checking still works.
  JsonValue check = Respond(*service, CheckRequest("check", "edge", ConfigPaths()));
  EXPECT_EQ(check.GetBool("ok"), true);
}

TEST_F(ServiceTest, ShutdownEndsLoopEarly) {
  auto service = MakeService();
  std::istringstream in(
      "{\"v\":1,\"verb\":\"shutdown\"}\n"
      "{\"v\":1,\"verb\":\"stats\"}\n");
  std::ostringstream out;
  EXPECT_EQ(RunService(*service, in, out, nullptr), 0);
  // Only the shutdown line was answered; it carries a final stats snapshot.
  std::string text = out.str();
  ASSERT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
  std::string error;
  auto response = JsonValue::Parse(text.substr(0, text.size() - 1), &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->GetBool("ok"), true);
  ASSERT_NE(response->Find("stats"), nullptr);
  EXPECT_TRUE(service->shutdown_requested());
}

TEST_F(ServiceTest, UnixSocketServesProtocol) {
  auto service = MakeService();
  std::string socket_path = (dir_ / "serve.sock").string();
  std::ostringstream err;
  std::thread server([&] { RunServiceSocket(*service, socket_path, err, nullptr); });

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(socket_path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  // First client: hangs up without reading its responses. The server is
  // accepting clients one at a time, so this session runs to completion
  // before the next connect is served — writes to the closed peer must
  // surface as EPIPE, not as a fatal SIGPIPE. The listener binds
  // asynchronously; this connect loop doubles as the bind wait.
  int abrupt = -1;
  for (int attempt = 0; attempt < 200; ++attempt) {
    abrupt = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(abrupt, 0);
    if (::connect(abrupt, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      break;
    }
    ::close(abrupt);
    abrupt = -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(abrupt, 0) << "could not connect to " << socket_path;
  std::string burst = "{\"v\":1,\"verb\":\"stats\"}\n{\"v\":1,\"verb\":\"stats\"}\n";
  ASSERT_EQ(::write(abrupt, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
  ::close(abrupt);  // Hang up with both responses unread.

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  std::string requests = "{\"v\":1,\"verb\":\"stats\"}\n{\"v\":1,\"verb\":\"shutdown\"}\n";
  ASSERT_EQ(::write(fd, requests.data(), requests.size()),
            static_cast<ssize_t>(requests.size()));
  std::string received;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    received.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  server.join();

  std::istringstream responses(received);
  int ok_lines = 0;
  for (std::string line; std::getline(responses, line);) {
    std::string error;
    auto parsed = JsonValue::Parse(line, &error);
    ASSERT_TRUE(parsed.has_value()) << error << " in: " << line;
    EXPECT_EQ(parsed->GetBool("ok"), true);
    ++ok_lines;
  }
  EXPECT_EQ(ok_lines, 2);
  EXPECT_FALSE(std::filesystem::exists(socket_path));  // Cleaned up on shutdown.
}

TEST_F(ServiceTest, CheckIsolatesUnparseableConfigs) {
  auto service = MakeService();
  // The first config of the batch fails to parse; the other five are checked.
  ASSERT_TRUE(FaultInjector::Global().Configure("parse:fail_nth=1"));
  JsonValue response = Respond(*service, CheckRequest("check", "edge", ConfigPaths()));
  FaultInjector::Global().Reset();
  EXPECT_EQ(response.GetBool("ok"), true);
  EXPECT_EQ(response.GetInt("configs_checked"), 5);
  const JsonValue* degraded = response.Find("degraded");
  ASSERT_NE(degraded, nullptr);
  ASSERT_EQ(degraded->items().size(), 1u);
  EXPECT_EQ(degraded->items()[0].GetString("file"), ConfigPath(1));
  // v1 degraded entries carry the structured error envelope.
  const JsonValue* entry_error = degraded->items()[0].Find("error");
  ASSERT_NE(entry_error, nullptr);
  EXPECT_EQ(entry_error->GetString("code"), "parse_failed");
  EXPECT_NE(entry_error->GetString("message")->find("injected fault: parse"),
            std::string::npos);
  // The embedded report carries the matching degraded section.
  const JsonValue* report = response.Find("report");
  ASSERT_NE(report, nullptr);
  ASSERT_NE(report->Find("degraded"), nullptr);

  // With the fault cleared the same batch is whole again (and carries no
  // degraded member, keeping clean responses byte-stable).
  JsonValue after = Respond(*service, CheckRequest("check", "edge", ConfigPaths()));
  EXPECT_EQ(after.GetInt("configs_checked"), 6);
  EXPECT_EQ(after.Find("degraded"), nullptr);
}

TEST_F(ServiceTest, WhollyUnparseableBatchIsAnError) {
  auto service = MakeService();
  ASSERT_TRUE(FaultInjector::Global().Configure("parse:fail_all"));
  JsonValue response = Respond(*service, CheckRequest("check", "edge", ConfigPaths()));
  FaultInjector::Global().Reset();
  EXPECT_EQ(response.GetBool("ok"), false);
  const JsonValue* error = response.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code"), "parse_failed");
  EXPECT_NE(error->GetString("message")->find("all 6 configs failed to parse"),
            std::string::npos);
}

TEST_F(ServiceTest, DeadlineExpiryIsStructuredAndNonFatal) {
  auto service = MakeService();
  std::string base = CheckRequest("check", "edge", ConfigPaths());
  std::string error;
  auto request = JsonValue::Parse(base, &error);
  ASSERT_TRUE(request.has_value()) << error;
  request->Set("deadline_ms", JsonValue::Number(int64_t{1}));
  // The injected delay guarantees the 1 ms budget is gone before checking starts.
  ASSERT_TRUE(FaultInjector::Global().Configure("check:delay_ms=50"));
  JsonValue response = Respond(*service, request->Serialize(0));
  FaultInjector::Global().Reset();
  EXPECT_EQ(response.GetBool("ok"), false);
  const JsonValue* error_obj = response.Find("error");
  ASSERT_NE(error_obj, nullptr);
  EXPECT_EQ(error_obj->GetString("code"), "deadline_exceeded");

  // One expired request never wedges the service: the same batch without the
  // budget succeeds immediately afterwards.
  JsonValue after = Respond(*service, base);
  EXPECT_EQ(after.GetBool("ok"), true);
  EXPECT_EQ(after.GetInt("configs_checked"), 6);
}

TEST_F(ServiceTest, UnixSocketToleratesFramingVariations) {
  auto service = MakeService();
  std::string socket_path = (dir_ / "framing.sock").string();
  std::ostringstream err;
  std::thread server([&] { RunServiceSocket(*service, socket_path, err, nullptr); });

  int fd = ConnectTo(socket_path);
  ASSERT_GE(fd, 0) << "could not connect to " << socket_path;

  // CRLF line endings are tolerated.
  ASSERT_TRUE(WriteStr(fd, "{\"v\":1,\"verb\":\"stats\"}\r\n"));
  std::string error;
  auto response = JsonValue::Parse(ReadLine(fd), &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->GetBool("ok"), true);

  // A request split across many tiny writes, surrounded by blank lines.
  for (char c : std::string("\n\n{\"v\":1,\"verb\":\"stats\"}\n\n")) {
    ASSERT_TRUE(WriteStr(fd, std::string(1, c)));
  }
  response = JsonValue::Parse(ReadLine(fd), &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->GetBool("ok"), true);
  ::close(fd);

  // A client disconnecting mid-line drops the partial request harmlessly.
  int partial = ConnectTo(socket_path);
  ASSERT_GE(partial, 0);
  ASSERT_TRUE(WriteStr(partial, "{\"v\":1,\"verb\":\"st"));
  ::close(partial);

  // The server is still healthy: a fresh connection shuts it down cleanly.
  int last = ConnectTo(socket_path);
  ASSERT_GE(last, 0);
  ASSERT_TRUE(WriteStr(last, "{\"v\":1,\"verb\":\"shutdown\"}\n"));
  response = JsonValue::Parse(ReadLine(last), &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->GetBool("ok"), true);
  ::close(last);
  server.join();
  EXPECT_FALSE(std::filesystem::exists(socket_path));
}

TEST_F(ServiceTest, OverlongRequestLineIsRejectedAndConnectionClosed) {
  auto service = MakeService();
  std::string socket_path = (dir_ / "cap.sock").string();
  SocketServerOptions options;
  options.max_line_bytes = 128;
  std::ostringstream err;
  std::thread server(
      [&] { RunServiceSocket(*service, socket_path, err, nullptr, options); });

  int fd = ConnectTo(socket_path);
  ASSERT_GE(fd, 0);
  // 4 KiB without a newline overruns the 128-byte cap mid-line.
  ASSERT_TRUE(WriteStr(fd, std::string(4096, 'x')));
  std::string received = ReadUntilEof(fd);  // Reply, then the server hangs up.
  ::close(fd);
  EXPECT_NE(received.find("\"code\":\"line_too_long\""), std::string::npos);
  EXPECT_NE(received.find("128 bytes"), std::string::npos);

  // The cap protects the server, it does not stop it: the next client works.
  int last = ConnectTo(socket_path);
  ASSERT_GE(last, 0);
  ASSERT_TRUE(WriteStr(last, "{\"v\":1,\"verb\":\"shutdown\"}\n"));
  std::string error;
  auto response = JsonValue::Parse(ReadLine(last), &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->GetBool("ok"), true);
  ::close(last);
  server.join();
}

TEST_F(ServiceTest, SigtermDrainsInFlightWorkAndCleansUp) {
  auto service = MakeService();
  std::string socket_path = (dir_ / "drain.sock").string();
  SocketServerOptions options;
  options.drain_ms = 5000;  // Generous: the drain should finish far sooner.
  std::ostringstream err, summary;
  std::atomic<int> rc{-1};
  std::thread server(
      [&] { rc = RunServiceSocket(*service, socket_path, err, &summary, options); });

  int fd = ConnectTo(socket_path);
  ASSERT_GE(fd, 0);
  // A served round trip proves the signal handlers are installed (they go in
  // before the accept loop runs) — only then is self-signaling safe.
  ASSERT_TRUE(WriteStr(fd, "{\"v\":1,\"verb\":\"stats\"}\n"));
  std::string error;
  auto warmup = JsonValue::Parse(ReadLine(fd), &error);
  ASSERT_TRUE(warmup.has_value()) << error;

  // Put a slow check in flight, then deliver SIGTERM mid-request.
  ASSERT_TRUE(FaultInjector::Global().Configure("check:delay_ms=300"));
  ASSERT_TRUE(WriteStr(fd, CheckRequest("check", "edge", ConfigPaths()) + "\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);

  // The in-flight response still arrives, complete.
  auto response = JsonValue::Parse(ReadLine(fd), &error);
  FaultInjector::Global().Reset();
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->GetBool("ok"), true);
  EXPECT_EQ(response->GetInt("configs_checked"), 6);
  // ...after which the drained server closes the connection.
  EXPECT_EQ(ReadUntilEof(fd), "");
  ::close(fd);

  server.join();
  EXPECT_EQ(rc.load(), 0);  // Signal-driven shutdown is a clean exit.
  EXPECT_FALSE(std::filesystem::exists(socket_path));
  EXPECT_NE(summary.str().find("concord serve summary"), std::string::npos);
}

// Builds a learn/update request from generated corpus configs.
std::string LearnRequest(const std::string& verb, const std::string& dataset,
                         const std::vector<GeneratedConfig>& configs,
                         const std::vector<GeneratedConfig>& metadata,
                         const char* configs_member) {
  JsonValue request = JsonValue::Object();
  request.Set("v", JsonValue::Number(int64_t{1}));
  request.Set("verb", JsonValue::String(verb));
  request.Set("dataset", JsonValue::String(dataset));
  JsonValue items = JsonValue::Array();
  for (const GeneratedConfig& config : configs) {
    JsonValue item = JsonValue::Object();
    item.Set("name", JsonValue::String(config.name));
    item.Set("text", JsonValue::String(config.text));
    items.Append(std::move(item));
  }
  request.Set(configs_member, std::move(items));
  if (!metadata.empty()) {
    JsonValue meta = JsonValue::Array();
    for (const GeneratedConfig& m : metadata) {
      JsonValue item = JsonValue::Object();
      item.Set("name", JsonValue::String(m.name));
      item.Set("text", JsonValue::String(m.text));
      meta.Append(std::move(item));
    }
    request.Set("metadata", std::move(meta));
  }
  JsonValue options = JsonValue::Object();
  options.Set("support", JsonValue::Number(int64_t{3}));
  request.Set("options", std::move(options));
  return request.Serialize(0);
}

TEST_F(ServiceTest, LearnMakesDatasetResidentAndCheckable) {
  Service service(ServiceOptions{});
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});

  JsonValue learned = Respond(
      service, LearnRequest("learn", "edge-live", corpus.configs, corpus.metadata, "configs"));
  EXPECT_EQ(learned.GetBool("ok"), true);
  EXPECT_EQ(learned.GetString("verb"), "learn");
  EXPECT_EQ(learned.GetInt("configs"), static_cast<int64_t>(corpus.configs.size()));
  EXPECT_GT(learned.GetInt("contracts").value_or(0), 0);
  const JsonValue* artifacts = learned.Find("artifacts");
  ASSERT_NE(artifacts, nullptr);
  EXPECT_EQ(artifacts->GetInt("parse_misses"),
            static_cast<int64_t>(corpus.configs.size()));
  EXPECT_EQ(artifacts->GetInt("mine_hits"), 0);

  // The learned set is installed under the dataset name: check against it.
  JsonValue request = JsonValue::Object();
  request.Set("v", JsonValue::Number(int64_t{1}));
  request.Set("verb", JsonValue::String("check"));
  request.Set("contracts", JsonValue::String("edge-live"));
  JsonValue configs = JsonValue::Array();
  JsonValue item = JsonValue::Object();
  item.Set("name", JsonValue::String(corpus.configs[0].name));
  item.Set("text", JsonValue::String(corpus.configs[0].text));
  configs.Append(std::move(item));
  request.Set("configs", std::move(configs));
  JsonValue checked = Respond(service, request.Serialize(0));
  EXPECT_EQ(checked.GetBool("ok"), true);
  EXPECT_EQ(checked.GetInt("configs_checked"), 1);
}

TEST_F(ServiceTest, UpdateRelearnsIncrementallyAndReportsDelta) {
  Service service(ServiceOptions{});
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  Respond(service,
          LearnRequest("learn", "edge-live", corpus.configs, corpus.metadata, "configs"));

  // Replace one config with a drifted version.
  GeneratedConfig changed = corpus.configs[3];
  changed.text += "ntp server 10.0.0.250\n";
  // "configs" is the documented member; "upsert" (used by the unknown-dataset
  // test below) is accepted as an alias.
  JsonValue updated =
      Respond(service, LearnRequest("update", "edge-live", {changed}, {}, "configs"));
  EXPECT_EQ(updated.GetBool("ok"), true);
  EXPECT_EQ(updated.GetString("verb"), "update");

  // Incrementality proof: only the upserted config's artifacts were recomputed.
  const JsonValue* artifacts = updated.Find("artifacts");
  ASSERT_NE(artifacts, nullptr);
  EXPECT_EQ(artifacts->GetInt("parse_misses"), 1);
  EXPECT_EQ(artifacts->GetInt("index_misses"), 1);
  EXPECT_EQ(artifacts->GetInt("mine_misses"), 1);
  EXPECT_EQ(artifacts->GetInt("index_hits"),
            static_cast<int64_t>(corpus.configs.size()) - 1);
  EXPECT_EQ(artifacts->GetInt("mine_hits"),
            static_cast<int64_t>(corpus.configs.size()) - 1);

  const JsonValue* delta = updated.Find("changed");
  ASSERT_NE(delta, nullptr);
  EXPECT_GE(delta->GetInt("added").value_or(-1), 0);
  EXPECT_GE(delta->GetInt("removed").value_or(-1), 0);

  // Removing the config again relearns on the smaller corpus.
  JsonValue request = JsonValue::Object();
  request.Set("v", JsonValue::Number(int64_t{1}));
  request.Set("verb", JsonValue::String("update"));
  request.Set("dataset", JsonValue::String("edge-live"));
  JsonValue remove = JsonValue::Array();
  remove.Append(JsonValue::String(changed.name));
  request.Set("remove", std::move(remove));
  JsonValue removed = Respond(service, request.Serialize(0));
  EXPECT_EQ(removed.GetBool("ok"), true);
  EXPECT_EQ(removed.GetInt("removed_configs"), 1);
  EXPECT_EQ(removed.GetInt("configs"), static_cast<int64_t>(corpus.configs.size()) - 1);
}

TEST_F(ServiceTest, UpdateUnknownDatasetIsAnError) {
  Service service(ServiceOptions{});
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  JsonValue response = Respond(
      service, LearnRequest("update", "nope", {corpus.configs[0]}, {}, "upsert"));
  EXPECT_EQ(response.GetBool("ok"), false);
  const JsonValue* error = response.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code"), "unknown_dataset");
  EXPECT_NE(error->GetString("message")->find("unknown dataset"), std::string::npos);
  EXPECT_EQ(error->GetString("detail"), "nope");
}

TEST_F(ServiceTest, LearnIsolatesUnparseableConfigs) {
  Service service(ServiceOptions{});
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  ASSERT_TRUE(FaultInjector::Global().Configure("parse:fail_nth=1"));
  JsonValue response = Respond(
      service, LearnRequest("learn", "edge-live", corpus.configs, corpus.metadata, "configs"));
  FaultInjector::Global().Reset();
  EXPECT_EQ(response.GetBool("ok"), true);
  EXPECT_EQ(response.GetInt("configs"), static_cast<int64_t>(corpus.configs.size()) - 1);
  const JsonValue* degraded = response.Find("degraded");
  ASSERT_NE(degraded, nullptr);
  ASSERT_EQ(degraded->items().size(), 1u);
  EXPECT_EQ(degraded->items()[0].GetString("file"), corpus.configs[0].name);
}

TEST_F(ServiceTest, LearnedSetCannotBeReloadedFromDisk) {
  Service service(ServiceOptions{});
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  Respond(service,
          LearnRequest("learn", "edge-live", corpus.configs, corpus.metadata, "configs"));
  JsonValue response =
      Respond(service, "{\"v\":1,\"verb\":\"reload\",\"name\":\"edge-live\"}");
  EXPECT_EQ(response.GetBool("ok"), false);
  const JsonValue* error = response.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code"), "missing_field");
  EXPECT_NE(error->GetString("message")->find("learned in memory"), std::string::npos);
}

TEST_F(ServiceTest, MissingVersionIsAStructuredError) {
  auto service = MakeService();
  JsonValue response = Respond(*service, R"({"verb":"stats"})");
  EXPECT_EQ(response.GetBool("ok"), false);
  EXPECT_EQ(response.GetInt("v"), 1);  // Error responses carry the envelope too.
  const JsonValue* error = response.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code"), "missing_field");
  EXPECT_EQ(error->GetString("detail"), "v");
}

TEST_F(ServiceTest, NewerVersionIsRejectedAsUnsupported) {
  auto service = MakeService();
  JsonValue response = Respond(*service, R"({"v":2,"verb":"stats"})");
  EXPECT_EQ(response.GetBool("ok"), false);
  const JsonValue* error = response.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code"), "unsupported_version");
  EXPECT_NE(error->GetString("message")->find("version 2"), std::string::npos);

  // A non-numeric version is invalid, not unsupported.
  JsonValue bad = Respond(*service, R"({"v":"one","verb":"stats"})");
  EXPECT_EQ(bad.Find("error")->GetString("code"), "invalid_field");
}

TEST_F(ServiceTest, UnknownRequestFieldFailsLoudly) {
  auto service = MakeService();
  // A typo'd member on a known verb is caught instead of silently ignored.
  JsonValue response = Respond(
      *service,
      R"({"v":1,"verb":"check","contracts":"edge","configs":[{"name":"a","text":"b"}],"metdata":[]})");
  EXPECT_EQ(response.GetBool("ok"), false);
  const JsonValue* error = response.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code"), "unknown_field");
  EXPECT_EQ(error->GetString("detail"), "metdata");

  // Members and verbs outside the v1 protocol fail the same way.
  response = Respond(
      *service,
      R"({"v":1,"verb":"check","contracts":"edge","configs":[{"name":"a","text":"b"}],"shard":true})");
  EXPECT_EQ(response.GetBool("ok"), false);
  error = response.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code"), "unknown_field");
  EXPECT_EQ(error->GetString("detail"), "shard");

  response = Respond(*service, R"({"v":1,"verb":"check_unique","log":[]})");
  EXPECT_EQ(response.GetBool("ok"), false);
  error = response.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code"), "unknown_verb");
}

TEST_F(ServiceTest, LearnOptionsAreValidatedLikeRequestFields) {
  Service service(ServiceOptions{});
  auto send = [&](const std::string& verb, const std::string& options) {
    JsonValue request = JsonValue::Object();
    request.Set("v", JsonValue::Number(int64_t{1}));
    request.Set("verb", JsonValue::String(verb));
    request.Set("dataset", JsonValue::String("lab"));
    JsonValue configs = JsonValue::Array();
    for (int i = 1; i <= 3; ++i) {
      JsonValue item = JsonValue::Object();
      item.Set("name", JsonValue::String(ConfigPath(i)));
      item.Set("text", JsonValue::String(Config(i)));
      configs.Append(std::move(item));
    }
    request.Set("configs", std::move(configs));
    request.Set("options", *JsonValue::Parse(options));
    return Respond(service, request.Serialize(0));
  };
  JsonValue learned = send("learn", R"({"support":2})");
  EXPECT_EQ(learned.GetBool("ok"), true);
  EXPECT_GT(learned.GetInt("contracts").value_or(0), 0);

  // A typo, the retired camelCase spelling, and a wrongly typed value each
  // fail loudly instead of learning with the default support.
  struct Case {
    const char* verb;
    const char* options;
    const char* code;
    const char* detail;
  };
  for (const Case& c : {Case{"learn", R"({"suport":2})", "unknown_field", "suport"},
                        Case{"learn", R"({"scoreThreshold":3})", "unknown_field",
                             "scoreThreshold"},
                        Case{"learn", R"({"support":"2"})", "invalid_field", "support"},
                        Case{"update", R"({"suport":2})", "unknown_field", "suport"},
                        Case{"update", R"({"minimize":1})", "invalid_field",
                             "minimize"}}) {
    JsonValue response = send(c.verb, c.options);
    EXPECT_EQ(response.GetBool("ok"), false) << c.verb << " " << c.options;
    const JsonValue* error = response.Find("error");
    ASSERT_NE(error, nullptr) << c.verb << " " << c.options;
    EXPECT_EQ(error->GetString("code"), c.code) << c.verb << " " << c.options;
    EXPECT_EQ(error->GetString("detail"), c.detail) << c.verb << " " << c.options;
  }
}

TEST_F(ServiceTest, UnknownVerbsAreCountedUnderTheInvalidLabel) {
  auto service = MakeService();
  constexpr int kBogus = 40;
  for (int i = 0; i < kBogus; ++i) {
    JsonValue response = Respond(
        *service, R"({"v":1,"verb":"bogus-)" + std::to_string(i) + R"("})");
    EXPECT_EQ(response.Find("error")->GetString("code"), "unknown_verb");
  }
  JsonValue stats = Respond(*service, R"({"v":1,"verb":"stats"})");
  const JsonValue* verbs = stats.Find("stats")->Find("verbs");
  ASSERT_NE(verbs, nullptr);
  for (const auto& [verb, value] : verbs->members()) {
    EXPECT_EQ(verb.find("bogus"), std::string::npos) << verb;
  }
  ASSERT_NE(verbs->Find("invalid"), nullptr);
  EXPECT_EQ(verbs->Find("invalid")->GetInt("count"), kBogus);

  auto exposition =
      Respond(*service, R"({"v":1,"verb":"metrics"})").GetString("exposition");
  ASSERT_TRUE(exposition.has_value());
  EXPECT_EQ(exposition->find("verb=\"bogus"), std::string::npos);
  EXPECT_NE(exposition->find("concord_requests_total{verb=\"invalid\",status=\"error\"} " +
                             std::to_string(kBogus)),
            std::string::npos);
}

TEST_F(ServiceTest, MetricsVerbReturnsPrometheusExposition) {
  auto service = MakeService();
  // The trace collector is a process-wide singleton; start its stage totals
  // from zero so the counts below are exactly this test's two requests.
  TraceCollector::Global().Clear();
  Respond(*service, CheckRequest("check", "edge", ConfigPaths()));
  Respond(*service, CheckRequest("check", "edge", ConfigPaths()));
  JsonValue response = Respond(*service, R"({"v":1,"verb":"metrics"})");
  EXPECT_EQ(response.GetBool("ok"), true);
  auto exposition = response.GetString("exposition");
  ASSERT_TRUE(exposition.has_value());
  // Request counters and per-verb latency histograms.
  EXPECT_NE(exposition->find(
                "concord_requests_total{verb=\"check\",status=\"ok\"} 2"),
            std::string::npos);
  EXPECT_NE(exposition->find("# TYPE concord_request_latency_micros histogram"),
            std::string::npos);
  EXPECT_NE(exposition->find("concord_request_latency_micros_bucket{verb=\"check\",le=\"+Inf\"} 2"),
            std::string::npos);
  // Cache and work families.
  EXPECT_NE(exposition->find(
                "concord_config_cache_probes_total{result=\"hit\"} 6"),
            std::string::npos);
  EXPECT_NE(exposition->find("concord_check_configs_total 12"), std::string::npos);
  // Per-stage trace counters (stats mode is always on in the service) and
  // per-contract-set gauges.
  EXPECT_NE(exposition->find(
                "concord_stage_runs_total{category=\"serve\",stage=\"check\"} 2"),
            std::string::npos);
  EXPECT_NE(exposition->find("concord_contract_set_contracts{set=\"edge\"}"),
            std::string::npos);
}

// ---- check_batch (DESIGN.md §12) ----

TEST_F(ServiceTest, CheckBatchSlotsMatchStandaloneChecksByteForByte) {
  auto service = MakeService();
  BreakDev3();

  // Distinct sub-shapes: plain, id + violating config, deadline knob.
  struct Shape {
    std::vector<std::string> paths;
    const char* id;
    int64_t deadline_ms;
  };
  std::vector<Shape> shapes = {
      {{ConfigPath(1), ConfigPath(2)}, nullptr, 0},
      {{ConfigPath(3), ConfigPath(4)}, "slot-1", 0},
      {{ConfigPath(5)}, nullptr, 60000},
  };

  std::vector<std::string> standalone;
  for (const Shape& shape : shapes) {
    std::string error;
    auto request = JsonValue::Parse(CheckRequest("check", "edge", shape.paths), &error);
    ASSERT_TRUE(request.has_value()) << error;
    if (shape.id != nullptr) {
      request->Set("id", JsonValue::String(shape.id));
    }
    if (shape.deadline_ms > 0) {
      request->Set("deadline_ms", JsonValue::Number(shape.deadline_ms));
    }
    std::string line = request->Serialize(0);
    service->HandleLine(line);                        // Cold run warms caches.
    standalone.push_back(service->HandleLine(line));  // Warm run is the oracle.
  }

  JsonValue batch = JsonValue::Object();
  batch.Set("v", JsonValue::Number(int64_t{1}));
  batch.Set("verb", JsonValue::String("check_batch"));
  batch.Set("contracts", JsonValue::String("edge"));
  JsonValue requests = JsonValue::Array();
  for (const Shape& shape : shapes) {
    JsonValue sub = JsonValue::Object();
    if (shape.id != nullptr) {
      sub.Set("id", JsonValue::String(shape.id));
    }
    JsonValue configs = JsonValue::Array();
    for (const std::string& path : shape.paths) {
      JsonValue item = JsonValue::Object();
      item.Set("name", JsonValue::String(path));
      item.Set("text", JsonValue::String(ReadFile(path)));
      configs.Append(std::move(item));
    }
    sub.Set("configs", std::move(configs));
    if (shape.deadline_ms > 0) {
      sub.Set("deadline_ms", JsonValue::Number(shape.deadline_ms));
    }
    requests.Append(std::move(sub));
  }
  batch.Set("requests", std::move(requests));

  JsonValue response = Respond(*service, batch.Serialize(0));
  EXPECT_EQ(response.GetBool("ok"), true);
  EXPECT_EQ(response.GetString("verb"), "check_batch");
  EXPECT_EQ(response.GetString("contracts"), "edge");
  EXPECT_EQ(response.GetInt("requests"), 3);
  const JsonValue* results = response.Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->items().size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(results->items()[i].Serialize(0), standalone[i]) << "slot " << i;
  }
  EXPECT_EQ(results->items()[1].GetString("id"), "slot-1");
  EXPECT_GE(results->items()[1].GetInt("violations").value_or(0), 1);
}

TEST_F(ServiceTest, CheckBatchIsolatesSlotFaults) {
  auto service = MakeService();
  // Warm the parse caches for the healthy slot, then make every new parse
  // fail: cached configs keep checking while the slot needing a fresh parse
  // degrades alone.
  Respond(*service, CheckRequest("check", "edge", {ConfigPath(1), ConfigPath(2)}));
  std::string fresh = (dir_ / "configs" / "fresh.cfg").string();
  WriteFile(fresh, Config(9));
  ASSERT_TRUE(FaultInjector::Global().Configure("parse:fail_all"));

  JsonValue batch = JsonValue::Object();
  batch.Set("v", JsonValue::Number(int64_t{1}));
  batch.Set("verb", JsonValue::String("check_batch"));
  batch.Set("contracts", JsonValue::String("edge"));
  JsonValue requests = JsonValue::Array();
  auto configs_member = [&](const std::vector<std::string>& paths) {
    JsonValue configs = JsonValue::Array();
    for (const std::string& path : paths) {
      JsonValue item = JsonValue::Object();
      item.Set("name", JsonValue::String(path));
      item.Set("text", JsonValue::String(ReadFile(path)));
      configs.Append(std::move(item));
    }
    return configs;
  };
  {
    JsonValue sub = JsonValue::Object();
    sub.Set("configs", configs_member({ConfigPath(1), ConfigPath(2)}));
    requests.Append(std::move(sub));
  }
  {
    JsonValue sub = JsonValue::Object();
    sub.Set("configs", configs_member({fresh}));  // Parse fault hits this slot.
    requests.Append(std::move(sub));
  }
  {
    JsonValue sub = JsonValue::Object();
    sub.Set("configs", JsonValue::Array());  // Invalid: empty configs.
    requests.Append(std::move(sub));
  }
  {
    JsonValue sub = JsonValue::Object();
    sub.Set("configs", configs_member({ConfigPath(1)}));
    sub.Set("bogus", JsonValue::Bool(true));  // Unknown field, per slot.
    requests.Append(std::move(sub));
  }
  batch.Set("requests", std::move(requests));

  JsonValue response = Respond(*service, batch.Serialize(0));
  FaultInjector::Global().Reset();

  // The batch itself succeeds; each faulty slot carries its own error envelope.
  EXPECT_EQ(response.GetBool("ok"), true);
  const JsonValue* results = response.Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->items().size(), 4u);
  EXPECT_EQ(results->items()[0].GetBool("ok"), true);
  EXPECT_EQ(results->items()[0].GetInt("configs_checked"), 2);
  EXPECT_EQ(results->items()[1].GetBool("ok"), false);
  EXPECT_EQ(results->items()[1].Find("error")->GetString("code"), "parse_failed");
  EXPECT_EQ(results->items()[2].GetBool("ok"), false);
  EXPECT_EQ(results->items()[2].Find("error")->GetString("code"), "invalid_field");
  EXPECT_EQ(results->items()[3].GetBool("ok"), false);
  EXPECT_EQ(results->items()[3].Find("error")->GetString("code"), "unknown_field");

  // A poisoned batch never wedges the service.
  JsonValue after = Respond(*service, CheckRequest("check", "edge", ConfigPaths()));
  EXPECT_EQ(after.GetBool("ok"), true);
}

TEST_F(ServiceTest, CheckBatchSharedResolutionFailureFailsTheBatch) {
  auto service = MakeService();
  std::string line =
      "{\"v\":1,\"verb\":\"check_batch\",\"contracts\":\"nope\",\"requests\":"
      "[{\"configs\":[{\"name\":\"a\",\"text\":\"hostname A\\n\"}]}]}";
  JsonValue response = Respond(*service, line);
  EXPECT_EQ(response.GetBool("ok"), false);
  ASSERT_NE(response.Find("error"), nullptr);
  EXPECT_EQ(response.Find("error")->GetString("code"), "unknown_contract_set");
  EXPECT_EQ(response.Find("results"), nullptr);
}

TEST_F(ServiceTest, AnalyzeVerbReportsOnLoadedContractSet) {
  auto service = MakeService();
  // With one loaded set the name is optional, like `check`.
  JsonValue response = Respond(*service, R"({"v":1,"verb":"analyze"})");
  EXPECT_EQ(response.GetBool("ok"), true);
  EXPECT_EQ(response.GetString("verb"), "analyze");
  EXPECT_EQ(response.GetString("contracts"), "edge");
  const JsonValue* report = response.Find("report");
  ASSERT_NE(report, nullptr);
  EXPECT_GT(report->GetInt("contracts").value_or(0), 0);
  ASSERT_NE(report->Find("findings"), nullptr);
  const JsonValue* counts = report->Find("counts");
  ASSERT_NE(counts, nullptr);
  // A learned set must be conflict-free on arrival.
  EXPECT_EQ(counts->GetInt("error"), 0);

  // The run and any findings land in the metrics exposition.
  JsonValue metrics = Respond(*service, R"({"v":1,"verb":"metrics"})");
  auto exposition = metrics.GetString("exposition");
  ASSERT_TRUE(exposition.has_value());
  EXPECT_NE(exposition->find("concord_analyze_runs_total 1"), std::string::npos);
}

TEST_F(ServiceTest, AnalyzeVerbOnResidentDatasetUsesItsConfigs) {
  Service service(ServiceOptions{});
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  JsonValue learned = Respond(
      service, LearnRequest("learn", "edge-live", corpus.configs, corpus.metadata, "configs"));
  ASSERT_EQ(learned.GetBool("ok"), true);
  JsonValue response =
      Respond(service, R"({"v":1,"verb":"analyze","dataset":"edge-live"})");
  EXPECT_EQ(response.GetBool("ok"), true);
  EXPECT_EQ(response.GetString("dataset"), "edge-live");
  const JsonValue* report = response.Find("report");
  ASSERT_NE(report, nullptr);
  const JsonValue* counts = report->Find("counts");
  ASSERT_NE(counts, nullptr);
  // Dataset form runs the dead-pattern sub-pass against the dataset's own
  // indexed configs; a set learned from those configs cannot be dead on them.
  EXPECT_EQ(counts->GetInt("error"), 0);
  EXPECT_EQ(counts->GetInt("warning"), 0);
}

TEST_F(ServiceTest, AnalyzeUnknownDatasetFails) {
  auto service = MakeService();
  JsonValue response =
      Respond(*service, R"({"v":1,"verb":"analyze","dataset":"nope"})");
  EXPECT_EQ(response.GetBool("ok"), false);
  const JsonValue* error = response.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code"), "unknown_dataset");
  EXPECT_EQ(error->GetString("detail"), "nope");
}

TEST_F(ServiceTest, AnalyzeRejectsContractsAndDatasetTogether) {
  auto service = MakeService();
  JsonValue response = Respond(
      *service, R"({"v":1,"verb":"analyze","contracts":"edge","dataset":"d"})");
  EXPECT_EQ(response.GetBool("ok"), false);
  const JsonValue* error = response.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code"), "invalid_field");
  EXPECT_NE(error->GetString("message")->find("mutually exclusive"),
            std::string::npos);
}

TEST_F(ServiceTest, AnalyzeRejectsUnknownFields) {
  auto service = MakeService();
  JsonValue response = Respond(
      *service,
      R"({"v":1,"verb":"analyze","configs":[{"name":"a","text":"b"}]})");
  EXPECT_EQ(response.GetBool("ok"), false);
  const JsonValue* error = response.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code"), "unknown_field");
  EXPECT_EQ(error->GetString("detail"), "configs");
}

TEST_F(ServiceTest, PruneSubsumedKeepsCoverageOffCheckReportsByteIdentical) {
  auto plain = MakeService();
  ServiceOptions options;
  options.prune_subsumed = true;
  Service pruned(options);
  std::string error;
  ASSERT_TRUE(pruned.LoadContracts("edge", ContractsPath(), &error)) << error;

  // Coverage off is the only mode where the install-time prune mask is
  // honored; the fixture configs are clean, so DESIGN.md §14 promises byte
  // identity between the pruned and unpruned services.
  auto parsed = JsonValue::Parse(CheckRequest("check", "edge", ConfigPaths()));
  ASSERT_TRUE(parsed.has_value());
  parsed->Set("coverage", JsonValue::Bool(false));
  std::string request = parsed->Serialize(0);
  JsonValue plain_response = Respond(*plain, request);
  JsonValue pruned_response = Respond(pruned, request);
  ASSERT_EQ(plain_response.GetBool("ok"), true);
  ASSERT_EQ(pruned_response.GetBool("ok"), true);
  ASSERT_NE(plain_response.Find("report"), nullptr);
  ASSERT_NE(pruned_response.Find("report"), nullptr);
  EXPECT_EQ(plain_response.Find("report")->Serialize(2),
            pruned_response.Find("report")->Serialize(2));

  // Coverage on (the default): the mask must stay inert, reports identical.
  std::string covered = CheckRequest("check", "edge", ConfigPaths());
  JsonValue plain_covered = Respond(*plain, covered);
  JsonValue pruned_covered = Respond(pruned, covered);
  EXPECT_EQ(plain_covered.Find("report")->Serialize(2),
            pruned_covered.Find("report")->Serialize(2));
}

TEST_F(ServiceTest, CheckBatchRequiresNonEmptyRequests) {
  auto service = MakeService();
  for (const char* line :
       {"{\"v\":1,\"verb\":\"check_batch\",\"contracts\":\"edge\"}",
        "{\"v\":1,\"verb\":\"check_batch\",\"contracts\":\"edge\",\"requests\":[]}"}) {
    JsonValue response = Respond(*service, line);
    EXPECT_EQ(response.GetBool("ok"), false) << line;
    ASSERT_NE(response.Find("error"), nullptr) << line;
    EXPECT_EQ(response.Find("error")->GetString("code"), "invalid_field") << line;
    EXPECT_EQ(response.Find("error")->GetString("detail"), "requests") << line;
  }
  JsonValue response = Respond(
      *service,
      "{\"v\":1,\"verb\":\"check_batch\",\"contracts\":\"edge\",\"requests\":[42]}");
  EXPECT_EQ(response.GetBool("ok"), false);
  EXPECT_NE(response.Find("error")->GetString("message")->find("must be an object"),
            std::string::npos);
}

}  // namespace
}  // namespace concord
