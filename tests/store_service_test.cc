// Durable-store serving (DESIGN.md §10): warm restarts must be byte-identical
// to cold runs and provably skip relearning; corruption must degrade to a
// relearn with store_corrupt surfaced, never a crash.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/cli/cli.h"
#include "src/datagen/edge_gen.h"
#include "src/datagen/wan_gen.h"
#include "src/format/json.h"
#include "src/pattern/lexer.h"
#include "src/service/service.h"
#include "src/store/record_io.h"
#include "src/store/store.h"
#include "src/util/fault.h"
#include "src/util/io.h"

namespace concord {
namespace {

class StoreServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("concord_store_service_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    FaultInjector::Global().Reset();
    std::filesystem::remove_all(dir_);
  }

  std::string StoreDir(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::unique_ptr<Service> MakeService(const std::string& store_dir) {
    ServiceOptions options;
    options.store_dir = store_dir;
    return std::make_unique<Service>(options);
  }

  static JsonValue Respond(Service& service, const std::string& line) {
    std::string text = service.HandleLine(line);
    std::string error;
    auto parsed = JsonValue::Parse(text, &error);
    EXPECT_TRUE(parsed.has_value()) << error << " in: " << text;
    return parsed ? *parsed : JsonValue::Null();
  }

  static std::string LearnRequest(const std::string& dataset,
                                  const GeneratedCorpus& corpus) {
    JsonValue request = JsonValue::Object();
    request.Set("v", JsonValue::Number(int64_t{1}));
    request.Set("verb", JsonValue::String("learn"));
    request.Set("dataset", JsonValue::String(dataset));
    JsonValue items = JsonValue::Array();
    for (const GeneratedConfig& config : corpus.configs) {
      JsonValue item = JsonValue::Object();
      item.Set("name", JsonValue::String(config.name));
      item.Set("text", JsonValue::String(config.text));
      items.Append(std::move(item));
    }
    request.Set("configs", std::move(items));
    if (!corpus.metadata.empty()) {
      JsonValue meta = JsonValue::Array();
      for (const GeneratedConfig& m : corpus.metadata) {
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

  static std::string CheckRequest(const std::string& dataset,
                                  const GeneratedCorpus& corpus) {
    JsonValue request = JsonValue::Object();
    request.Set("v", JsonValue::Number(int64_t{1}));
    request.Set("verb", JsonValue::String("check"));
    request.Set("contracts", JsonValue::String(dataset));
    JsonValue items = JsonValue::Array();
    for (const GeneratedConfig& config : corpus.configs) {
      JsonValue item = JsonValue::Object();
      item.Set("name", JsonValue::String(config.name));
      item.Set("text", JsonValue::String(config.text));
      items.Append(std::move(item));
    }
    request.Set("configs", std::move(items));
    return request.Serialize(0);
  }

  // Warm-restart byte-identity oracle (the tentpole acceptance check): learn in
  // one service process, "kill" it (destruct), restart from the store, and the
  // check response and per-stage hit counters must prove nothing was relearned.
  void RunWarmRestartIdentity(const GeneratedCorpus& corpus,
                              const std::string& store_name) {
    std::string store_dir = StoreDir(store_name);
    std::string check = CheckRequest("d", corpus);

    std::string cold_check;
    {
      auto cold = MakeService(store_dir);
      JsonValue learned = Respond(*cold, LearnRequest("d", corpus));
      ASSERT_EQ(learned.GetBool("ok"), true) << learned.Serialize(0);
      const JsonValue* persisted = learned.Find("store");
      ASSERT_NE(persisted, nullptr);
      EXPECT_EQ(persisted->GetBool("persisted"), true);
      cold_check = cold->HandleLine(check);
    }  // The cold process dies here; only the store survives.

    auto warm = MakeService(store_dir);
    EXPECT_EQ(warm->HandleLine(check), cold_check);

    // The hit-counter proof that the restart skipped relearning: the contract
    // set came off disk, not out of a learner.
    JsonValue stats = Respond(*warm, R"({"v":1,"verb":"stats"})");
    const JsonValue* store = stats.Find("store");
    ASSERT_NE(store, nullptr);
    const JsonValue* contracts_stage = store->Find("stages")->Find("contracts");
    ASSERT_NE(contracts_stage, nullptr);
    EXPECT_GE(contracts_stage->GetInt("hits").value_or(0), 1);
    EXPECT_EQ(contracts_stage->GetInt("corrupt"), 0);

    // The exposition agrees (satellite: store health in Prometheus).
    std::string exposition = warm->PrometheusText();
    EXPECT_NE(exposition.find("concord_store_stage_total{stage=\"contracts\","
                              "outcome=\"hit\"} 1"),
              std::string::npos)
        << exposition;
  }

  std::filesystem::path dir_;
};

TEST_F(StoreServiceTest, WarmRestartIsByteIdenticalOnEdgeCorpus) {
  EdgeOptions options;
  options.sites = 3;
  options.devices_per_site = 2;
  options.seed = 7;
  RunWarmRestartIdentity(GenerateEdge(options), "edge");
}

TEST_F(StoreServiceTest, WarmRestartIsByteIdenticalOnWanCorpus) {
  WanOptions options;
  options.role = 2;
  options.devices = 8;
  options.seed = 11;
  RunWarmRestartIdentity(GenerateWan(options), "wan");
}

TEST_F(StoreServiceTest, WarmUpdateRelearnsIncrementallyAndBitIdentically) {
  std::string store_dir = StoreDir("upd");
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  GeneratedConfig changed = corpus.configs[3];
  changed.text += "ntp server 10.0.0.250\n";
  JsonValue update = JsonValue::Object();
  update.Set("v", JsonValue::Number(int64_t{1}));
  update.Set("verb", JsonValue::String("update"));
  update.Set("dataset", JsonValue::String("d"));
  JsonValue items = JsonValue::Array();
  JsonValue item = JsonValue::Object();
  item.Set("name", JsonValue::String(changed.name));
  item.Set("text", JsonValue::String(changed.text));
  items.Append(std::move(item));
  update.Set("configs", std::move(items));
  std::string update_line = update.Serialize(0);
  std::string check = CheckRequest("d", corpus);

  // Cold: learn, then update in the same process.
  std::string cold_check;
  uint64_t cold_contracts_key = 0;
  {
    auto cold = MakeService(store_dir + "-cold");
    Respond(*cold, LearnRequest("d", corpus));
    JsonValue response = Respond(*cold, update_line);
    ASSERT_EQ(response.GetBool("ok"), true) << response.Serialize(0);
    cold_check = cold->HandleLine(check);
    cold_contracts_key =
        DurableStore(store_dir + "-cold").GetDataset("d")->contracts_key;
  }

  // Warm: learn in one process, update in a fresh process hydrated lazily from
  // the persisted blobs.
  {
    auto first = MakeService(store_dir + "-warm");
    Respond(*first, LearnRequest("d", corpus));
  }
  auto warm = MakeService(store_dir + "-warm");
  JsonValue response = Respond(*warm, update_line);
  ASSERT_EQ(response.GetBool("ok"), true) << response.Serialize(0);
  EXPECT_EQ(response.Find("degraded"), nullptr) << response.Serialize(0);
  // Incrementality survives the restart: only the upserted config re-parsed
  // after hydration's counter reset.
  const JsonValue* artifacts = response.Find("artifacts");
  ASSERT_NE(artifacts, nullptr);
  EXPECT_EQ(artifacts->GetInt("parse_misses"), 1);

  // The bit-identity oracle: the relearned set hashes to the same object and
  // checks answer byte-for-byte the same.
  EXPECT_EQ(warm->HandleLine(check), cold_check);
  EXPECT_EQ(DurableStore(store_dir + "-warm").GetDataset("d")->contracts_key,
            cold_contracts_key);
}

TEST_F(StoreServiceTest, CorruptContractsObjectDegradesToRelearnOnUpdate) {
  std::string store_dir = StoreDir("corrupt-contracts");
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  {
    auto service = MakeService(store_dir);
    Respond(*service, LearnRequest("d", corpus));
  }
  // Flip a byte in the persisted contract set.
  uint64_t contracts_key = DurableStore(store_dir).GetDataset("d")->contracts_key;
  std::string path = store_dir + "/" + DurableStore::ObjectRelPath(contracts_key);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    f.put('\x7f');
  }

  // Warm restart: the corrupt set is skipped (no crash, nothing installed)...
  auto warm = MakeService(store_dir);
  JsonValue failed = Respond(*warm, CheckRequest("d", corpus));
  EXPECT_EQ(failed.GetBool("ok"), false);
  EXPECT_EQ(failed.Find("error")->GetString("code"), "unknown_contract_set");
  JsonValue stats = Respond(*warm, R"({"v":1,"verb":"stats"})");
  EXPECT_GE(stats.Find("store")
                ->Find("stages")
                ->Find("contracts")
                ->GetInt("corrupt")
                .value_or(0),
            1);

  // ...and an update falls back to relearning from the (intact) config blobs,
  // repairing the store.
  JsonValue update = JsonValue::Object();
  update.Set("v", JsonValue::Number(int64_t{1}));
  update.Set("verb", JsonValue::String("update"));
  update.Set("dataset", JsonValue::String("d"));
  update.Set("configs", JsonValue::Array());
  JsonValue relearned = Respond(*warm, update.Serialize(0));
  ASSERT_EQ(relearned.GetBool("ok"), true) << relearned.Serialize(0);
  JsonValue checked = Respond(*warm, CheckRequest("d", corpus));
  EXPECT_EQ(checked.GetBool("ok"), true);
  // The relearn wrote the same contract bytes, which replaced the damaged object.
  EXPECT_EQ(DurableStore(store_dir).Verify().corrupt, 0u);
}

// A set persisted under one lexer is not served under another. The warm
// restart that LoadLexerDefinitions runs leaves it out, so a check answers
// unknown_contract_set, and an update relearns it from the persisted blobs
// under the service's lexer, as when the contract object is missing.
TEST_F(StoreServiceTest, WarmRestartUnderAnotherLexerRelearnsFromBlobs) {
  std::string store_dir = StoreDir("other-lexer");
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  {
    auto service = MakeService(store_dir);
    JsonValue learned = Respond(*service, LearnRequest("d", corpus));
    ASSERT_EQ(learned.GetBool("ok"), true) << learned.Serialize(0);
  }
  const std::string definitions = "host DEV[0-9]+\n";
  Lexer lexer;
  ASSERT_TRUE(lexer.LoadDefinitions(definitions));
  auto with_lexer = [&] {
    auto service = MakeService(store_dir);
    std::string error;
    EXPECT_TRUE(service->LoadLexerDefinitions(definitions, &error)) << error;
    return service;
  };

  auto warm = with_lexer();
  JsonValue refused = Respond(*warm, CheckRequest("d", corpus));
  EXPECT_EQ(refused.GetBool("ok"), false);
  EXPECT_EQ(refused.Find("error")->GetString("code"), "unknown_contract_set");
  JsonValue update = JsonValue::Object();
  update.Set("v", JsonValue::Number(int64_t{1}));
  update.Set("verb", JsonValue::String("update"));
  update.Set("dataset", JsonValue::String("d"));
  update.Set("configs", JsonValue::Array());
  JsonValue relearned = Respond(*warm, update.Serialize(0));
  ASSERT_EQ(relearned.GetBool("ok"), true) << relearned.Serialize(0);
  EXPECT_EQ(Respond(*warm, CheckRequest("d", corpus)).GetBool("ok"), true);
  EXPECT_EQ(DurableStore(store_dir).GetDataset("d")->lexer, lexer.DefinitionsKey());
  warm.reset();

  // The relearned set is now the custom lexer's: served under it, not under
  // the built-in lexer.
  EXPECT_EQ(Respond(*with_lexer(), CheckRequest("d", corpus)).GetBool("ok"), true);
  JsonValue plain = Respond(*MakeService(store_dir), CheckRequest("d", corpus));
  EXPECT_EQ(plain.GetBool("ok"), false);
  EXPECT_EQ(plain.Find("error")->GetString("code"), "unknown_contract_set");
}

// A dataset persisted by `concord learn --no-embedding --store-dir` keeps its
// parse settings through a serve update: the hydrated relearn parses without
// embedding, so the persisted contracts equal a CLI --no-embedding learn of
// the updated inputs.
TEST_F(StoreServiceTest, UpdateOfCliNoEmbeddingDatasetKeepsItsParseSettings) {
  std::string store_dir = StoreDir("no-embedding");
  std::filesystem::path configs = dir_ / "configs";
  std::filesystem::create_directories(configs);
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  for (const GeneratedConfig& config : corpus.configs) {
    WriteFile((configs / config.name).string(), config.text);
  }
  auto learn = [&](std::vector<const char*> extra) {
    std::string glob = (configs / "*.cfg").string();
    std::vector<const char*> argv = {"concord", "learn", "--configs", glob.c_str(),
                                     "--no-embedding", "--quiet"};
    argv.insert(argv.end(), extra.begin(), extra.end());
    std::ostringstream out, err;
    return RunConcord(static_cast<int>(argv.size()), argv.data(), out, err);
  };
  std::string out_path = (dir_ / "cli.json").string();
  ASSERT_EQ(learn({"--store-dir", store_dir.c_str(), "--dataset", "d", "--out",
                   out_path.c_str()}),
            0);

  // The CLI names configs by path; the update replaces one of them.
  std::string edited = (configs / corpus.configs.front().name).string();
  std::string text = corpus.configs.front().text + "ntp server 10.0.0.9\n";
  JsonValue update = JsonValue::Object();
  update.Set("v", JsonValue::Number(int64_t{1}));
  update.Set("verb", JsonValue::String("update"));
  update.Set("dataset", JsonValue::String("d"));
  JsonValue item = JsonValue::Object();
  item.Set("name", JsonValue::String(edited));
  item.Set("text", JsonValue::String(text));
  JsonValue items = JsonValue::Array();
  items.Append(std::move(item));
  update.Set("configs", std::move(items));
  {
    auto service = MakeService(store_dir);
    JsonValue reply = Respond(*service, update.Serialize(0));
    ASSERT_EQ(reply.GetBool("ok"), true) << reply.Serialize(0);
  }

  WriteFile(edited, text);
  ASSERT_EQ(learn({"--out", out_path.c_str()}), 0);
  DurableStore store(store_dir);
  std::optional<PersistedDatasetInfo> info = store.GetDataset("d");
  ASSERT_TRUE(info.has_value());
  EXPECT_FALSE(info->embed);
  EXPECT_EQ(store.GetObject(RecordType::kContracts, info->contracts_key, "contracts"),
            ReadFile(out_path));
}

TEST_F(StoreServiceTest, CorruptConfigBlobSurfacesStoreCorruptAndRelearnsRest) {
  std::string store_dir = StoreDir("corrupt-config");
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  {
    auto service = MakeService(store_dir);
    Respond(*service, LearnRequest("d", corpus));
  }
  uint64_t blob_key =
      DurableStore(store_dir).GetDataset("d")->config_keys.begin()->second;
  std::string path = store_dir + "/" + DurableStore::ObjectRelPath(blob_key);
  std::filesystem::resize_file(path, 10);  // Truncation, not just a bit flip.

  auto warm = MakeService(store_dir);
  JsonValue update = JsonValue::Object();
  update.Set("v", JsonValue::Number(int64_t{1}));
  update.Set("verb", JsonValue::String("update"));
  update.Set("dataset", JsonValue::String("d"));
  update.Set("configs", JsonValue::Array());
  JsonValue response = Respond(*warm, update.Serialize(0));
  ASSERT_EQ(response.GetBool("ok"), true) << response.Serialize(0);
  const JsonValue* degraded = response.Find("degraded");
  ASSERT_NE(degraded, nullptr);
  bool store_corrupt_seen = false;
  for (const JsonValue& entry : degraded->items()) {
    if (entry.Find("error")->GetString("code") == "store_corrupt") {
      store_corrupt_seen = true;
    }
  }
  EXPECT_TRUE(store_corrupt_seen) << response.Serialize(0);
  // The relearn ran over the surviving blobs.
  EXPECT_EQ(response.GetInt("configs"),
            static_cast<int64_t>(corpus.configs.size()) - 1);
}

TEST_F(StoreServiceTest, FaultInjectedCorruptionNeverCrashesTheService) {
  std::string store_dir = StoreDir("faults");
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  {
    auto service = MakeService(store_dir);
    Respond(*service, LearnRequest("d", corpus));
  }
  // Every store read reports a checksum mismatch (CONCORD_FAULTS syntax).
  ASSERT_TRUE(FaultInjector::Global().Configure("store_corrupt:fail_all"));
  auto warm = MakeService(store_dir);
  JsonValue response = Respond(*warm, CheckRequest("d", corpus));
  EXPECT_EQ(response.GetBool("ok"), false);
  EXPECT_EQ(response.Find("error")->GetString("code"), "unknown_contract_set");
  FaultInjector::Global().Reset();

  // With the fault cleared, a fresh restart warms normally.
  auto healthy = MakeService(store_dir);
  JsonValue checked = Respond(*healthy, CheckRequest("d", corpus));
  EXPECT_EQ(checked.GetBool("ok"), true);
}

TEST_F(StoreServiceTest, MetricsExposeStoreAndResidentDatasetHealth) {
  // The resident-datasets gauge is always on, store or not.
  Service plain{ServiceOptions{}};
  EXPECT_NE(plain.PrometheusText().find("concord_resident_datasets 0"),
            std::string::npos);

  std::string store_dir = StoreDir("metrics");
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  auto service = MakeService(store_dir);
  Respond(*service, LearnRequest("d", corpus));

  std::string exposition = service->PrometheusText();
  EXPECT_NE(exposition.find("concord_resident_datasets 1"), std::string::npos)
      << exposition;
  EXPECT_NE(exposition.find("concord_store_objects "), std::string::npos);
  EXPECT_NE(exposition.find("concord_store_bytes "), std::string::npos);
  EXPECT_NE(exposition.find("concord_store_datasets 1"), std::string::npos);
  // Per-stage disk counters carry the closed outcome vocabulary.
  EXPECT_NE(exposition.find(
                "concord_store_stage_total{stage=\"config\",outcome=\"miss\"}"),
            std::string::npos)
      << exposition;

  // The stats verb mirrors the same numbers as JSON.
  JsonValue stats = Respond(*service, R"({"v":1,"verb":"stats"})");
  const JsonValue* store = stats.Find("store");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->GetString("dir"), store_dir);
  EXPECT_GT(store->GetInt("objects").value_or(0), 0);
  EXPECT_GT(store->GetInt("bytes").value_or(0), 0);
  EXPECT_EQ(store->GetInt("datasets"), 1);
}

// Two learns of the same configs into different datasets run at once, so both
// write every shared config and metadata object at the same time. Both must
// persist, and a restart must warm both.
TEST_F(StoreServiceTest, ConcurrentLearnsSharingConfigsBothPersist) {
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  const std::string learns[2] = {LearnRequest("a", corpus),
                                 LearnRequest("b", corpus)};
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::string store_dir = StoreDir("concurrent-" + std::to_string(round));
    std::string replies[2];
    {
      auto service = MakeService(store_dir);
      std::thread first([&] { replies[0] = service->HandleLine(learns[0]); });
      std::thread second([&] { replies[1] = service->HandleLine(learns[1]); });
      first.join();
      second.join();
    }
    for (const std::string& reply : replies) {
      std::string error;
      auto parsed = JsonValue::Parse(reply, &error);
      ASSERT_TRUE(parsed.has_value()) << error << " in: " << reply;
      ASSERT_EQ(parsed->GetBool("ok"), true) << reply;
      const JsonValue* persisted = parsed->Find("store");
      ASSERT_NE(persisted, nullptr) << reply;
      EXPECT_EQ(persisted->GetBool("persisted"), true) << reply;
    }

    auto warm = MakeService(store_dir);
    for (const char* dataset : {"a", "b"}) {
      JsonValue checked = Respond(*warm, CheckRequest(dataset, corpus));
      EXPECT_EQ(checked.GetBool("ok"), true)
          << dataset << ": " << checked.Serialize(0);
    }
  }
}

}  // namespace
}  // namespace concord
