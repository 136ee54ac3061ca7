// DurableStore (src/store/store.h): content-addressed objects, manifest
// round-trips and atomic swap, corruption accounting, verify, and gc.
#include "src/store/store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/store/record_io.h"
#include "src/util/fault.h"
#include "src/util/hash.h"
#include "src/util/io.h"

namespace concord {
namespace {

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("concord_store_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override {
    FaultInjector::Global().Reset();
    std::filesystem::remove_all(dir_);
  }

  std::string Dir() const { return dir_.string(); }

  static void Damage(const std::string& path) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    auto size = static_cast<std::streamoff>(f.tellg());
    f.seekp(size / 2);
    char c;
    f.seekg(size / 2);
    f.get(c);
    f.seekp(size / 2);
    f.put(static_cast<char>(c ^ 0xff));
  }

  std::filesystem::path dir_;
};

TEST_F(StoreTest, PutGetRoundTripAndIdempotence) {
  DurableStore store(Dir());
  uint64_t key = ContentKey("dev1.cfg", "hostname DEV1\n");
  EXPECT_TRUE(store.PutObject(RecordType::kBlob, key, "hostname DEV1\n", "config"));
  // Content addressing: a second put of the same key writes nothing.
  EXPECT_FALSE(store.PutObject(RecordType::kBlob, key, "hostname DEV1\n", "config"));
  EXPECT_TRUE(store.HasObject(key));
  EXPECT_EQ(store.GetObject(RecordType::kBlob, key, "config"), "hostname DEV1\n");
  EXPECT_EQ(store.object_count(), 1u);
  EXPECT_GT(store.total_bytes(), 0u);

  auto counters = store.Counters();
  EXPECT_EQ(counters["config"].hits, 1u);
  EXPECT_EQ(counters["config"].misses, 0u);
}

TEST_F(StoreTest, MissingObjectIsAMissNotCorruption) {
  DurableStore store(Dir());
  bool corrupt = true;
  EXPECT_EQ(store.GetObject(RecordType::kBlob, 42, "config", &corrupt), std::nullopt);
  EXPECT_FALSE(corrupt);
  auto counters = store.Counters();
  EXPECT_EQ(counters["config"].misses, 1u);
  EXPECT_EQ(counters["config"].corrupt, 0u);
}

TEST_F(StoreTest, DamagedObjectCountsAsCorruptAndDegrades) {
  DurableStore store(Dir());
  uint64_t key = ContentKey("dev1.cfg", "payload");
  store.PutObject(RecordType::kBlob, key, "payload", "config");
  Damage(Dir() + "/" + DurableStore::ObjectRelPath(key));

  bool corrupt = false;
  EXPECT_EQ(store.GetObject(RecordType::kBlob, key, "config", &corrupt), std::nullopt);
  EXPECT_TRUE(corrupt);
  auto counters = store.Counters();
  EXPECT_EQ(counters["config"].corrupt, 1u);
  EXPECT_EQ(counters["config"].misses, 0u);  // Damage is counted once, as corrupt.
}

// A relearn that puts the bytes of an object a read found corrupt rewrites it;
// a healthy object is still never rewritten.
TEST_F(StoreTest, PutObjectRepairsAnObjectReadBackCorrupt) {
  DurableStore store(Dir());
  uint64_t key = ContentKey("dev1.cfg", "payload");
  ASSERT_TRUE(store.PutObject(RecordType::kBlob, key, "payload", "config"));
  const uint64_t bytes = store.total_bytes();
  Damage(Dir() + "/" + DurableStore::ObjectRelPath(key));
  // Unread damage is not known to the store: the put is the idempotent no-op.
  EXPECT_FALSE(store.PutObject(RecordType::kBlob, key, "payload", "config"));
  ASSERT_EQ(store.GetObject(RecordType::kBlob, key, "config"), std::nullopt);

  EXPECT_TRUE(store.PutObject(RecordType::kBlob, key, "payload", "config"));
  EXPECT_EQ(store.GetObject(RecordType::kBlob, key, "config"), "payload");
  EXPECT_FALSE(store.PutObject(RecordType::kBlob, key, "payload", "config"));
  EXPECT_EQ(store.object_count(), 1u);
  EXPECT_EQ(store.total_bytes(), bytes);
  EXPECT_EQ(store.Verify().corrupt, 0u);
}

TEST_F(StoreTest, ManifestRoundTripsAcrossReopen) {
  PersistedDatasetInfo info;
  info.config_keys["dev1.cfg"] = 0xdeadbeefcafef00dull;
  info.config_keys["dev2.cfg"] = 2;
  info.metadata_keys = {0xffffffffffffffffull, 7};
  info.contracts_key = 0x123456789abcdef0ull;
  info.contract_count = 35;
  info.options.support = 3;
  info.options.confidence = 0.9;
  info.options.score_threshold = 2.5;
  info.options.constants = true;
  info.options.minimize = false;
  info.options.learn_ordering = false;
  {
    DurableStore store(Dir());
    store.PutDataset("edge", info);
  }
  DurableStore reopened(Dir());
  auto loaded = reopened.GetDataset("edge");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->config_keys, info.config_keys);
  EXPECT_EQ(loaded->metadata_keys, info.metadata_keys);
  EXPECT_EQ(loaded->contracts_key, info.contracts_key);
  EXPECT_EQ(loaded->contract_count, info.contract_count);
  EXPECT_EQ(loaded->options.support, 3);
  EXPECT_EQ(loaded->options.confidence, 0.9);
  EXPECT_EQ(loaded->options.score_threshold, 2.5);
  EXPECT_TRUE(loaded->options.constants);
  EXPECT_FALSE(loaded->options.minimize);
  EXPECT_FALSE(loaded->options.learn_ordering);
  EXPECT_TRUE(loaded->options.learn_present);
  EXPECT_FALSE(reopened.manifest_corrupt());
}

TEST_F(StoreTest, DatasetInfoJsonKeepsFullKeyPrecision) {
  // 64-bit keys must not round-trip through double (53-bit mantissa).
  PersistedDatasetInfo info;
  info.config_keys["c"] = 0xfedcba9876543210ull;
  info.contracts_key = 0xffffffffffffffffull;
  auto back = DatasetInfoFromJson(DatasetInfoToJson(info));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->config_keys["c"], 0xfedcba9876543210ull);
  EXPECT_EQ(back->contracts_key, 0xffffffffffffffffull);
}

// The parse settings are written only when not the default, so an entry
// learned with the built-in lexer and embedding keeps its bytes.
TEST_F(StoreTest, ParseSettingsAreWrittenOnlyWhenNotDefault) {
  PersistedDatasetInfo info;
  std::string plain = DatasetInfoToJson(info).Serialize(0);
  EXPECT_EQ(plain.find("\"embed\""), std::string::npos) << plain;
  EXPECT_EQ(plain.find("\"lexer\""), std::string::npos) << plain;
  info.embed = false;
  info.lexer = 0xfedcba9876543210ull;
  auto back = DatasetInfoFromJson(DatasetInfoToJson(info));
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->embed);
  EXPECT_EQ(back->lexer, 0xfedcba9876543210ull);
  auto defaults = DatasetInfoFromJson(*JsonValue::Parse(plain));
  ASSERT_TRUE(defaults.has_value());
  EXPECT_TRUE(defaults->embed);
  EXPECT_EQ(defaults->lexer, 0u);
}

TEST_F(StoreTest, RemoveDatasetPersists) {
  {
    DurableStore store(Dir());
    store.PutDataset("a", PersistedDatasetInfo{});
    store.PutDataset("b", PersistedDatasetInfo{});
    EXPECT_TRUE(store.RemoveDataset("a"));
    EXPECT_FALSE(store.RemoveDataset("a"));
  }
  DurableStore reopened(Dir());
  EXPECT_EQ(reopened.Datasets().size(), 1u);
  EXPECT_TRUE(reopened.GetDataset("b").has_value());
}

TEST_F(StoreTest, CorruptManifestDegradesToEmptyAndIsReported) {
  {
    DurableStore store(Dir());
    store.PutDataset("edge", PersistedDatasetInfo{});
  }
  Damage(Dir() + "/manifest.rec");
  DurableStore reopened(Dir());
  EXPECT_TRUE(reopened.manifest_corrupt());
  EXPECT_TRUE(reopened.Datasets().empty());
  EXPECT_EQ(reopened.Counters()["manifest"].corrupt, 1u);

  DurableStore::VerifyResult verify = reopened.Verify();
  EXPECT_FALSE(verify.manifest_ok);
}

TEST_F(StoreTest, VerifyFindsDamageAndMissingRefs) {
  DurableStore store(Dir());
  uint64_t good = ContentKey("good", "good");
  uint64_t bad = ContentKey("bad", "bad");
  store.PutObject(RecordType::kBlob, good, "good", "config");
  store.PutObject(RecordType::kBlob, bad, "bad", "config");
  PersistedDatasetInfo info;
  info.config_keys["good"] = good;
  info.config_keys["ghost"] = 777;  // No object behind this ref.
  store.PutDataset("edge", info);

  DurableStore::VerifyResult clean = store.Verify();
  EXPECT_EQ(clean.corrupt, 0u);
  EXPECT_EQ(clean.missing_refs, 1u);

  Damage(Dir() + "/" + DurableStore::ObjectRelPath(bad));
  DurableStore::VerifyResult damaged = store.Verify();
  EXPECT_EQ(damaged.objects, 2u);
  EXPECT_EQ(damaged.corrupt, 1u);
  EXPECT_TRUE(damaged.manifest_ok);
  EXPECT_FALSE(damaged.problems.empty());
}

TEST_F(StoreTest, GcReclaimsUnreferencedObjectsAndStrays) {
  DurableStore store(Dir());
  uint64_t kept = ContentKey("kept", "kept");
  uint64_t orphan = ContentKey("orphan", "orphan");
  store.PutObject(RecordType::kBlob, kept, "kept", "config");
  store.PutObject(RecordType::kBlob, orphan, "orphan", "config");
  WriteFile(Dir() + "/objects/ab/stray.tmp.123", "half-written temp");
  PersistedDatasetInfo info;
  info.config_keys["kept"] = kept;
  store.PutDataset("edge", info);

  DurableStore::GcResult result = store.Gc();
  EXPECT_EQ(result.removed, 2u);  // The orphan object and the stray temp file.
  EXPECT_GT(result.reclaimed_bytes, 0u);
  EXPECT_TRUE(store.HasObject(kept));
  EXPECT_FALSE(store.HasObject(orphan));
  EXPECT_EQ(store.GetObject(RecordType::kBlob, kept, "config"), "kept");
}

TEST_F(StoreTest, WriteFaultDoesNotPoisonTheStore) {
  DurableStore store(Dir());
  ASSERT_TRUE(FaultInjector::Global().Configure("store_write:fail_all"));
  uint64_t key = ContentKey("dev", "text");
  EXPECT_THROW(store.PutObject(RecordType::kBlob, key, "text", "config"),
               std::runtime_error);
  FaultInjector::Global().Reset();
  EXPECT_FALSE(store.HasObject(key));
  EXPECT_TRUE(store.PutObject(RecordType::kBlob, key, "text", "config"));
  EXPECT_EQ(store.GetObject(RecordType::kBlob, key, "config"), "text");
}

}  // namespace
}  // namespace concord
