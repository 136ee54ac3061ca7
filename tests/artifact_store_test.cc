#include "src/learn/artifact_store.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/contracts/contract_io.h"
#include "src/datagen/corpus.h"
#include "src/datagen/edge_gen.h"
#include "src/datagen/wan_gen.h"
#include "src/learn/learner.h"
#include "src/util/cancellation.h"
#include "src/util/strings.h"
#include "tests/test_util.h"

namespace concord {
namespace {

// Loads a generated corpus into a fresh store.
void LoadCorpus(const GeneratedCorpus& corpus, ArtifactStore* store) {
  for (const GeneratedConfig& config : corpus.configs) {
    store->Upsert(config.name, config.text);
  }
  std::vector<std::string> metadata;
  for (const GeneratedConfig& meta : corpus.metadata) {
    metadata.push_back(meta.text);
  }
  store->SetMetadata(metadata);
}

std::string LearnFromScratch(const GeneratedCorpus& corpus, const LearnOptions& options,
                             const Lexer& lexer) {
  Dataset dataset = ParseCorpus(corpus, ParseOptions{}, &lexer);
  LearnResult result = Learner(options).Learn(dataset);
  return SerializeContracts(result.set, dataset.patterns);
}

std::string LearnFromStore(ArtifactStore& store, const LearnOptions& options) {
  LearnResult result = Learner(options).Learn(store);
  return SerializeContracts(result.set, store.patterns());
}

// The acceptance bar of the artifact pipeline: an incremental relearn after a
// one-config change produces contracts identical to a from-scratch learn, while
// recomputing only that config's Parse/Index/Mine artifacts.
TEST(ArtifactStore, IncrementalRelearnMatchesScratchOnEdgeCorpus) {
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  Lexer lexer;
  LearnOptions options;
  options.support = 3;

  ArtifactStore store(&lexer, ParseOptions{});
  LoadCorpus(corpus, &store);
  EXPECT_EQ(LearnFromStore(store, options), LearnFromScratch(corpus, options, lexer));

  // All artifacts were built once; everything was a miss.
  EXPECT_EQ(store.counters().parse_misses, corpus.configs.size());
  EXPECT_EQ(store.counters().index_misses, corpus.configs.size());
  EXPECT_EQ(store.counters().mine_misses, corpus.configs.size());

  // Change exactly one config.
  corpus.configs[5].text += "snmp-server community testlab\n";
  store.ResetCounters();
  EXPECT_TRUE(store.Upsert(corpus.configs[5].name, corpus.configs[5].text));
  EXPECT_EQ(LearnFromStore(store, options), LearnFromScratch(corpus, options, lexer));

  // Exactly one config's pipeline re-ran; every other artifact was a cache hit.
  const ArtifactCounters& counters = store.counters();
  EXPECT_EQ(counters.parse_misses, 1u);
  EXPECT_EQ(counters.parse_hits, 0u);  // Only the changed config was upserted.
  EXPECT_EQ(counters.index_misses, 1u);
  EXPECT_EQ(counters.index_hits, corpus.configs.size() - 1);
  EXPECT_EQ(counters.mine_misses, 1u);
  EXPECT_EQ(counters.mine_hits, corpus.configs.size() - 1);
}

TEST(ArtifactStore, IncrementalRelearnMatchesScratchOnWanCorpus) {
  GeneratedCorpus corpus = GenerateWan(WanOptions{});
  Lexer lexer;
  LearnOptions options;
  options.support = 3;

  ArtifactStore store(&lexer, ParseOptions{});
  LoadCorpus(corpus, &store);
  EXPECT_EQ(LearnFromStore(store, options), LearnFromScratch(corpus, options, lexer));

  corpus.configs[0].text += "banner motd maintenance\n";
  store.ResetCounters();
  EXPECT_TRUE(store.Upsert(corpus.configs[0].name, corpus.configs[0].text));
  EXPECT_EQ(LearnFromStore(store, options), LearnFromScratch(corpus, options, lexer));
  EXPECT_EQ(store.counters().mine_misses, 1u);
  EXPECT_EQ(store.counters().mine_hits, corpus.configs.size() - 1);
}

TEST(ArtifactStore, UnchangedUpsertIsAParseHit) {
  Lexer lexer;
  ArtifactStore store(&lexer, ParseOptions{});
  EXPECT_TRUE(store.Upsert("a.cfg", "vlan 7\n"));
  EXPECT_FALSE(store.Upsert("a.cfg", "vlan 7\n"));
  EXPECT_EQ(store.counters().parse_hits, 1u);
  EXPECT_EQ(store.counters().parse_misses, 1u);
  EXPECT_TRUE(store.Contains("a.cfg"));
  EXPECT_NE(store.ContentKeyOf("a.cfg"), 0u);
  EXPECT_EQ(store.ContentKeyOf("missing.cfg"), 0u);
}

TEST(ArtifactStore, RemoveShrinksTheCorpusWithoutInvalidatingOthers) {
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  Lexer lexer;
  LearnOptions options;
  options.support = 3;

  ArtifactStore store(&lexer, ParseOptions{});
  LoadCorpus(corpus, &store);
  LearnFromStore(store, options);

  std::string victim = corpus.configs.back().name;
  corpus.configs.pop_back();
  store.ResetCounters();
  EXPECT_TRUE(store.Remove(victim));
  EXPECT_FALSE(store.Remove(victim));
  EXPECT_EQ(LearnFromStore(store, options), LearnFromScratch(corpus, options, lexer));
  EXPECT_EQ(store.counters().mine_misses, 0u);
  EXPECT_EQ(store.counters().mine_hits, corpus.configs.size());
}

TEST(ArtifactStore, MetadataChangeInvalidatesIndexAndMineButNotParse) {
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  Lexer lexer;
  LearnOptions options;
  options.support = 3;

  ArtifactStore store(&lexer, ParseOptions{});
  LoadCorpus(corpus, &store);
  LearnFromStore(store, options);

  // Drop one metadata document: every Index/Mine artifact is stale, no Parse is.
  std::vector<std::string> metadata;
  for (size_t i = 0; i + 1 < corpus.metadata.size(); ++i) {
    metadata.push_back(corpus.metadata[i].text);
  }
  store.ResetCounters();
  store.SetMetadata(metadata);
  corpus.metadata.pop_back();
  EXPECT_EQ(LearnFromStore(store, options), LearnFromScratch(corpus, options, lexer));
  EXPECT_EQ(store.counters().parse_misses, 0u);
  EXPECT_EQ(store.counters().index_misses, corpus.configs.size());
  EXPECT_EQ(store.counters().mine_misses, corpus.configs.size());

  // Re-setting the identical metadata sequence is a no-op.
  store.ResetCounters();
  store.SetMetadata(metadata);
  LearnFromStore(store, options);
  EXPECT_EQ(store.counters().index_misses, 0u);
  EXPECT_EQ(store.counters().mine_hits, corpus.configs.size());
}

TEST(ArtifactStore, ThresholdChangeReusesSummaries) {
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  Lexer lexer;
  LearnOptions options;
  options.support = 3;

  ArtifactStore store(&lexer, ParseOptions{});
  LoadCorpus(corpus, &store);
  LearnFromStore(store, options);

  // Summaries are threshold-independent: raising support re-aggregates from
  // cached summaries without re-mining anything.
  options.support = 5;
  store.ResetCounters();
  EXPECT_EQ(LearnFromStore(store, options), LearnFromScratch(corpus, options, lexer));
  EXPECT_EQ(store.counters().mine_misses, 0u);
  EXPECT_EQ(store.counters().mine_hits, corpus.configs.size());
}

TEST(ArtifactStore, DeadlineExpiryKeepsFinishedArtifacts) {
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  Lexer lexer;
  ArtifactStore store(&lexer, ParseOptions{});
  LoadCorpus(corpus, &store);

  LearnOptions options;
  options.support = 3;
  options.deadline = Deadline::After(0);
  EXPECT_THROW(Learner(options).Learn(store), DeadlineExceeded);

  // A retry with budget completes and matches from-scratch output.
  options.deadline = Deadline::Never();
  EXPECT_EQ(LearnFromStore(store, options), LearnFromScratch(corpus, options, lexer));
}

TEST(ArtifactStore, ParallelRefreshMatchesSerial) {
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  Lexer lexer;
  LearnOptions serial;
  serial.support = 3;
  LearnOptions parallel = serial;
  parallel.parallelism = 4;

  ArtifactStore store_serial(&lexer, ParseOptions{});
  ArtifactStore store_parallel(&lexer, ParseOptions{});
  LoadCorpus(corpus, &store_serial);
  LoadCorpus(corpus, &store_parallel);
  EXPECT_EQ(LearnFromStore(store_serial, serial), LearnFromStore(store_parallel, parallel));
}

// The store's relational table keeps the ids of summaries it no longer holds.
// With every threshold at zero, any id that reached aggregation would become a
// contract, so a relearn after removing and replacing configs must still equal
// a fresh learn: only ids a resident summary names may survive.
TEST(ArtifactStore, RemovedAndReplacedConfigsLeaveNoContractBehind) {
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  // alpha equals beta in the first config only, so only its summary names the
  // (alpha, beta) equality; both patterns stay in every config.
  for (size_t i = 0; i < corpus.configs.size(); ++i) {
    corpus.configs[i].text += "alpha " + std::to_string(40000 + i) + "\nbeta " +
                              std::to_string(i == 0 ? 40000 : 50000 + i) + "\n";
  }
  Lexer lexer;
  LearnOptions options;
  options.support = 3;
  options.confidence = 0.0;
  options.score_threshold = 0.0;

  ArtifactStore store(&lexer, ParseOptions{});
  LoadCorpus(corpus, &store);
  EXPECT_EQ(LearnFromStore(store, options), LearnFromScratch(corpus, options, lexer));

  corpus.configs[0].text = ReplaceAll(corpus.configs[0].text, "beta 40000", "beta 49999");
  EXPECT_TRUE(store.Upsert(corpus.configs[0].name, corpus.configs[0].text));
  for (int removed = 0; removed < 2; ++removed) {
    EXPECT_TRUE(store.Remove(corpus.configs.back().name));
    corpus.configs.pop_back();
  }
  corpus.configs[1].text = corpus.configs[2].text;
  EXPECT_TRUE(store.Upsert(corpus.configs[1].name, corpus.configs[1].text));
  const std::string relearned = LearnFromStore(store, options);
  EXPECT_EQ(relearned, LearnFromScratch(corpus, options, lexer));
  EXPECT_EQ(relearned.find("\"confidence\":0,"), std::string::npos);
}

// Every update can bring new witness texts, so the store rebuilds its table
// when it doubles. Over a run of one-value updates the table rebuilds at least
// twice, never holds more than 2.2 times a fresh store's ids, and the last
// relearn equals a fresh learn.
TEST(ArtifactStore, RelationalTableStaysBoundedOverUpdates) {
  auto config = [](int device, int tag) {
    // Six-digit tags starting with 7 relate to nothing else in the config, so
    // every update leaves a fresh table's size alone.
    const std::string link =
        "link-" + std::to_string(1000 + device) + "-" + std::to_string(700000 + tag);
    return "hostname dev" + std::to_string(device) + "\ninterface Ethernet1\n   description " +
           link + "\nlldp neighbor " + link + "\nvlan " + std::to_string(100 + device) +
           "\n   name v" + std::to_string(100 + device) + "\n";
  };
  constexpr int kDevices = 8;
  GeneratedCorpus corpus;
  for (int device = 0; device < kDevices; ++device) {
    corpus.configs.push_back(
        GeneratedConfig{"dev" + std::to_string(device) + ".cfg", config(device, 0)});
  }
  Lexer lexer;
  LearnOptions options;
  options.support = 3;
  options.score_threshold = 1.0;
  auto fresh_size = [&]() {
    ArtifactStore fresh(&lexer, ParseOptions{});
    LoadCorpus(corpus, &fresh);
    LearnFromStore(fresh, options);
    return fresh.relational_table().size();
  };

  ArtifactStore store(&lexer, ParseOptions{});
  LoadCorpus(corpus, &store);
  LearnFromStore(store, options);
  size_t rebuilds = 0;
  size_t last = store.relational_table().size();
  for (int update = 1; rebuilds < 2 && update <= 400; ++update) {
    GeneratedConfig& target = corpus.configs[update % kDevices];
    target.text = config(update % kDevices, update);
    ASSERT_TRUE(store.Upsert(target.name, target.text));
    LearnFromStore(store, options);
    const size_t size = store.relational_table().size();
    rebuilds += size < last ? 1 : 0;
    last = size;
    ASSERT_LE(static_cast<double>(size), 2.2 * static_cast<double>(fresh_size()))
        << "after update " << update;
  }
  EXPECT_GE(rebuilds, 2u);
  EXPECT_EQ(LearnFromStore(store, options), LearnFromScratch(corpus, options, lexer));
}

}  // namespace
}  // namespace concord
