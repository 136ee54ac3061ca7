// Component microbenchmarks (google-benchmark): the hot paths behind the Table 3
// runtimes — lexing, context embedding, relation-finding structures, and the full
// learn/check pipeline on a mid-size role.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/check/checker.h"
#include "src/datagen/corpus.h"
#include "src/format/embed.h"
#include "src/learn/artifact_store.h"
#include "src/learn/learner.h"
#include "src/learn/relational.h"
#include "src/pattern/lexer.h"
#include "src/relations/affix_trie.h"
#include "src/relations/prefix_trie.h"

namespace concord {
namespace {

void BM_LexLine(benchmark::State& state) {
  Lexer lexer;
  LineLex lex;
  for (auto _ : state) {
    lexer.Lex("seq 10 permit 10.14.14.34/32", &lex);
    benchmark::DoNotOptimize(lex);
    lexer.Lex("route-target import 00:00:0c:d3:00:6e", &lex);
    benchmark::DoNotOptimize(lex);
    lexer.Lex("rd 10.14.14.117:10251", &lex);
    benchmark::DoNotOptimize(lex);
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_LexLine);

void BM_LexLineWithCustomTokens(benchmark::State& state) {
  Lexer lexer;
  lexer.AddCustomToken("iface", "([aA]e|[eE]t|[pP]o)-?[0-9]+");
  lexer.AddCustomToken("path", "/[a-zA-Z0-9._/-]+");
  LineLex lex;
  for (auto _ : state) {
    lexer.Lex("interface et42 description uplink", &lex);
    benchmark::DoNotOptimize(lex);
    lexer.Lex("key file /etc/keys/bgp.key", &lex);
    benchmark::DoNotOptimize(lex);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_LexLineWithCustomTokens);

void BM_EmbedIndentConfig(benchmark::State& state) {
  GeneratedCorpus corpus = BenchCorpus("E1", 1);
  const std::string& text = corpus.configs[0].text;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EmbedText(text));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_EmbedIndentConfig);

void BM_PrefixTrieInsertAndQuery(benchmark::State& state) {
  std::vector<Ipv4Network> networks;
  std::vector<Ipv4Address> addrs;
  for (uint32_t i = 0; i < 256; ++i) {
    networks.push_back(Ipv4Network(Ipv4Address((10u << 24) | (i << 8)), 24));
    addrs.push_back(Ipv4Address((10u << 24) | (i << 8) | 7));
  }
  for (auto _ : state) {
    PrefixTrie trie;
    ParamRef ref{};
    for (const auto& n : networks) {
      trie.Insert(n, ref);
    }
    std::vector<PrefixTrie::Hit> hits;
    for (const auto& a : addrs) {
      hits.clear();
      trie.FindContaining(a, &hits);
      benchmark::DoNotOptimize(hits);
    }
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_PrefixTrieInsertAndQuery);

void BM_AffixTrieSuffixSearch(benchmark::State& state) {
  std::vector<std::string> keys;
  for (int i = 0; i < 512; ++i) {
    keys.push_back(std::to_string(1000 + i * 7));
  }
  for (auto _ : state) {
    AffixTrie trie(/*reversed=*/true);
    ParamRef ref{};
    for (const auto& k : keys) {
      trie.Insert(k, ref);
    }
    std::vector<AffixTrie::Hit> hits;
    for (const auto& k : keys) {
      hits.clear();
      trie.FindAffixesOf("10" + k, &hits);
      benchmark::DoNotOptimize(hits);
    }
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_AffixTrieSuffixSearch);

// The per-config half of relational mining, serially over a small corpus of
// learn_wan's shape (WAN role 2 at scale 4), with the batch support filter.
void BM_SummarizeRelational(benchmark::State& state) {
  WanOptions options;
  options.role = 2;
  options.devices = 40;
  options.scale = 4;
  Dataset dataset = ParseCorpus(GenerateWan(options));
  std::vector<ConfigIndex> indexes = BuildIndexes(dataset);
  std::vector<uint32_t> counts = CountConfigsPerPattern(dataset, indexes);
  const int support = BenchLearnOptions().support;
  for (auto _ : state) {
    for (const ConfigIndex& index : indexes) {
      RelationalConfigSummary summary;
      SummarizeRelationalConfig(dataset.patterns, index, &counts, support, Deadline::Never(),
                                &summary);
      benchmark::DoNotOptimize(summary);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * dataset.TotalLines()));
}
BENCHMARK(BM_SummarizeRelational)->Unit(benchmark::kMillisecond);

// The dataset half over E1's cached summaries: what a one-config delta relearn
// pays for relational aggregation.
void BM_AggregateRelational(benchmark::State& state) {
  GeneratedCorpus corpus = BenchCorpus("E1", 1);
  Lexer lexer;
  ArtifactStore store(&lexer, ParseOptions{});
  for (const GeneratedConfig& config : corpus.configs) {
    store.Upsert(config.name, config.text);
  }
  std::vector<std::string> metadata;
  for (const GeneratedConfig& meta : corpus.metadata) {
    metadata.push_back(meta.text);
  }
  store.SetMetadata(metadata);
  const LearnOptions options = BenchLearnOptions();
  Learner(options).Learn(store);
  std::vector<const ConfigSummary*> summaries = store.summaries();
  std::vector<uint32_t> counts = CountConfigsFromSummaries(store.patterns().size(), summaries);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        AggregateRelational(summaries, store.relational_table(), counts, options));
  }
}
BENCHMARK(BM_AggregateRelational)->Unit(benchmark::kMicrosecond);

void BM_LearnW1(benchmark::State& state) {
  GeneratedCorpus corpus = BenchCorpus("W1", 1);
  for (auto _ : state) {
    Dataset dataset = ParseCorpus(corpus);
    Learner learner(BenchLearnOptions());
    benchmark::DoNotOptimize(learner.Learn(dataset));
  }
}
BENCHMARK(BM_LearnW1)->Unit(benchmark::kMillisecond);

void BM_CheckW1(benchmark::State& state) {
  GeneratedCorpus corpus = BenchCorpus("W1", 1);
  Dataset dataset = ParseCorpus(corpus);
  Learner learner(BenchLearnOptions());
  ContractSet set = learner.Learn(dataset).set;
  for (auto _ : state) {
    Checker checker(&set, &dataset.patterns);
    benchmark::DoNotOptimize(checker.Check(dataset));
  }
}
BENCHMARK(BM_CheckW1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace concord

BENCHMARK_MAIN();
