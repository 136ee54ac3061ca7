// The observability layer (DESIGN.md §8): TraceCollector modes, span nesting,
// ring-buffer bounds, Chrome trace export, thread safety under the pool, and
// the learner's stage instrumentation tiling its own total.
#include "src/util/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/datagen/corpus.h"
#include "src/datagen/edge_gen.h"
#include "src/format/json.h"
#include "src/learn/learner.h"
#include "src/util/thread_pool.h"

namespace concord {
namespace {

// Every test resets the process-global collector; the fixture restores the
// disabled state afterwards so unrelated tests never see stray instrumentation.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceCollector::Global().Disable();
    TraceCollector::Global().Clear();
  }
  void TearDown() override {
    EnableAllocationCounting(false);
    TraceCollector::Global().Disable();
    TraceCollector::Global().Clear();
  }
};

std::map<std::string, StageTotal> TotalsByStage() {
  std::map<std::string, StageTotal> out;
  for (const StageTotal& total : TraceCollector::Global().StageTotals()) {
    out[total.category + "/" + total.name] = total;
  }
  return out;
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  {
    TraceSpan outer("test", "outer");
    TraceSpan inner("test", "inner");
  }
  TraceCollector::Global().AddStageTime("test", "folded", 123);
  EXPECT_TRUE(TraceCollector::Global().Events().empty());
  EXPECT_TRUE(TraceCollector::Global().StageTotals().empty());
  EXPECT_EQ(TraceCollector::Global().dropped_events(), 0u);
}

TEST_F(TraceTest, StatsModeAccumulatesPerStageTotals) {
  auto& collector = TraceCollector::Global();
  collector.EnableStats();
  for (int i = 0; i < 3; ++i) {
    TraceSpan span("learn", "index");
  }
  collector.AddStageTime("learn", "index", 500, 2);
  collector.AddStageTime("check", "present", 40);

  auto totals = TotalsByStage();
  ASSERT_EQ(totals.count("learn/index"), 1u);
  EXPECT_EQ(totals["learn/index"].count, 5u);  // 3 spans + folded count of 2.
  EXPECT_GE(totals["learn/index"].total_micros, 500u);
  EXPECT_GE(totals["learn/index"].max_micros, 500u);
  EXPECT_EQ(totals["check/present"].count, 1u);
  // Stats mode records no events.
  EXPECT_TRUE(collector.Events().empty());
}

TEST_F(TraceTest, EventsRecordNestingDepthPerThread) {
  auto& collector = TraceCollector::Global();
  collector.EnableEvents();
  {
    TraceSpan outer("test", "outer");
    {
      TraceSpan mid("test", "mid");
      TraceSpan inner("test", "inner");
    }
  }
  std::vector<TraceEvent> events = collector.Events();
  ASSERT_EQ(events.size(), 3u);
  // Spans close innermost-first, each carrying its depth at open.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 2u);
  EXPECT_EQ(events[1].name, "mid");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_EQ(events[2].depth, 0u);
  // All on one thread, and nesting implies containment of start times.
  EXPECT_EQ(events[0].thread_id, events[2].thread_id);
  EXPECT_GE(events[0].start_micros, events[2].start_micros);
}

TEST_F(TraceTest, RingBufferWrapsOldestFirstAndCountsDrops) {
  auto& collector = TraceCollector::Global();
  collector.EnableEvents(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    collector.RecordSpan("test", "span" + std::to_string(i), /*start_micros=*/i,
                         /*duration_micros=*/1, /*depth=*/0, /*allocations=*/0);
  }
  std::vector<TraceEvent> events = collector.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(collector.dropped_events(), 6u);
  // The four survivors are the newest, returned oldest-first.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].name, "span" + std::to_string(6 + i));
  }
  // Clear resets the ring and the drop counter.
  collector.Clear();
  EXPECT_TRUE(collector.Events().empty());
  EXPECT_EQ(collector.dropped_events(), 0u);
}

TEST_F(TraceTest, ChromeTraceJsonIsLoadable) {
  auto& collector = TraceCollector::Global();
  collector.EnableEvents();
  {
    TraceSpan outer("learn", "total");
    TraceSpan inner("learn", "index");
  }
  std::string json = collector.ChromeTraceJson();
  auto parsed = JsonValue::Parse(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  const JsonValue* trace_events = parsed->Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_EQ(trace_events->items().size(), 2u);
  const JsonValue& first = trace_events->items()[0];
  EXPECT_EQ(first.GetString("ph"), "X");  // Complete events: ts + dur.
  EXPECT_EQ(first.GetString("name"), "index");
  EXPECT_EQ(first.GetString("cat"), "learn");
  EXPECT_TRUE(first.GetInt("ts").has_value());
  EXPECT_TRUE(first.GetInt("dur").has_value());
  EXPECT_EQ(first.Find("args")->GetInt("depth"), 1);
}

TEST_F(TraceTest, SpansAreSafeUnderConcurrentPoolWorkers) {
  auto& collector = TraceCollector::Global();
  collector.EnableStats();
  collector.EnableEvents(/*capacity=*/128);  // Force wrapping under contention.
  constexpr size_t kTasks = 512;
  std::atomic<uint64_t> side_effect{0};
  ThreadPool pool(8);
  pool.ParallelFor(kTasks, [&](size_t i) {
    TraceSpan outer("test", "worker");
    TraceSpan inner("test", "worker_inner");
    side_effect.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(side_effect.load(), kTasks * (kTasks - 1) / 2);

  auto totals = TotalsByStage();
  EXPECT_EQ(totals["test/worker"].count, kTasks);
  EXPECT_EQ(totals["test/worker_inner"].count, kTasks);
  // The ring holds at most its capacity; everything else is accounted as
  // dropped rather than lost silently.
  std::vector<TraceEvent> events = collector.Events();
  EXPECT_LE(events.size(), 128u);
  EXPECT_EQ(events.size() + collector.dropped_events(), 2 * kTasks);
  for (const TraceEvent& event : events) {
    // Depth is tracked per worker thread: inner spans nest exactly one deep.
    EXPECT_LE(event.depth, 1u);
  }
}

TEST_F(TraceTest, AllocationCountingTracksOperatorNew) {
  EnableAllocationCounting(true);
  uint64_t before = AllocationCount();
  std::vector<std::unique_ptr<int>> keep;
  for (int i = 0; i < 16; ++i) {
    keep.push_back(std::make_unique<int>(i));
  }
  uint64_t after = AllocationCount();
  EnableAllocationCounting(false);
  EXPECT_GE(after - before, 16u);
  // Disabled counting freezes the counter for this thread's allocations.
  uint64_t frozen = AllocationCount();
  keep.push_back(std::make_unique<int>(99));
  EXPECT_EQ(AllocationCount(), frozen);
}

// Counting is per thread, but the total covers every thread, finished ones
// included: a span's delta still bills its pool workers' allocations.
TEST_F(TraceTest, AllocationCountSumsEveryThread) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  EnableAllocationCounting(true);
  uint64_t before = AllocationCount();
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        std::vector<std::unique_ptr<int>> keep;
        keep.reserve(kPerThread);
        for (int i = 0; i < kPerThread; ++i) {
          keep.push_back(std::make_unique<int>(i));
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  uint64_t after = AllocationCount();
  EnableAllocationCounting(false);
  // Starting the threads allocates a little on top of their own loops.
  EXPECT_GE(after - before, uint64_t{kThreads} * kPerThread);
  EXPECT_LT(after - before, uint64_t{kThreads} * kPerThread + 1000);
}

TEST_F(TraceTest, ProfileTextAndPrometheusRenderStageTotals) {
  auto& collector = TraceCollector::Global();
  collector.EnableStats();
  collector.AddStageTime("learn", "index", 1500, 3);
  collector.AddStageTime("learn", "mine", 2500);

  std::string profile = collector.ProfileText();
  EXPECT_NE(profile.find("profile: per-stage breakdown"), std::string::npos);
  EXPECT_NE(profile.find("learn/index"), std::string::npos);
  EXPECT_NE(profile.find("learn/mine"), std::string::npos);

  std::string prom;
  collector.AppendPrometheus(&prom);
  EXPECT_NE(prom.find("# TYPE concord_stage_duration_micros_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("concord_stage_duration_micros_total{category=\"learn\","
                      "stage=\"index\"} 1500"),
            std::string::npos);
  EXPECT_NE(
      prom.find("concord_stage_runs_total{category=\"learn\",stage=\"index\"} 3"),
      std::string::npos);
}

// The acceptance criterion behind `--profile`: the learner's stage spans
// (index, mine, aggregate, minimize) tile its own "total" span, so the printed
// breakdown adds up to the learn wall time instead of hiding unattributed gaps.
TEST_F(TraceTest, LearnStageSpansTileTheLearnTotal) {
  EdgeOptions options;
  options.sites = 4;
  options.devices_per_site = 4;
  Dataset dataset = ParseCorpus(GenerateEdge(options));

  auto& collector = TraceCollector::Global();
  collector.Clear();
  collector.EnableStats();
  Learner learner(LearnOptions{});
  LearnResult result = learner.Learn(dataset);
  collector.Disable();
  ASSERT_FALSE(result.set.contracts.empty());

  auto totals = TotalsByStage();
  ASSERT_EQ(totals.count("learn/total"), 1u);
  EXPECT_EQ(totals["learn/total"].count, 1u);
  uint64_t total = totals["learn/total"].total_micros;
  uint64_t staged = 0;
  for (const char* stage : {"learn/index", "learn/mine", "learn/aggregate",
                            "learn/minimize"}) {
    ASSERT_EQ(totals.count(stage), 1u) << stage;
    staged += totals[stage].total_micros;
  }
  // "relational" nests inside "aggregate" and must not be double-counted here.
  EXPECT_LE(staged, total);
  // The stages cover the total to within ~5% in a plain build (glue code
  // only); the bound is 12.5% because sanitizer instrumentation (this test
  // runs under TSan in CI) inflates the glue, and the absolute slack keeps it
  // stable when the whole learn takes single-digit milliseconds. A missing
  // stage span still trips it: every stage is far larger than the margin.
  EXPECT_GE(staged + total / 8 + 2000, total)
      << "stage sum " << staged << "us vs total " << total << "us";
}

}  // namespace
}  // namespace concord
