// The differential harness (src/fuzz/harness.h): every oracle proven live via
// planted divergence, triage bucketing, minimization, and the fuzz_smoke
// reproducibility pin.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <sstream>

#include "src/cli/cli.h"
#include "src/datagen/generator.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/harness.h"
#include "src/util/fault.h"
#include "src/util/io.h"

namespace concord {
namespace {

namespace fs = std::filesystem;

class FuzzHarnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("fuzz_harness_test-" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }

  void TearDown() override {
    FaultInjector::Global().Reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  // A small, distortion-free edge corpus (with metadata): every oracle should
  // pass on it, so any planted perturbation is the only source of divergence.
  GeneratedCorpus CleanCorpus() {
    FuzzCaseSpec spec;
    spec.family = "edge";
    spec.seed = 21;
    for (const KnobSpec& knob : FuzzKnobSpecs()) {
      if (knob.name.find("-rate") != std::string::npos) {
        spec.knobs.Set(knob.name, "0");
      }
    }
    return BuildFuzzCorpus(GeneratorRegistry::Global(), spec);
  }

  OracleOptions Options() {
    OracleOptions options;
    options.work_dir = (dir_ / "work").string();
    options.run_cli = &RunConcord;
    return options;
  }

  fs::path dir_;
};

TEST_F(FuzzHarnessTest, CleanCorpusPassesEveryOracle) {
  TriageResult triage = RunOracles(CleanCorpus(), Options());
  EXPECT_EQ(triage.bucket, TriageBucket::kClean) << triage.oracle << ": "
                                                 << triage.detail;
}

TEST_F(FuzzHarnessTest, DistortedCorporaStillPass) {
  // Default distortion rates: broken syntax, weird bytes, and near-misses must
  // not diverge any execution mode.
  FuzzCaseSpec spec;
  spec.family = "junos";
  spec.seed = 77;
  GeneratedCorpus corpus = BuildFuzzCorpus(GeneratorRegistry::Global(), spec);
  TriageResult triage = RunOracles(corpus, Options());
  EXPECT_EQ(triage.bucket, TriageBucket::kClean) << triage.oracle << ": "
                                                 << triage.detail;
}

// ---- Planted divergences: each oracle must fire when its comparison is off
// by a single byte on one side. ---------------------------------------------

TEST_F(FuzzHarnessTest, LearnIdentityOracleFiresOnPlantedDivergence) {
  OracleOptions options = Options();
  options.hooks.perturb_incremental_contracts = [](std::string* json) {
    ASSERT_FALSE(json->empty());
    (*json)[json->size() / 2] ^= 0x20;
  };
  TriageResult triage = RunOracles(CleanCorpus(), options);
  EXPECT_EQ(triage.bucket, TriageBucket::kMismatch);
  EXPECT_EQ(triage.oracle, "learn_identity");
}

TEST_F(FuzzHarnessTest, ServeIdentityOracleFiresOnPlantedDivergence) {
  OracleOptions options = Options();
  options.hooks.perturb_serve_report = [](std::string* report) {
    ASSERT_FALSE(report->empty());
    (*report)[report->size() / 2] ^= 0x20;
  };
  TriageResult triage = RunOracles(CleanCorpus(), options);
  EXPECT_EQ(triage.bucket, TriageBucket::kMismatch);
  EXPECT_EQ(triage.oracle, "serve_identity");
}

TEST_F(FuzzHarnessTest, BatchIdentityOracleFiresOnPlantedDivergence) {
  OracleOptions options = Options();
  options.hooks.perturb_batch_slot = [](std::string* slot) {
    ASSERT_FALSE(slot->empty());
    (*slot)[slot->size() / 2] ^= 0x20;
  };
  TriageResult triage = RunOracles(CleanCorpus(), options);
  EXPECT_EQ(triage.bucket, TriageBucket::kMismatch);
  EXPECT_EQ(triage.oracle, "batch_identity");
}

TEST_F(FuzzHarnessTest, AnalyzePruneOracleFiresOnPlantedDivergence) {
  OracleOptions options = Options();
  options.hooks.perturb_pruned_report = [](std::string* report) {
    ASSERT_FALSE(report->empty());
    (*report)[report->size() / 2] ^= 0x20;
  };
  TriageResult triage = RunOracles(CleanCorpus(), options);
  EXPECT_EQ(triage.bucket, TriageBucket::kMismatch);
  EXPECT_EQ(triage.oracle, "analyze_prune");
}

TEST_F(FuzzHarnessTest, ParallelIdentityOracleFiresOnPlantedDivergence) {
  OracleOptions options = Options();
  options.hooks.perturb_parallel_report = [](std::string* report) {
    ASSERT_FALSE(report->empty());
    (*report)[report->size() / 2] ^= 0x20;
  };
  TriageResult triage = RunOracles(CleanCorpus(), options);
  EXPECT_EQ(triage.bucket, TriageBucket::kMismatch);
  EXPECT_EQ(triage.oracle, "parallel_identity");
}

TEST_F(FuzzHarnessTest, TimeoutTriagesAsTimeout) {
  OracleOptions options = Options();
  options.deadline_ms = 1;
  FuzzCaseSpec spec;
  spec.family = "edge";
  spec.seed = 3;
  spec.knobs.Set("sites", "6");  // paper-scale: comfortably over 1 ms
  spec.knobs.Set("devices-per-site", "4");
  GeneratedCorpus corpus = BuildFuzzCorpus(GeneratorRegistry::Global(), spec);
  TriageResult triage = RunOracles(corpus, options);
  EXPECT_EQ(triage.bucket, TriageBucket::kTimeout) << triage.detail;
}

TEST_F(FuzzHarnessTest, ExceptionsTriageAsCrash) {
  FaultInjector::Global().Configure("parse:fail_nth=1");
  TriageResult triage = RunOracles(CleanCorpus(), Options());
  EXPECT_EQ(triage.bucket, TriageBucket::kCrash);
  EXPECT_NE(triage.detail.find("parse"), std::string::npos) << triage.detail;
}

TEST_F(FuzzHarnessTest, BucketNamesAreStable) {
  EXPECT_EQ(TriageBucketName(TriageBucket::kClean), "clean");
  EXPECT_EQ(TriageBucketName(TriageBucket::kCrash), "crash");
  EXPECT_EQ(TriageBucketName(TriageBucket::kMismatch), "mismatch");
  EXPECT_EQ(TriageBucketName(TriageBucket::kTimeout), "timeout");
}

// ---- Campaign + fuzz_smoke -------------------------------------------------

TEST_F(FuzzHarnessTest, CampaignIsReproducibleAndClean) {
  // The committed json-depth regression (tests/fuzz_corpus/repro-json-depth.json,
  // reconstructed here so the test is cwd-independent): pre-fix this spec
  // overflowed the stack in JsonValue::Parse via ~200k nested metadata '['.
  fs::path corpus_dir = dir_ / "corpus";
  fs::create_directories(corpus_dir);
  WriteFile((corpus_dir / "repro-json-depth.json").string(),
            R"({"family":"edge","seed":"13",)"
            R"("knobs":{"fuzz-json-depth":"262144","fuzz-metadata-rate":"1"}})");

  CampaignOptions options;
  options.seed = 5;
  options.runs = 10;  // two corpora per family
  options.oracle = Options();
  options.corpus_dir = corpus_dir.string();
  options.out_dir = (dir_ / "failures").string();

  std::ostringstream log_a;
  CampaignResult a = RunFuzzCampaign(GeneratorRegistry::Global(), options, log_a);
  EXPECT_TRUE(a.ok()) << log_a.str();
  EXPECT_EQ(a.cases, 11);
  EXPECT_EQ(a.replayed, 1);
  EXPECT_EQ(a.clean, 11);
  EXPECT_TRUE(a.failures.empty());
  // No failures -> no repro files persisted.
  EXPECT_FALSE(fs::exists(options.out_dir));

  std::ostringstream log_b;
  CampaignResult b = RunFuzzCampaign(GeneratorRegistry::Global(), options, log_b);
  EXPECT_EQ(a.verdict_fingerprint, b.verdict_fingerprint);
  EXPECT_EQ(b.clean, 11);
}

TEST_F(FuzzHarnessTest, CampaignPersistsAndMinimizesPlantedFailures) {
  CampaignOptions options;
  options.seed = 8;
  options.runs = 1;
  options.families = {"edge"};
  options.oracle = Options();
  // Plant a divergence so every case fails: the minimizer should shrink the
  // spec (fewer configs, distortions off) while the failure reproduces.
  options.oracle.hooks.perturb_serve_report = [](std::string* report) {
    (*report)[0] ^= 0x20;
  };
  options.out_dir = (dir_ / "failures").string();

  std::ostringstream log;
  CampaignResult result = RunFuzzCampaign(GeneratorRegistry::Global(), options, log);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.mismatches, 1);
  ASSERT_EQ(result.failures.size(), 1u);
  const FailureRecord& failure = result.failures[0];
  EXPECT_EQ(failure.triage.oracle, "serve_identity");
  // Minimized: the corpus shrank to a single config.
  EXPECT_EQ(failure.spec.knobs.GetInt("fuzz-max-configs", 0), 1);

  // The repro file round-trips back into the same spec.
  int repro_files = 0;
  for (const auto& entry : fs::directory_iterator(options.out_dir)) {
    FuzzCaseSpec spec;
    std::string error;
    ASSERT_TRUE(ParseRepro(ReadFile(entry.path().string()), &spec, &error)) << error;
    EXPECT_EQ(spec.Identity(), failure.spec.Identity());
    ++repro_files;
  }
  EXPECT_EQ(repro_files, 1);
}

}  // namespace
}  // namespace concord
