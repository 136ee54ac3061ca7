#include "src/cli/cli.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <sstream>
#include <string>

#include "src/format/json.h"
#include "src/pattern/lexer.h"
#include "src/store/store.h"
#include "src/util/fault.h"
#include "src/util/io.h"

namespace concord {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process path: concurrent runs (e.g. plain and sanitized ctest in
    // side-by-side build trees) must not race on remove_all below.
    dir_ = std::filesystem::temp_directory_path() /
           ("concord_cli_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_ / "configs");
    for (int i = 1; i <= 6; ++i) {
      WriteFile((dir_ / "configs" / ("dev" + std::to_string(i) + ".cfg")).string(),
                Config(i));
    }
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

  int Run(const std::vector<std::string>& args, std::string* stdout_text = nullptr,
          std::string* stderr_text = nullptr) {
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
    if (stderr_text != nullptr) {
      *stderr_text = err.str();
    }
    return code;
  }

  std::string ConfigsGlob() const { return (dir_ / "configs" / "*.cfg").string(); }
  std::string ContractsPath() const { return (dir_ / "contracts.json").string(); }

  std::filesystem::path dir_;
};

TEST_F(CliTest, LearnWritesContractFile) {
  std::string out;
  int code = Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                  ContractsPath()},
                 &out);
  EXPECT_EQ(code, 0);
  EXPECT_TRUE(std::filesystem::exists(ContractsPath()));
  EXPECT_NE(out.find("contracts:"), std::string::npos);
  EXPECT_NE(out.find("patterns:"), std::string::npos);
}

TEST_F(CliTest, CheckCleanConfigsExitsZero) {
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 ContractsPath()}),
            0);
  std::string out;
  int code =
      Run({"check", "--configs", ConfigsGlob(), "--contracts", ContractsPath()}, &out);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("violations: 0"), std::string::npos);
  EXPECT_NE(out.find("coverage:"), std::string::npos);
}

TEST_F(CliTest, CheckBuggyConfigExitsOneAndWritesReports) {
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3",
                 "--score-threshold", "3", "--out", ContractsPath()}),
            0);
  // Break the loopback/prefix-list dependency in one config.
  std::string bad = Config(3);
  bad = bad.replace(bad.find("seq 10 permit 10.14.3.34/32"),
                    std::string("seq 10 permit 10.14.3.34/32").size(),
                    "seq 10 permit 10.14.77.34/32");
  WriteFile((dir_ / "configs" / "dev3.cfg").string(), bad);

  std::string json_path = (dir_ / "report.json").string();
  std::string html_path = (dir_ / "report.html").string();
  std::string out;
  int code = Run({"check", "--configs", ConfigsGlob(), "--contracts", ContractsPath(),
                  "--json-out", json_path, "--html-out", html_path},
                 &out);
  EXPECT_EQ(code, 1);
  std::string json = ReadFile(json_path);
  EXPECT_NE(json.find("violations"), std::string::npos);
  EXPECT_NE(json.find("dev3.cfg"), std::string::npos);
  std::string html = ReadFile(html_path);
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("dev3.cfg"), std::string::npos);
}

TEST_F(CliTest, UsageErrors) {
  std::string err;
  EXPECT_EQ(Run({}, nullptr, &err), 2);
  EXPECT_NE(err.find("usage"), std::string::npos);
  EXPECT_EQ(Run({"frobnicate"}, nullptr, &err), 2);
  EXPECT_EQ(Run({"learn"}, nullptr, &err), 2);  // Missing --configs.
  EXPECT_EQ(Run({"learn", "--bogus", "1"}, nullptr, &err), 2);
  EXPECT_EQ(Run({"learn", "--configs", (dir_ / "nothing" / "*.cfg").string()}, nullptr, &err),
            2);
  EXPECT_EQ(Run({"check", "--configs", ConfigsGlob(), "--contracts",
                 (dir_ / "missing.json").string()},
                nullptr, &err),
            2);
  // Family parameters are knobs only (--knob role=2); per-family flags are unknown.
  EXPECT_EQ(Run({"datagen", "--family", "wan", "--role", "2"}, nullptr, &err), 2);
  EXPECT_NE(err.find("unknown flag: --role"), std::string::npos) << err;
}

TEST_F(CliTest, DisableCategory) {
  std::string out;
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--disable",
                 "ordering", "--disable", "relational", "--out", ContractsPath()},
                &out),
            0);
  EXPECT_NE(out.find("ordering: 0"), std::string::npos);
  EXPECT_NE(out.find("relational: 0"), std::string::npos);
  EXPECT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--disable", "nonsense"}), 2);
}

TEST_F(CliTest, ConstantsModeRoundTrips) {
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--constants",
                 "--out", ContractsPath()}),
            0);
  std::string json = ReadFile(ContractsPath());
  EXPECT_NE(json.find("\"constantsMode\": true"), std::string::npos);
  // Check mode picks constants up from the contract file automatically.
  std::string out;
  EXPECT_EQ(Run({"check", "--configs", ConfigsGlob(), "--contracts", ContractsPath()}, &out),
            0);
}

TEST_F(CliTest, CoverageOutWritesPerLineListing) {
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 ContractsPath()}),
            0);
  std::string coverage_path = (dir_ / "coverage.txt").string();
  ASSERT_EQ(Run({"check", "--configs", ConfigsGlob(), "--contracts", ContractsPath(),
                 "--coverage-out", coverage_path}),
            0);
  std::string coverage = ReadFile(coverage_path);
  EXPECT_NE(coverage.find("dev1.cfg:1 "), std::string::npos);
  EXPECT_NE(coverage.find("present"), std::string::npos);
}

TEST_F(CliTest, SuppressDropsContracts) {
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3",
                 "--score-threshold", "3", "--out", ContractsPath()}),
            0);
  // Break a relational dependency, find the violating contract's key, suppress it.
  std::string bad = Config(3);
  bad = bad.replace(bad.find("seq 10 permit 10.14.3.34/32"),
                    std::string("seq 10 permit 10.14.3.34/32").size(),
                    "seq 10 permit 10.14.77.34/32");
  WriteFile((dir_ / "configs" / "dev3.cfg").string(), bad);

  std::string json_path = (dir_ / "report.json").string();
  ASSERT_EQ(Run({"check", "--configs", ConfigsGlob(), "--contracts", ContractsPath(),
                 "--json-out", json_path}),
            1);
  // Collect every violated contract key into a suppression file.
  std::string report = ReadFile(json_path);
  std::string suppressions;
  size_t pos = 0;
  while ((pos = report.find("\"key\": \"", pos)) != std::string::npos) {
    pos += 8;
    size_t end = report.find('"', pos);
    suppressions += report.substr(pos, end - pos) + "\n";
  }
  ASSERT_FALSE(suppressions.empty());
  std::string suppress_path = (dir_ / "suppress.txt").string();
  WriteFile(suppress_path, suppressions);

  // With every offender suppressed, the check passes.
  std::string out;
  EXPECT_EQ(Run({"check", "--configs", ConfigsGlob(), "--contracts", ContractsPath(),
                 "--suppress", suppress_path},
                &out),
            0);
  EXPECT_NE(out.find("suppressed"), std::string::npos);
}

TEST_F(CliTest, CheckSkipsUnreadableFileAndExitsPartial) {
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 ContractsPath()}),
            0);
  // ReadFile hit 1 is the contract file; hit 2 is the first config (dev1.cfg).
  ASSERT_TRUE(FaultInjector::Global().Configure("read_file:fail_nth=2"));
  std::string json_path = (dir_ / "report.json").string();
  std::string out;
  int code = Run({"check", "--configs", ConfigsGlob(), "--contracts", ContractsPath(),
                  "--json-out", json_path},
                 &out);
  FaultInjector::Global().Reset();
  EXPECT_EQ(code, 3);  // Partial: distinct from clean (0), violations (1), error (2).
  EXPECT_NE(out.find("degraded: 1 input file(s) skipped (5 checked)"), std::string::npos);
  EXPECT_NE(out.find("dev1.cfg: injected fault: read_file"), std::string::npos);
  std::string json = ReadFile(json_path);
  EXPECT_NE(json.find("\"degraded\""), std::string::npos);
  EXPECT_NE(json.find("dev1.cfg"), std::string::npos);
}

TEST_F(CliTest, LearnSkipsUnreadableFileAndExitsPartial) {
  // Learn has no contract file to read, so hit 2 is the second config.
  ASSERT_TRUE(FaultInjector::Global().Configure("read_file:fail_nth=2"));
  std::string out;
  int code = Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                  ContractsPath()},
                 &out);
  FaultInjector::Global().Reset();
  EXPECT_EQ(code, 3);
  EXPECT_TRUE(std::filesystem::exists(ContractsPath()));  // Learned from survivors.
  EXPECT_NE(out.find("configs: 5"), std::string::npos);
  EXPECT_NE(out.find("degraded: 1 input file(s) skipped"), std::string::npos);
  EXPECT_NE(out.find("dev2.cfg: injected fault: read_file"), std::string::npos);
}

TEST_F(CliTest, AllInputsFailingIsAnErrorNotPartial) {
  ASSERT_TRUE(FaultInjector::Global().Configure("read_file:fail_all"));
  std::string err;
  int code = Run({"learn", "--configs", ConfigsGlob()}, nullptr, &err);
  FaultInjector::Global().Reset();
  EXPECT_EQ(code, 2);
  EXPECT_NE(err.find("all 6 configuration file(s) failed"), std::string::npos);
}

TEST_F(CliTest, DeadlineExceededIsAStructuredError) {
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 ContractsPath()}),
            0);
  // The injected delay guarantees the 1 ms budget is spent before checking starts.
  ASSERT_TRUE(FaultInjector::Global().Configure("check:delay_ms=50"));
  std::string err;
  int code = Run({"check", "--configs", ConfigsGlob(), "--contracts", ContractsPath(),
                  "--deadline-ms", "1"},
                 nullptr, &err);
  FaultInjector::Global().Reset();
  EXPECT_EQ(code, 2);
  EXPECT_NE(err.find("error: deadline_exceeded"), std::string::npos);
}

TEST_F(CliTest, CustomLexerFile) {
  std::string lexer_path = (dir_ / "lexer.txt").string();
  WriteFile(lexer_path, "iface ([eE]t|[pP]o)-?[0-9]+\n");
  std::string out;
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--lexer",
                 lexer_path, "--out", ContractsPath()},
                &out),
            0);
  EXPECT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--lexer", "/nonexistent"}), 2);
}

// Under --store-dir the store entry is the learn cache: an unchanged learn is
// skipped and writes the stored bytes; a changed config relearns, and the
// result equals a fresh learn.
TEST_F(CliTest, StoreDirLearnSkipsWhenUnchanged) {
  std::string store = (dir_ / "store").string();
  std::string out;
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 ContractsPath(), "--store-dir", store},
                &out),
            0);
  EXPECT_NE(out.find("store: persisted dataset 'default'"), std::string::npos) << out;
  std::string first = ReadFile(ContractsPath());

  std::string second_path = (dir_ / "contracts2.json").string();
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 second_path, "--store-dir", store},
                &out),
            0);
  EXPECT_NE(out.find("store: dataset 'default' unchanged"), std::string::npos) << out;
  EXPECT_EQ(out.find("contracts:"), std::string::npos) << out;  // No learn ran.
  EXPECT_EQ(ReadFile(second_path), first);

  WriteFile((dir_ / "configs" / "dev3.cfg").string(), Config(3) + "ntp server 10.0.0.9\n");
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 ContractsPath(), "--store-dir", store},
                &out),
            0);
  EXPECT_EQ(out.find("unchanged"), std::string::npos) << out;
  std::string fresh_path = (dir_ / "fresh.json").string();
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 fresh_path}),
            0);
  EXPECT_EQ(ReadFile(ContractsPath()), ReadFile(fresh_path));

  // Two learns left every object readable and referenced.
  ASSERT_EQ(Run({"store", "verify", "--store-dir", store}, &out), 0) << out;
  EXPECT_NE(out.find("corrupt: 0, missing refs: 0, manifest: ok"), std::string::npos)
      << out;
}

// A skipped input file has no key in the store entry, so a rerun that skips
// the same file reuses the stored learn and still exits 3 (partial), and a
// rerun that reads it relearns.
TEST_F(CliTest, StoreDirLearnSkipKeepsThePartialExitCode) {
  std::string store = (dir_ / "store").string();
  std::vector<std::string> learn = {"learn", "--configs", ConfigsGlob(), "--support", "3",
                                    "--out", ContractsPath(), "--store-dir", store};
  std::string out;
  for (const char* expect : {"store: persisted", "store: dataset 'default' unchanged"}) {
    ASSERT_TRUE(FaultInjector::Global().Configure("read_file:fail_nth=2"));
    EXPECT_EQ(Run(learn, &out), 3);
    FaultInjector::Global().Reset();
    EXPECT_NE(out.find(expect), std::string::npos) << out;
  }
  EXPECT_EQ(Run(learn, &out), 0);
  EXPECT_EQ(out.find("unchanged"), std::string::npos) << out;
}

// Each input the learned bytes depend on is in the store entry: changing the
// support, the embedding or the lexer relearns, and the result equals a fresh
// learn with the same flags.
TEST_F(CliTest, StoreDirLearnRelearnsOnOptionChange) {
  std::string store = (dir_ / "store").string();
  std::string lexer = (dir_ / "lexer.txt").string();
  WriteFile(lexer, "# hostnames are one token\nhost DEV[0-9]+\n");
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 ContractsPath(), "--store-dir", store}),
            0);
  for (const std::vector<std::string>& flags :
       {std::vector<std::string>{"--support", "4"},
        std::vector<std::string>{"--support", "3", "--no-embedding"},
        std::vector<std::string>{"--support", "3", "--lexer", lexer}}) {
    SCOPED_TRACE(flags.back());
    std::vector<std::string> args = {"learn", "--configs", ConfigsGlob(), "--out",
                                     ContractsPath(), "--store-dir", store};
    args.insert(args.end(), flags.begin(), flags.end());
    std::string out;
    ASSERT_EQ(Run(args, &out), 0);
    EXPECT_EQ(out.find("unchanged"), std::string::npos) << out;

    std::vector<std::string> fresh = {"learn", "--configs", ConfigsGlob(), "--out",
                                      (dir_ / "fresh.json").string()};
    fresh.insert(fresh.end(), flags.begin(), flags.end());
    ASSERT_EQ(Run(fresh), 0);
    EXPECT_EQ(ReadFile(ContractsPath()), ReadFile((dir_ / "fresh.json").string()));
  }
  // A comment in the lexer file does not change its definitions.
  WriteFile(lexer, "host DEV[0-9]+\n");
  std::string out;
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--lexer", lexer,
                 "--out", ContractsPath(), "--store-dir", store},
                &out),
            0);
  EXPECT_NE(out.find("unchanged"), std::string::npos) << out;
}

// Overlapping globs name dev1.cfg three times and the metadata file twice;
// each must load once, as if it had been named once.
TEST_F(CliTest, OverlappingGlobsLoadEachFileOnce) {
  std::string meta = (dir_ / "meta.json").string();
  WriteFile(meta, R"({"site": "s1", "vlans": [251, 252]})");
  std::string dev1 = (dir_ / "configs" / "dev1.cfg").string();
  std::string dev1_dotted = (dir_ / "configs" / "." / "dev1.cfg").string();
  std::string meta_dotted = (dir_ / "." / "meta.json").string();
  std::string store = (dir_ / "store").string();
  std::string once_path = (dir_ / "once.json").string();
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--metadata", meta, "--support",
                 "3", "--out", once_path, "--store-dir", store}),
            0);

  std::string out;
  std::string overlap_path = (dir_ / "overlap.json").string();
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--configs", dev1, "--configs",
                 dev1_dotted, "--metadata", meta, "--support", "3", "--out",
                 overlap_path},
                &out),
            0);
  EXPECT_NE(out.find("configs: 6\n"), std::string::npos) << out;
  EXPECT_EQ(ReadFile(overlap_path), ReadFile(once_path));

  // A repeated metadata file would add a metadata document to the store entry.
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--metadata", meta,
                 "--metadata", meta_dotted, "--support", "3", "--out", overlap_path,
                 "--store-dir", store},
                &out),
            0);
  EXPECT_NE(out.find("store: dataset 'default' unchanged"), std::string::npos) << out;
}

// `check --store-dir` reads the persisted set, so its reports are the bytes
// `check --contracts` writes for the same set.
TEST_F(CliTest, CheckFromStoreMatchesCheckFromFile) {
  std::string store = (dir_ / "store").string();
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3",
                 "--score-threshold", "3", "--out", ContractsPath(), "--store-dir", store}),
            0);
  std::string bad = Config(3);
  bad = bad.replace(bad.find("seq 10 permit 10.14.3.34/32"),
                    std::string("seq 10 permit 10.14.3.34/32").size(),
                    "seq 10 permit 10.14.77.34/32");
  WriteFile((dir_ / "configs" / "dev3.cfg").string(), bad);
  std::map<std::string, std::string> reports;
  for (const std::vector<std::string>& source :
       {std::vector<std::string>{"--contracts", ContractsPath()},
        std::vector<std::string>{"--store-dir", store}}) {
    std::vector<std::string> args = {"check", "--configs", ConfigsGlob(), "--json-out",
                                     (dir_ / "r.json").string(), "--html-out",
                                     (dir_ / "r.html").string(), "--coverage-out",
                                     (dir_ / "r.txt").string()};
    args.insert(args.end(), source.begin(), source.end());
    ASSERT_EQ(Run(args), 1);
    reports[source.front()] = ReadFile((dir_ / "r.json").string()) +
                              ReadFile((dir_ / "r.html").string()) +
                              ReadFile((dir_ / "r.txt").string());
  }
  EXPECT_NE(reports["--contracts"].find("dev3.cfg"), std::string::npos);
  EXPECT_EQ(reports["--store-dir"], reports["--contracts"]);
}

// A contract set records its lexer definitions, and checking or analyzing
// configs with other definitions is refused: its patterns would not match.
TEST_F(CliTest, CheckRefusesALexerMismatch) {
  std::string lexer = (dir_ / "lexer.txt").string();
  WriteFile(lexer, "host DEV[0-9]+\n");
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--lexer", lexer,
                 "--out", ContractsPath()}),
            0);
  EXPECT_NE(ReadFile(ContractsPath()).find("\"lexerKey\""), std::string::npos);
  std::string err;
  EXPECT_EQ(Run({"check", "--configs", ConfigsGlob(), "--contracts", ContractsPath()},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("lexer mismatch"), std::string::npos) << err;
  EXPECT_EQ(Run({"analyze", "--configs", ConfigsGlob(), "--contracts", ContractsPath()},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("lexer mismatch"), std::string::npos) << err;
  EXPECT_EQ(Run({"check", "--configs", ConfigsGlob(), "--contracts", ContractsPath(),
                 "--lexer", lexer}),
            0);
  // Without configs nothing is lexed, so the set-only analysis runs.
  EXPECT_EQ(Run({"analyze", "--contracts", ContractsPath()}), 0);

  // And the other way round: a built-in-lexer set checked with --lexer.
  std::string plain = (dir_ / "plain.json").string();
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out", plain}),
            0);
  EXPECT_EQ(ReadFile(plain).find("\"lexerKey\""), std::string::npos);
  EXPECT_EQ(Run({"check", "--configs", ConfigsGlob(), "--contracts", plain, "--lexer",
                 lexer},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("lexer mismatch"), std::string::npos) << err;
}

// `serve --contracts` compares the preloaded set's lexer with `serve --lexer`
// and refuses a mismatch before serving, naming both lexers.
TEST_F(CliTest, ServeRefusesAPreloadLearnedUnderAnotherLexer) {
  std::string lexer = (dir_ / "lexer.txt").string();
  WriteFile(lexer, "host DEV[0-9]+\n");
  Lexer custom;
  ASSERT_TRUE(custom.LoadDefinitions(ReadFile(lexer)));
  const std::string custom_name = "lexer definitions " + std::to_string(custom.DefinitionsKey());
  std::string plain = (dir_ / "plain.json").string();
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out", plain}), 0);
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--lexer", lexer,
                 "--out", ContractsPath()}),
            0);
  for (const auto& args : {std::vector<std::string>{"serve", "--lexer", lexer, "--contracts",
                                                    "prod=" + plain, "--quiet"},
                           std::vector<std::string>{"serve", "--contracts",
                                                    "prod=" + ContractsPath(), "--quiet"}}) {
    std::string err;
    EXPECT_EQ(Run(args, nullptr, &err), 2);
    EXPECT_NE(err.find("cannot load contracts 'prod'"), std::string::npos) << err;
    EXPECT_NE(err.find("lexer mismatch"), std::string::npos) << err;
    EXPECT_NE(err.find("the built-in lexer"), std::string::npos) << err;
    EXPECT_NE(err.find(custom_name), std::string::npos) << err;
  }
}

// A contract object damaged on disk fails `check --store-dir` with
// store_corrupt; relearning the same inputs rewrites the object, after which
// check and `store verify` pass.
TEST_F(CliTest, StoreDirRelearnRepairsACorruptContractObject) {
  std::string store = (dir_ / "store").string();
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 ContractsPath(), "--store-dir", store, "--quiet"}),
            0);
  std::string manifest_dump;
  ASSERT_EQ(Run({"store", "ls", "--store-dir", store}, &manifest_dump), 0);
  size_t key_at = manifest_dump.find("(key ");
  ASSERT_NE(key_at, std::string::npos) << manifest_dump;
  uint64_t key = std::stoull(manifest_dump.substr(key_at + 5));
  std::string object = store + "/" + DurableStore::ObjectRelPath(key);
  std::string bytes = ReadFile(object);
  bytes[64] = static_cast<char>(bytes[64] ^ 0x7f);
  WriteFile(object, bytes);

  std::string err;
  EXPECT_EQ(Run({"check", "--configs", ConfigsGlob(), "--store-dir", store}, nullptr, &err),
            2);
  EXPECT_NE(err.find("store_corrupt"), std::string::npos) << err;
  std::string out;
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 ContractsPath(), "--store-dir", store},
                &out),
            0);
  EXPECT_EQ(out.find("unchanged"), std::string::npos) << out;
  EXPECT_EQ(Run({"check", "--configs", ConfigsGlob(), "--store-dir", store}), 0);
  EXPECT_EQ(Run({"store", "verify", "--store-dir", store}, &out), 0) << out;
}

// Parsing runs on --parallelism workers, and its input-order merge keeps every
// learned and reported byte equal to the serial run.
TEST_F(CliTest, ParallelismDoesNotChangeLearnOrCheckBytes) {
  for (int i = 7; i <= 24; ++i) {
    WriteFile((dir_ / "configs" / ("dev" + std::to_string(i) + ".cfg")).string(),
              Config(i));
  }
  std::string serial = (dir_ / "serial.json").string();
  std::string parallel = (dir_ / "parallel.json").string();
  for (const std::string& p : {std::string("1"), std::string("4")}) {
    ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3",
                   "--score-threshold", "3", "--parallelism", p, "--out",
                   p == "1" ? serial : parallel}),
              0);
  }
  EXPECT_EQ(ReadFile(serial), ReadFile(parallel));

  std::string bad = Config(3);
  bad = bad.replace(bad.find("seq 10 permit 10.14.3.34/32"),
                    std::string("seq 10 permit 10.14.3.34/32").size(),
                    "seq 10 permit 10.14.77.34/32");
  WriteFile((dir_ / "configs" / "dev3.cfg").string(), bad);
  std::map<std::string, std::string> reports;
  for (const std::string& p : {std::string("1"), std::string("4")}) {
    std::string out;
    ASSERT_EQ(Run({"check", "--configs", ConfigsGlob(), "--contracts", serial,
                   "--parallelism", p, "--json-out", (dir_ / "r.json").string(),
                   "--html-out", (dir_ / "r.html").string(), "--coverage-out",
                   (dir_ / "r.txt").string(), "--profile"},
                  &out),
              1);
    reports[p] = ReadFile((dir_ / "r.json").string()) +
                 ReadFile((dir_ / "r.html").string()) +
                 ReadFile((dir_ / "r.txt").string());
    // One parse row, timed on the calling thread: the workers open no spans.
    size_t row = out.find("check/parse");
    ASSERT_NE(row, std::string::npos) << out;
    EXPECT_EQ(std::stoi(out.substr(row + std::string("check/parse").size())), 1) << out;
  }
  EXPECT_NE(reports["1"].find("dev3.cfg"), std::string::npos);
  EXPECT_EQ(reports["1"], reports["4"]);
}

TEST_F(CliTest, ProfilePrintsBreakdownAndWritesChromeTrace) {
  std::string trace_path = (dir_ / "trace.json").string();
  std::string out;
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 ContractsPath(), "--profile", "--trace-out", trace_path},
                &out),
            0);
  // The per-stage breakdown lists the learn pipeline stages.
  EXPECT_NE(out.find("profile: per-stage breakdown"), std::string::npos);
  for (const char* stage : {"learn/parse", "learn/index", "learn/mine",
                            "learn/aggregate", "learn/minimize", "learn/total"}) {
    EXPECT_NE(out.find(stage), std::string::npos) << stage;
  }
  EXPECT_NE(out.find("wrote trace"), std::string::npos);

  // The trace file is loadable Chrome trace_event JSON with complete events.
  auto trace = JsonValue::Parse(ReadFile(trace_path));
  ASSERT_TRUE(trace.has_value());
  const JsonValue* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->items().empty());
  bool saw_total = false;
  for (const JsonValue& event : events->items()) {
    EXPECT_EQ(event.GetString("ph"), "X");
    if (event.GetString("cat") == "learn" && event.GetString("name") == "total") {
      saw_total = true;
    }
  }
  EXPECT_TRUE(saw_total);
}

TEST_F(CliTest, CheckProfileCoversTheCheckStages) {
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 ContractsPath()}),
            0);
  // The pruned coverage-off run takes the same path as the plain one, so it
  // shows the same stage rows.
  for (const std::vector<std::string>& extra :
       {std::vector<std::string>{},
        std::vector<std::string>{"--no-coverage", "--prune-subsumed"}}) {
    std::vector<std::string> args = {"check", "--configs", ConfigsGlob(), "--contracts",
                                     ContractsPath(), "--profile"};
    args.insert(args.end(), extra.begin(), extra.end());
    std::string out;
    ASSERT_EQ(Run(args, &out), 0);
    EXPECT_NE(out.find("profile: per-stage breakdown"), std::string::npos) << out;
    EXPECT_NE(out.find("check/total"), std::string::npos) << out;
    EXPECT_NE(out.find("check/index"), std::string::npos) << out;
    // Loading the configs bills to the verb that asked for it.
    EXPECT_NE(out.find("check/parse"), std::string::npos) << out;
    EXPECT_EQ(out.find("learn/"), std::string::npos) << out;
  }
}

TEST_F(CliTest, JsonReportDegradedEntriesCarryTheErrorEnvelope) {
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 ContractsPath()}),
            0);
  std::string json_path = (dir_ / "report.json").string();

  // Degraded entries carry the structured {code, message} envelope.
  ASSERT_TRUE(FaultInjector::Global().Configure("read_file:fail_nth=2"));
  ASSERT_EQ(Run({"check", "--configs", ConfigsGlob(), "--contracts",
                 ContractsPath(), "--json-out", json_path}),
            3);
  FaultInjector::Global().Reset();
  auto report = JsonValue::Parse(ReadFile(json_path));
  ASSERT_TRUE(report.has_value());
  const JsonValue* degraded = report->Find("degraded");
  ASSERT_NE(degraded, nullptr);
  ASSERT_EQ(degraded->items().size(), 1u);
  const JsonValue* entry_error = degraded->items()[0].Find("error");
  ASSERT_NE(entry_error, nullptr);
  EXPECT_EQ(entry_error->GetString("code"), "io_error");
  EXPECT_NE(entry_error->GetString("message")->find("injected fault"),
            std::string::npos);
}

}  // namespace
}  // namespace concord
