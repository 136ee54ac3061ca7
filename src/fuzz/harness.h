// Differential-testing harness over fuzz corpora (DESIGN.md §13).
//
// Every corpus a FuzzCaseSpec produces is run through five oracles:
//
//   1. learn identity    — incremental learn (ArtifactStore) must produce the
//                          contract JSON byte-identical to a from-scratch
//                          learn, including after an update/revert cycle;
//   2. serve identity    — the serve-path check response (in-process, over the
//                          epoll socket frontend, and per-slot inside a
//                          check_batch) must carry the report byte-identical
//                          to `concord check --json-out`;
//   3. analyze/prune     — the static analyzer (DESIGN.md §14) must terminate
//                          cleanly on whatever the corpus learns, and a
//                          coverage-off check with its subsumption prune mask
//                          must flag exactly the same configs as the unpruned
//                          check — byte-identically when the corpus is clean;
//   4. parallel identity — parsing the corpus in k blocks, k in 2..7 drawn
//                          from the corpus fingerprint, gives the pattern
//                          table and lines of the serial parse loop; checking
//                          the learned set at parallelism k renders the
//                          report and coverage bytes of the serial check;
//                          the configs repeat until the batch spans more than
//                          one 32-config tile of the scan grid;
//   5. never crash/hang  — the whole pipeline runs under a deadline; any
//                          exception is a crash, deadline expiry is a timeout.
//
// Failures are triaged into crash/mismatch/timeout buckets; the campaign
// driver minimizes the failing spec (fewer configs, fewer distortion passes)
// and persists it as a repro JSON under tests/fuzz_corpus/.
#ifndef SRC_FUZZ_HARNESS_H_
#define SRC_FUZZ_HARNESS_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/fuzz/fuzzer.h"

namespace concord {

// Drives the real CLI in-process (RunConcord's signature) so the harness can
// diff serve responses against `concord check` without linking the CLI into
// this library (the CLI links *us* for the `fuzz` subcommand).
using CliRunner = int (*)(int argc, const char* const* argv, std::ostream& out,
                          std::ostream& err);

enum class TriageBucket { kClean, kCrash, kMismatch, kTimeout };

std::string_view TriageBucketName(TriageBucket bucket);

// Planted-divergence hooks: tests install one to corrupt a byte on one side of
// an oracle and assert the oracle fires. Production runs leave them empty.
struct OracleHooks {
  // Runs over the incremental learn's serialized contracts before comparison.
  std::function<void(std::string*)> perturb_incremental_contracts;
  // Runs over the serve-path report bytes before comparison with the CLI file.
  std::function<void(std::string*)> perturb_serve_report;
  // Runs over check_batch slot 0 before comparison with the standalone check.
  std::function<void(std::string*)> perturb_batch_slot;
  // Runs over the subsumption-pruned check's report bytes before comparison
  // with the unpruned check (the analyze_prune oracle).
  std::function<void(std::string*)> perturb_pruned_report;
  // Runs over the parallel check's report and coverage bytes before comparison
  // with the serial check (the parallel_identity oracle).
  std::function<void(std::string*)> perturb_parallel_report;
};

struct OracleOptions {
  // Wall-clock budget for one corpus through all oracles. Expiry anywhere in
  // the pipeline triages as kTimeout.
  int64_t deadline_ms = 30000;
  // Learn support floor: fuzz corpora are small, the paper default of 5 would
  // learn nothing.
  int support = 2;
  // Scratch directory for the serve-vs-CLI oracle (config files, contract
  // file, CLI report). Empty disables oracle 2.
  std::string work_dir;
  // The CLI entry point (RunConcord). Null disables oracle 2.
  CliRunner run_cli = nullptr;
  // Also round-trip the check through the epoll socket frontend (AF_UNIX) and
  // require the on-the-wire response to byte-match the in-process one.
  bool socket = true;
  OracleHooks hooks;
};

struct TriageResult {
  TriageBucket bucket = TriageBucket::kClean;
  std::string oracle;  // "learn_identity", "serve_identity", "batch_identity",
                       // "analyze_prune", "parallel_identity", or "pipeline"
                       // (crash/timeout site) — empty when clean.
  std::string detail;
};

// Runs all oracles over one corpus. Never throws.
TriageResult RunOracles(const GeneratedCorpus& corpus, const OracleOptions& options);

// ---- Campaign driver --------------------------------------------------------

struct FailureRecord {
  FuzzCaseSpec spec;       // minimized when CampaignOptions.minimize
  TriageResult triage;
  uint64_t corpus_fingerprint = 0;
};

struct CampaignOptions {
  // Base families to rotate through; empty = every registered family.
  std::vector<std::string> families;
  uint64_t seed = 1;
  int runs = 50;           // fresh cases (on top of corpus_dir replays)
  Knobs knobs;             // applied to every case (user overrides)
  OracleOptions oracle;
  // Directory of committed repro JSONs to replay before fresh cases; "" skips.
  std::string corpus_dir;
  // Where to persist new failure repros; "" disables persistence.
  std::string out_dir;
  bool minimize = true;
  bool verbose = false;    // log every case, not just failures
};

struct CampaignResult {
  int cases = 0;
  int replayed = 0;
  int clean = 0;
  int crashes = 0;
  int mismatches = 0;
  int timeouts = 0;
  std::vector<FailureRecord> failures;
  // FNV-1a over every case's (identity, corpus fingerprint, bucket, oracle) —
  // two campaigns with the same seed and knobs must agree on this exactly,
  // which is what the reproducibility ctest pins.
  uint64_t verdict_fingerprint = 0;

  bool ok() const { return crashes == 0 && mismatches == 0 && timeouts == 0; }
};

// Runs `runs` fresh cases (plus corpus_dir replays) through the oracles,
// minimizing and persisting failures. Logs progress to `log`.
CampaignResult RunFuzzCampaign(const GeneratorRegistry& registry,
                               const CampaignOptions& options, std::ostream& log);

// Shrinks a failing spec while the same (bucket, oracle) failure reproduces:
// first the config count (fuzz-max-configs), then each distortion knob zeroed
// in turn. Returns the smallest still-failing spec.
FuzzCaseSpec MinimizeFailure(const GeneratorRegistry& registry,
                             const FuzzCaseSpec& spec, const TriageResult& failure,
                             const OracleOptions& options);

// Repro-file round trip: {"family","seed","knobs":{...}} (+ bucket/oracle/
// detail annotations on write, ignored on read).
std::string SerializeRepro(const FuzzCaseSpec& spec, const TriageResult& triage);
bool ParseRepro(const std::string& json, FuzzCaseSpec* spec, std::string* error);

}  // namespace concord

#endif  // SRC_FUZZ_HARNESS_H_
