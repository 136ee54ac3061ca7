// Public facade: checking configurations against a learned contract set and
// rendering the result (JSON / HTML / text reports, per-line coverage).
//
//   #include "concord/checker.h"
//
//   concord::Checker checker(&set, &patterns);
//   concord::CheckResult result = checker.Check(tests);
//   std::string report = concord::ReportJson(result, set, patterns);
//
// The Checker compiles the contract set once at construction (type rules
// grouped by pattern, contract pattern -> posting slot); a const Checker is
// safe to share across threads, with per-request knobs passed via CheckOptions:
//
//   concord::CheckOptions options;
//   options.deadline = concord::Deadline::After(500);
//   concord::CheckResult result = checker.Check(indexes, options);
#ifndef INCLUDE_CONCORD_CHECKER_H_
#define INCLUDE_CONCORD_CHECKER_H_

#include "src/check/checker.h"
#include "src/contracts/suppression.h"
#include "src/report/report.h"

#endif  // INCLUDE_CONCORD_CHECKER_H_
