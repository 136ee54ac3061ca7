// Violation and coverage reporting (§4).
//
// `concord check` emits a machine-readable JSON report and, optionally, a
// self-contained HTML page for viewing, filtering, and searching violations — the
// operator-facing surface the paper describes for dismissing false positives.
#ifndef SRC_REPORT_REPORT_H_
#define SRC_REPORT_REPORT_H_

#include <string>
#include <vector>

#include "src/analyze/analyzer.h"
#include "src/check/checker.h"
#include "src/contracts/contract.h"
#include "src/format/json.h"

namespace concord {

// JSON document with per-violation contract text, config, line, and message, plus the
// coverage summary and, when inputs were skipped, the degraded section.
std::string ReportJson(const CheckResult& result, const ContractSet& set,
                       const PatternTable& table);

// The same report as a document value, for embedding in a larger response (the
// service returns it inside each `check` reply; serializing this with indent 2
// reproduces ReportJson byte for byte).
JsonValue ReportJsonValue(const CheckResult& result, const ContractSet& set,
                          const PatternTable& table);

// Skipped inputs as [{"file","error":{"code","message"}}, ...]: the report's
// degraded section, and the schema serve responses use for their own
// "degraded" member.
JsonValue DegradedJsonValue(const std::vector<SkippedFile>& skipped);

// The coverage summary sub-object of the JSON report.
JsonValue CoverageJsonValue(const CheckResult& result);

// Self-contained HTML page (inline CSS/JS; no external assets) with a search box and
// per-category filters.
std::string ReportHtml(const CheckResult& result, const ContractSet& set,
                       const PatternTable& table);

// Terse terminal summary: violation counts per category and the coverage table.
std::string ReportText(const CheckResult& result, const ContractSet& set,
                       const PatternTable& table);

// Per-line coverage listing (§3.9): for every configuration line, the covering
// contract categories or "untested". Guides the development of new contract
// categories, as the paper suggests.
std::string CoverageReportText(const CheckResult& result);

// Analyzer findings (DESIGN.md §14) as a document value: contract count,
// findings (rule/severity/message/contracts/keys), per-severity and per-pass
// counts, and the prunable-contract count. The `analyze` serve verb embeds
// this; serializing with indent 2 reproduces AnalyzeReportJson byte for byte.
JsonValue AnalyzeReportJsonValue(const AnalysisResult& result);

// JSON document for `concord analyze --json-out`.
std::string AnalyzeReportJson(const AnalysisResult& result);

// Terse terminal listing: one line per finding (severity, rule, message) with
// the implicated contract keys indented beneath, then the summary counts.
std::string AnalyzeReportText(const AnalysisResult& result);

}  // namespace concord

#endif  // SRC_REPORT_REPORT_H_
