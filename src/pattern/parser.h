// Configuration parsing pipeline: raw text -> embedded lines -> interned patterns.
//
// This composes §3.1 (context embedding) and §3.2 (pattern/value extraction) into the
// representation every miner operates on. The canonical pattern of a line is
//
//   "/" + parent patterns (types only, no captures) joined by "/" + leaf pattern
//
// exactly as rendered in Figure 3 — e.g.
// `/router bgp [num]/vlan [num]/rd [a:ip4]:[b:num]`. Parent parameters are deliberately
// not captured (footnote 2 of the paper): real relationships to a parent value are
// learned from the parent's own line.
#ifndef SRC_PATTERN_PARSER_H_
#define SRC_PATTERN_PARSER_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/format/embed.h"
#include "src/pattern/lexer.h"
#include "src/pattern/pattern_table.h"
#include "src/util/cancellation.h"
#include "src/value/value.h"

namespace concord {

// One lexed configuration line.
struct ParsedLine {
  PatternId pattern = kInvalidPattern;
  PatternId const_pattern = kInvalidPattern;  // Exact-text pattern (constants mode).
  std::vector<Value> values;
  int line_number = 0;  // 1-based in the source file.
};

struct ParsedConfig {
  std::string name;
  FormatCategory format = FormatCategory::kUnknown;
  std::vector<ParsedLine> lines;
};

// A full training or test corpus sharing one pattern table.
struct Dataset {
  PatternTable patterns;
  std::vector<ParsedConfig> configs;
  std::vector<ParsedLine> metadata;  // §3.7: logically appended to every config.

  size_t TotalLines() const;
  size_t TotalParameters() const;  // Sum of parameter counts over unique patterns.
};

struct ParseOptions {
  bool embed_context = true;  // False = the Figure 7 "baseline" ablation.
  bool constants = false;     // Also intern exact-line constant patterns (§4).
};

class ConfigParser {
 public:
  // `lexer` and `table` must outlive the parser.
  ConfigParser(const Lexer* lexer, PatternTable* table, ParseOptions options);

  // Parses one configuration file.
  ParsedConfig Parse(const std::string& name, const std::string& text);

  // Parses a metadata file; lines are rooted under the "@meta" context so learned
  // contracts render as `@meta/nfInfos/...` (§3.7).
  std::vector<ParsedLine> ParseMetadata(const std::string& text);

 private:
  ParsedConfig ParseEmbedded(const std::string& name, const EmbeddedFile& embedded,
                             std::string_view context_root);

  // Parent raw text -> unnamed pattern text (memoized; parents repeat heavily).
  std::string_view ParentPattern(std::string_view raw);

  const Lexer* lexer_;
  PatternTable* table_;
  ParseOptions options_;
  std::unordered_map<std::string, std::string, TextHash, std::equal_to<>> parent_cache_;
  // Buffers every file reuses, keeping their capacity, so that a line
  // allocates only its values vector.
  LineLex lex_;
  std::string root_context_;  // The prefix of top-level lines, e.g. `/`.
  // The prefix of each parent's children, by EmbeddedFile::parents index, e.g.
  // `/router bgp [num]/`. Holds at least as many strings as the file has parents.
  std::vector<std::string> parent_contexts_;
  std::string scratch_;  // Pattern-text probe (see ParseEmbedded).
};

// One configuration file for ParseConfigs; both strings must outlive the call.
struct ConfigSource {
  const std::string* name;
  const std::string* text;
};

// A file ParseConfigs left out because its parse threw.
struct ParseFailure {
  size_t index = 0;    // Position in the input list.
  std::string reason;  // The exception's what().
};

// Parses `files` and appends them to dataset->configs in input order. The
// files are split into `parallelism` contiguous blocks (0 = one per core, and
// never more blocks than files), parsed by one process-wide pool with one
// thread per core; a single block parses on the calling thread. Each block
// runs a ConfigParser. The first block parses straight into dataset->patterns,
// since it comes first in input order; the others use private PatternTables.
// A serial merge then walks their configs in input order and their lines in
// line order, `pattern` before `const_pattern`, and interns each block-local
// id into dataset->patterns on first use. That is the order in which a serial
// ConfigParser loop interns, so every PatternId equals the serial run's,
// whatever the table held before. The shared table has one writer at a time:
// the first block's worker, then the merge.
//
// A file whose parse throws is left out of dataset->configs and reported in the
// result, in input order. The deadline is polled before each file; expiry
// throws DeadlineExceeded.
std::vector<ParseFailure> ParseConfigs(const Lexer& lexer, ParseOptions options,
                                       const std::vector<ConfigSource>& files,
                                       int parallelism, Dataset* dataset,
                                       const Deadline& deadline = Deadline::Never());

// Empty when the datasets hold the same patterns, every field in id order, and
// the same configs line for line (pattern ids, values, line numbers);
// otherwise the first difference. Metadata is not compared. The oracle that
// holds ParseConfigs to a serial ConfigParser loop, in tests and fuzzing.
std::string FirstParseDifference(const Dataset& want, const Dataset& got);

}  // namespace concord

#endif  // SRC_PATTERN_PARSER_H_
