// Format detection and context embedding (§3.1).
//
// Concord treats configurations as unstructured text, but hierarchy matters: the line
// `ip address 10.14.14.34` only relates to the loopback prefix list because it appears
// under `interface Loopback0`. Before lexing, each file is classified into one of a
// small number of format categories and every line is annotated with its chain of
// parent lines:
//
//   * Indent  — parents are the enclosing lines of smaller indentation (Figure 3).
//   * YAML    — same indentation discipline; `- ` list markers fold into the indent.
//   * JSON    — the document is parsed and one logical line is synthesized per scalar
//               leaf, with the object keys on the path as parents.
//   * Flat    — every line stands alone (Junos-style `set ...` syntax already carries
//               its full context in the line).
//
// The paper observes that despite thousands of configuration dialects, the number of
// ways hierarchy is expressed is tiny — this module is the complete list it supports.
#ifndef SRC_FORMAT_EMBED_H_
#define SRC_FORMAT_EMBED_H_

#include <string>
#include <string_view>
#include <vector>

namespace concord {

enum class FormatCategory { kJson, kYaml, kIndent, kFlat, kUnknown };

std::string_view FormatCategoryName(FormatCategory format);

inline constexpr int kNoParent = -1;

// One configuration line with its embedded context chain. Lines share their
// parents: `parent` names the innermost one, and each parent names its own.
struct ContextLine {
  std::string_view text;   // The line's own raw text, trimmed.
  int parent = kNoParent;  // Index into EmbeddedFile::parents.
  int line_number = 0;     // 1-based line in the source file (synthesized
                           // sequence number for JSON inputs).
};

// A line, or a JSON object key, that is the context of other lines.
struct ContextParent {
  std::string_view text;
  int parent = kNoParent;  // Its own parent: a smaller index, or kNoParent.
};

// Texts view the embedded text, which must outlive the file, or, for JSON,
// `storage`, whose heap block moves with the file. A copy's JSON texts would
// still view the original's storage, so the file moves but does not copy.
struct EmbeddedFile {
  EmbeddedFile() = default;
  EmbeddedFile(EmbeddedFile&&) = default;
  EmbeddedFile& operator=(EmbeddedFile&&) = default;
  EmbeddedFile(const EmbeddedFile&) = delete;
  EmbeddedFile& operator=(const EmbeddedFile&) = delete;

  FormatCategory format = FormatCategory::kUnknown;
  std::vector<ContextLine> lines;
  std::vector<ContextParent> parents;
  std::vector<char> storage;  // JSON: the synthesized `key value` lines and keys.

  // The texts of `line`'s parents, outermost first.
  std::vector<std::string_view> ParentTexts(const ContextLine& line) const;
};

// Classifies the file's format category. Empty input yields kUnknown.
FormatCategory DetectFormat(std::string_view text);

// Detects the format and embeds context into every (non-blank) line, in one
// walk over the text for every format but YAML, which takes two. The lines view
// `text`, so a temporary string does not bind.
EmbeddedFile EmbedText(std::string_view text);
EmbeddedFile EmbedText(std::string&& text) = delete;

// Embeds with a caller-chosen category; used by the --no-embedding ablation (which
// passes kFlat) and by tests.
EmbeddedFile EmbedTextAs(std::string_view text, FormatCategory format);
EmbeddedFile EmbedTextAs(std::string&& text, FormatCategory format) = delete;

}  // namespace concord

#endif  // SRC_FORMAT_EMBED_H_
