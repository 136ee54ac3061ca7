// The typed-pattern lexer (§3.2, Table 1).
//
// Lexing turns one line of configuration text into a pattern (text with typed holes)
// and the list of extracted values. Built-in token types mirror Table 1:
//
//   [pfx6] [ip6] [mac] [pfx4] [ip4] [hex] [bool] [num]
//
// recognized by fast hand-rolled matchers, plus user-defined tokens (e.g. [iface],
// [descr]) given as regular expressions and tried before the builtins. At every
// position the longest match wins; ties go to user tokens in definition order.
// Sub-word extraction is deliberate — `Port-Channel110` lexes to `Port-Channel[a:num]`
// exactly as in Figure 3.
#ifndef SRC_PATTERN_LEXER_H_
#define SRC_PATTERN_LEXER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/regex/regex.h"
#include "src/value/value.h"

namespace concord {

// Result of lexing one line. Lex clears and refills it but keeps its capacity,
// so a caller that lexes every line into one LineLex stops allocating once its
// buffers have grown to the longest line.
struct LineLex {
  std::string pattern_named;    // `seq [a:num] permit [b:pfx4]`.
  std::string pattern_unnamed;  // `seq [num] permit [pfx4]` (for context embedding).
  std::string untyped;          // `seq [a:?] permit [b:?]` (for type contracts).
  std::vector<Value> values;    // Captured values, in order.
  Regex::Scratch scratch;       // Custom-token simulation buffers.
};

class Lexer {
 public:
  Lexer();

  // Registers a user token; returns false and fills *error on bad regex or duplicate
  // name. User tokens are matched in registration order, before builtins.
  bool AddCustomToken(const std::string& name, const std::string& regex_pattern,
                      std::string* error = nullptr);

  // Parses a lexer-definition file: one `name<whitespace>regex` pair per line;
  // '#' comments and blank lines are ignored.
  bool LoadDefinitions(const std::string& text, std::string* error = nullptr);

  // Lexes a single (already context-trimmed) line into *out.
  void Lex(std::string_view text, LineLex* out) const;

  size_t num_custom_tokens() const { return custom_.size(); }

  // Identity of the user tokens: FNV-1a over each token's name and regex, in
  // registration order, so comments and spacing in a definition file do not
  // count. 0 for the built-in lexer. Contract files and store entries record
  // it, since the patterns a lexer makes depend on its tokens.
  uint64_t DefinitionsKey() const;

  // Names a DefinitionsKey in messages: "the built-in lexer" for 0, else
  // "lexer definitions <key>".
  static std::string DescribeKey(uint64_t key);

 private:
  struct CustomToken {
    std::string name;
    Regex regex;
  };

  // Finds the longest token at `pos` and appends its value to out->values;
  // only the winner builds a Value. Returns the token's length and sets
  // *type_name to its hole type, or returns 0 when no token starts at `pos`.
  size_t MatchAt(std::string_view text, size_t pos, LineLex* out,
                 std::string_view* type_name) const;

  std::vector<CustomToken> custom_;
};

}  // namespace concord

#endif  // SRC_PATTERN_LEXER_H_
