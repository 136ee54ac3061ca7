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
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/regex/regex.h"
#include "src/value/value.h"

namespace concord {

// Result of lexing one line.
struct LineLex {
  std::string pattern_named;    // `seq [a:num] permit [b:pfx4]`.
  std::string pattern_unnamed;  // `seq [num] permit [pfx4]` (for context embedding).
  std::string untyped;          // `seq [a:?] permit [b:?]` (for type contracts).
  std::vector<Value> values;    // Captured values, in order.
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

  // Lexes a single (already context-trimmed) line.
  LineLex Lex(std::string_view text) const;

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

  struct TokenMatch {
    size_t length = 0;
    std::string type_name;  // Token name for the pattern hole.
    Value value;
  };

  std::optional<TokenMatch> MatchAt(std::string_view text, size_t pos,
                                    Regex::Scratch* scratch) const;

  std::vector<CustomToken> custom_;
};

}  // namespace concord

#endif  // SRC_PATTERN_LEXER_H_
