#include "src/pattern/lexer.h"

#include <string>
#include <utility>
#include <vector>

#include "src/pattern/pattern_table.h"
#include "src/util/hash.h"
#include "src/util/io.h"
#include "src/util/strings.h"

namespace concord {

namespace {

// Each matcher returns the length it matched at `pos`, 0 for no match (no
// token is empty), and parses the fixed-size token kinds into *out.

// Matches an IPv4 dotted quad at `pos`.
size_t MatchIpv4At(std::string_view s, size_t pos, Ipv4Address* out) {
  size_t i = pos;
  uint32_t bits = 0;
  for (int octet = 0; octet < 4; ++octet) {
    if (octet > 0) {
      if (i >= s.size() || s[i] != '.') {
        return 0;
      }
      ++i;
    }
    size_t start = i;
    uint32_t value = 0;
    while (i < s.size() && IsDigit(s[i]) && i - start < 3) {
      value = value * 10 + static_cast<uint32_t>(s[i] - '0');
      ++i;
    }
    if (i == start || value > 255) {
      return 0;
    }
    // A 4+ digit run cannot be an octet (e.g. "1234.1.2.3").
    if (i < s.size() && IsDigit(s[i])) {
      return 0;
    }
    bits = (bits << 8) | value;
  }
  *out = Ipv4Address(bits);
  return i - pos;
}

// Matches "/len" (0..32) immediately after an IPv4 address.
size_t MatchPrefixLen(std::string_view s, size_t pos, int max_len, int* out) {
  size_t i = pos;
  if (i >= s.size() || s[i] != '/') {
    return 0;
  }
  ++i;
  size_t start = i;
  int value = 0;
  while (i < s.size() && IsDigit(s[i]) && i - start < 3) {
    value = value * 10 + (s[i] - '0');
    ++i;
  }
  if (i == start || value > max_len || (i < s.size() && IsDigit(s[i]))) {
    return 0;
  }
  *out = value;
  return i - pos;
}

// Maximal run of hex digits and colons starting at `pos` (candidate IPv6 span).
size_t HexColonSpan(std::string_view s, size_t pos) {
  size_t i = pos;
  while (i < s.size() && (IsHexDigit(s[i]) || s[i] == ':')) {
    ++i;
  }
  return i - pos;
}

size_t MatchIpv6At(std::string_view s, size_t pos, Ipv6Address* out) {
  size_t span = HexColonSpan(s, pos);
  if (span < 2) {
    return 0;
  }
  std::string_view candidate = s.substr(pos, span);
  // Require at least two colons so short "a:b" text never parses as IPv6.
  size_t colons = 0;
  for (char c : candidate) {
    if (c == ':') {
      ++colons;
    }
  }
  if (colons < 2) {
    return 0;
  }
  // Trim trailing colons one at a time (e.g. "fe80::" inside "fe80::;" is fine, but a
  // single trailing ':' from surrounding syntax like "2001:db8::1:" must not break it).
  while (span > 2) {
    auto parsed = Ipv6Address::Parse(candidate.substr(0, span));
    if (parsed.has_value()) {
      *out = *parsed;
      return span;
    }
    if (candidate[span - 1] == ':') {
      --span;
    } else {
      break;
    }
  }
  return 0;
}

size_t MatchMacAt(std::string_view s, size_t pos, MacAddress* out) {
  size_t i = pos;
  std::array<uint16_t, 6> segments{};
  for (int seg = 0; seg < 6; ++seg) {
    if (seg > 0) {
      if (i >= s.size() || s[i] != ':') {
        return 0;
      }
      ++i;
    }
    size_t start = i;
    uint32_t value = 0;
    while (i < s.size() && IsHexDigit(s[i]) && i - start < 4) {
      char c = s[i];
      uint32_t digit = IsDigit(c)   ? static_cast<uint32_t>(c - '0')
                       : (c >= 'a') ? static_cast<uint32_t>(c - 'a' + 10)
                                    : static_cast<uint32_t>(c - 'A' + 10);
      value = (value << 4) | digit;
      ++i;
    }
    if (i == start || (i < s.size() && IsHexDigit(s[i]))) {
      return 0;
    }
    segments[seg] = static_cast<uint16_t>(value);
  }
  // A seventh group means this is something else (likely IPv6 text).
  if (i < s.size() && s[i] == ':' && i + 1 < s.size() && IsHexDigit(s[i + 1])) {
    return 0;
  }
  *out = MacAddress(segments);
  return i - pos;
}

// Matches `0x` plus at least one hex digit; the digits follow the prefix.
size_t MatchHexAt(std::string_view s, size_t pos) {
  if (pos + 2 >= s.size() || s[pos] != '0' || (s[pos + 1] != 'x' && s[pos + 1] != 'X')) {
    return 0;
  }
  size_t i = pos + 2;
  while (i < s.size() && IsHexDigit(s[i])) {
    ++i;
  }
  return i == pos + 2 ? 0 : i - pos;
}

size_t MatchBoolAt(std::string_view s, size_t pos, bool* out) {
  auto word_boundary = [&s](size_t end) { return end >= s.size() || !IsAlnum(s[end]); };
  bool prev_ok = pos == 0 || !IsAlnum(s[pos - 1]);
  if (!prev_ok) {
    return 0;
  }
  if (s.substr(pos, 4) == "true" && word_boundary(pos + 4)) {
    *out = true;
    return 4;
  }
  if (s.substr(pos, 5) == "false" && word_boundary(pos + 5)) {
    *out = false;
    return 5;
  }
  return 0;
}

size_t MatchNumAt(std::string_view s, size_t pos) {
  size_t i = pos;
  while (i < s.size() && IsDigit(s[i])) {
    ++i;
  }
  return i - pos;
}

// True when a builtin can match at a byte: every builtin starts with a hex
// digit, except `::` IPv6 text and `true`.
constexpr bool CanStartBuiltin(char c) { return IsHexDigit(c) || c == ':' || c == 't'; }

// The kinds of token MatchAt weighs; builtins in the order they break ties.
enum class TokenKind { kCustom, kPfx6, kIp6, kMac, kPfx4, kIp4, kHex, kBool, kNum };

}  // namespace

Lexer::Lexer() = default;

bool Lexer::AddCustomToken(const std::string& name, const std::string& regex_pattern,
                           std::string* error) {
  for (const CustomToken& t : custom_) {
    if (t.name == name) {
      if (error != nullptr) {
        *error = "duplicate token name: " + name;
      }
      return false;
    }
  }
  std::string regex_error;
  auto re = Regex::Compile(regex_pattern, &regex_error);
  if (!re) {
    if (error != nullptr) {
      *error = "token '" + name + "': " + regex_error;
    }
    return false;
  }
  custom_.push_back(CustomToken{name, std::move(*re)});
  return true;
}

bool Lexer::LoadDefinitions(const std::string& text, std::string* error) {
  for (const std::string& raw : SplitLines(text)) {
    std::string_view line = Trim(raw);
    if (line.empty() || line[0] == '#') {
      continue;
    }
    size_t space = line.find_first_of(" \t");
    if (space == std::string_view::npos) {
      if (error != nullptr) {
        *error = "malformed token definition (expected `name regex`): " + std::string(line);
      }
      return false;
    }
    std::string name(line.substr(0, space));
    std::string regex(TrimLeft(line.substr(space)));
    if (!AddCustomToken(name, regex, error)) {
      return false;
    }
  }
  return true;
}

uint64_t Lexer::DefinitionsKey() const {
  if (custom_.empty()) {
    return 0;
  }
  uint64_t key = kFnv1a64OffsetBasis;
  for (const CustomToken& token : custom_) {
    // ContentKey separates name from regex unambiguously; chaining keeps order.
    key = MixKeys(key, ContentKey(token.name, token.regex.pattern()));
  }
  return key;
}

std::string Lexer::DescribeKey(uint64_t key) {
  return key == 0 ? std::string("the built-in lexer")
                  : "lexer definitions " + std::to_string(key);
}

size_t Lexer::MatchAt(std::string_view text, size_t pos, LineLex* out,
                      std::string_view* type_name) const {
  size_t best = 0;
  TokenKind kind = TokenKind::kCustom;
  size_t custom_index = 0;
  // Strictly longer replaces, so on equal length the first candidate stays:
  // user tokens in definition order, then the builtins in the order below.
  auto consider = [&](size_t length, TokenKind candidate) {
    if (length > best) {
      best = length;
      kind = candidate;
    }
  };

  for (size_t t = 0; t < custom_.size(); ++t) {
    auto len = custom_[t].regex.MatchPrefix(text, pos, &out->scratch);
    if (len && *len > best) {
      custom_index = t;
      consider(*len, TokenKind::kCustom);
    }
  }

  // Builtins, most specific first. The matchers only measure (and parse the
  // fixed-size forms); the winner's Value is built below.
  Ipv6Address ip6;
  MacAddress mac;
  Ipv4Address ip4;
  int prefix6_len = 0;
  int prefix4_len = 0;
  bool bool_value = false;
  if (CanStartBuiltin(text[pos])) {
    if (size_t len = MatchIpv6At(text, pos, &ip6)) {
      if (size_t extra = MatchPrefixLen(text, pos + len, 128, &prefix6_len)) {
        consider(len + extra, TokenKind::kPfx6);
      } else {
        consider(len, TokenKind::kIp6);
      }
    }
    consider(MatchMacAt(text, pos, &mac), TokenKind::kMac);
    if (size_t len = MatchIpv4At(text, pos, &ip4)) {
      if (size_t extra = MatchPrefixLen(text, pos + len, 32, &prefix4_len)) {
        consider(len + extra, TokenKind::kPfx4);
      } else {
        consider(len, TokenKind::kIp4);
      }
    }
    consider(MatchHexAt(text, pos), TokenKind::kHex);
    consider(MatchBoolAt(text, pos, &bool_value), TokenKind::kBool);
    consider(MatchNumAt(text, pos), TokenKind::kNum);
  }
  if (best == 0) {
    return 0;
  }

  std::vector<Value>& values = out->values;
  switch (kind) {
    case TokenKind::kCustom:
      *type_name = custom_[custom_index].name;
      values.push_back(Value::Str(std::string(text.substr(pos, best))));
      break;
    case TokenKind::kPfx6:
      *type_name = "pfx6";
      values.push_back(Value::Pfx6(Ipv6Network(ip6, prefix6_len)));
      break;
    case TokenKind::kIp6:
      *type_name = "ip6";
      values.push_back(Value::Ip6(ip6));
      break;
    case TokenKind::kMac:
      *type_name = "mac";
      values.push_back(Value::Mac(mac));
      break;
    case TokenKind::kPfx4:
      *type_name = "pfx4";
      values.push_back(Value::Pfx4(Ipv4Network(ip4, prefix4_len)));
      break;
    case TokenKind::kIp4:
      *type_name = "ip4";
      values.push_back(Value::Ip4(ip4));
      break;
    case TokenKind::kHex:
      *type_name = "hex";
      values.push_back(Value::Hex(*BigInt::FromHex(text.substr(pos + 2, best - 2))));
      break;
    case TokenKind::kBool:
      *type_name = "bool";
      values.push_back(Value::Bool(bool_value));
      break;
    case TokenKind::kNum:
      *type_name = "num";
      values.push_back(Value::Num(*BigInt::FromDecimal(text.substr(pos, best))));
      break;
  }
  return best;
}

void Lexer::Lex(std::string_view text, LineLex* out) const {
  out->pattern_named.clear();
  out->pattern_unnamed.clear();
  out->untyped.clear();
  out->values.clear();
  auto append_text = [out](std::string_view run) {
    out->pattern_named += run;
    out->pattern_unnamed += run;
    out->untyped += run;
  };
  size_t pos = 0;
  while (pos < text.size()) {
    if (custom_.empty() && !CanStartBuiltin(text[pos])) {
      // No token can start before the next builtin's first byte.
      size_t end = pos + 1;
      while (end < text.size() && !CanStartBuiltin(text[end])) {
        ++end;
      }
      append_text(text.substr(pos, end - pos));
      pos = end;
      continue;
    }
    const size_t index = out->values.size();
    std::string_view type_name;
    const size_t length = MatchAt(text, pos, out, &type_name);
    if (length == 0) {
      append_text(text.substr(pos, 1));
      ++pos;
      continue;
    }
    out->pattern_named += '[';
    PatternTable::AppendParamName(index, &out->pattern_named);
    out->pattern_named += ':';
    out->pattern_named += type_name;
    out->pattern_named += ']';
    out->pattern_unnamed += '[';
    out->pattern_unnamed += type_name;
    out->pattern_unnamed += ']';
    out->untyped += '[';
    PatternTable::AppendParamName(index, &out->untyped);
    out->untyped += ":?]";
    pos += length;
  }
}

}  // namespace concord
