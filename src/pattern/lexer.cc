#include "src/pattern/lexer.h"

#include <utility>

#include "src/pattern/pattern_table.h"
#include "src/util/hash.h"
#include "src/util/io.h"
#include "src/util/strings.h"

namespace concord {

namespace {

// Matches an IPv4 dotted quad at `pos`; returns consumed length.
std::optional<size_t> MatchIpv4At(std::string_view s, size_t pos, Ipv4Address* out) {
  size_t i = pos;
  uint32_t bits = 0;
  for (int octet = 0; octet < 4; ++octet) {
    if (octet > 0) {
      if (i >= s.size() || s[i] != '.') {
        return std::nullopt;
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
      return std::nullopt;
    }
    // A 4+ digit run cannot be an octet (e.g. "1234.1.2.3").
    if (i < s.size() && IsDigit(s[i])) {
      return std::nullopt;
    }
    bits = (bits << 8) | value;
  }
  *out = Ipv4Address(bits);
  return i - pos;
}

// Matches "/len" (0..32) immediately after an IPv4 address.
std::optional<size_t> MatchPrefixLen(std::string_view s, size_t pos, int max_len, int* out) {
  size_t i = pos;
  if (i >= s.size() || s[i] != '/') {
    return std::nullopt;
  }
  ++i;
  size_t start = i;
  int value = 0;
  while (i < s.size() && IsDigit(s[i]) && i - start < 3) {
    value = value * 10 + (s[i] - '0');
    ++i;
  }
  if (i == start || value > max_len || (i < s.size() && IsDigit(s[i]))) {
    return std::nullopt;
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

std::optional<size_t> MatchIpv6At(std::string_view s, size_t pos, Ipv6Address* out) {
  size_t span = HexColonSpan(s, pos);
  if (span < 2) {
    return std::nullopt;
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
    return std::nullopt;
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
  return std::nullopt;
}

std::optional<size_t> MatchMacAt(std::string_view s, size_t pos, MacAddress* out) {
  size_t i = pos;
  std::array<uint16_t, 6> segments{};
  for (int seg = 0; seg < 6; ++seg) {
    if (seg > 0) {
      if (i >= s.size() || s[i] != ':') {
        return std::nullopt;
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
      return std::nullopt;
    }
    segments[seg] = static_cast<uint16_t>(value);
  }
  // A seventh group means this is something else (likely IPv6 text).
  if (i < s.size() && s[i] == ':' && i + 1 < s.size() && IsHexDigit(s[i + 1])) {
    return std::nullopt;
  }
  *out = MacAddress(segments);
  return i - pos;
}

std::optional<size_t> MatchHexAt(std::string_view s, size_t pos, BigInt* out) {
  if (pos + 2 >= s.size() || s[pos] != '0' || (s[pos + 1] != 'x' && s[pos + 1] != 'X')) {
    return std::nullopt;
  }
  size_t i = pos + 2;
  size_t start = i;
  while (i < s.size() && IsHexDigit(s[i])) {
    ++i;
  }
  if (i == start) {
    return std::nullopt;
  }
  auto value = BigInt::FromHex(s.substr(start, i - start));
  if (!value) {
    return std::nullopt;
  }
  *out = std::move(*value);
  return i - pos;
}

std::optional<size_t> MatchBoolAt(std::string_view s, size_t pos, bool* out) {
  auto word_boundary = [&s](size_t end) { return end >= s.size() || !IsAlnum(s[end]); };
  bool prev_ok = pos == 0 || !IsAlnum(s[pos - 1]);
  if (!prev_ok) {
    return std::nullopt;
  }
  if (s.substr(pos, 4) == "true" && word_boundary(pos + 4)) {
    *out = true;
    return 4;
  }
  if (s.substr(pos, 5) == "false" && word_boundary(pos + 5)) {
    *out = false;
    return 5;
  }
  return std::nullopt;
}

std::optional<size_t> MatchNumAt(std::string_view s, size_t pos, BigInt* out) {
  size_t i = pos;
  while (i < s.size() && IsDigit(s[i])) {
    ++i;
  }
  if (i == pos) {
    return std::nullopt;
  }
  auto value = BigInt::FromDecimal(s.substr(pos, i - pos));
  if (!value) {
    return std::nullopt;
  }
  *out = std::move(*value);
  return i - pos;
}

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

std::optional<Lexer::TokenMatch> Lexer::MatchAt(std::string_view text, size_t pos,
                                                Regex::Scratch* scratch) const {
  TokenMatch best;
  bool found = false;
  auto consider = [&](size_t length, std::string type_name, Value value) {
    if (length > 0 && (!found || length > best.length)) {
      found = true;
      best = TokenMatch{length, std::move(type_name), std::move(value)};
    }
  };

  // User tokens first: on equal length they win over builtins because `consider`
  // keeps the first candidate of a given length.
  for (const CustomToken& token : custom_) {
    auto len = token.regex.MatchPrefix(text, pos, scratch);
    if (len && *len > 0) {
      consider(*len, token.name, Value::Str(std::string(text.substr(pos, *len))));
    }
  }

  // Builtins, most specific first.
  Ipv6Address ip6;
  if (auto len = MatchIpv6At(text, pos, &ip6)) {
    int prefix_len = 0;
    if (auto extra = MatchPrefixLen(text, pos + *len, 128, &prefix_len)) {
      consider(*len + *extra, "pfx6", Value::Pfx6(Ipv6Network(ip6, prefix_len)));
    } else {
      consider(*len, "ip6", Value::Ip6(ip6));
    }
  }
  MacAddress mac;
  if (auto len = MatchMacAt(text, pos, &mac)) {
    consider(*len, "mac", Value::Mac(mac));
  }
  Ipv4Address ip4;
  if (auto len = MatchIpv4At(text, pos, &ip4)) {
    int prefix_len = 0;
    if (auto extra = MatchPrefixLen(text, pos + *len, 32, &prefix_len)) {
      consider(*len + *extra, "pfx4", Value::Pfx4(Ipv4Network(ip4, prefix_len)));
    } else {
      consider(*len, "ip4", Value::Ip4(ip4));
    }
  }
  BigInt hex_value;
  if (auto len = MatchHexAt(text, pos, &hex_value)) {
    consider(*len, "hex", Value::Hex(std::move(hex_value)));
  }
  bool bool_value = false;
  if (auto len = MatchBoolAt(text, pos, &bool_value)) {
    consider(*len, "bool", Value::Bool(bool_value));
  }
  BigInt num_value;
  if (auto len = MatchNumAt(text, pos, &num_value)) {
    consider(*len, "num", Value::Num(std::move(num_value)));
  }

  if (!found) {
    return std::nullopt;
  }
  return best;
}

LineLex Lexer::Lex(std::string_view text) const {
  LineLex out;
  out.pattern_named.reserve(text.size());
  out.pattern_unnamed.reserve(text.size());
  out.untyped.reserve(text.size());
  Regex::Scratch scratch;
  size_t pos = 0;
  while (pos < text.size()) {
    auto match = MatchAt(text, pos, &scratch);
    if (!match) {
      char c = text[pos++];
      out.pattern_named.push_back(c);
      out.pattern_unnamed.push_back(c);
      out.untyped.push_back(c);
      continue;
    }
    std::string name = PatternTable::ParamName(out.values.size());
    out.pattern_named += "[" + name + ":" + match->type_name + "]";
    out.pattern_unnamed += "[" + match->type_name + "]";
    out.untyped += "[" + name + ":?]";
    out.values.push_back(std::move(match->value));
    pos += match->length;
  }
  return out;
}

}  // namespace concord
