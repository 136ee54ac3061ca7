#include "src/pattern/lexer.h"

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/format/embed.h"
#include "src/pattern/pattern_table.h"
#include "src/util/io.h"
#include "src/util/strings.h"
#include "tests/test_util.h"

namespace concord {
namespace {

LineLex LexLine(const Lexer& lexer, std::string_view text) {
  LineLex lex;
  lexer.Lex(text, &lex);
  return lex;
}

TEST(Lexer, PlainTextHasNoParams) {
  Lexer lexer;
  LineLex lex = LexLine(lexer, "evpn ether-segment");
  EXPECT_EQ(lex.pattern_named, "evpn ether-segment");
  EXPECT_EQ(lex.pattern_unnamed, "evpn ether-segment");
  EXPECT_TRUE(lex.values.empty());
}

TEST(Lexer, NumberExtraction) {
  Lexer lexer;
  LineLex lex = LexLine(lexer, "router bgp 65015");
  EXPECT_EQ(lex.pattern_named, "router bgp [a:num]");
  EXPECT_EQ(lex.pattern_unnamed, "router bgp [num]");
  EXPECT_EQ(lex.untyped, "router bgp [a:?]");
  ASSERT_EQ(lex.values.size(), 1u);
  EXPECT_EQ(lex.values[0], Value::Num(BigInt(65015)));
}

TEST(Lexer, SubWordNumberExtraction) {
  // Figure 3: `interface Port-Channel110` -> `interface Port-Channel[a:num]`.
  Lexer lexer;
  LineLex lex = LexLine(lexer, "interface Port-Channel110");
  EXPECT_EQ(lex.pattern_named, "interface Port-Channel[a:num]");
  ASSERT_EQ(lex.values.size(), 1u);
  EXPECT_EQ(lex.values[0], Value::Num(BigInt(110)));
}

TEST(Lexer, MultipleParamsNamedInOrder) {
  Lexer lexer;
  LineLex lex = LexLine(lexer, "maximum-paths 64 ecmp 64");
  EXPECT_EQ(lex.pattern_named, "maximum-paths [a:num] ecmp [b:num]");
  ASSERT_EQ(lex.values.size(), 2u);
  EXPECT_EQ(lex.values[0], Value::Num(BigInt(64)));
  EXPECT_EQ(lex.values[1], Value::Num(BigInt(64)));
}

TEST(Lexer, Ipv4AndPrefix) {
  Lexer lexer;
  EXPECT_EQ(LexLine(lexer, "ip address 10.14.14.34").pattern_named, "ip address [a:ip4]");
  LineLex lex = LexLine(lexer, "seq 10 permit 10.14.14.34/32");
  EXPECT_EQ(lex.pattern_named, "seq [a:num] permit [b:pfx4]");
  ASSERT_EQ(lex.values.size(), 2u);
  EXPECT_EQ(lex.values[1], Value::Pfx4(*Ipv4Network::Parse("10.14.14.34/32")));
}

TEST(Lexer, RouteDistinguisherSplitsIpAndNum) {
  // Figure 3: `rd 10.14.14.117:10251` -> `rd [a:ip4]:[b:num]`.
  Lexer lexer;
  LineLex lex = LexLine(lexer, "rd 10.14.14.117:10251");
  EXPECT_EQ(lex.pattern_named, "rd [a:ip4]:[b:num]");
  ASSERT_EQ(lex.values.size(), 2u);
  EXPECT_EQ(lex.values[0], Value::Ip4(*Ipv4Address::Parse("10.14.14.117")));
  EXPECT_EQ(lex.values[1], Value::Num(BigInt(10251)));
}

TEST(Lexer, MacAddress) {
  Lexer lexer;
  LineLex lex = LexLine(lexer, "route-target import 00:00:0c:d3:00:6e");
  EXPECT_EQ(lex.pattern_named, "route-target import [a:mac]");
  ASSERT_EQ(lex.values.size(), 1u);
  EXPECT_EQ(lex.values[0], Value::Mac(*MacAddress::Parse("00:00:0c:d3:00:6e")));
}

TEST(Lexer, Ipv6AndPrefix) {
  Lexer lexer;
  // Note: the trailing digit of "ipv6" is itself extracted, exactly like the "1" of
  // "DEV1" in Figure 3 — sub-word digit extraction is uniform.
  LineLex lex = LexLine(lexer, "ipv6 address 2001:db8::1/64");
  EXPECT_EQ(lex.pattern_named, "ipv[a:num] address [b:pfx6]");
  LineLex plain = LexLine(lexer, "ntp server 2001:db8::5");
  EXPECT_EQ(plain.pattern_named, "ntp server [a:ip6]");
  ASSERT_EQ(plain.values.size(), 1u);
  EXPECT_EQ(plain.values[0], Value::Ip6(*Ipv6Address::Parse("2001:db8::5")));
}

TEST(Lexer, MacDoesNotSwallowIpv6) {
  Lexer lexer;
  // Full 8-group IPv6 text must lex as ip6, not as a 6-group MAC plus leftovers.
  LineLex lex = LexLine(lexer, "addr 2001:db8:0:0:0:0:0:1");
  EXPECT_EQ(lex.pattern_named, "addr [a:ip6]");
}

TEST(Lexer, HexLiteral) {
  Lexer lexer;
  LineLex lex = LexLine(lexer, "register 0x1f");
  EXPECT_EQ(lex.pattern_named, "register [a:hex]");
  ASSERT_EQ(lex.values.size(), 1u);
  EXPECT_EQ(lex.values[0], Value::Hex(BigInt(0x1f)));
}

TEST(Lexer, BooleanNeedsWordBoundary) {
  Lexer lexer;
  EXPECT_EQ(LexLine(lexer, "enabled true").pattern_named, "enabled [a:bool]");
  EXPECT_EQ(LexLine(lexer, "setting false").pattern_named, "setting [a:bool]");
  // "trueblue" must not produce a bool token.
  EXPECT_EQ(LexLine(lexer, "trueblue").pattern_named, "trueblue");
}

TEST(Lexer, ZeroIsANumber) {
  // Figure 3 extracts {a -> 0} from `interface Loopback0`.
  Lexer lexer;
  LineLex lex = LexLine(lexer, "interface Loopback0");
  EXPECT_EQ(lex.pattern_named, "interface Loopback[a:num]");
  ASSERT_EQ(lex.values.size(), 1u);
  EXPECT_EQ(lex.values[0], Value::Num(BigInt(0)));
}

TEST(Lexer, CustomTokenWinsOverBuiltins) {
  Lexer lexer;
  std::string error;
  ASSERT_TRUE(lexer.AddCustomToken("iface", "([aA]e|[eE]t|[pP]o)-?[0-9]+", &error)) << error;
  LineLex lex = LexLine(lexer, "interface et42");
  EXPECT_EQ(lex.pattern_named, "interface [a:iface]");
  ASSERT_EQ(lex.values.size(), 1u);
  EXPECT_EQ(lex.values[0], Value::Str("et42"));
}

TEST(Lexer, CustomDescriptionConsumesRest) {
  Lexer lexer;
  ASSERT_TRUE(lexer.AddCustomToken("descr", "description .+"));
  LineLex lex = LexLine(lexer, "description uplink to spine 3");
  EXPECT_EQ(lex.pattern_named, "[a:descr]");
  ASSERT_EQ(lex.values.size(), 1u);
  EXPECT_EQ(lex.values[0], Value::Str("description uplink to spine 3"));
}

TEST(Lexer, DuplicateCustomTokenRejected) {
  Lexer lexer;
  ASSERT_TRUE(lexer.AddCustomToken("t", "a+"));
  std::string error;
  EXPECT_FALSE(lexer.AddCustomToken("t", "b+", &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);
}

TEST(Lexer, BadCustomRegexRejected) {
  Lexer lexer;
  std::string error;
  EXPECT_FALSE(lexer.AddCustomToken("bad", "(unclosed", &error));
  EXPECT_NE(error.find("bad"), std::string::npos);
}

TEST(Lexer, LoadDefinitions) {
  Lexer lexer;
  std::string error;
  ASSERT_TRUE(lexer.LoadDefinitions("# comment\n"
                                    "iface ([aA]e|[eE]t)-?[0-9]+\n"
                                    "\n"
                                    "path /[a-z0-9/._-]+\n",
                                    &error))
      << error;
  EXPECT_EQ(lexer.num_custom_tokens(), 2u);
  EXPECT_EQ(LexLine(lexer, "file /etc/ntp.conf").pattern_named, "file [a:path]");
}

TEST(Lexer, LoadDefinitionsRejectsMalformed) {
  Lexer lexer;
  std::string error;
  EXPECT_FALSE(lexer.LoadDefinitions("justonename\n", &error));
}

TEST(Lexer, VlanLine) {
  Lexer lexer;
  LineLex lex = LexLine(lexer, "vlan 251");
  EXPECT_EQ(lex.pattern_named, "vlan [a:num]");
  EXPECT_EQ(lex.values[0], Value::Num(BigInt(251)));
}

TEST(Lexer, DefaultRoutePrefix) {
  Lexer lexer;
  LineLex lex = LexLine(lexer, "seq 20 permit 0.0.0.0/0");
  EXPECT_EQ(lex.pattern_named, "seq [a:num] permit [b:pfx4]");
  EXPECT_EQ(lex.values[1], Value::Pfx4(*Ipv4Network::Parse("0.0.0.0/0")));
}

// The definitions key names the user tokens, not the file: comments and
// spacing do not change it, a token's name or regex or their order does, and
// the built-in lexer has key 0.
TEST(Lexer, DefinitionsKeyFollowsTheTokensOnly) {
  auto key = [](const std::string& text) {
    Lexer lexer;
    EXPECT_TRUE(lexer.LoadDefinitions(text));
    return lexer.DefinitionsKey();
  };
  EXPECT_EQ(Lexer().DefinitionsKey(), 0u);
  const uint64_t base = key("iface Et[0-9]+\nhost DEV[0-9]+\n");
  EXPECT_NE(base, 0u);
  EXPECT_EQ(key("# tokens\n\niface   Et[0-9]+\n  host\tDEV[0-9]+\n"), base);
  EXPECT_NE(key("host DEV[0-9]+\niface Et[0-9]+\n"), base);
  EXPECT_NE(key("iface Et[0-9]*\nhost DEV[0-9]+\n"), base);
  EXPECT_NE(key("port Et[0-9]+\nhost DEV[0-9]+\n"), base);
}

// ---- Reference: the lexer before buffer reuse and winner-only values --------
//
// Lexer::Lex as it was when every call returned a fresh LineLex and every
// matching candidate built its Value. The matchers are copied unchanged; the
// tests below hold Lexer::Lex to this output line by line.
namespace reference {

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


struct CustomToken {
  std::string name;
  Regex regex;
};

struct TokenMatch {
  size_t length = 0;
  std::string type_name;
  Value value;
};

std::optional<TokenMatch> MatchAt(const std::vector<CustomToken>& custom,
                                  std::string_view text, size_t pos,
                                  Regex::Scratch* scratch) {
  TokenMatch best;
  bool found = false;
  auto consider = [&](size_t length, std::string type_name, Value value) {
    if (length > 0 && (!found || length > best.length)) {
      found = true;
      best = TokenMatch{length, std::move(type_name), std::move(value)};
    }
  };
  for (const CustomToken& token : custom) {
    auto len = token.regex.MatchPrefix(text, pos, scratch);
    if (len && *len > 0) {
      consider(*len, token.name, Value::Str(std::string(text.substr(pos, *len))));
    }
  }
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

LineLex Lex(const std::vector<CustomToken>& custom, std::string_view text) {
  LineLex out;
  Regex::Scratch scratch;
  size_t pos = 0;
  while (pos < text.size()) {
    auto match = MatchAt(custom, text, pos, &scratch);
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

}  // namespace reference

// The token sets compared: the built-in lexer, and the [iface] and [path]
// tokens of examples/custom_lexer.cpp.
struct TokenSet {
  std::string definitions;
  Lexer lexer;
  std::vector<reference::CustomToken> tokens;

  explicit TokenSet(std::string text) : definitions(std::move(text)) {
    EXPECT_TRUE(lexer.LoadDefinitions(definitions));
    for (const std::string& raw : SplitLines(definitions)) {
      std::string_view line = Trim(raw);
      size_t space = line.find(' ');
      tokens.push_back(reference::CustomToken{
          std::string(line.substr(0, space)),
          *Regex::Compile(std::string(TrimLeft(line.substr(space))))});
    }
  }
};

std::vector<std::string> TokenDefinitions() {
  return {"", "iface ([aA]e|[eE]t|[pP]o)-?[0-9]+\npath /[a-zA-Z0-9._/-]+\n"};
}

// Empty when `got` is the reference's lex of `line`; otherwise what differs.
std::string LexDifference(const TokenSet& set, std::string_view line, const LineLex& got) {
  const LineLex want = reference::Lex(set.tokens, line);
  std::string where = "'" + std::string(line) + "' (tokens: " + set.definitions + "): ";
  if (got.pattern_named != want.pattern_named) {
    return where + got.pattern_named + " vs " + want.pattern_named;
  }
  if (got.pattern_unnamed != want.pattern_unnamed) {
    return where + got.pattern_unnamed + " vs " + want.pattern_unnamed;
  }
  if (got.untyped != want.untyped) {
    return where + got.untyped + " vs " + want.untyped;
  }
  if (got.values.size() != want.values.size()) {
    return where + std::to_string(got.values.size()) + " values vs " +
           std::to_string(want.values.size());
  }
  for (size_t i = 0; i < want.values.size(); ++i) {
    if (!(got.values[i] == want.values[i]) || got.values[i].type() != want.values[i].type() ||
        got.values[i].Hash() != want.values[i].Hash()) {
      return where + "value " + std::to_string(i) + ": " + got.values[i].ToString() +
             " vs " + want.values[i].ToString();
    }
  }
  return "";
}

// Every line and parent of the five families' corpora, metadata included,
// lexes as the reference lexes it. One LineLex takes every line, as the parser
// keeps one, so state left from a line would show on the next.
TEST(LexerReference, GeneratedCorporaLexAsBefore) {
  for (const std::string& definitions : TokenDefinitions()) {
    TokenSet set(definitions);
    LineLex lex;
    size_t lines = 0;
    for (const std::string family : kFamilies) {
      GeneratedCorpus corpus = SmallFamilyCorpus(family, 5);
      std::vector<const GeneratedConfig*> files;
      for (const GeneratedConfig& config : corpus.configs) {
        files.push_back(&config);
      }
      for (const GeneratedConfig& meta : corpus.metadata) {
        files.push_back(&meta);
      }
      for (const GeneratedConfig* file : files) {
        EmbeddedFile embedded = EmbedText(file->text);
        std::vector<std::string_view> texts;
        for (const ContextLine& line : embedded.lines) {
          texts.push_back(line.text);
        }
        for (const ContextParent& parent : embedded.parents) {
          texts.push_back(parent.text);
        }
        for (std::string_view text : texts) {
          set.lexer.Lex(text, &lex);
          ASSERT_EQ(LexDifference(set, text, lex), "") << family;
          ++lines;
        }
      }
    }
    EXPECT_GT(lines, 1000u);
  }
}

// Lines at the edges of the first-byte gate, the tie rule and the matchers.
TEST(LexerReference, EdgeLinesLexAsBefore) {
  std::string many_params = "values";
  for (int i = 0; i < 28; ++i) {
    many_params += " " + std::to_string(i);  // The 27th is p26, the 28th p27.
  }
  const std::vector<std::string> lines = {
      many_params,
      // `0x` with no digit after it, and hex past 64 bits.
      "register 0x", "0x", "mask 0x0", "0xg1", "0X1F", "0xffffffffffffffffffff",
      "0x00000000000000000000000001",
      // Booleans only as whole words.
      "trueblue", "untrue", "falsehood", "is_true", "true1", "xfalse", "true-false",
      "true", "false", "enabled true", "t", "tru",
      // IPv6 with trailing and leading colons.
      "2001:db8::1:", "fe80::;", "2001:db8:::", "::", "::1", ":::", "a::b::c",
      "ipv6 route ::/0 ::1", "2001:db8::/129", "2001:db8::1/64", "fe80::1%eth0",
      "2001:db8:0:0:0:0:0:1", "1:2:3:4:5:6:7:8:9",
      // A seventh MAC group, and MACs that stop short.
      "00:11:22:33:44:55:66", "00:11:22:33:44:55:g6", "00:11:22:33:44:55:",
      "0011.2233.4455", "aa:bb:cc:dd:ee", "00:00:0c:d3:00:6e",
      // A 4-digit octet, out-of-range octets and prefix lengths.
      "1234.1.2.3", "1.2.3.1234", "10.0.0.256", "10.0.0.1/33", "10.0.0.1/320",
      "10.0.0.1/", "10.14.14.117:10251", "0.0.0.0/0", "1.2.3", "1.2.3.4.5",
      // Numbers past 64 bits and with leading zeros.
      "123456789012345678901234567890", "18446744073709551615", "18446744073709551616",
      "000000000000000000000000012", "as 00065015",
      // Separators and custom-token text.
      "ip\taddress\t10.0.0.1", "a\rb 1", "interface et42", "interface Po-7 mtu 9214",
      "key file /etc/keys/bgp-1.key", "[a:num] [b:?]", "",
      "description uplink to spine 3 via et1 10.0.0.1/31"};
  for (const std::string& definitions : TokenDefinitions()) {
    TokenSet set(definitions);
    LineLex lex;
    for (const std::string& line : lines) {
      set.lexer.Lex(line, &lex);
      EXPECT_EQ(LexDifference(set, line, lex), "");
    }
  }
}

TEST(Lexer, TwentySeventhParameterIsP26) {
  Lexer lexer;
  std::string line;
  for (int i = 0; i < 27; ++i) {
    line += "x" + std::to_string(i) + " ";
  }
  LineLex lex = LexLine(lexer, line);
  ASSERT_EQ(lex.values.size(), 27u);
  EXPECT_NE(lex.pattern_named.find("x[z:num] x[p26:num] "), std::string::npos);
  EXPECT_NE(lex.untyped.find("x[p26:?] "), std::string::npos);
}

}  // namespace
}  // namespace concord
