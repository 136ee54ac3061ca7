#include "src/pattern/lexer.h"

#include <gtest/gtest.h>

namespace concord {
namespace {

TEST(Lexer, PlainTextHasNoParams) {
  Lexer lexer;
  LineLex lex = lexer.Lex("evpn ether-segment");
  EXPECT_EQ(lex.pattern_named, "evpn ether-segment");
  EXPECT_EQ(lex.pattern_unnamed, "evpn ether-segment");
  EXPECT_TRUE(lex.values.empty());
}

TEST(Lexer, NumberExtraction) {
  Lexer lexer;
  LineLex lex = lexer.Lex("router bgp 65015");
  EXPECT_EQ(lex.pattern_named, "router bgp [a:num]");
  EXPECT_EQ(lex.pattern_unnamed, "router bgp [num]");
  EXPECT_EQ(lex.untyped, "router bgp [a:?]");
  ASSERT_EQ(lex.values.size(), 1u);
  EXPECT_EQ(lex.values[0], Value::Num(BigInt(65015)));
}

TEST(Lexer, SubWordNumberExtraction) {
  // Figure 3: `interface Port-Channel110` -> `interface Port-Channel[a:num]`.
  Lexer lexer;
  LineLex lex = lexer.Lex("interface Port-Channel110");
  EXPECT_EQ(lex.pattern_named, "interface Port-Channel[a:num]");
  ASSERT_EQ(lex.values.size(), 1u);
  EXPECT_EQ(lex.values[0], Value::Num(BigInt(110)));
}

TEST(Lexer, MultipleParamsNamedInOrder) {
  Lexer lexer;
  LineLex lex = lexer.Lex("maximum-paths 64 ecmp 64");
  EXPECT_EQ(lex.pattern_named, "maximum-paths [a:num] ecmp [b:num]");
  ASSERT_EQ(lex.values.size(), 2u);
  EXPECT_EQ(lex.values[0], Value::Num(BigInt(64)));
  EXPECT_EQ(lex.values[1], Value::Num(BigInt(64)));
}

TEST(Lexer, Ipv4AndPrefix) {
  Lexer lexer;
  EXPECT_EQ(lexer.Lex("ip address 10.14.14.34").pattern_named, "ip address [a:ip4]");
  LineLex lex = lexer.Lex("seq 10 permit 10.14.14.34/32");
  EXPECT_EQ(lex.pattern_named, "seq [a:num] permit [b:pfx4]");
  ASSERT_EQ(lex.values.size(), 2u);
  EXPECT_EQ(lex.values[1], Value::Pfx4(*Ipv4Network::Parse("10.14.14.34/32")));
}

TEST(Lexer, RouteDistinguisherSplitsIpAndNum) {
  // Figure 3: `rd 10.14.14.117:10251` -> `rd [a:ip4]:[b:num]`.
  Lexer lexer;
  LineLex lex = lexer.Lex("rd 10.14.14.117:10251");
  EXPECT_EQ(lex.pattern_named, "rd [a:ip4]:[b:num]");
  ASSERT_EQ(lex.values.size(), 2u);
  EXPECT_EQ(lex.values[0], Value::Ip4(*Ipv4Address::Parse("10.14.14.117")));
  EXPECT_EQ(lex.values[1], Value::Num(BigInt(10251)));
}

TEST(Lexer, MacAddress) {
  Lexer lexer;
  LineLex lex = lexer.Lex("route-target import 00:00:0c:d3:00:6e");
  EXPECT_EQ(lex.pattern_named, "route-target import [a:mac]");
  ASSERT_EQ(lex.values.size(), 1u);
  EXPECT_EQ(lex.values[0], Value::Mac(*MacAddress::Parse("00:00:0c:d3:00:6e")));
}

TEST(Lexer, Ipv6AndPrefix) {
  Lexer lexer;
  // Note: the trailing digit of "ipv6" is itself extracted, exactly like the "1" of
  // "DEV1" in Figure 3 — sub-word digit extraction is uniform.
  LineLex lex = lexer.Lex("ipv6 address 2001:db8::1/64");
  EXPECT_EQ(lex.pattern_named, "ipv[a:num] address [b:pfx6]");
  LineLex plain = lexer.Lex("ntp server 2001:db8::5");
  EXPECT_EQ(plain.pattern_named, "ntp server [a:ip6]");
  ASSERT_EQ(plain.values.size(), 1u);
  EXPECT_EQ(plain.values[0], Value::Ip6(*Ipv6Address::Parse("2001:db8::5")));
}

TEST(Lexer, MacDoesNotSwallowIpv6) {
  Lexer lexer;
  // Full 8-group IPv6 text must lex as ip6, not as a 6-group MAC plus leftovers.
  LineLex lex = lexer.Lex("addr 2001:db8:0:0:0:0:0:1");
  EXPECT_EQ(lex.pattern_named, "addr [a:ip6]");
}

TEST(Lexer, HexLiteral) {
  Lexer lexer;
  LineLex lex = lexer.Lex("register 0x1f");
  EXPECT_EQ(lex.pattern_named, "register [a:hex]");
  ASSERT_EQ(lex.values.size(), 1u);
  EXPECT_EQ(lex.values[0], Value::Hex(BigInt(0x1f)));
}

TEST(Lexer, BooleanNeedsWordBoundary) {
  Lexer lexer;
  EXPECT_EQ(lexer.Lex("enabled true").pattern_named, "enabled [a:bool]");
  EXPECT_EQ(lexer.Lex("setting false").pattern_named, "setting [a:bool]");
  // "trueblue" must not produce a bool token.
  EXPECT_EQ(lexer.Lex("trueblue").pattern_named, "trueblue");
}

TEST(Lexer, ZeroIsANumber) {
  // Figure 3 extracts {a -> 0} from `interface Loopback0`.
  Lexer lexer;
  LineLex lex = lexer.Lex("interface Loopback0");
  EXPECT_EQ(lex.pattern_named, "interface Loopback[a:num]");
  ASSERT_EQ(lex.values.size(), 1u);
  EXPECT_EQ(lex.values[0], Value::Num(BigInt(0)));
}

TEST(Lexer, CustomTokenWinsOverBuiltins) {
  Lexer lexer;
  std::string error;
  ASSERT_TRUE(lexer.AddCustomToken("iface", "([aA]e|[eE]t|[pP]o)-?[0-9]+", &error)) << error;
  LineLex lex = lexer.Lex("interface et42");
  EXPECT_EQ(lex.pattern_named, "interface [a:iface]");
  ASSERT_EQ(lex.values.size(), 1u);
  EXPECT_EQ(lex.values[0], Value::Str("et42"));
}

TEST(Lexer, CustomDescriptionConsumesRest) {
  Lexer lexer;
  ASSERT_TRUE(lexer.AddCustomToken("descr", "description .+"));
  LineLex lex = lexer.Lex("description uplink to spine 3");
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
  EXPECT_EQ(lexer.Lex("file /etc/ntp.conf").pattern_named, "file [a:path]");
}

TEST(Lexer, LoadDefinitionsRejectsMalformed) {
  Lexer lexer;
  std::string error;
  EXPECT_FALSE(lexer.LoadDefinitions("justonename\n", &error));
}

TEST(Lexer, VlanLine) {
  Lexer lexer;
  LineLex lex = lexer.Lex("vlan 251");
  EXPECT_EQ(lex.pattern_named, "vlan [a:num]");
  EXPECT_EQ(lex.values[0], Value::Num(BigInt(251)));
}

TEST(Lexer, DefaultRoutePrefix) {
  Lexer lexer;
  LineLex lex = lexer.Lex("seq 20 permit 0.0.0.0/0");
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

}  // namespace
}  // namespace concord
