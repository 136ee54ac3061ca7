#include "src/value/ip.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "src/util/rng.h"

namespace concord {
namespace {

TEST(Ipv4Address, ParseAndFormat) {
  auto a = Ipv4Address::Parse("10.14.14.34");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->ToString(), "10.14.14.34");
  EXPECT_EQ(Ipv4Address::Parse("0.0.0.0")->ToString(), "0.0.0.0");
  EXPECT_EQ(Ipv4Address::Parse("255.255.255.255")->bits(), 0xffffffffu);
}

TEST(Ipv4Address, RejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::Parse("256.0.0.1").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3.x").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3.4 ").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1..3.4").has_value());
}

TEST(Ipv4Address, Octets) {
  auto a = *Ipv4Address::Parse("10.14.15.117");
  EXPECT_EQ(a.Octet(1), 10);
  EXPECT_EQ(a.Octet(2), 14);
  EXPECT_EQ(a.Octet(3), 15);
  EXPECT_EQ(a.Octet(4), 117);
}

TEST(Ipv4Network, ParseNormalizesHostBits) {
  auto n = Ipv4Network::Parse("10.1.2.3/24");
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->ToString(), "10.1.2.0/24");
  EXPECT_EQ(n->prefix_len(), 24);
}

TEST(Ipv4Network, RejectsMalformed) {
  EXPECT_FALSE(Ipv4Network::Parse("10.1.2.3").has_value());
  EXPECT_FALSE(Ipv4Network::Parse("10.1.2.3/33").has_value());
  EXPECT_FALSE(Ipv4Network::Parse("10.1.2.3/x").has_value());
  EXPECT_FALSE(Ipv4Network::Parse("10.1.2/24").has_value());
}

TEST(Ipv4Network, ContainsAddress) {
  auto n = *Ipv4Network::Parse("10.14.14.34/32");
  EXPECT_TRUE(n.Contains(*Ipv4Address::Parse("10.14.14.34")));
  EXPECT_FALSE(n.Contains(*Ipv4Address::Parse("10.14.14.35")));

  auto wide = *Ipv4Network::Parse("10.0.0.0/8");
  EXPECT_TRUE(wide.Contains(*Ipv4Address::Parse("10.255.1.2")));
  EXPECT_FALSE(wide.Contains(*Ipv4Address::Parse("11.0.0.1")));

  auto all = *Ipv4Network::Parse("0.0.0.0/0");
  EXPECT_TRUE(all.Contains(*Ipv4Address::Parse("203.0.113.7")));
}

TEST(Ipv4Network, ContainsNetwork) {
  auto outer = *Ipv4Network::Parse("10.0.0.0/8");
  auto inner = *Ipv4Network::Parse("10.14.0.0/16");
  EXPECT_TRUE(outer.Contains(inner));
  EXPECT_FALSE(inner.Contains(outer));
  EXPECT_TRUE(outer.Contains(outer));
}

TEST(Ipv6Address, ParseFullForm) {
  auto a = Ipv6Address::Parse("2001:0db8:0000:0000:0000:0000:0000:0001");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->ToString(), "2001:db8::1");
}

TEST(Ipv6Address, ParseCompressed) {
  EXPECT_EQ(Ipv6Address::Parse("::")->ToString(), "::");
  EXPECT_EQ(Ipv6Address::Parse("::1")->ToString(), "::1");
  EXPECT_EQ(Ipv6Address::Parse("fe80::")->ToString(), "fe80::");
  EXPECT_EQ(Ipv6Address::Parse("2001:db8::8:800:200c:417a")->ToString(),
            "2001:db8::8:800:200c:417a");
}

TEST(Ipv6Address, RejectsMalformed) {
  EXPECT_FALSE(Ipv6Address::Parse("1:2:3:4:5:6:7").has_value());
  EXPECT_FALSE(Ipv6Address::Parse("1:2:3:4:5:6:7:8:9").has_value());
  EXPECT_FALSE(Ipv6Address::Parse("12345::").has_value());
  EXPECT_FALSE(Ipv6Address::Parse("g::1").has_value());
  EXPECT_FALSE(Ipv6Address::Parse("1:2:3:4:5:6:7::8").has_value());  // :: compresses nothing.
  // Empty groups: a second "::", a lone leading or trailing ':'.
  EXPECT_FALSE(Ipv6Address::Parse("1::2::3").has_value());
  EXPECT_FALSE(Ipv6Address::Parse(":1:2:3:4:5:6:7").has_value());
  EXPECT_FALSE(Ipv6Address::Parse("1:2:3:4:5:6:7:").has_value());
  EXPECT_FALSE(Ipv6Address::Parse("2001:db8::1:").has_value());
  EXPECT_FALSE(Ipv6Address::Parse(":::").has_value());
}

TEST(Ipv6Network, ContainsAndNormalizes) {
  auto n = Ipv6Network::Parse("2001:db8:abcd::1/48");
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->ToString(), "2001:db8:abcd::/48");
  EXPECT_TRUE(n->Contains(*Ipv6Address::Parse("2001:db8:abcd:1::5")));
  EXPECT_FALSE(n->Contains(*Ipv6Address::Parse("2001:db8:abce::5")));
  auto sub = *Ipv6Network::Parse("2001:db8:abcd:ff00::/56");
  EXPECT_TRUE(n->Contains(sub));
  EXPECT_FALSE(sub.Contains(*n));
}

TEST(Ipv6Network, RejectsMalformed) {
  EXPECT_FALSE(Ipv6Network::Parse("2001:db8::/129").has_value());
  EXPECT_FALSE(Ipv6Network::Parse("2001:db8::").has_value());
}

// The stream-based renderers the address classes used before they formatted
// into a local buffer. The property below holds the new ones to these bytes.
std::string StreamIpv4(const Ipv4Address& address) {
  const uint32_t bits = address.bits();
  std::ostringstream out;
  out << ((bits >> 24) & 0xff) << '.' << ((bits >> 16) & 0xff) << '.' << ((bits >> 8) & 0xff)
      << '.' << (bits & 0xff);
  return out.str();
}

std::string StreamIpv6(const Ipv6Address& address) {
  std::array<uint16_t, 8> groups{};
  for (int i = 0; i < 8; ++i) {
    groups[i] =
        static_cast<uint16_t>((address.bytes()[2 * i] << 8) | address.bytes()[2 * i + 1]);
  }
  int best_start = -1, best_len = 0;
  for (int i = 0; i < 8;) {
    if (groups[i] != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && groups[j] == 0) {
      ++j;
    }
    if (j - i > best_len) {
      best_start = i;
      best_len = j - i;
    }
    i = j;
  }
  if (best_len < 2) {
    best_start = -1;
  }
  std::ostringstream out;
  out << std::hex;
  for (int i = 0; i < 8;) {
    if (i == best_start) {
      out << "::";
      i += best_len;
      continue;
    }
    if (i > 0 && !(best_start >= 0 && i == best_start + best_len)) {
      out << ':';
    }
    out << groups[i];
    ++i;
  }
  std::string result = out.str();
  return result.empty() ? "::" : result;
}

Ipv6Address FromGroups(const std::array<uint16_t, 8>& groups) {
  std::array<uint8_t, 16> bytes{};
  for (int i = 0; i < 8; ++i) {
    bytes[2 * i] = static_cast<uint8_t>(groups[i] >> 8);
    bytes[2 * i + 1] = static_cast<uint8_t>(groups[i] & 0xff);
  }
  return Ipv6Address(bytes);
}

void ExpectRendersLikeStream(const Ipv4Address& address) {
  const std::string text = address.ToString();
  EXPECT_EQ(text, StreamIpv4(address));
  auto parsed = Ipv4Address::Parse(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  EXPECT_EQ(*parsed, address) << text;
}

void ExpectRendersLikeStream(const Ipv6Address& address) {
  const std::string text = address.ToString();
  EXPECT_EQ(text, StreamIpv6(address));
  auto parsed = Ipv6Address::Parse(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  EXPECT_EQ(*parsed, address) << text;
}

TEST(AddressRendering, MatchesTheStreamRenderingAndParsesBack) {
  for (const char* text : {"0.0.0.0", "255.255.255.255", "10.0.100.9", "1.22.133.0"}) {
    ExpectRendersLikeStream(*Ipv4Address::Parse(text));
  }
  const std::vector<std::array<uint16_t, 8>> edges = {
      {0, 0, 0, 0, 0, 0, 0, 0},                      // ::
      {0, 0, 0, 0, 0, 0, 0, 1},                      // ::1
      {1, 0, 0, 0, 0, 0, 0, 0},                      // 1::
      {1, 0, 2, 3, 4, 5, 6, 7},                      // one zero group stays
      {1, 0, 0, 2, 3, 0, 0, 4},                      // two equal zero runs
      {0, 0, 1, 2, 3, 4, 0, 0},                      // equal runs at both ends
      {0x2001, 0xdb8, 0xa, 0xbc, 0xdef, 0xffff, 0x10, 0x1},  // all eight nonzero
  };
  for (const auto& groups : edges) {
    ExpectRendersLikeStream(FromGroups(groups));
  }

  SplitMix64 rng(20260101);
  // Octets and groups of every width: 1-3 decimal digits, 1-4 hex digits.
  auto octet = [&rng] {
    static constexpr uint32_t kOctets[] = {0, 7, 10, 99, 100, 255};
    return rng.Chance(0.5) ? kOctets[rng.Below(6)] : static_cast<uint32_t>(rng.Below(256));
  };
  auto group = [&rng] {
    if (rng.Chance(0.4)) {
      return uint16_t{0};
    }
    return static_cast<uint16_t>(rng.Next() >> (48 + 4 * rng.Below(4)));
  };
  for (int i = 0; i < 2000; ++i) {
    ExpectRendersLikeStream(Ipv4Address(static_cast<uint32_t>(rng.Next())));
    ExpectRendersLikeStream(
        Ipv4Address((octet() << 24) | (octet() << 16) | (octet() << 8) | octet()));
    std::array<uint16_t, 8> groups{};
    for (uint16_t& g : groups) {
      g = group();
    }
    ExpectRendersLikeStream(FromGroups(groups));
  }
}

}  // namespace
}  // namespace concord
