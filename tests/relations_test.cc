#include <gtest/gtest.h>

#include "src/relations/affix_trie.h"
#include "src/relations/prefix_trie.h"
#include "src/relations/score.h"
#include "src/relations/transform.h"

namespace concord {
namespace {

ParamRef Ref(PatternId p, uint16_t param = 0, uint32_t line = 0) {
  return ParamRef{p, param, IdTransform(), line};
}

// ---------- Transforms ----------

TEST(Transform, IdIsCanonicalText) {
  EXPECT_EQ(Transform{}.Apply(Value::Num(BigInt(110))), "110");
  EXPECT_EQ(Transform{}.Apply(Value::Ip4(*Ipv4Address::Parse("10.0.0.1"))), "10.0.0.1");
}

TEST(Transform, HexMatchesFigure1Contract1) {
  Transform hex{TransformKind::kHex, 0};
  EXPECT_EQ(hex.Apply(Value::Num(BigInt(110))), "6e");
  EXPECT_EQ(hex.Apply(Value::Num(BigInt(11))), "b");
  Transform seg6{TransformKind::kMacSegment, 6};
  EXPECT_EQ(seg6.Apply(Value::Mac(*MacAddress::Parse("00:00:0c:d3:00:6e"))), "6e");
  EXPECT_EQ(seg6.Apply(Value::Mac(*MacAddress::Parse("00:00:0c:d3:00:0b"))), "b");
  // The transformed keys of port-channel 110 and its MAC's 6th segment coincide.
  EXPECT_EQ(hex.Apply(Value::Num(BigInt(110))),
            seg6.Apply(Value::Mac(*MacAddress::Parse("00:00:0c:d3:00:6e"))));
}

TEST(Transform, OctetExtraction) {
  Transform octet3{TransformKind::kIpOctet, 3};
  EXPECT_EQ(octet3.Apply(Value::Ip4(*Ipv4Address::Parse("10.14.15.117"))), "15");
}

TEST(Transform, PrefixAddrAndLen) {
  Value pfx = Value::Pfx4(*Ipv4Network::Parse("10.14.0.0/16"));
  EXPECT_EQ((Transform{TransformKind::kPfxAddr, 0}).Apply(pfx), "10.14.0.0");
  EXPECT_EQ((Transform{TransformKind::kPfxLen, 0}).Apply(pfx), "16");
}

TEST(Transform, InapplicableReturnsNullopt) {
  Transform hex{TransformKind::kHex, 0};
  EXPECT_FALSE(hex.Apply(Value::Str("abc")).has_value());
  Transform seg{TransformKind::kMacSegment, 6};
  EXPECT_FALSE(seg.Apply(Value::Num(BigInt(5))).has_value());
  Transform octet{TransformKind::kIpOctet, 2};
  EXPECT_FALSE(octet.Apply(Value::Pfx4(*Ipv4Network::Parse("10.0.0.0/8"))).has_value());
}

TEST(Transform, NameRoundTrips) {
  for (const Transform& t : {Transform{TransformKind::kId, 0},
                             Transform{TransformKind::kHex, 0},
                             Transform{TransformKind::kMacSegment, 6},
                             Transform{TransformKind::kIpOctet, 3},
                             Transform{TransformKind::kPfxAddr, 0},
                             Transform{TransformKind::kPfxLen, 0}}) {
    auto back = Transform::FromName(t.Name());
    ASSERT_TRUE(back.has_value()) << t.Name();
    EXPECT_EQ(*back, t);
  }
  EXPECT_FALSE(Transform::FromName("bogus").has_value());
  EXPECT_FALSE(Transform::FromName("segment(99)").has_value());
}

TEST(Transform, TransformsForEnumerations) {
  EXPECT_EQ(TransformsFor(ValueType::kStr).size(), 1u);            // id.
  EXPECT_EQ(TransformsFor(ValueType::kNum).size(), 2u);            // id, hex.
  EXPECT_EQ(TransformsFor(ValueType::kMac).size(), 7u);            // id + 6 segments.
  EXPECT_EQ(TransformsFor(ValueType::kIp4).size(), 5u);            // id + 4 octets.
  EXPECT_EQ(TransformsFor(ValueType::kPfx4).size(), 3u);           // id, addr, len.
  for (ValueType t : {ValueType::kNum, ValueType::kMac, ValueType::kPfx4}) {
    EXPECT_EQ(TransformsFor(t)[0], IdTransform());
    for (const Transform& tr : TransformsFor(t)) {
      EXPECT_TRUE(tr.AppliesTo(t)) << tr.Name();
    }
  }
}

// ---------- Prefix trie ----------

TEST(PrefixTrie, FindsContainingPrefixes) {
  PrefixTrie trie;
  trie.Insert(*Ipv4Network::Parse("10.14.14.34/32"), Ref(1));
  trie.Insert(*Ipv4Network::Parse("10.14.0.0/16"), Ref(2));
  trie.Insert(*Ipv4Network::Parse("0.0.0.0/0"), Ref(3));
  trie.Insert(*Ipv4Network::Parse("192.168.0.0/16"), Ref(4));

  std::vector<PrefixTrie::Hit> hits;
  trie.FindContaining(*Ipv4Address::Parse("10.14.14.34"), &hits);
  ASSERT_EQ(hits.size(), 3u);
  // Reported in increasing depth order: /0, /16, /32.
  EXPECT_EQ(hits[0].ref.pattern, 3u);
  EXPECT_EQ(hits[0].prefix_len, 0);
  EXPECT_EQ(hits[1].ref.pattern, 2u);
  EXPECT_EQ(hits[1].prefix_len, 16);
  EXPECT_EQ(hits[2].ref.pattern, 1u);
  EXPECT_EQ(hits[2].prefix_len, 32);
}

TEST(PrefixTrie, NonMatchingAddressOnlyHitsDefault) {
  PrefixTrie trie;
  trie.Insert(*Ipv4Network::Parse("10.0.0.0/8"), Ref(1));
  trie.Insert(*Ipv4Network::Parse("0.0.0.0/0"), Ref(2));
  std::vector<PrefixTrie::Hit> hits;
  trie.FindContaining(*Ipv4Address::Parse("11.0.0.1"), &hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].ref.pattern, 2u);
}

TEST(PrefixTrie, NetworkQueryFindsSupernets) {
  PrefixTrie trie;
  trie.Insert(*Ipv4Network::Parse("10.0.0.0/8"), Ref(1));
  trie.Insert(*Ipv4Network::Parse("10.14.0.0/16"), Ref(2));
  trie.Insert(*Ipv4Network::Parse("10.14.14.0/24"), Ref(3));
  std::vector<PrefixTrie::Hit> hits;
  trie.FindContaining(*Ipv4Network::Parse("10.14.0.0/16"), &hits);
  // /8 contains /16; /16 equals the query (reflexive containment); /24 does not.
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].ref.pattern, 1u);
  EXPECT_EQ(hits[1].ref.pattern, 2u);
}

TEST(PrefixTrie, V4AndV6AreSeparate) {
  PrefixTrie trie;
  trie.Insert(*Ipv4Network::Parse("0.0.0.0/0"), Ref(1));
  trie.Insert(*Ipv6Network::Parse("::/0"), Ref(2));
  std::vector<PrefixTrie::Hit> hits;
  trie.FindContaining(*Ipv6Address::Parse("2001:db8::1"), &hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].ref.pattern, 2u);
}

TEST(PrefixTrie, V6Containment) {
  PrefixTrie trie;
  trie.Insert(*Ipv6Network::Parse("2001:db8::/32"), Ref(1));
  trie.Insert(*Ipv6Network::Parse("2001:db8:abcd::/48"), Ref(2));
  std::vector<PrefixTrie::Hit> hits;
  trie.FindContaining(*Ipv6Address::Parse("2001:db8:abcd::7"), &hits);
  ASSERT_EQ(hits.size(), 2u);
  hits.clear();
  trie.FindContaining(*Ipv6Address::Parse("2001:db9::1"), &hits);
  EXPECT_TRUE(hits.empty());
}

TEST(PrefixTrie, EmptyTrieFindsNothing) {
  PrefixTrie trie;
  std::vector<PrefixTrie::Hit> hits;
  trie.FindContaining(*Ipv4Address::Parse("1.2.3.4"), &hits);
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(trie.num_prefixes(), 0u);
}

// ---------- Affix trie ----------

TEST(AffixTrie, ForwardFindsProperPrefixes) {
  AffixTrie trie(/*reversed=*/false);
  trie.Insert("/etc", Ref(1));
  trie.Insert("/etc/ntp", Ref(2));
  trie.Insert("/var", Ref(3));
  std::vector<AffixTrie::Hit> hits;
  trie.FindAffixesOf("/etc/ntp.conf", &hits);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].ref.pattern, 1u);
  EXPECT_EQ(hits[0].affix_len, 4);
  EXPECT_EQ(hits[1].ref.pattern, 2u);
  EXPECT_EQ(hits[1].affix_len, 8);
}

TEST(AffixTrie, EqualStringsNotReported) {
  AffixTrie trie(/*reversed=*/false);
  trie.Insert("abc", Ref(1));
  std::vector<AffixTrie::Hit> hits;
  trie.FindAffixesOf("abc", &hits);
  EXPECT_TRUE(hits.empty());  // Equality is not a proper affix.
}

TEST(AffixTrie, ReversedFindsSuffixes) {
  // Figure 1 contract 3: "10251" ends with the vlan id "251".
  AffixTrie trie(/*reversed=*/true);
  trie.Insert("251", Ref(1));
  trie.Insert("51", Ref(2));
  trie.Insert("999", Ref(3));
  std::vector<AffixTrie::Hit> hits;
  trie.FindAffixesOf("10251", &hits);
  ASSERT_EQ(hits.size(), 2u);
  // Increasing affix length: "1" none... first hit is "51" (len 2), then "251" (len 3).
  EXPECT_EQ(hits[0].ref.pattern, 2u);
  EXPECT_EQ(hits[0].affix_len, 2);
  EXPECT_EQ(hits[1].ref.pattern, 1u);
  EXPECT_EQ(hits[1].affix_len, 3);
}

TEST(AffixTrie, EmptyKeyIgnored) {
  AffixTrie trie(false);
  trie.Insert("", Ref(1));
  EXPECT_EQ(trie.num_keys(), 0u);
  std::vector<AffixTrie::Hit> hits;
  trie.FindAffixesOf("anything", &hits);
  EXPECT_TRUE(hits.empty());
}

// ---------- Scoring ----------

TEST(Score, DefaultPrefixScoresZero) {
  EXPECT_DOUBLE_EQ(PrefixScore(0, false), 0.0);
  EXPECT_GT(PrefixScore(24, false), PrefixScore(16, false));
  EXPECT_GT(PrefixScore(32, false), 3.0);
}

TEST(Score, NumbersByMagnitude) {
  EXPECT_DOUBLE_EQ(KeyScore("0"), 0.0);
  EXPECT_LT(KeyScore("5"), KeyScore("94"));
  EXPECT_LT(KeyScore("94"), KeyScore("251"));
  EXPECT_LT(KeyScore("251"), KeyScore("3852"));
  // The paper's example: 3394 is far less likely to collide than 1.
  EXPECT_GT(KeyScore("3394"), 10 * KeyScore("1"));
}

TEST(Score, StringsByLength) {
  EXPECT_LT(KeyScore("ab"), KeyScore("abcdefgh"));
  EXPECT_LE(KeyScore(std::string(100, 'x')), 4.0);  // Capped.
  EXPECT_DOUBLE_EQ(KeyScore(""), 0.0);
}

TEST(Score, ValueDispatch) {
  EXPECT_DOUBLE_EQ(ValueScore(Value::Ip4(*Ipv4Address::Parse("0.0.0.0"))), 0.0);
  EXPECT_GT(ValueScore(Value::Ip4(*Ipv4Address::Parse("10.14.14.34"))), 2.0);
  EXPECT_DOUBLE_EQ(ValueScore(Value::Pfx4(*Ipv4Network::Parse("0.0.0.0/0"))), 0.0);
  EXPECT_GT(ValueScore(Value::Pfx4(*Ipv4Network::Parse("10.0.0.0/24"))), 2.0);
  EXPECT_LT(ValueScore(Value::Bool(true)), 0.5);
  EXPECT_GT(ValueScore(Value::Mac(*MacAddress::Parse("00:00:0c:d3:00:6e"))), 3.0);
  EXPECT_DOUBLE_EQ(ValueScore(Value::Mac(*MacAddress::Parse("00:00:00:00:00:00"))), 0.0);
  EXPECT_DOUBLE_EQ(ValueScore(Value::Num(BigInt(0))), 0.0);
  EXPECT_GT(ValueScore(Value::Num(BigInt(3852))), ValueScore(Value::Num(BigInt(5))));
}

}  // namespace
}  // namespace concord
