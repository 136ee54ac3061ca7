// Property tests: BigInt agrees with native 64-bit arithmetic wherever both are
// defined, and string conversions round-trip at any width.
#include <gtest/gtest.h>

#include <string>

#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/value/bigint.h"

namespace concord {
namespace {

class BigIntProperty : public ::testing::TestWithParam<int> {
 protected:
  SplitMix64 rng_{static_cast<uint64_t>(GetParam()) * 6364136223846793005ULL + 1};
};

TEST_P(BigIntProperty, AgreesWithNativeU64) {
  for (int i = 0; i < 500; ++i) {
    // Mixed magnitudes: small values exercise carries/borrows at limb edges.
    uint64_t a = rng_.Next() >> rng_.Below(64);
    uint64_t b = rng_.Next() >> rng_.Below(64);
    BigInt ba(a), bb(b);

    EXPECT_EQ(ba.ToDecimal(), std::to_string(a));
    EXPECT_EQ(ba.ToUint64(), a);
    EXPECT_EQ(ba.Compare(bb) < 0, a < b);
    EXPECT_EQ(ba.Compare(bb) == 0, a == b);
    EXPECT_EQ(ba.AbsDiff(bb).ToUint64(), a > b ? a - b : b - a);
    if (a <= 0x7fffffffffffffffULL && b <= 0x7fffffffffffffffULL) {
      EXPECT_EQ(ba.Add(bb).ToUint64(), a + b);
    }
    EXPECT_EQ(ba.ToHexString(), ToHex(a));
  }
}

TEST_P(BigIntProperty, DecimalRoundTripAtAnyWidth) {
  for (int i = 0; i < 100; ++i) {
    size_t digits = 1 + rng_.Below(60);
    std::string s;
    s.push_back(static_cast<char>('1' + rng_.Below(9)));
    for (size_t k = 1; k < digits; ++k) {
      s.push_back(static_cast<char>('0' + rng_.Below(10)));
    }
    auto v = BigInt::FromDecimal(s);
    ASSERT_TRUE(v.has_value()) << s;
    EXPECT_EQ(v->ToDecimal(), s);
  }
}

TEST_P(BigIntProperty, HexRoundTripAtAnyWidth) {
  static constexpr char kHexDigits[] = "0123456789abcdef";
  for (int i = 0; i < 100; ++i) {
    size_t digits = 1 + rng_.Below(40);
    std::string s;
    s.push_back(kHexDigits[1 + rng_.Below(15)]);
    for (size_t k = 1; k < digits; ++k) {
      s.push_back(kHexDigits[rng_.Below(16)]);
    }
    auto v = BigInt::FromHex(s);
    ASSERT_TRUE(v.has_value()) << s;
    EXPECT_EQ(v->ToHexString(), s);
  }
}

TEST_P(BigIntProperty, AddAbsDiffInverse) {
  // (a + b).AbsDiff(b) == a for arbitrary-width values.
  for (int i = 0; i < 100; ++i) {
    BigInt a(rng_.Next());
    BigInt b(rng_.Next());
    BigInt wide = a.Add(b).Add(BigInt(rng_.Next()));  // > 64 bits sometimes.
    EXPECT_EQ(wide.Add(b).AbsDiff(b), wide);
    EXPECT_EQ(a.Add(b).AbsDiff(b), a);
    EXPECT_EQ(a.AbsDiff(a), BigInt(0));
  }
}

TEST_P(BigIntProperty, CompareIsTotalOrder) {
  for (int i = 0; i < 100; ++i) {
    BigInt a(rng_.Next() >> rng_.Below(64));
    BigInt b(rng_.Next() >> rng_.Below(64));
    BigInt c(rng_.Next() >> rng_.Below(64));
    EXPECT_EQ(a.Compare(b), -b.Compare(a));
    if (a.Compare(b) <= 0 && b.Compare(c) <= 0) {
      EXPECT_LE(a.Compare(c), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntProperty, ::testing::Range(0, 6));

// Decimal rendering on both sides of the one- and two-limb boundaries, where the
// 64-bit fast path hands over to long division.
TEST(BigIntDecimal, LimbBoundaries) {
  EXPECT_EQ(BigInt(0).ToDecimal(), "0");
  EXPECT_EQ(BigInt(0xffffffffULL).ToDecimal(), "4294967295");
  EXPECT_EQ(BigInt(0x100000000ULL).ToDecimal(), "4294967296");
  EXPECT_EQ(BigInt(~0ULL).ToDecimal(), "18446744073709551615");
  const BigInt two_pow_64 = BigInt(~0ULL).Add(BigInt(1));
  EXPECT_FALSE(two_pow_64.ToUint64().has_value());
  EXPECT_EQ(two_pow_64.ToDecimal(), "18446744073709551616");
  for (const char* text :
       {"4294967296", "18446744073709551615", "18446744073709551616",
        "340282366920938463463374607431768211456"}) {
    auto value = BigInt::FromDecimal(text);
    ASSERT_TRUE(value.has_value()) << text;
    EXPECT_EQ(value->ToDecimal(), text);
  }
}

}  // namespace
}  // namespace concord
