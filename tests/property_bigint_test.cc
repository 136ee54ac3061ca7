// Property tests: BigInt agrees with native 64-bit arithmetic wherever both are
// defined, and string conversions round-trip at any width.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/value/bigint.h"
#include "src/value/value.h"

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

// Values below 2^64 are held inline and larger ones in limbs; these are the
// points where an operation crosses from one form to the other.
TEST(BigIntForms, OperationsAcrossTheInlineLimit) {
  const BigInt max64(~0ULL);
  const BigInt two_pow_64 = max64.Add(BigInt(1));
  EXPECT_EQ(two_pow_64.ToDecimal(), "18446744073709551616");
  EXPECT_FALSE(two_pow_64.ToUint64().has_value());
  EXPECT_EQ(two_pow_64.AbsDiff(max64), BigInt(1));
  EXPECT_EQ(max64.AbsDiff(two_pow_64), BigInt(1));
  EXPECT_EQ(two_pow_64.AbsDiff(max64).ToUint64(), 1u);
  EXPECT_EQ(two_pow_64.AbsDiff(two_pow_64), BigInt(0));
  EXPECT_TRUE(two_pow_64.AbsDiff(two_pow_64).IsZero());
  EXPECT_LT(max64.Compare(two_pow_64), 0);
  EXPECT_GT(two_pow_64.Compare(max64), 0);
  EXPECT_EQ(two_pow_64.Compare(*BigInt::FromDecimal("18446744073709551616")), 0);
  EXPECT_EQ(two_pow_64.ToHexString(), "10000000000000000");
  EXPECT_EQ(max64.ToHexString(), "ffffffffffffffff");
  // A limb-form sum that drops back below 2^64 through AbsDiff, and one that
  // carries into a fourth limb.
  const BigInt two_pow_96 = *BigInt::FromHex("1000000000000000000000000");
  EXPECT_EQ(two_pow_96.AbsDiff(two_pow_96.AbsDiff(BigInt(5))), BigInt(5));
  EXPECT_EQ(two_pow_96.AbsDiff(BigInt(1)).ToHexString(), "ffffffffffffffffffffffff");
  EXPECT_EQ(two_pow_96.AbsDiff(BigInt(1)).Add(BigInt(1)), two_pow_96);
}

TEST(BigIntForms, LeadingZerosParseToTheInlineForm) {
  const std::string zeros25(25, '0');
  auto decimal = BigInt::FromDecimal(zeros25 + "18446744073709551615");
  ASSERT_TRUE(decimal.has_value());
  EXPECT_EQ(decimal->ToUint64(), ~0ULL);
  EXPECT_EQ(*decimal, BigInt(~0ULL));
  EXPECT_EQ(decimal->Hash(), BigInt(~0ULL).Hash());
  auto decimal_zero = BigInt::FromDecimal(zeros25);
  ASSERT_TRUE(decimal_zero.has_value());
  EXPECT_TRUE(decimal_zero->IsZero());
  auto decimal_big = BigInt::FromDecimal(zeros25 + "18446744073709551616");
  ASSERT_TRUE(decimal_big.has_value());
  EXPECT_EQ(decimal_big->ToDecimal(), "18446744073709551616");

  const std::string zeros20(20, '0');
  auto hex = BigInt::FromHex(zeros20 + "ffffffffffffffff");
  ASSERT_TRUE(hex.has_value());
  EXPECT_EQ(hex->ToUint64(), ~0ULL);
  EXPECT_EQ(hex->Hash(), BigInt(~0ULL).Hash());
  auto hex_big = BigInt::FromHex(zeros20 + "10000000000000000");
  ASSERT_TRUE(hex_big.has_value());
  EXPECT_EQ(hex_big->ToHexString(), "10000000000000000");
  EXPECT_EQ(*hex_big, BigInt(~0ULL).Add(BigInt(1)));
  auto hex_zero = BigInt::FromHex(zeros20);
  ASSERT_TRUE(hex_zero.has_value());
  EXPECT_TRUE(hex_zero->IsZero());
  EXPECT_EQ(hex_zero->ToHexString(), "0");
}

// Hash() is what limb-form BigInts hashed to: Value::Hash mixes it, and
// FlatMap<Value, ...> keys in the checker and miners bucket by it. The table
// was recorded from the limb-only implementation.
TEST(BigIntForms, HashMatchesTheLimbOnlyForm) {
  const BigInt two_pow_64 = BigInt(~0ULL).Add(BigInt(1));
  const std::pair<BigInt, size_t> table[] = {
      {BigInt(0), 11400714819323198485ULL},
      {BigInt(1), 3124149554679865834ULL},
      {BigInt(0xffffffffULL), 3124149554679865832ULL},
      {BigInt(0x100000000ULL), 14627443362818141471ULL},
      {BigInt(~0ULL), 14627443362818141658ULL},
      {two_pow_64, 4069082416155067928ULL},
      {*BigInt::FromDecimal("340282366920938463463374607431768211456"),
       241738844563089674ULL},
  };
  for (const auto& [value, hash] : table) {
    EXPECT_EQ(value.Hash(), hash) << value.ToDecimal();
  }
}

// Holding small values inline must not grow Value past its limb-form size.
TEST(BigIntForms, ValueStaysFortyEightBytes) { EXPECT_EQ(sizeof(Value), 48u); }

}  // namespace
}  // namespace concord
