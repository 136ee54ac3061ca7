// Arbitrary-precision unsigned integers.
//
// The paper's lexer stores [num] and [hex] tokens as Rust BigInt values (Table 1) so
// that arbitrarily long identifiers in configurations never overflow. This is the C++
// equivalent: an unsigned magnitude with the handful of operations contract learning
// needs — parsing, comparison, difference (sequence contracts), and decimal /
// hexadecimal rendering (the `hex` and `str` data transformations of §3.5).
//
// Nearly every number a configuration carries fits in 64 bits, so such values are held
// inline and cost no allocation; only values of 2^64 and above use base-2^32 limbs.
#ifndef SRC_VALUE_BIGINT_H_
#define SRC_VALUE_BIGINT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace concord {

class BigInt {
 public:
  BigInt() = default;  // Zero.
  explicit BigInt(uint64_t value) : small_(value) {}

  // Parses a decimal string of digits; rejects empty input and non-digits.
  // Leading zeros are accepted and normalized away.
  static std::optional<BigInt> FromDecimal(std::string_view s);

  // Parses a hexadecimal string (no 0x prefix).
  static std::optional<BigInt> FromHex(std::string_view s);

  bool IsZero() const { return limbs_.empty() && small_ == 0; }

  // Returns the value when it fits in 64 bits.
  std::optional<uint64_t> ToUint64() const;

  // Three-way comparison: negative/zero/positive like memcmp.
  int Compare(const BigInt& other) const;

  bool operator==(const BigInt& other) const { return Compare(other) == 0; }
  bool operator!=(const BigInt& other) const { return Compare(other) != 0; }
  bool operator<(const BigInt& other) const { return Compare(other) < 0; }
  bool operator<=(const BigInt& other) const { return Compare(other) <= 0; }
  bool operator>(const BigInt& other) const { return Compare(other) > 0; }
  bool operator>=(const BigInt& other) const { return Compare(other) >= 0; }

  BigInt Add(const BigInt& other) const;

  // Absolute difference |a - b|; sequence contracts only need distances.
  BigInt AbsDiff(const BigInt& other) const;

  // Decimal rendering without leading zeros ("0" for zero).
  std::string ToDecimal() const;

  // Lower-case hexadecimal rendering without leading zeros or prefix ("0" for zero).
  std::string ToHexString() const;

  // Mixes the value's little-endian base-2^32 digits, without leading zero
  // digits, whichever form holds it.
  size_t Hash() const;

 private:
  // The value's base-2^32 digits, little-endian, whichever form holds it.
  std::vector<uint32_t> Limbs() const;

  // Builds from little-endian limbs: trailing zero limbs are dropped, and a
  // value below 2^64 moves inline.
  static BigInt FromLimbs(std::vector<uint32_t> limbs);

  // The value when `limbs_` is empty. Otherwise unused and zero.
  uint64_t small_ = 0;
  // Little-endian limbs of a value of 2^64 or more (at least three, the top one
  // non-zero); empty for every value below 2^64.
  std::vector<uint32_t> limbs_;
};

}  // namespace concord

#endif  // SRC_VALUE_BIGINT_H_
