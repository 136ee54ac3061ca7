#include "src/value/bigint.h"

#include <algorithm>

#include "src/util/strings.h"

namespace concord {

BigInt::BigInt(uint64_t value) {
  if (value != 0) {
    limbs_.push_back(static_cast<uint32_t>(value & 0xffffffffULL));
    uint32_t hi = static_cast<uint32_t>(value >> 32);
    if (hi != 0) {
      limbs_.push_back(hi);
    }
  }
}

void BigInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) {
    limbs_.pop_back();
  }
}

std::optional<BigInt> BigInt::FromDecimal(std::string_view s) {
  if (!IsAllDigits(s)) {
    return std::nullopt;
  }
  BigInt out;
  for (char c : s) {
    // out = out * 10 + digit.
    uint64_t carry = static_cast<uint64_t>(c - '0');
    for (uint32_t& limb : out.limbs_) {
      uint64_t cur = static_cast<uint64_t>(limb) * 10 + carry;
      limb = static_cast<uint32_t>(cur & 0xffffffffULL);
      carry = cur >> 32;
    }
    while (carry != 0) {
      out.limbs_.push_back(static_cast<uint32_t>(carry & 0xffffffffULL));
      carry >>= 32;
    }
  }
  out.Normalize();
  return out;
}

std::optional<BigInt> BigInt::FromHex(std::string_view s) {
  if (s.empty()) {
    return std::nullopt;
  }
  BigInt out;
  // Build limbs from the least-significant end, 8 hex digits per limb.
  size_t n = s.size();
  for (char c : s) {
    if (!IsHexDigit(c)) {
      return std::nullopt;
    }
  }
  size_t num_limbs = (n + 7) / 8;
  out.limbs_.resize(num_limbs, 0);
  for (size_t i = 0; i < n; ++i) {
    // Digit i from the end contributes 4 bits at offset 4*i.
    char c = s[n - 1 - i];
    uint32_t digit;
    if (IsDigit(c)) {
      digit = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint32_t>(c - 'a' + 10);
    } else {
      digit = static_cast<uint32_t>(c - 'A' + 10);
    }
    out.limbs_[i / 8] |= digit << (4 * (i % 8));
  }
  out.Normalize();
  return out;
}

std::optional<uint64_t> BigInt::ToUint64() const {
  if (limbs_.size() > 2) {
    return std::nullopt;
  }
  uint64_t value = 0;
  if (limbs_.size() >= 2) {
    value = static_cast<uint64_t>(limbs_[1]) << 32;
  }
  if (!limbs_.empty()) {
    value |= limbs_[0];
  }
  return value;
}

int BigInt::Compare(const BigInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) {
      return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigInt BigInt::Add(const BigInt& other) const {
  BigInt out;
  size_t n = std::max(limbs_.size(), other.limbs_.size());
  out.limbs_.resize(n, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t a = i < limbs_.size() ? limbs_[i] : 0;
    uint64_t b = i < other.limbs_.size() ? other.limbs_[i] : 0;
    uint64_t cur = a + b + carry;
    out.limbs_[i] = static_cast<uint32_t>(cur & 0xffffffffULL);
    carry = cur >> 32;
  }
  if (carry != 0) {
    out.limbs_.push_back(static_cast<uint32_t>(carry));
  }
  return out;
}

BigInt BigInt::AbsDiff(const BigInt& other) const {
  const BigInt* hi = this;
  const BigInt* lo = &other;
  if (Compare(other) < 0) {
    std::swap(hi, lo);
  }
  BigInt out;
  out.limbs_.resize(hi->limbs_.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < hi->limbs_.size(); ++i) {
    int64_t a = hi->limbs_[i];
    int64_t b = i < lo->limbs_.size() ? lo->limbs_[i] : 0;
    int64_t cur = a - b - borrow;
    if (cur < 0) {
      cur += int64_t{1} << 32;
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(cur);
  }
  out.Normalize();
  return out;
}

std::string BigInt::ToDecimal() const {
  if (limbs_.size() <= 2) {
    // Fits in 64 bits: the common case for every [num] a config carries. The
    // digits are written backwards into a local buffer; nothing is copied.
    uint64_t value = *ToUint64();
    char buffer[20];  // 2^64 - 1 has 20 digits.
    char* end = buffer + sizeof(buffer);
    char* out = end;
    do {
      *--out = static_cast<char>('0' + value % 10);
      value /= 10;
    } while (value != 0);
    return std::string(out, static_cast<size_t>(end - out));
  }
  std::vector<uint32_t> work = limbs_;
  std::string digits;
  while (!work.empty()) {
    // Divide `work` by 10, collecting the remainder.
    uint64_t rem = 0;
    for (size_t i = work.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | work[i];
      work[i] = static_cast<uint32_t>(cur / 10);
      rem = cur % 10;
    }
    digits.push_back(static_cast<char>('0' + rem));
    while (!work.empty() && work.back() == 0) {
      work.pop_back();
    }
  }
  std::reverse(digits.begin(), digits.end());
  return digits;
}

std::string BigInt::ToHexString() const {
  if (IsZero()) {
    return "0";
  }
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  bool leading = true;
  for (size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      uint32_t digit = (limbs_[i] >> shift) & 0xf;
      if (leading && digit == 0) {
        continue;
      }
      leading = false;
      out.push_back(kDigits[digit]);
    }
  }
  return out;
}

size_t BigInt::Hash() const {
  size_t h = 0x9e3779b97f4a7c15ULL;
  for (uint32_t limb : limbs_) {
    h ^= limb + 0x9e3779b9 + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace concord
