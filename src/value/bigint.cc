#include "src/value/bigint.h"

#include <algorithm>
#include <limits>

#include "src/util/strings.h"

namespace concord {

namespace {

uint32_t HexDigitValue(char c) {
  if (IsDigit(c)) {
    return static_cast<uint32_t>(c - '0');
  }
  if (c >= 'a' && c <= 'f') {
    return static_cast<uint32_t>(c - 'a' + 10);
  }
  return static_cast<uint32_t>(c - 'A' + 10);
}

}  // namespace

std::vector<uint32_t> BigInt::Limbs() const {
  if (!limbs_.empty()) {
    return limbs_;
  }
  std::vector<uint32_t> limbs;
  if (small_ != 0) {
    limbs.push_back(static_cast<uint32_t>(small_ & 0xffffffffULL));
    if (uint32_t hi = static_cast<uint32_t>(small_ >> 32); hi != 0) {
      limbs.push_back(hi);
    }
  }
  return limbs;
}

BigInt BigInt::FromLimbs(std::vector<uint32_t> limbs) {
  while (!limbs.empty() && limbs.back() == 0) {
    limbs.pop_back();
  }
  BigInt out;
  if (limbs.size() > 2) {
    out.limbs_ = std::move(limbs);
  } else {
    for (size_t i = limbs.size(); i-- > 0;) {
      out.small_ = (out.small_ << 32) | limbs[i];
    }
  }
  return out;
}

std::optional<BigInt> BigInt::FromDecimal(std::string_view s) {
  if (!IsAllDigits(s)) {
    return std::nullopt;
  }
  // Accumulate inline until the next digit would pass 2^64 - 1.
  uint64_t value = 0;
  size_t i = 0;
  for (; i < s.size(); ++i) {
    const uint64_t digit = static_cast<uint64_t>(s[i] - '0');
    if (value > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      break;
    }
    value = value * 10 + digit;
  }
  if (i == s.size()) {
    return BigInt(value);
  }
  std::vector<uint32_t> limbs = BigInt(value).Limbs();
  for (; i < s.size(); ++i) {
    // limbs = limbs * 10 + digit.
    uint64_t carry = static_cast<uint64_t>(s[i] - '0');
    for (uint32_t& limb : limbs) {
      uint64_t cur = static_cast<uint64_t>(limb) * 10 + carry;
      limb = static_cast<uint32_t>(cur & 0xffffffffULL);
      carry = cur >> 32;
    }
    while (carry != 0) {
      limbs.push_back(static_cast<uint32_t>(carry & 0xffffffffULL));
      carry >>= 32;
    }
  }
  return FromLimbs(std::move(limbs));
}

std::optional<BigInt> BigInt::FromHex(std::string_view s) {
  if (s.empty() || !std::all_of(s.begin(), s.end(), IsHexDigit)) {
    return std::nullopt;
  }
  const size_t first = std::min(s.find_first_not_of('0'), s.size());
  const std::string_view digits = s.substr(first);
  if (digits.size() <= 16) {
    uint64_t value = 0;
    for (char c : digits) {
      value = (value << 4) | HexDigitValue(c);
    }
    return BigInt(value);
  }
  // Build limbs from the least-significant end, 8 hex digits per limb.
  const size_t n = digits.size();
  std::vector<uint32_t> limbs((n + 7) / 8, 0);
  for (size_t i = 0; i < n; ++i) {
    // Digit i from the end contributes 4 bits at offset 4*i.
    limbs[i / 8] |= HexDigitValue(digits[n - 1 - i]) << (4 * (i % 8));
  }
  return FromLimbs(std::move(limbs));
}

std::optional<uint64_t> BigInt::ToUint64() const {
  if (!limbs_.empty()) {
    return std::nullopt;
  }
  return small_;
}

int BigInt::Compare(const BigInt& other) const {
  // An inline value is below every limb value, and limb values are normalized,
  // so more limbs means larger.
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  if (limbs_.empty()) {
    return small_ == other.small_ ? 0 : (small_ < other.small_ ? -1 : 1);
  }
  for (size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) {
      return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigInt BigInt::Add(const BigInt& other) const {
  if (limbs_.empty() && other.limbs_.empty()) {
    const uint64_t sum = small_ + other.small_;
    if (sum >= small_) {
      return BigInt(sum);
    }
    // The sum wrapped past 2^64: the carry is a third limb.
    BigInt out;
    out.limbs_ = {static_cast<uint32_t>(sum & 0xffffffffULL),
                  static_cast<uint32_t>(sum >> 32), 1};
    return out;
  }
  const std::vector<uint32_t> a = Limbs();
  const std::vector<uint32_t> b = other.Limbs();
  std::vector<uint32_t> sum(std::max(a.size(), b.size()) + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i + 1 < sum.size(); ++i) {
    uint64_t cur = carry;
    if (i < a.size()) {
      cur += a[i];
    }
    if (i < b.size()) {
      cur += b[i];
    }
    sum[i] = static_cast<uint32_t>(cur & 0xffffffffULL);
    carry = cur >> 32;
  }
  sum.back() = static_cast<uint32_t>(carry);
  return FromLimbs(std::move(sum));
}

BigInt BigInt::AbsDiff(const BigInt& other) const {
  if (limbs_.empty() && other.limbs_.empty()) {
    return BigInt(small_ > other.small_ ? small_ - other.small_ : other.small_ - small_);
  }
  const bool this_larger = Compare(other) >= 0;
  const std::vector<uint32_t> hi = this_larger ? Limbs() : other.Limbs();
  const std::vector<uint32_t> lo = this_larger ? other.Limbs() : Limbs();
  std::vector<uint32_t> diff(hi.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < hi.size(); ++i) {
    int64_t cur = int64_t{hi[i]} - (i < lo.size() ? int64_t{lo[i]} : 0) - borrow;
    if (cur < 0) {
      cur += int64_t{1} << 32;
      borrow = 1;
    } else {
      borrow = 0;
    }
    diff[i] = static_cast<uint32_t>(cur);
  }
  return FromLimbs(std::move(diff));
}

std::string BigInt::ToDecimal() const {
  if (limbs_.empty()) {
    // The common case for every [num] a config carries. The digits are written
    // backwards into a local buffer; nothing is copied.
    uint64_t value = small_;
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
  if (limbs_.empty()) {
    return ToHex(small_);
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
  auto mix = [&h](uint32_t limb) { h ^= limb + 0x9e3779b9 + (h << 6) + (h >> 2); };
  if (limbs_.empty()) {
    if (small_ != 0) {
      mix(static_cast<uint32_t>(small_ & 0xffffffffULL));
      if (uint32_t hi = static_cast<uint32_t>(small_ >> 32); hi != 0) {
        mix(hi);
      }
    }
    return h;
  }
  for (uint32_t limb : limbs_) {
    mix(limb);
  }
  return h;
}

}  // namespace concord
