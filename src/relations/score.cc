#include "src/relations/score.h"

#include <algorithm>

#include "src/util/strings.h"

namespace concord {

double PrefixScore(int prefix_len, bool is_v6) {
  if (prefix_len <= 0) {
    return 0.0;
  }
  return is_v6 ? static_cast<double>(prefix_len) / 16.0 : static_cast<double>(prefix_len) / 8.0;
}

namespace {

double DigitsScore(size_t digits, bool leading_small) {
  // Step function over magnitude: one/two digit numbers co-occur constantly, four or
  // more digits are strong evidence of intent.
  if (digits <= 1) {
    return 0.25;
  }
  if (digits == 2) {
    return leading_small ? 0.5 : 1.0;
  }
  if (digits == 3) {
    return 2.0;
  }
  return 3.0;
}

}  // namespace

double KeyScore(std::string_view key) {
  if (key.empty()) {
    return 0.0;
  }
  if (IsAllDigits(key)) {
    // "0" is fully uninformative; "10" weaker than "94".
    if (key == "0") {
      return 0.0;
    }
    return DigitsScore(key.size(), key[0] == '1');
  }
  // Mixed text: longer and more varied strings are less likely to collide.
  double len_score = 0.25 * static_cast<double>(std::min<size_t>(key.size(), 16));
  return std::min(4.0, len_score);
}

double ValueScore(const Value& value) {
  switch (value.type()) {
    case ValueType::kNum:
    case ValueType::kHex: {
      const BigInt& v = value.AsBigInt();
      if (v.IsZero()) {
        return 0.0;
      }
      return DigitsScore(v.ToDecimal().size(), false);
    }
    case ValueType::kBool:
      return 0.1;
    case ValueType::kIp4:
      return value.AsIp4().bits() == 0 ? 0.0 : 3.0;
    case ValueType::kPfx4:
      return PrefixScore(value.AsPfx4().prefix_len(), /*is_v6=*/false);
    case ValueType::kIp6: {
      for (uint8_t b : value.AsIp6().bytes()) {
        if (b != 0) {
          return 4.0;
        }
      }
      return 0.0;
    }
    case ValueType::kPfx6:
      return PrefixScore(value.AsPfx6().prefix_len(), /*is_v6=*/true);
    case ValueType::kMac: {
      const MacAddress& m = value.AsMac();
      for (int i = 1; i <= 6; ++i) {
        if (m.Segment(i) != 0) {
          return 4.0;
        }
      }
      return 0.0;
    }
    case ValueType::kStr:
      return KeyScore(value.AsStr());
  }
  return 0.0;
}

}  // namespace concord
