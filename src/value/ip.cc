#include "src/value/ip.h"

#include "src/util/strings.h"

namespace concord {

std::optional<Ipv4Address> Ipv4Address::Parse(std::string_view s) {
  uint32_t bits = 0;
  int octets = 0;
  size_t i = 0;
  while (octets < 4) {
    size_t start = i;
    uint32_t value = 0;
    while (i < s.size() && IsDigit(s[i])) {
      value = value * 10 + static_cast<uint32_t>(s[i] - '0');
      if (value > 255) {
        return std::nullopt;
      }
      ++i;
    }
    if (i == start || i - start > 3) {
      return std::nullopt;
    }
    bits = (bits << 8) | value;
    ++octets;
    if (octets < 4) {
      if (i >= s.size() || s[i] != '.') {
        return std::nullopt;
      }
      ++i;
    }
  }
  if (i != s.size()) {
    return std::nullopt;
  }
  return Ipv4Address(bits);
}

uint8_t Ipv4Address::Octet(int index) const {
  int shift = 8 * (4 - index);
  return static_cast<uint8_t>((bits_ >> shift) & 0xff);
}

std::string Ipv4Address::ToString() const {
  // Formats into a local buffer, without a stream: this runs once per rendered
  // key in mining and checking.
  char buffer[15];
  char* out = buffer;
  for (int shift = 24; shift >= 0; shift -= 8) {
    uint32_t octet = (bits_ >> shift) & 0xff;
    if (octet >= 100) {
      *out++ = static_cast<char>('0' + octet / 100);
      octet %= 100;
      *out++ = static_cast<char>('0' + octet / 10);
    } else if (octet >= 10) {
      *out++ = static_cast<char>('0' + octet / 10);
    }
    *out++ = static_cast<char>('0' + octet % 10);
    if (shift > 0) {
      *out++ = '.';
    }
  }
  return std::string(buffer, static_cast<size_t>(out - buffer));
}

namespace {
uint32_t MaskForLen(int len) {
  return len == 0 ? 0 : (len >= 32 ? 0xffffffffu : ~((1u << (32 - len)) - 1));
}
}  // namespace

Ipv4Network::Ipv4Network(Ipv4Address addr, int prefix_len)
    : address_(Ipv4Address(addr.bits() & MaskForLen(prefix_len))), prefix_len_(prefix_len) {}

std::optional<Ipv4Network> Ipv4Network::Parse(std::string_view s) {
  size_t slash = s.find('/');
  if (slash == std::string_view::npos) {
    return std::nullopt;
  }
  auto addr = Ipv4Address::Parse(s.substr(0, slash));
  auto len = ParseUint64(s.substr(slash + 1));
  if (!addr || !len || *len > 32) {
    return std::nullopt;
  }
  return Ipv4Network(*addr, static_cast<int>(*len));
}

bool Ipv4Network::Contains(Ipv4Address addr) const {
  return (addr.bits() & MaskForLen(prefix_len_)) == address_.bits();
}

bool Ipv4Network::Contains(const Ipv4Network& other) const {
  return other.prefix_len_ >= prefix_len_ && Contains(other.address_);
}

std::string Ipv4Network::ToString() const {
  return address_.ToString() + "/" + std::to_string(prefix_len_);
}

std::optional<Ipv6Address> Ipv6Address::Parse(std::string_view s) {
  // Split on "::" first; each side is a list of 16-bit hex groups.
  size_t gap = s.find("::");
  std::string_view left = gap == std::string_view::npos ? s : s.substr(0, gap);
  std::string_view right = gap == std::string_view::npos ? std::string_view{} : s.substr(gap + 2);

  // Walks the ':'-separated groups in place: the lexer tries this on every
  // IPv6-looking span, so it must not allocate.
  auto parse_groups = [](std::string_view part, std::array<uint16_t, 8>* groups,
                         int* count) -> bool {
    *count = 0;
    if (part.empty()) {
      return true;
    }
    for (size_t start = 0;;) {
      const size_t colon = part.find(':', start);
      std::string_view g = part.substr(start, colon == std::string_view::npos
                                                  ? std::string_view::npos
                                                  : colon - start);
      if (g.empty() || g.size() > 4 || *count >= 8) {
        return false;
      }
      auto value = ParseHex(g);
      if (!value) {
        return false;
      }
      (*groups)[(*count)++] = static_cast<uint16_t>(*value);
      if (colon == std::string_view::npos) {
        return true;
      }
      start = colon + 1;
    }
  };

  std::array<uint16_t, 8> lg{}, rg{};
  int ln = 0, rn = 0;
  if (!parse_groups(left, &lg, &ln) || !parse_groups(right, &rg, &rn)) {
    return std::nullopt;
  }
  if (gap == std::string_view::npos) {
    if (ln != 8) {
      return std::nullopt;
    }
  } else if (ln + rn > 7) {
    return std::nullopt;  // "::" must compress at least one group.
  }

  std::array<uint16_t, 8> groups{};
  for (int i = 0; i < ln; ++i) {
    groups[i] = lg[i];
  }
  for (int i = 0; i < rn; ++i) {
    groups[8 - rn + i] = rg[i];
  }
  std::array<uint8_t, 16> bytes{};
  for (int i = 0; i < 8; ++i) {
    bytes[2 * i] = static_cast<uint8_t>(groups[i] >> 8);
    bytes[2 * i + 1] = static_cast<uint8_t>(groups[i] & 0xff);
  }
  return Ipv6Address(bytes);
}

std::string Ipv6Address::ToString() const {
  std::array<uint16_t, 8> groups{};
  for (int i = 0; i < 8; ++i) {
    groups[i] = static_cast<uint16_t>((bytes_[2 * i] << 8) | bytes_[2 * i + 1]);
  }
  // Find the longest run of zero groups (length >= 2) for "::" compression.
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
  static constexpr char kDigits[] = "0123456789abcdef";
  char buffer[39];  // Eight 4-digit groups and seven separators at most.
  char* out = buffer;
  for (int i = 0; i < 8;) {
    if (i == best_start) {
      *out++ = ':';
      *out++ = ':';
      i += best_len;
      continue;
    }
    if (i > 0 && !(best_start >= 0 && i == best_start + best_len)) {
      *out++ = ':';
    }
    const uint16_t group = groups[i];
    for (int shift = 12; shift >= 0; shift -= 4) {
      if (shift == 0 || (group >> shift) != 0) {
        *out++ = kDigits[(group >> shift) & 0xf];
      }
    }
    ++i;
  }
  return std::string(buffer, static_cast<size_t>(out - buffer));
}

namespace {
std::array<uint8_t, 16> MaskBytes6(const std::array<uint8_t, 16>& bytes, int len) {
  std::array<uint8_t, 16> out{};
  for (int i = 0; i < 16; ++i) {
    int bits = len - 8 * i;
    if (bits >= 8) {
      out[i] = bytes[i];
    } else if (bits > 0) {
      out[i] = static_cast<uint8_t>(bytes[i] & (0xff << (8 - bits)));
    } else {
      out[i] = 0;
    }
  }
  return out;
}
}  // namespace

Ipv6Network::Ipv6Network(Ipv6Address addr, int prefix_len)
    : address_(Ipv6Address(MaskBytes6(addr.bytes(), prefix_len))), prefix_len_(prefix_len) {}

std::optional<Ipv6Network> Ipv6Network::Parse(std::string_view s) {
  size_t slash = s.find('/');
  if (slash == std::string_view::npos) {
    return std::nullopt;
  }
  auto addr = Ipv6Address::Parse(s.substr(0, slash));
  auto len = ParseUint64(s.substr(slash + 1));
  if (!addr || !len || *len > 128) {
    return std::nullopt;
  }
  return Ipv6Network(*addr, static_cast<int>(*len));
}

bool Ipv6Network::Contains(const Ipv6Address& addr) const {
  return Ipv6Address(MaskBytes6(addr.bytes(), prefix_len_)) == address_;
}

bool Ipv6Network::Contains(const Ipv6Network& other) const {
  return other.prefix_len_ >= prefix_len_ && Contains(other.address_);
}

std::string Ipv6Network::ToString() const {
  return address_.ToString() + "/" + std::to_string(prefix_len_);
}

}  // namespace concord
