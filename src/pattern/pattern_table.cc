#include "src/pattern/pattern_table.h"

#include <charconv>
#include <stdexcept>
#include <utility>

namespace concord {

PatternId PatternTable::Intern(std::string_view text, std::string untyped,
                               std::string unnamed, std::vector<ValueType> param_types,
                               bool is_constant) {
  auto it = by_text_.find(text);
  if (it != by_text_.end()) {
    return it->second;
  }
  uint32_t id = size_.load(std::memory_order_relaxed);
  uint32_t chunk = id >> kChunkShift;
  if (chunk >= kMaxChunks) {
    throw std::length_error("PatternTable: pattern capacity exhausted");
  }
  if (chunks_[chunk] == nullptr) {
    chunks_[chunk] = std::make_unique<PatternInfo[]>(kChunkSize);
  }
  PatternInfo& info = chunks_[chunk][id & kChunkMask];
  info = PatternInfo{std::string(text), std::move(untyped), std::move(unnamed),
                     std::move(param_types), is_constant};
  by_text_.emplace(info.text, id);
  // Publish after the slot is fully written: a concurrent lock-free reader that
  // observes size() > id may touch the new pattern.
  size_.store(id + 1, std::memory_order_release);
  return id;
}

PatternId PatternTable::Find(std::string_view text) const {
  auto it = by_text_.find(text);
  return it == by_text_.end() ? kInvalidPattern : it->second;
}

std::string PatternTable::ParamName(size_t index) {
  std::string name;
  AppendParamName(index, &name);
  return name;
}

void PatternTable::AppendParamName(size_t index, std::string* out) {
  if (index < 26) {
    out->push_back(static_cast<char>('a' + index));
    return;
  }
  char digits[20];
  char* end = std::to_chars(digits, digits + sizeof(digits), index).ptr;
  out->push_back('p');
  out->append(digits, end);
}

}  // namespace concord
