// Interned typed patterns (§3.2).
//
// Every configuration line lexes to a *pattern* — its text with data values replaced by
// typed holes — plus the extracted values. Patterns include the embedded context path,
// e.g. `/interface Port-Channel[num]/evpn ether-segment/route-target import [a:mac]`.
// Patterns repeat heavily (thousands of lines share a handful of patterns), so they are
// interned once into a PatternTable and referenced by dense 32-bit ids everywhere else;
// all learning data structures key on PatternId.
#ifndef SRC_PATTERN_PATTERN_TABLE_H_
#define SRC_PATTERN_PATTERN_TABLE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/value/value.h"

namespace concord {

using PatternId = uint32_t;
inline constexpr PatternId kInvalidPattern = 0xffffffffu;

// Transparent string hash: with std::equal_to<>, an unordered_map keyed by
// std::string can be probed with a string_view, materializing no string.
struct TextHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

struct PatternInfo {
  std::string text;                    // Canonical named form, with context path.
  std::string untyped;                 // Types erased: `ip address [a:?]` (type contracts).
  std::string unnamed;                 // Names erased: `ip address [ip4]` — the form the
                                       // pattern takes when it appears as a *context*
                                       // segment of its children's patterns.
  std::vector<ValueType> param_types;  // Leaf parameter types, in capture order.
  bool is_constant = false;            // Constant-learning pattern (exact line text).
};

// Concurrency contract (DESIGN.md §9): writers (Intern) must be serialized
// externally — the serve path does so under LoadedContractSet::parse_mu, the
// learner is single-writer per dataset, and ParseConfigs has one writer of the
// shared table at a time: the worker parsing the first block of files, then
// the input-order merge on the calling thread; its other workers write only
// private tables. Get(id) and size() are safe to call
// concurrently with a writer, with no lock, for any id the reader learned of
// before its last synchronization with the writer (e.g. ids obtained while
// holding parse_mu): pattern storage is an array of fixed-size append-only
// chunks, so publishing pattern N never moves patterns [0, N) the way a
// std::vector push_back would, and the published count is an atomic. Find is a
// writer-side probe and shares the writer's serialization.
class PatternTable {
 public:
  PatternTable() = default;

  // Movable for single-threaded construction flows (datagen builds a Dataset
  // and returns it by value); moving with concurrent readers is undefined,
  // like any container move.
  PatternTable(PatternTable&& other) noexcept
      : by_text_(std::move(other.by_text_)),
        chunks_(std::move(other.chunks_)),
        size_(other.size_.load(std::memory_order_relaxed)) {
    other.size_.store(0, std::memory_order_relaxed);
  }
  PatternTable& operator=(PatternTable&& other) noexcept {
    by_text_ = std::move(other.by_text_);
    chunks_ = std::move(other.chunks_);
    size_.store(other.size_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    other.size_.store(0, std::memory_order_relaxed);
    return *this;
  }

  // Deep copy, for tests and tooling that rebind a parser to an existing
  // table's ids. Same caveat as the moves: single-threaded only.
  PatternTable(const PatternTable& other) : by_text_(other.by_text_) {
    CopyChunksFrom(other);
  }
  PatternTable& operator=(const PatternTable& other) {
    if (this != &other) {
      by_text_ = other.by_text_;
      CopyChunksFrom(other);
    }
    return *this;
  }

  // Interns a pattern, returning a stable id. The metadata fields are only consulted
  // on first insertion. Accepts a string_view so the parser can probe with a reused
  // scratch buffer; the text is copied only when the pattern is new.
  PatternId Intern(std::string_view text, std::string untyped, std::string unnamed,
                   std::vector<ValueType> param_types, bool is_constant = false);

  // Looks up an existing pattern id by canonical text; kInvalidPattern when absent.
  // Heterogeneous: no std::string is materialized for the probe.
  PatternId Find(std::string_view text) const;

  const PatternInfo& Get(PatternId id) const {
    return chunks_[id >> kChunkShift][id & kChunkMask];
  }
  size_t size() const { return size_.load(std::memory_order_acquire); }

  // Name of the `index`-th parameter ('a', 'b', ..., then p26, p27, ...).
  static std::string ParamName(size_t index);
  // Appends ParamName(index) to *out without building a string of its own.
  static void AppendParamName(size_t index, std::string* out);

 private:
  // 8192 patterns per chunk, up to 16M patterns; the chunk pointer array stays
  // inline (16 KiB) so Get is two dependent loads.
  static constexpr uint32_t kChunkShift = 13;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr uint32_t kChunkMask = kChunkSize - 1;
  static constexpr uint32_t kMaxChunks = 2048;

  void CopyChunksFrom(const PatternTable& other) {
    const uint32_t n = other.size_.load(std::memory_order_relaxed);
    for (uint32_t chunk = 0; chunk * kChunkSize < n; ++chunk) {
      chunks_[chunk] = std::make_unique<PatternInfo[]>(kChunkSize);
      const uint32_t count = std::min(n - chunk * kChunkSize, kChunkSize);
      for (uint32_t i = 0; i < count; ++i) {
        chunks_[chunk][i] = other.chunks_[chunk][i];
      }
    }
    for (uint32_t chunk = (n + kChunkSize - 1) / kChunkSize; chunk < kMaxChunks;
         ++chunk) {
      chunks_[chunk].reset();
    }
    size_.store(n, std::memory_order_relaxed);
  }

  std::unordered_map<std::string, PatternId, TextHash, std::equal_to<>> by_text_;
  std::array<std::unique_ptr<PatternInfo[]>, kMaxChunks> chunks_;
  std::atomic<uint32_t> size_{0};
};

}  // namespace concord

#endif  // SRC_PATTERN_PATTERN_TABLE_H_
