// Robustness fuzzing for the text-facing substrates: random and adversarial inputs
// must never crash, and structural invariants must hold on arbitrary text (Concord's
// whole premise is consuming configs it has never seen).
#include <gtest/gtest.h>

#include <string>

#include "src/format/embed.h"
#include "src/format/json.h"
#include "src/pattern/lexer.h"
#include "src/pattern/parser.h"
#include "src/util/io.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace concord {
namespace {

class FormatFuzz : public ::testing::TestWithParam<int> {
 protected:
  SplitMix64 rng_{static_cast<uint64_t>(GetParam()) * 0x9e3779b97f4a7c15ULL + 5};

  std::string RandomText(size_t max_len, bool printable_bias) {
    size_t len = rng_.Below(max_len);
    std::string out;
    out.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      if (printable_bias && !rng_.Chance(0.1)) {
        static const char kAlphabet[] =
            " \t\nabcdefghijklmnop0123456789.:/{}[]\"',-_!#$%&()*+;<=>?@\\^`|~";
        out.push_back(kAlphabet[rng_.Below(sizeof(kAlphabet) - 1)]);
      } else {
        out.push_back(static_cast<char>(rng_.Below(256)));
      }
    }
    return out;
  }
};

TEST_P(FormatFuzz, DetectAndEmbedNeverCrash) {
  for (int i = 0; i < 200; ++i) {
    std::string text = RandomText(400, true);
    FormatCategory format = DetectFormat(text);
    EmbeddedFile embedded = EmbedText(text);
    (void)format;
    // Invariant: every embedded line is non-blank and trimmed.
    for (const ContextLine& line : embedded.lines) {
      EXPECT_FALSE(line.text.empty());
      EXPECT_EQ(line.text, std::string(Trim(line.text)));
      EXPECT_GE(line.line_number, 1);
    }
  }
}

TEST_P(FormatFuzz, FlatEmbeddingPreservesNonBlankLineCount) {
  for (int i = 0; i < 100; ++i) {
    std::string text = RandomText(300, true);
    size_t non_blank = 0;
    for (const std::string& line : SplitLines(text)) {
      if (!Trim(line).empty()) {
        ++non_blank;
      }
    }
    EmbeddedFile embedded = EmbedTextAs(text, FormatCategory::kFlat);
    EXPECT_EQ(embedded.lines.size(), non_blank);
  }
}

TEST_P(FormatFuzz, IndentEmbeddingParentsAreConsistent) {
  // Parents must be earlier non-blank lines, and the chain length is bounded by the
  // line's position.
  for (int i = 0; i < 100; ++i) {
    std::string text = RandomText(300, true);
    EmbeddedFile embedded = EmbedTextAs(text, FormatCategory::kIndent);
    for (size_t li = 0; li < embedded.lines.size(); ++li) {
      EXPECT_LE(embedded.ParentTexts(embedded.lines[li]).size(), li);
    }
    // Each parent's own parent comes before it.
    for (size_t p = 0; p < embedded.parents.size(); ++p) {
      EXPECT_LT(embedded.parents[p].parent, static_cast<int>(p));
    }
  }
}

TEST_P(FormatFuzz, JsonParserNeverCrashesAndRoundTripsWhenAccepting) {
  for (int i = 0; i < 300; ++i) {
    std::string text = RandomText(200, true);
    auto doc = JsonValue::Parse(text);
    if (doc.has_value()) {
      // Anything accepted must serialize and re-parse to an accepted document.
      std::string serialized = doc->Serialize();
      auto again = JsonValue::Parse(serialized);
      ASSERT_TRUE(again.has_value()) << serialized;
      EXPECT_EQ(again->Serialize(), serialized);
    }
  }
}

TEST_P(FormatFuzz, JsonMutationsOfValidDocuments) {
  const std::string base =
      R"({"nfInfos": [{"vrfName": "mgmt", "vlanId": 251}], "ok": true, "x": [1, 2.5, null]})";
  for (int i = 0; i < 300; ++i) {
    std::string mutated = base;
    size_t edits = 1 + rng_.Below(4);
    for (size_t e = 0; e < edits; ++e) {
      size_t pos = rng_.Below(mutated.size());
      switch (rng_.Below(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng_.Below(128));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(rng_.Below(128)));
      }
    }
    auto doc = JsonValue::Parse(mutated);  // Must not crash; accept/reject both fine.
    if (doc.has_value()) {
      (void)doc->Serialize(2);
    }
  }
}

TEST_P(FormatFuzz, LexerNeverCrashesAndPreservesTextShape) {
  Lexer lexer;
  lexer.AddCustomToken("iface", "([aA]e|[eE]t|[pP]o)-?[0-9]+");
  for (int i = 0; i < 300; ++i) {
    std::string line = RandomText(120, true);
    // Lexing operates on single trimmed lines.
    std::string trimmed(Trim(ReplaceAll(line, "\n", " ")));
    LineLex lex;
    lexer.Lex(trimmed, &lex);
    // Named and unnamed patterns only differ inside holes.
    EXPECT_EQ(lex.values.size() == 0, lex.pattern_named == trimmed);
    // Hole count equals captured value count.
    size_t holes = 0;
    size_t pos = 0;
    while ((pos = lex.pattern_unnamed.find('[', pos)) != std::string::npos) {
      size_t close = lex.pattern_unnamed.find(']', pos);
      if (close == std::string::npos) {
        break;
      }
      ++holes;
      pos = close + 1;
    }
    EXPECT_GE(holes, lex.values.size());  // Literal '[' in input can add brackets.
  }
}

TEST_P(FormatFuzz, FullParsePipelineNeverCrashes) {
  Lexer lexer;
  for (int i = 0; i < 50; ++i) {
    std::string text = RandomText(500, false);  // Includes raw binary bytes.
    Dataset dataset;
    ConfigParser parser(&lexer, &dataset.patterns, ParseOptions{.embed_context = true,
                                                                .constants = true});
    ParsedConfig config = parser.Parse("fuzz.cfg", text);
    for (const ParsedLine& line : config.lines) {
      EXPECT_NE(line.pattern, kInvalidPattern);
      EXPECT_NE(line.const_pattern, kInvalidPattern);
      const PatternInfo& info = dataset.patterns.Get(line.pattern);
      EXPECT_EQ(info.param_types.size(), line.values.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormatFuzz, ::testing::Range(0, 6));

}  // namespace
}  // namespace concord
