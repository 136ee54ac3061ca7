#include "src/format/embed.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/format/json.h"
#include "src/util/io.h"
#include "src/util/strings.h"
#include "tests/test_util.h"

namespace concord {
namespace {

using namespace std::string_view_literals;

constexpr std::string_view kAristaConfig = R"(hostname DEV1
!
interface Loopback0
   ip address 10.14.14.34
!
interface Port-Channel110
   evpn ether-segment
      route-target import 00:00:0c:d3:00:6e
!
ip prefix-list loopback
   seq 10 permit 10.14.14.34/32
   seq 20 permit 0.0.0.0/0
!
router bgp 65015
   maximum-paths 64 ecmp 64
   vlan 251
      rd 10.14.14.117:10251
)";

TEST(DetectFormat, Categories) {
  EXPECT_EQ(DetectFormat(kAristaConfig), FormatCategory::kIndent);
  EXPECT_EQ(DetectFormat("{\"a\": 1}"), FormatCategory::kJson);
  EXPECT_EQ(DetectFormat("[1, 2]"), FormatCategory::kJson);
  EXPECT_EQ(DetectFormat("set interfaces xe-0 unit 0\nset routing-options static\n"),
            FormatCategory::kFlat);
  EXPECT_EQ(DetectFormat("name: test\nitems:\n  - a\n  - b\n"), FormatCategory::kYaml);
  EXPECT_EQ(DetectFormat(""), FormatCategory::kUnknown);
  EXPECT_EQ(DetectFormat("   \n  \n"), FormatCategory::kUnknown);
}

TEST(DetectFormat, MalformedJsonFallsThrough) {
  // Starts like JSON but does not parse: classified by line shape instead.
  EXPECT_NE(DetectFormat("{this is not json"), FormatCategory::kJson);
}

TEST(EmbedIndent, ParentsFollowIndentation) {
  EmbeddedFile f = EmbedText(kAristaConfig);
  ASSERT_EQ(f.format, FormatCategory::kIndent);

  // Locate `route-target import ...`; its parents must be the port channel and the
  // evpn block, in outermost-first order.
  const ContextLine* rt = nullptr;
  for (const auto& line : f.lines) {
    if (line.text.rfind("route-target", 0) == 0) {
      rt = &line;
    }
  }
  ASSERT_NE(rt, nullptr);
  ASSERT_EQ(f.ParentTexts(*rt).size(), 2u);
  EXPECT_EQ(f.ParentTexts(*rt)[0], "interface Port-Channel110");
  EXPECT_EQ(f.ParentTexts(*rt)[1], "evpn ether-segment");
}

TEST(EmbedIndent, TopLevelLinesHaveNoParents) {
  EmbeddedFile f = EmbedText(kAristaConfig);
  for (const auto& line : f.lines) {
    if (line.text == "hostname DEV1" || line.text == "router bgp 65015") {
      EXPECT_EQ(line.parent, kNoParent) << line.text;
    }
  }
}

TEST(EmbedIndent, SeparatorResetsContext) {
  EmbeddedFile f = EmbedText(kAristaConfig);
  // Every '!' line is at indent 0 with no parents.
  int separators = 0;
  for (const auto& line : f.lines) {
    if (line.text == "!") {
      ++separators;
      EXPECT_EQ(line.parent, kNoParent);
    }
  }
  EXPECT_EQ(separators, 4);
}

TEST(EmbedIndent, NestedBlocks) {
  EmbeddedFile f = EmbedText(kAristaConfig);
  const ContextLine* rd = nullptr;
  for (const auto& line : f.lines) {
    if (line.text.rfind("rd ", 0) == 0) {
      rd = &line;
    }
  }
  ASSERT_NE(rd, nullptr);
  ASSERT_EQ(f.ParentTexts(*rd).size(), 2u);
  EXPECT_EQ(f.ParentTexts(*rd)[0], "router bgp 65015");
  EXPECT_EQ(f.ParentTexts(*rd)[1], "vlan 251");
}

TEST(EmbedIndent, LineNumbersAreOriginal) {
  EmbeddedFile f = EmbedText("a\n\n  b\n"sv);
  ASSERT_EQ(f.lines.size(), 2u);
  EXPECT_EQ(f.lines[0].line_number, 1);
  EXPECT_EQ(f.lines[1].line_number, 3);  // Blank line skipped but numbering kept.
}

TEST(EmbedIndent, SiblingPopsPreviousBlock) {
  EmbeddedFile f = EmbedText("block1\n  child1\nblock2\n  child2\n"sv);
  ASSERT_EQ(f.lines.size(), 4u);
  EXPECT_EQ(f.lines[3].text, "child2");
  ASSERT_EQ(f.ParentTexts(f.lines[3]).size(), 1u);
  EXPECT_EQ(f.ParentTexts(f.lines[3])[0], "block2");
}

TEST(EmbedJson, PathsBecomeParents) {
  EmbeddedFile f = EmbedText(R"({
    "nfInfos": [
      {"vrfName": "mgmt", "vlanId": 251}
    ]
  })"sv);
  ASSERT_EQ(f.format, FormatCategory::kJson);
  ASSERT_EQ(f.lines.size(), 2u);
  EXPECT_EQ(f.lines[0].text, "vrfName mgmt");
  ASSERT_EQ(f.ParentTexts(f.lines[0]).size(), 1u);
  EXPECT_EQ(f.ParentTexts(f.lines[0])[0], "nfInfos");
  EXPECT_EQ(f.lines[1].text, "vlanId 251");
}

TEST(EmbedJson, DeepNesting) {
  EmbeddedFile f = EmbedText(R"({"a": {"b": {"c": 5}}})"sv);
  ASSERT_EQ(f.lines.size(), 1u);
  EXPECT_EQ(f.lines[0].text, "c 5");
  ASSERT_EQ(f.ParentTexts(f.lines[0]).size(), 2u);
  EXPECT_EQ(f.ParentTexts(f.lines[0])[0], "a");
  EXPECT_EQ(f.ParentTexts(f.lines[0])[1], "b");
}

TEST(EmbedJson, ArrayOfScalars) {
  EmbeddedFile f = EmbedText(R"({"servers": ["10.0.0.1", "10.0.0.2"]})"sv);
  ASSERT_EQ(f.lines.size(), 2u);
  EXPECT_EQ(f.lines[0].text, "servers 10.0.0.1");
  EXPECT_EQ(f.lines[1].text, "servers 10.0.0.2");
  EXPECT_EQ(f.lines[0].parent, kNoParent);
}

TEST(EmbedYaml, ListMarkersFoldIntoIndent) {
  EmbeddedFile f = EmbedText("nfInfos:\n  - vrfName: mgmt\n    vlanId: 251\n"sv);
  ASSERT_EQ(f.format, FormatCategory::kYaml);
  ASSERT_EQ(f.lines.size(), 3u);
  EXPECT_EQ(f.lines[1].text, "vrfName: mgmt");
  ASSERT_EQ(f.ParentTexts(f.lines[1]).size(), 1u);
  EXPECT_EQ(f.ParentTexts(f.lines[1])[0], "nfInfos:");
  EXPECT_EQ(f.lines[2].text, "vlanId: 251");
  ASSERT_EQ(f.ParentTexts(f.lines[2]).size(), 1u);
  EXPECT_EQ(f.ParentTexts(f.lines[2])[0], "nfInfos:");
}

TEST(EmbedFlat, NoParentsEver) {
  EmbeddedFile f = EmbedTextAs(kAristaConfig, FormatCategory::kFlat);
  for (const auto& line : f.lines) {
    EXPECT_EQ(line.parent, kNoParent);
  }
  // Same number of non-blank lines as the indent embedding.
  EXPECT_EQ(f.lines.size(), EmbedText(kAristaConfig).lines.size());
}

TEST(EmbedTextAs, ForcedFlatDisablesEmbedding) {
  // This is the --no-embedding ablation from Figure 7.
  EmbeddedFile f = EmbedTextAs("a\n  b\n"sv, FormatCategory::kFlat);
  ASSERT_EQ(f.lines.size(), 2u);
  EXPECT_EQ(f.lines[1].parent, kNoParent);
  EXPECT_EQ(f.lines[1].text, "b");
}

// ---- Reference: the embedder before views and shared parent chains ----------
//
// EmbedText as it was when every line owned its text and a copy of each
// parent's, and the text was split into strings (twice for JSON, which was
// also parsed twice). The code is copied unchanged; the tests below hold
// EmbedText to its lines, parent chains and line numbers.
namespace reference {

struct ContextLine {
  std::vector<std::string> parents;
  std::string text;
  int line_number = 0;
};

struct EmbeddedFile {
  FormatCategory format = FormatCategory::kUnknown;
  std::vector<ContextLine> lines;
};

EmbeddedFile EmbedTextAs(const std::string& text, FormatCategory format);

// Indentation width with tabs counted as 4 columns.
int IndentWidth(std::string_view line) {
  int width = 0;
  for (char c : line) {
    if (c == ' ') {
      ++width;
    } else if (c == '\t') {
      width += 4;
    } else {
      break;
    }
  }
  return width;
}

bool LooksLikeYamlLine(std::string_view trimmed) {
  if (trimmed.empty() || trimmed[0] == '#') {
    return true;  // Comments/blanks are format-neutral; do not penalize.
  }
  if (trimmed.rfind("- ", 0) == 0 || trimmed == "-") {
    return true;
  }
  // `key:` or `key: value`, where key has no spaces.
  size_t colon = trimmed.find(':');
  if (colon == std::string_view::npos || colon == 0) {
    return false;
  }
  std::string_view key = trimmed.substr(0, colon);
  if (key.find(' ') != std::string_view::npos) {
    return false;
  }
  return colon + 1 == trimmed.size() || trimmed[colon + 1] == ' ';
}

EmbeddedFile EmbedIndent(const std::vector<std::string>& lines, bool yaml) {
  EmbeddedFile out;
  out.format = yaml ? FormatCategory::kYaml : FormatCategory::kIndent;
  struct Frame {
    int indent;
    std::string text;
  };
  std::vector<Frame> stack;
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string_view raw = lines[i];
    std::string_view trimmed = Trim(raw);
    if (trimmed.empty()) {
      continue;
    }
    int indent = IndentWidth(raw);
    if (yaml) {
      // Fold `- ` list markers into the indentation so element fields nest under
      // the list's key line.
      while (trimmed.rfind("- ", 0) == 0) {
        indent += 2;
        trimmed = TrimLeft(trimmed.substr(2));
      }
      if (trimmed.empty() || trimmed[0] == '#') {
        continue;
      }
    }
    while (!stack.empty() && stack.back().indent >= indent) {
      stack.pop_back();
    }
    ContextLine line;
    line.line_number = static_cast<int>(i) + 1;
    line.text = std::string(trimmed);
    line.parents.reserve(stack.size());
    for (const Frame& frame : stack) {
      line.parents.push_back(frame.text);
    }
    out.lines.push_back(std::move(line));
    stack.push_back(Frame{indent, std::string(trimmed)});
  }
  return out;
}

EmbeddedFile EmbedFlat(const std::vector<std::string>& lines) {
  EmbeddedFile out;
  out.format = FormatCategory::kFlat;
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string_view trimmed = Trim(lines[i]);
    if (trimmed.empty()) {
      continue;
    }
    ContextLine line;
    line.line_number = static_cast<int>(i) + 1;
    line.text = std::string(trimmed);
    out.lines.push_back(std::move(line));
  }
  return out;
}

std::string ScalarText(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      return "null";
    case JsonValue::Kind::kBool:
      return v.AsBool() ? "true" : "false";
    case JsonValue::Kind::kNumber:
      return v.NumberSpelling();
    case JsonValue::Kind::kString:
      return v.AsString();
    default:
      return "";
  }
}

void EmbedJsonValue(const JsonValue& value, const std::string& key,
                    std::vector<std::string>& parents, EmbeddedFile* out) {
  switch (value.kind()) {
    case JsonValue::Kind::kObject: {
      parents.push_back(key);
      for (const auto& [k, v] : value.members()) {
        EmbedJsonValue(v, k, parents, out);
      }
      parents.pop_back();
      break;
    }
    case JsonValue::Kind::kArray: {
      for (const JsonValue& item : value.items()) {
        EmbedJsonValue(item, key, parents, out);
      }
      break;
    }
    default: {
      ContextLine line;
      line.line_number = static_cast<int>(out->lines.size()) + 1;
      line.text = key.empty() ? ScalarText(value) : key + " " + ScalarText(value);
      // Skip the synthetic root parent (empty key).
      for (const std::string& p : parents) {
        if (!p.empty()) {
          line.parents.push_back(p);
        }
      }
      out->lines.push_back(std::move(line));
    }
  }
}

EmbeddedFile EmbedJson(const JsonValue& doc) {
  EmbeddedFile out;
  out.format = FormatCategory::kJson;
  std::vector<std::string> parents;
  EmbedJsonValue(doc, "", parents, &out);
  return out;
}


FormatCategory DetectFormat(const std::string& text) {
  std::string_view trimmed = Trim(text);
  if (trimmed.empty()) {
    return FormatCategory::kUnknown;
  }
  if (trimmed[0] == '{' || trimmed[0] == '[') {
    if (JsonValue::Parse(text).has_value()) {
      return FormatCategory::kJson;
    }
  }
  std::vector<std::string> lines = SplitLines(text);
  size_t non_blank = 0;
  size_t yamlish = 0;
  bool any_indent = false;
  for (const std::string& line : lines) {
    std::string_view t = Trim(line);
    if (t.empty()) {
      continue;
    }
    ++non_blank;
    if (LooksLikeYamlLine(t)) {
      ++yamlish;
    }
    if (IndentWidth(line) > 0) {
      any_indent = true;
    }
  }
  if (non_blank == 0) {
    return FormatCategory::kUnknown;
  }
  if (static_cast<double>(yamlish) / static_cast<double>(non_blank) >= 0.8) {
    return FormatCategory::kYaml;
  }
  return any_indent ? FormatCategory::kIndent : FormatCategory::kFlat;
}

EmbeddedFile EmbedText(const std::string& text) {
  return EmbedTextAs(text, DetectFormat(text));
}

EmbeddedFile EmbedTextAs(const std::string& text, FormatCategory format) {
  switch (format) {
    case FormatCategory::kJson: {
      auto doc = JsonValue::Parse(text);
      if (doc.has_value()) {
        return EmbedJson(*doc);
      }
      return EmbedFlat(SplitLines(text));  // Fall back for unparsable input.
    }
    case FormatCategory::kYaml:
      return EmbedIndent(SplitLines(text), /*yaml=*/true);
    case FormatCategory::kIndent:
      return EmbedIndent(SplitLines(text), /*yaml=*/false);
    case FormatCategory::kFlat:
    case FormatCategory::kUnknown:
      return EmbedFlat(SplitLines(text));
  }
  return EmbedFlat(SplitLines(text));
}

}  // namespace reference

// Empty when `got` has the reference's format and lines; otherwise the first
// difference.
std::string EmbedDifference(const reference::EmbeddedFile& want, const EmbeddedFile& got) {
  if (got.format != want.format) {
    return "format " + std::string(FormatCategoryName(got.format)) + " vs " +
           std::string(FormatCategoryName(want.format));
  }
  if (got.lines.size() != want.lines.size()) {
    return std::to_string(got.lines.size()) + " lines vs " + std::to_string(want.lines.size());
  }
  for (size_t i = 0; i < want.lines.size(); ++i) {
    const ContextLine& line = got.lines[i];
    const std::vector<std::string_view> parents = got.ParentTexts(line);
    if (line.text != want.lines[i].text || line.line_number != want.lines[i].line_number ||
        std::vector<std::string>(parents.begin(), parents.end()) != want.lines[i].parents) {
      return "line " + std::to_string(i) + " '" + std::string(line.text) + "' (" +
             std::to_string(line.line_number) + ", " + std::to_string(parents.size()) +
             " parents) vs '" + want.lines[i].text + "' (" +
             std::to_string(want.lines[i].line_number) + ", " +
             std::to_string(want.lines[i].parents.size()) + " parents)";
    }
  }
  return "";
}

// Detection, detect-and-embed, and embedding as each category, all as the
// reference does them.
std::string EmbedAllWaysDifference(const std::string& text) {
  if (DetectFormat(text) != reference::DetectFormat(text)) {
    return "detected format";
  }
  std::string diff = EmbedDifference(reference::EmbedText(text), EmbedText(text));
  if (!diff.empty()) {
    return "EmbedText: " + diff;
  }
  for (FormatCategory format : {FormatCategory::kJson, FormatCategory::kYaml,
                                FormatCategory::kIndent, FormatCategory::kFlat,
                                FormatCategory::kUnknown}) {
    diff = EmbedDifference(reference::EmbedTextAs(text, format), EmbedTextAs(text, format));
    if (!diff.empty()) {
      return "EmbedTextAs " + std::string(FormatCategoryName(format)) + ": " + diff;
    }
  }
  return "";
}

TEST(EmbedReference, GeneratedCorporaEmbedAsBefore) {
  for (const std::string family : kFamilies) {
    GeneratedCorpus corpus = SmallFamilyCorpus(family, 5);
    for (const auto* files : {&corpus.configs, &corpus.metadata}) {
      for (const GeneratedConfig& file : *files) {
        EXPECT_EQ(EmbedAllWaysDifference(file.text), "") << family << " " << file.name;
      }
    }
  }
}

TEST(EmbedReference, EdgeTextsEmbedAsBefore) {
  const std::vector<std::string> texts = {
      // CRLF line ends, a lone CR line and no final newline.
      "interface Eth1\r\n  ip address 10.0.0.1\r\n\r\n  mtu 9000\r\n\r\nrouter bgp 1",
      // Tabs count as four columns, against spaces.
      "router bgp 1\n\tneighbor 1.2.3.4\n\t\tremote-as 2\n    x\n  y\n\t z\n",
      // YAML: `- ` folding, nested markers, bare dashes, comments after markers.
      "nfInfos:\n  - vrfName: mgmt\n    vlanId: 251\n  - - nested: 1\n    -   deep: 2\n"
      "  -\n  - # comment\n  -  spaced: 3\nother:\n- top: 4\n",
      "# only comments\n# here\n",
      // JSON: nested arrays, empty keys, scalars of every kind, an empty object.
      R"({"a": [[1, 2], [{"b": [3, {"c": null}]}]], "d": {}, "e": [true, false, 1.5e3]})",
      R"([[{"x": 1}], [], "top", 7])",
      R"({"": {"x": 1, "": 2}, "y": {"": [true, null, ""]}, "": "root"})",
      R"(  {"padded": "text with  spaces ", "esc": "a\"b\\c\u0041"}  )",
      "{}", "[]", "\"scalar\"",
      // Malformed JSON: classified by line shape, and flat when forced to JSON.
      "{this is not json\n  nested line\n",
      "[1, 2\n  3]\n",
      "{\"a\": 1,}\n",
      // Blank and whitespace-only texts, and lines with other whitespace.
      "", "\n\n", "   \n\t\n", "\f form\n  x\n\v y\n",
      "a\n\n  b\n    c\n  d\ne\n"};
  for (const std::string& text : texts) {
    EXPECT_EQ(EmbedAllWaysDifference(text), "") << text;
  }
}

}  // namespace
}  // namespace concord
