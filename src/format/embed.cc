#include "src/format/embed.h"

#include <algorithm>
#include <initializer_list>
#include <optional>

#include "src/format/json.h"
#include "src/util/strings.h"

namespace concord {

std::string_view FormatCategoryName(FormatCategory format) {
  switch (format) {
    case FormatCategory::kJson:
      return "json";
    case FormatCategory::kYaml:
      return "yaml";
    case FormatCategory::kIndent:
      return "indent";
    case FormatCategory::kFlat:
      return "flat";
    case FormatCategory::kUnknown:
      return "unknown";
  }
  return "unknown";
}

namespace {

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

// Calls fn(raw_line, line_number) for each line of `text`, split as SplitLines
// splits: on '\n', less one trailing '\r', with no empty line after a final '\n'.
template <typename Fn>
void ForEachLine(std::string_view text, Fn fn) {
  size_t start = 0;
  int number = 0;
  while (start < text.size()) {
    size_t pos = text.find('\n', start);
    size_t end = pos == std::string_view::npos ? text.size() : pos;
    size_t len = end - start;
    if (len > 0 && text[end - 1] == '\r') {
      --len;
    }
    fn(text.substr(start, len), ++number);
    if (pos == std::string_view::npos) {
      break;
    }
    start = pos + 1;
  }
}

// The line-shape evidence DetectFormat weighs when the text is not JSON.
struct LineShape {
  size_t non_blank = 0;
  size_t yamlish = 0;
  bool any_indent = false;

  void Add(std::string_view raw, std::string_view trimmed) {
    if (trimmed.empty()) {
      return;
    }
    ++non_blank;
    if (LooksLikeYamlLine(trimmed)) {
      ++yamlish;
    }
    if (IndentWidth(raw) > 0) {
      any_indent = true;
    }
  }

  FormatCategory Category() const {
    if (non_blank == 0) {
      return FormatCategory::kUnknown;
    }
    if (static_cast<double>(yamlish) / static_cast<double>(non_blank) >= 0.8) {
      return FormatCategory::kYaml;
    }
    return any_indent ? FormatCategory::kIndent : FormatCategory::kFlat;
  }
};

// Embeds by indentation. A line becomes a parent only when its first child
// arrives, so `parents` holds exactly the lines with children. With `shape`
// set, also gathers the evidence for DetectFormat along the way.
EmbeddedFile EmbedIndent(std::string_view text, bool yaml, LineShape* shape) {
  EmbeddedFile out;
  out.format = yaml ? FormatCategory::kYaml : FormatCategory::kIndent;
  struct Frame {
    int indent;
    size_t line;  // Index into out.lines.
    int parent;   // Index into out.parents once the line has a child.
  };
  std::vector<Frame> stack;
  ForEachLine(text, [&](std::string_view raw, int line_number) {
    std::string_view trimmed = Trim(raw);
    if (shape != nullptr) {
      shape->Add(raw, trimmed);
    }
    if (trimmed.empty()) {
      return;
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
        return;
      }
    }
    while (!stack.empty() && stack.back().indent >= indent) {
      stack.pop_back();
    }
    int parent = kNoParent;
    if (!stack.empty()) {
      Frame& top = stack.back();
      if (top.parent == kNoParent) {
        const ContextLine& line = out.lines[top.line];
        top.parent = static_cast<int>(out.parents.size());
        out.parents.push_back(ContextParent{line.text, line.parent});
      }
      parent = top.parent;
    }
    out.lines.push_back(ContextLine{trimmed, parent, line_number});
    stack.push_back(Frame{indent, out.lines.size() - 1, kNoParent});
  });
  return out;
}

EmbeddedFile EmbedFlat(std::string_view text) {
  EmbeddedFile out;
  out.format = FormatCategory::kFlat;
  ForEachLine(text, [&out](std::string_view raw, int line_number) {
    std::string_view trimmed = Trim(raw);
    if (!trimmed.empty()) {
      out.lines.push_back(ContextLine{trimmed, kNoParent, line_number});
    }
  });
  return out;
}

// Synthesizes one line per scalar leaf, `key value`, under the object keys on
// its path. The texts go into out->storage, which moves while it grows, so the
// walk records offsets and Finish turns them into views.
class JsonEmbedder {
 public:
  explicit JsonEmbedder(EmbeddedFile* out) : out_(out) {}

  void Walk(const JsonValue& value, std::string_view key, int parent) {
    switch (value.kind()) {
      case JsonValue::Kind::kObject: {
        // Empty keys, the root's among them, are not parents.
        int inner = parent;
        if (!key.empty()) {
          inner = static_cast<int>(out_->parents.size());
          parent_spans_.push_back(Append({key}));
          out_->parents.push_back(ContextParent{{}, parent});
        }
        for (const auto& [k, v] : value.members()) {
          Walk(v, k, inner);
        }
        break;
      }
      case JsonValue::Kind::kArray:
        for (const JsonValue& item : value.items()) {
          Walk(item, key, parent);
        }
        break;
      default:
        line_spans_.push_back(key.empty() ? Append({ScalarText(value)})
                                          : Append({key, " ", ScalarText(value)}));
        out_->lines.push_back(
            ContextLine{{}, parent, static_cast<int>(out_->lines.size()) + 1});
    }
  }

  void Finish() {
    const std::string_view storage(out_->storage.data(), out_->storage.size());
    for (size_t i = 0; i < line_spans_.size(); ++i) {
      out_->lines[i].text = storage.substr(line_spans_[i].offset, line_spans_[i].size);
    }
    for (size_t i = 0; i < parent_spans_.size(); ++i) {
      out_->parents[i].text =
          storage.substr(parent_spans_[i].offset, parent_spans_[i].size);
    }
  }

 private:
  struct Span {
    size_t offset;
    size_t size;
  };

  static std::string_view ScalarText(const JsonValue& v) {
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

  // Appends the pieces back to back; returns where they went.
  Span Append(std::initializer_list<std::string_view> pieces) {
    std::vector<char>& storage = out_->storage;
    const size_t offset = storage.size();
    for (std::string_view piece : pieces) {
      storage.insert(storage.end(), piece.begin(), piece.end());
    }
    return Span{offset, storage.size() - offset};
  }

  EmbeddedFile* out_;
  std::vector<Span> line_spans_;
  std::vector<Span> parent_spans_;
};

EmbeddedFile EmbedJson(const JsonValue& doc) {
  EmbeddedFile out;
  out.format = FormatCategory::kJson;
  JsonEmbedder embedder(&out);
  embedder.Walk(doc, "", kNoParent);
  embedder.Finish();
  return out;
}

// The document when `text` is JSON as DetectFormat classifies it.
std::optional<JsonValue> ParseJsonDocument(std::string_view text) {
  std::string_view trimmed = Trim(text);
  if (trimmed.empty() || (trimmed[0] != '{' && trimmed[0] != '[')) {
    return std::nullopt;
  }
  return JsonValue::Parse(text);
}

}  // namespace

std::vector<std::string_view> EmbeddedFile::ParentTexts(const ContextLine& line) const {
  std::vector<std::string_view> texts;
  for (int p = line.parent; p != kNoParent; p = parents[static_cast<size_t>(p)].parent) {
    texts.push_back(parents[static_cast<size_t>(p)].text);
  }
  std::reverse(texts.begin(), texts.end());
  return texts;
}

FormatCategory DetectFormat(std::string_view text) {
  if (ParseJsonDocument(text).has_value()) {
    return FormatCategory::kJson;
  }
  LineShape shape;
  ForEachLine(text, [&shape](std::string_view raw, int) { shape.Add(raw, Trim(raw)); });
  return shape.Category();
}

EmbeddedFile EmbedText(std::string_view text) {
  if (std::optional<JsonValue> doc = ParseJsonDocument(text)) {
    return EmbedJson(*doc);
  }
  // Embed by indentation while classifying. Flat and unknown text has no
  // indented line, so no line got a parent: it is already the flat embedding.
  LineShape shape;
  EmbeddedFile out = EmbedIndent(text, /*yaml=*/false, &shape);
  switch (shape.Category()) {
    case FormatCategory::kYaml:
      return EmbedIndent(text, /*yaml=*/true, nullptr);
    case FormatCategory::kIndent:
      return out;
    default:
      out.format = FormatCategory::kFlat;
      return out;
  }
}

EmbeddedFile EmbedTextAs(std::string_view text, FormatCategory format) {
  switch (format) {
    case FormatCategory::kJson: {
      auto doc = JsonValue::Parse(text);
      if (doc.has_value()) {
        return EmbedJson(*doc);
      }
      return EmbedFlat(text);  // Fall back for unparsable input.
    }
    case FormatCategory::kYaml:
      return EmbedIndent(text, /*yaml=*/true, nullptr);
    case FormatCategory::kIndent:
      return EmbedIndent(text, /*yaml=*/false, nullptr);
    case FormatCategory::kFlat:
    case FormatCategory::kUnknown:
      return EmbedFlat(text);
  }
  return EmbedFlat(text);
}

}  // namespace concord
