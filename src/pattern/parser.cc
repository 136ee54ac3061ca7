#include "src/pattern/parser.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <thread>

#include "src/util/fault.h"
#include "src/util/thread_pool.h"

namespace concord {

size_t Dataset::TotalLines() const {
  size_t total = 0;
  for (const ParsedConfig& config : configs) {
    total += config.lines.size();
  }
  return total;
}

size_t Dataset::TotalParameters() const {
  size_t total = 0;
  for (size_t id = 0; id < patterns.size(); ++id) {
    const PatternInfo& info = patterns.Get(static_cast<PatternId>(id));
    if (!info.is_constant) {
      total += info.param_types.size();
    }
  }
  return total;
}

ConfigParser::ConfigParser(const Lexer* lexer, PatternTable* table, ParseOptions options)
    : lexer_(lexer), table_(table), options_(options) {}

std::string_view ConfigParser::ParentPattern(std::string_view raw) {
  auto it = parent_cache_.find(raw);
  if (it != parent_cache_.end()) {
    return it->second;
  }
  lexer_->Lex(raw, &lex_);
  return parent_cache_.emplace(std::string(raw), lex_.pattern_unnamed).first->second;
}

ParsedConfig ConfigParser::ParseEmbedded(const std::string& name, const EmbeddedFile& embedded,
                                         std::string_view context_root) {
  ParsedConfig config;
  config.name = name;
  config.format = embedded.format;
  config.lines.reserve(embedded.lines.size());

  // Context prefixes, once per parent: the parent's own parent's prefix, then
  // its unnamed pattern and '/'. A parent's parent comes before it, so its
  // prefix is always built first.
  root_context_.assign(context_root);
  root_context_ += '/';
  if (parent_contexts_.size() < embedded.parents.size()) {
    parent_contexts_.resize(embedded.parents.size());
  }
  auto context_of = [this](int parent) -> const std::string& {
    return parent == kNoParent ? root_context_
                               : parent_contexts_[static_cast<size_t>(parent)];
  };
  for (size_t i = 0; i < embedded.parents.size(); ++i) {
    const ContextParent& parent = embedded.parents[i];
    std::string& context = parent_contexts_[i];
    context.assign(context_of(parent.parent));
    context += ParentPattern(parent.text);
    context += '/';
  }

  for (const ContextLine& line : embedded.lines) {
    const std::string& context = context_of(line.parent);

    lexer_->Lex(line.text, &lex_);
    ParsedLine parsed;
    parsed.line_number = line.line_number;

    // Probe with a reused scratch buffer first: patterns repeat heavily, so the
    // common case is a hit that materializes none of the three concatenations.
    scratch_.assign(context);
    scratch_ += lex_.pattern_named;
    parsed.pattern = table_->Find(scratch_);
    if (parsed.pattern == kInvalidPattern) {
      std::vector<ValueType> types;
      types.reserve(lex_.values.size());
      for (const Value& v : lex_.values) {
        types.push_back(v.type());
      }
      parsed.pattern = table_->Intern(scratch_, context + lex_.untyped,
                                      context + lex_.pattern_unnamed, std::move(types));
    }

    if (options_.constants) {
      // Exact-line pattern: context plus the raw text, no parameters.
      scratch_.assign("=");
      scratch_ += context;
      scratch_ += line.text;
      parsed.const_pattern = table_->Find(scratch_);
      if (parsed.const_pattern == kInvalidPattern) {
        std::string const_text(scratch_);
        parsed.const_pattern =
            table_->Intern(const_text, const_text, const_text, {}, /*is_constant=*/true);
      }
    }
    // Exactly sized, so a line with values makes one allocation and one without none.
    parsed.values.assign(std::make_move_iterator(lex_.values.begin()),
                         std::make_move_iterator(lex_.values.end()));
    config.lines.push_back(std::move(parsed));
  }
  return config;
}

ParsedConfig ConfigParser::Parse(const std::string& name, const std::string& text) {
  if (FaultPoint("parse")) {
    throw std::runtime_error(FaultMessage("parse") + ": " + name);
  }
  EmbeddedFile embedded = options_.embed_context
                              ? EmbedText(text)
                              : EmbedTextAs(text, FormatCategory::kFlat);
  return ParseEmbedded(name, embedded, "");
}

std::vector<ParsedLine> ConfigParser::ParseMetadata(const std::string& text) {
  EmbeddedFile embedded = options_.embed_context
                              ? EmbedText(text)
                              : EmbedTextAs(text, FormatCategory::kFlat);
  ParsedConfig config = ParseEmbedded("@meta", embedded, "@meta");
  return std::move(config.lines);
}

namespace {

// One thread per core, built on first use and kept for the life of the
// process: a pool per call would start fresh threads, and with them fresh
// malloc arenas, every time.
ThreadPool& ParsePool() {
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

}  // namespace

std::vector<ParseFailure> ParseConfigs(const Lexer& lexer, ParseOptions options,
                                       const std::vector<ConfigSource>& files,
                                       int parallelism, Dataset* dataset,
                                       const Deadline& deadline) {
  const size_t requested =
      parallelism > 0 ? static_cast<size_t>(parallelism)
                      : std::max(1u, std::thread::hardware_concurrency());
  const size_t blocks = std::min(requested, files.size());
  if (blocks == 0) {
    return {};
  }
  // Block b is the b-th of `blocks` contiguous runs of files. Every call gives
  // each block the same share, so each pool thread's malloc arena settles at
  // one size instead of growing to the largest share it ever drew. Block 0
  // comes first in input order, so it parses straight into the shared table
  // and its ids are already the serial ids; the others use private tables.
  auto block_begin = [&](size_t b) { return files.size() * b / blocks; };
  std::vector<PatternTable> local(blocks - 1);
  std::vector<ParsedConfig> parsed(files.size());
  std::vector<std::optional<std::string>> errors(files.size());
  auto parse_block = [&](size_t b) {
    ConfigParser parser(&lexer, b == 0 ? &dataset->patterns : &local[b - 1], options);
    for (size_t i = block_begin(b); i < block_begin(b + 1); ++i) {
      ThrowIfExpired(deadline);
      try {
        parsed[i] = parser.Parse(*files[i].name, *files[i].text);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    }
  };
  if (blocks == 1) {
    parse_block(0);
  } else {
    ParsePool().ParallelFor(blocks, parse_block);
  }

  // Merge blocks 1.. in input order: each private id is interned into the
  // shared table on first use, through its block's local-id -> shared-id remap.
  std::vector<ParseFailure> failures;
  std::vector<PatternId> remap;
  auto to_shared = [&](const PatternTable& table, PatternId* id) {
    if (*id == kInvalidPattern) {
      return;
    }
    PatternId& mapped = remap[*id];
    if (mapped == kInvalidPattern) {
      const PatternInfo& info = table.Get(*id);
      mapped = dataset->patterns.Find(info.text);
      if (mapped == kInvalidPattern) {
        mapped = dataset->patterns.Intern(info.text, info.untyped, info.unnamed,
                                          info.param_types, info.is_constant);
      }
    }
    *id = mapped;
  };
  dataset->configs.reserve(dataset->configs.size() + files.size());
  for (size_t b = 0; b < blocks; ++b) {
    if (b > 0) {
      remap.assign(local[b - 1].size(), kInvalidPattern);
    }
    for (size_t i = block_begin(b); i < block_begin(b + 1); ++i) {
      if (errors[i]) {
        failures.push_back(ParseFailure{i, std::move(*errors[i])});
        continue;
      }
      if (b > 0) {
        for (ParsedLine& line : parsed[i].lines) {
          to_shared(local[b - 1], &line.pattern);
          to_shared(local[b - 1], &line.const_pattern);
        }
      }
      dataset->configs.push_back(std::move(parsed[i]));
    }
  }
  return failures;
}

std::string FirstParseDifference(const Dataset& want, const Dataset& got) {
  if (want.patterns.size() != got.patterns.size()) {
    return "pattern count " + std::to_string(want.patterns.size()) + " vs " +
           std::to_string(got.patterns.size());
  }
  for (PatternId id = 0; id < want.patterns.size(); ++id) {
    const PatternInfo& a = want.patterns.Get(id);
    const PatternInfo& b = got.patterns.Get(id);
    if (a.text != b.text || a.untyped != b.untyped || a.unnamed != b.unnamed ||
        a.param_types != b.param_types || a.is_constant != b.is_constant) {
      return "pattern " + std::to_string(id) + ": " + a.text + " vs " + b.text;
    }
  }
  if (want.configs.size() != got.configs.size()) {
    return "config count " + std::to_string(want.configs.size()) + " vs " +
           std::to_string(got.configs.size());
  }
  for (size_t c = 0; c < want.configs.size(); ++c) {
    const ParsedConfig& a = want.configs[c];
    const ParsedConfig& b = got.configs[c];
    if (a.name != b.name || a.format != b.format || a.lines.size() != b.lines.size()) {
      return "config " + a.name + " vs " + b.name;
    }
    for (size_t l = 0; l < a.lines.size(); ++l) {
      const ParsedLine& x = a.lines[l];
      const ParsedLine& y = b.lines[l];
      if (x.pattern != y.pattern || x.const_pattern != y.const_pattern ||
          x.values != y.values || x.line_number != y.line_number) {
        return a.name + " line " + std::to_string(l);
      }
    }
  }
  return "";
}

}  // namespace concord
