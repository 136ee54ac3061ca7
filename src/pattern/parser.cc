#include "src/pattern/parser.h"

#include <algorithm>
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

const std::string& ConfigParser::ParentPattern(const std::string& raw) {
  auto it = parent_cache_.find(raw);
  if (it != parent_cache_.end()) {
    return it->second;
  }
  LineLex lex = lexer_->Lex(raw);
  return parent_cache_.emplace(raw, std::move(lex.pattern_unnamed)).first->second;
}

ParsedConfig ConfigParser::ParseEmbedded(const std::string& name, const EmbeddedFile& embedded,
                                         const std::string& context_root) {
  ParsedConfig config;
  config.name = name;
  config.format = embedded.format;
  config.lines.reserve(embedded.lines.size());

  for (const ContextLine& line : embedded.lines) {
    // Context prefix from the (unnamed) parent patterns.
    std::string context = context_root;
    for (const std::string& parent : line.parents) {
      context += "/";
      context += ParentPattern(parent);
    }
    context += "/";

    LineLex lex = lexer_->Lex(line.text);
    ParsedLine parsed;
    parsed.line_number = line.line_number;
    parsed.values = std::move(lex.values);

    // Probe with a reused scratch buffer first: patterns repeat heavily, so the
    // common case is a hit that materializes none of the three concatenations.
    scratch_.assign(context);
    scratch_ += lex.pattern_named;
    parsed.pattern = table_->Find(scratch_);
    if (parsed.pattern == kInvalidPattern) {
      std::vector<ValueType> types;
      types.reserve(parsed.values.size());
      for (const Value& v : parsed.values) {
        types.push_back(v.type());
      }
      parsed.pattern = table_->Intern(scratch_, context + lex.untyped,
                                      context + lex.pattern_unnamed, std::move(types));
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

}  // namespace concord
