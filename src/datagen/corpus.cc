#include "src/datagen/corpus.h"

#include <stdexcept>

#include "src/util/io.h"

namespace concord {

size_t GeneratedCorpus::TotalLines() const {
  size_t total = 0;
  for (const GeneratedConfig& config : configs) {
    total += SplitLines(config.text).size();
  }
  return total;
}

Dataset ParseCorpus(const GeneratedCorpus& corpus, ParseOptions options, const Lexer* lexer) {
  static const Lexer kDefaultLexer;
  const Lexer& used = lexer != nullptr ? *lexer : kDefaultLexer;
  Dataset dataset;
  std::vector<ConfigSource> files;
  files.reserve(corpus.configs.size());
  for (const GeneratedConfig& config : corpus.configs) {
    files.push_back(ConfigSource{&config.name, &config.text});
  }
  std::vector<ParseFailure> failures =
      ParseConfigs(used, options, files, /*parallelism=*/0, &dataset);
  if (!failures.empty()) {
    throw std::runtime_error(failures.front().reason);
  }
  ConfigParser parser(&used, &dataset.patterns, options);
  for (const GeneratedConfig& meta : corpus.metadata) {
    for (ParsedLine& line : parser.ParseMetadata(meta.text)) {
      dataset.metadata.push_back(std::move(line));
    }
  }
  return dataset;
}

}  // namespace concord
