#include "src/util/argparse.h"

#include <sstream>

#include "src/util/strings.h"

namespace concord {

void ArgParser::AddFlag(const std::string& name, const std::string& help,
                        std::optional<std::string> default_value) {
  specs_[name] = FlagSpec{help, /*is_bool=*/false, std::move(default_value)};
}

void ArgParser::AddBoolFlag(const std::string& name, const std::string& help) {
  specs_[name] = FlagSpec{help, /*is_bool=*/true, std::nullopt};
}

bool ArgParser::Parse(int argc, const char* const* argv, int start) {
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = specs_.find(name);
    if (it == specs_.end()) {
      error_ = "unknown flag: --" + name;
      return false;
    }
    if (it->second.is_bool) {
      if (has_value) {
        error_ = "boolean flag --" + name + " does not take a value";
        return false;
      }
      values_[name].push_back("true");
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        error_ = "flag --" + name + " requires a value";
        return false;
      }
      value = argv[++i];
    }
    values_[name].push_back(value);
  }
  return true;
}

bool ArgParser::Has(const std::string& name) const { return values_.count(name) > 0; }

std::string ArgParser::Get(const std::string& name) const {
  auto it = values_.find(name);
  if (it != values_.end() && !it->second.empty()) {
    return it->second.back();
  }
  auto spec = specs_.find(name);
  if (spec != specs_.end() && spec->second.default_value) {
    return *spec->second.default_value;
  }
  return "";
}

std::vector<std::string> ArgParser::GetAll(const std::string& name) const {
  auto it = values_.find(name);
  if (it != values_.end()) {
    return it->second;
  }
  auto spec = specs_.find(name);
  if (spec != specs_.end() && spec->second.default_value) {
    return {*spec->second.default_value};
  }
  return {};
}

bool ArgParser::GetBool(const std::string& name) const { return Has(name); }

std::optional<double> ArgParser::GetDouble(const std::string& name) const {
  std::string v = Get(name);
  if (v.empty()) {
    return std::nullopt;
  }
  try {
    size_t used = 0;
    double d = std::stod(v, &used);
    if (used != v.size()) {
      return std::nullopt;
    }
    return d;
  } catch (...) {
    return std::nullopt;
  }
}

std::optional<int64_t> ArgParser::GetInt(const std::string& name) const {
  return ParseInt64(Get(name));
}

std::string ArgParser::Usage() const {
  std::ostringstream out;
  for (const auto& [name, spec] : specs_) {
    out << "  --" << name;
    if (!spec.is_bool) {
      out << " <value>";
    }
    if (spec.default_value) {
      out << " (default: " << *spec.default_value << ")";
    }
    out << "\n      " << spec.help << "\n";
  }
  return out.str();
}

}  // namespace concord
