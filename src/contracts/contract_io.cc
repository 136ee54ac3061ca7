#include "src/contracts/contract_io.h"

#include <charconv>

#include "src/format/json.h"
#include "src/util/strings.h"

namespace concord {

namespace {

std::optional<ValueType> ValueTypeFromName(std::string_view name) {
  for (ValueType t : {ValueType::kNum, ValueType::kHex, ValueType::kBool, ValueType::kMac,
                      ValueType::kIp4, ValueType::kPfx4, ValueType::kIp6, ValueType::kPfx6,
                      ValueType::kStr}) {
    if (ValueTypeName(t) == name) {
      return t;
    }
  }
  return std::nullopt;
}

std::optional<ContractKind> ContractKindFromName(std::string_view name) {
  for (ContractKind k :
       {ContractKind::kPresent, ContractKind::kOrdering, ContractKind::kType,
        ContractKind::kSequence, ContractKind::kUnique, ContractKind::kRelational}) {
    if (ContractKindName(k) == name) {
      return k;
    }
  }
  return std::nullopt;
}

std::optional<RelationKind> RelationKindFromName(std::string_view name) {
  for (RelationKind r :
       {RelationKind::kEquals, RelationKind::kContains, RelationKind::kStartsWith,
        RelationKind::kPrefixOf, RelationKind::kEndsWith, RelationKind::kSuffixOf}) {
    if (RelationKindName(r) == name) {
      return r;
    }
  }
  return std::nullopt;
}

}  // namespace

PatternId InternPatternText(PatternTable* table, const std::string& text) {
  PatternId existing = table->Find(text);
  if (existing != kInvalidPattern) {
    return existing;
  }
  bool is_constant = !text.empty() && text[0] == '=';
  std::vector<ValueType> types;
  std::string untyped;
  std::string unnamed;
  untyped.reserve(text.size());
  unnamed.reserve(text.size());
  size_t i = 0;
  while (i < text.size()) {
    // A named hole looks like "[a:num]" / "[p26:iface]" — name, colon, token name.
    if (!is_constant && text[i] == '[') {
      size_t close = text.find(']', i);
      size_t colon = text.find(':', i);
      if (close != std::string::npos && colon != std::string::npos && colon < close) {
        std::string_view name(text.data() + i + 1, colon - i - 1);
        std::string_view type_name(text.data() + colon + 1, close - colon - 1);
        bool name_ok = !name.empty() && name == PatternTable::ParamName(types.size());
        bool type_ok = !type_name.empty() &&
                       type_name.find_first_of(" []") == std::string_view::npos;
        if (name_ok && type_ok) {
          auto vt = ValueTypeFromName(type_name);
          types.push_back(vt.value_or(ValueType::kStr));  // Custom tokens store kStr.
          untyped += "[";
          untyped += name;
          untyped += ":?]";
          unnamed += "[";
          unnamed += type_name;
          unnamed += "]";
          i = close + 1;
          continue;
        }
      }
    }
    untyped.push_back(text[i]);
    unnamed.push_back(text[i]);
    ++i;
  }
  if (is_constant) {
    untyped = text;
    unnamed = text;
  }
  return table->Intern(text, std::move(untyped), std::move(unnamed), std::move(types),
                       is_constant);
}

std::string SerializeContracts(const ContractSet& set, const PatternTable& table) {
  JsonValue root = JsonValue::Object();
  root.Set("version", JsonValue::Number(int64_t{1}));
  root.Set("constantsMode", JsonValue::Bool(set.constants_mode));
  root.Set("embedContext", JsonValue::Bool(set.embed_context));
  if (set.lexer_key != 0) {
    // A decimal string: a JSON number round-trips through double.
    root.Set("lexerKey", JsonValue::String(std::to_string(set.lexer_key)));
  }
  JsonValue contracts = JsonValue::Array();
  for (const Contract& c : set.contracts) {
    JsonValue item = JsonValue::Object();
    item.Set("kind", JsonValue::String(std::string(ContractKindName(c.kind))));
    switch (c.kind) {
      case ContractKind::kPresent:
        item.Set("pattern", JsonValue::String(table.Get(c.pattern).text));
        break;
      case ContractKind::kOrdering:
        item.Set("pattern", JsonValue::String(table.Get(c.pattern).text));
        item.Set("pattern2", JsonValue::String(table.Get(c.pattern2).text));
        item.Set("successor", JsonValue::Bool(c.successor));
        break;
      case ContractKind::kType:
        item.Set("untyped", JsonValue::String(c.untyped_pattern));
        item.Set("param", JsonValue::Number(int64_t{c.param}));
        item.Set("invalidType", JsonValue::String(std::string(ValueTypeName(c.invalid_type))));
        break;
      case ContractKind::kSequence:
      case ContractKind::kUnique:
        item.Set("pattern", JsonValue::String(table.Get(c.pattern).text));
        item.Set("param", JsonValue::Number(int64_t{c.param}));
        break;
      case ContractKind::kRelational:
        item.Set("pattern", JsonValue::String(table.Get(c.pattern).text));
        item.Set("param", JsonValue::Number(int64_t{c.param}));
        item.Set("transform1", JsonValue::String(c.transform1.Name()));
        item.Set("relation", JsonValue::String(std::string(RelationKindName(c.relation))));
        item.Set("pattern2", JsonValue::String(table.Get(c.pattern2).text));
        item.Set("param2", JsonValue::Number(int64_t{c.param2}));
        item.Set("transform2", JsonValue::String(c.transform2.Name()));
        item.Set("score", JsonValue::Number(c.score));
        break;
    }
    item.Set("support", JsonValue::Number(int64_t{c.support}));
    item.Set("confidence", JsonValue::Number(c.confidence));
    contracts.Append(std::move(item));
  }
  root.Set("contracts", std::move(contracts));
  return root.Serialize(2);
}

std::optional<ContractSet> ParseContracts(const std::string& json, PatternTable* table,
                                          std::string* error) {
  auto fail = [error](const std::string& message) -> std::optional<ContractSet> {
    if (error != nullptr) {
      *error = message;
    }
    return std::nullopt;
  };
  std::string parse_error;
  auto root = JsonValue::Parse(json, &parse_error);
  if (!root) {
    return fail("invalid JSON: " + parse_error);
  }
  if (!root->is_object()) {
    return fail("contract file must be a JSON object");
  }
  ContractSet set;
  set.constants_mode = root->GetBool("constantsMode").value_or(false);
  set.embed_context = root->GetBool("embedContext").value_or(true);
  if (const JsonValue* lexer = root->Find("lexerKey")) {
    std::string_view text = lexer->is_string() ? std::string_view(lexer->AsString()) : "";
    auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), set.lexer_key);
    if (text.empty() || ec != std::errc() || end != text.data() + text.size()) {
      return fail("'lexerKey' must be a decimal string");
    }
  }
  const JsonValue* contracts = root->Find("contracts");
  if (contracts == nullptr || !contracts->is_array()) {
    return fail("missing 'contracts' array");
  }
  for (const JsonValue& item : contracts->items()) {
    if (!item.is_object()) {
      return fail("contract entries must be objects");
    }
    auto kind_name = item.GetString("kind");
    if (!kind_name) {
      return fail("contract missing 'kind'");
    }
    auto kind = ContractKindFromName(*kind_name);
    if (!kind) {
      return fail("unknown contract kind: " + *kind_name);
    }
    Contract c;
    c.kind = *kind;
    c.support = static_cast<int>(item.GetInt("support").value_or(0));
    c.confidence = item.GetDouble("confidence").value_or(1.0);

    auto require_pattern = [&](std::string_view key, PatternId* out) -> bool {
      auto text = item.GetString(key);
      if (!text) {
        return false;
      }
      *out = InternPatternText(table, *text);
      return true;
    };

    switch (c.kind) {
      case ContractKind::kPresent:
        if (!require_pattern("pattern", &c.pattern)) {
          return fail("present contract missing 'pattern'");
        }
        break;
      case ContractKind::kOrdering:
        if (!require_pattern("pattern", &c.pattern) ||
            !require_pattern("pattern2", &c.pattern2)) {
          return fail("ordering contract missing patterns");
        }
        c.successor = item.GetBool("successor").value_or(true);
        break;
      case ContractKind::kType: {
        auto untyped = item.GetString("untyped");
        auto type_name = item.GetString("invalidType");
        if (!untyped || !type_name) {
          return fail("type contract missing fields");
        }
        auto vt = ValueTypeFromName(*type_name);
        if (!vt) {
          return fail("unknown value type: " + *type_name);
        }
        c.untyped_pattern = *untyped;
        c.invalid_type = *vt;
        c.param = static_cast<uint16_t>(item.GetInt("param").value_or(0));
        break;
      }
      case ContractKind::kSequence:
      case ContractKind::kUnique:
        if (!require_pattern("pattern", &c.pattern)) {
          return fail("contract missing 'pattern'");
        }
        c.param = static_cast<uint16_t>(item.GetInt("param").value_or(0));
        break;
      case ContractKind::kRelational: {
        if (!require_pattern("pattern", &c.pattern) ||
            !require_pattern("pattern2", &c.pattern2)) {
          return fail("relational contract missing patterns");
        }
        c.param = static_cast<uint16_t>(item.GetInt("param").value_or(0));
        c.param2 = static_cast<uint16_t>(item.GetInt("param2").value_or(0));
        auto t1 = Transform::FromName(item.GetString("transform1").value_or("id"));
        auto t2 = Transform::FromName(item.GetString("transform2").value_or("id"));
        auto rel = RelationKindFromName(item.GetString("relation").value_or(""));
        if (!t1 || !t2 || !rel) {
          return fail("relational contract has invalid transform/relation");
        }
        c.transform1 = *t1;
        c.transform2 = *t2;
        c.relation = *rel;
        c.score = item.GetDouble("score").value_or(0.0);
        break;
      }
    }
    set.contracts.push_back(std::move(c));
  }
  return set;
}

}  // namespace concord
