#include "src/contracts/contract.h"

#include <charconv>
#include <sstream>

namespace concord {

std::string_view ContractKindName(ContractKind kind) {
  switch (kind) {
    case ContractKind::kPresent:
      return "present";
    case ContractKind::kOrdering:
      return "ordering";
    case ContractKind::kType:
      return "type";
    case ContractKind::kSequence:
      return "sequence";
    case ContractKind::kUnique:
      return "unique";
    case ContractKind::kRelational:
      return "relational";
  }
  return "present";
}

std::string_view RelationKindName(RelationKind kind) {
  switch (kind) {
    case RelationKind::kEquals:
      return "equals";
    case RelationKind::kContains:
      return "contains";
    case RelationKind::kStartsWith:
      return "startswith";
    case RelationKind::kPrefixOf:
      return "prefixof";
    case RelationKind::kEndsWith:
      return "endswith";
    case RelationKind::kSuffixOf:
      return "suffixof";
  }
  return "equals";
}

bool IsTransitiveRelation(RelationKind kind) {
  switch (kind) {
    case RelationKind::kEquals:
    case RelationKind::kStartsWith:
    case RelationKind::kPrefixOf:
    case RelationKind::kEndsWith:
    case RelationKind::kSuffixOf:
      return true;
    case RelationKind::kContains:
      // Containment is transitive as a set relation, but instances relate values of
      // different kinds (address vs prefix), so chains rarely compose; the paper's
      // minimization targets equality and affixes.
      return false;
  }
  return false;
}

namespace {

void AppendParam(uint16_t param, std::string* out) {
  char digits[8];
  auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), param);
  (void)ec;  // A uint16_t always fits.
  out->append(digits, end);
}

}  // namespace

std::string Contract::Key(const PatternTable& table) const {
  // Rendered into one string sized up front: the learner sorts by this key and
  // serve diffs sets by it, once per contract per update.
  const bool paired = kind == ContractKind::kOrdering || kind == ContractKind::kRelational;
  std::string out;
  out.reserve(64 +
              (kind == ContractKind::kType ? untyped_pattern.size()
                                           : table.Get(pattern).text.size()) +
              (paired ? table.Get(pattern2).text.size() : 0));
  out += ContractKindName(kind);
  out += '|';
  switch (kind) {
    case ContractKind::kPresent:
      out += table.Get(pattern).text;
      break;
    case ContractKind::kOrdering:
      out += table.Get(pattern).text;
      out += '|';
      out += table.Get(pattern2).text;
      out += successor ? "|succ" : "|pred";
      break;
    case ContractKind::kType:
      out += untyped_pattern;
      out += '|';
      AppendParam(param, &out);
      out += '|';
      out += ValueTypeName(invalid_type);
      break;
    case ContractKind::kSequence:
    case ContractKind::kUnique:
      out += table.Get(pattern).text;
      out += '|';
      AppendParam(param, &out);
      break;
    case ContractKind::kRelational:
      out += table.Get(pattern).text;
      out += '|';
      AppendParam(param, &out);
      out += '|';
      out += transform1.Name();
      out += '|';
      out += RelationKindName(relation);
      out += '|';
      out += table.Get(pattern2).text;
      out += '|';
      AppendParam(param2, &out);
      out += '|';
      out += transform2.Name();
      break;
  }
  return out;
}

namespace {

std::string ParamExpr(const Transform& t, std::string_view line, uint16_t param) {
  std::string name = PatternTable::ParamName(param);
  if (t == IdTransform()) {
    return std::string(line) + "." + name;
  }
  return t.Name() + "(" + std::string(line) + "." + name + ")";
}

}  // namespace

std::string Contract::ToString(const PatternTable& table) const {
  std::ostringstream out;
  switch (kind) {
    case ContractKind::kPresent:
      out << "exists l ~ " << table.Get(pattern).text;
      break;
    case ContractKind::kOrdering:
      out << "forall l1 ~ " << table.Get(pattern).text << "\n"
          << "exists l2 ~ " << table.Get(pattern2).text << "\n"
          << "equals(index(l1) " << (successor ? "+ 1" : "- 1") << ", index(l2))";
      break;
    case ContractKind::kType:
      out << "!(exists l ~ " << untyped_pattern << " with " << PatternTable::ParamName(param)
          << " : [" << ValueTypeName(invalid_type) << "])";
      break;
    case ContractKind::kSequence:
      out << "sequence(" << table.Get(pattern).text << "." << PatternTable::ParamName(param)
          << ")";
      break;
    case ContractKind::kUnique:
      out << "unique(" << table.Get(pattern).text << "." << PatternTable::ParamName(param)
          << ")";
      break;
    case ContractKind::kRelational:
      out << "forall l1 ~ " << table.Get(pattern).text << "\n"
          << "exists l2 ~ " << table.Get(pattern2).text << "\n"
          << RelationKindName(relation) << "(" << ParamExpr(transform1, "l1", param) << ", "
          << ParamExpr(transform2, "l2", param2) << ")";
      break;
  }
  return out.str();
}

size_t ContractSet::CountKind(ContractKind kind) const {
  size_t count = 0;
  for (const Contract& c : contracts) {
    if (c.kind == kind) {
      ++count;
    }
  }
  return count;
}

}  // namespace concord
