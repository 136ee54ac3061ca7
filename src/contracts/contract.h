// The contract model (§3.4, Table 2).
//
// A contract is a lightweight, locally-checkable rule over a configuration's pattern
// stream. Concord learns six categories:
//
//   Present    — `exists l ~ p`: the pattern must appear.
//   Ordering   — every line matching p1 is immediately followed (or preceded) by a
//                line matching p2.
//   Type       — `!(exists l ~ u with type T at param i)`: a mistyped value.
//   Sequence   — the values of a numeric parameter are equidistant (10, 20, 30, ...).
//   Unique     — a parameter's values are globally unique across all configurations.
//   Relational — `forall l1 ~ p1, exists l2 ~ p2 such that R(t1(l1.x), t2(l2.y))`.
//
// Contracts reference interned PatternIds in memory; (de)serialization goes through
// pattern text (src/contracts/contract_io.h) so a contract file is self-contained.
#ifndef SRC_CONTRACTS_CONTRACT_H_
#define SRC_CONTRACTS_CONTRACT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/pattern/pattern_table.h"
#include "src/relations/transform.h"
#include "src/value/value.h"

namespace concord {

enum class ContractKind : uint8_t {
  kPresent,
  kOrdering,
  kType,
  kSequence,
  kUnique,
  kRelational,
};

std::string_view ContractKindName(ContractKind kind);

// Relation R(x1, x2) between the transformed forall-side key x1 = t1(l1.x) and
// exists-side key x2 = t2(l2.y).
enum class RelationKind : uint8_t {
  kEquals,      // x1 == x2.
  kContains,    // x2 (a prefix) contains x1 (an address or narrower prefix).
  kStartsWith,  // x1 starts with x2 (x2 is a proper prefix of x1).
  kPrefixOf,    // x1 is a proper prefix of x2.
  kEndsWith,    // x1 ends with x2 (x2 is a proper suffix of x1).
  kSuffixOf,    // x1 is a proper suffix of x2 (Figure 1 contract 3).
};

std::string_view RelationKindName(RelationKind kind);

// True for relations whose composition is again the same relation; only these take
// part in contract minimization (§3.6).
bool IsTransitiveRelation(RelationKind kind);

struct Contract {
  ContractKind kind = ContractKind::kPresent;

  // Subject (forall side for ordering/relational).
  PatternId pattern = kInvalidPattern;
  uint16_t param = 0;  // Parameter index for type/sequence/unique/relational.

  // Ordering / relational partner.
  PatternId pattern2 = kInvalidPattern;
  uint16_t param2 = 0;
  bool successor = true;  // Ordering: p2 follows p1 (true) or precedes it (false).

  // Relational extras.
  Transform transform1;
  Transform transform2;
  RelationKind relation = RelationKind::kEquals;

  // Type contract: the disallowed type for (untyped_pattern, param).
  std::string untyped_pattern;
  ValueType invalid_type = ValueType::kStr;

  // Learning statistics.
  int support = 0;          // #configs in which the subject pattern appears.
  double confidence = 1.0;  // Fraction of those configs where the contract holds.
  double score = 0.0;       // Cumulative informativeness (relational only).

  // Stable identity for dedup/reporting (ignores the statistics).
  std::string Key(const PatternTable& table) const;

  // Paper-style rendering, e.g.
  //   forall l1 ~ /vlan [a:num]
  //   exists l2 ~ /rd [a:ip4]:[b:num]
  //   suffixof(id(l1.a), id(l2.b))
  std::string ToString(const PatternTable& table) const;
};

// A learned contract set plus the learning configuration it was produced with
// (checking must re-parse test configs with the same lexer/constants settings).
struct ContractSet {
  std::vector<Contract> contracts;
  bool constants_mode = false;
  bool embed_context = true;
  // Lexer::DefinitionsKey of the lexer the set was learned with; 0 = built-in.
  uint64_t lexer_key = 0;

  size_t CountKind(ContractKind kind) const;
};

}  // namespace concord

#endif  // SRC_CONTRACTS_CONTRACT_H_
