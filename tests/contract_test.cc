#include "src/contracts/contract.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/contracts/contract_io.h"
#include "src/pattern/lexer.h"
#include "src/pattern/parser.h"

namespace concord {
namespace {

PatternId Intern(PatternTable* table, const std::string& text) {
  return InternPatternText(table, text);
}

TEST(Contract, PresentToString) {
  PatternTable table;
  Contract c;
  c.kind = ContractKind::kPresent;
  c.pattern = Intern(&table, "/ip prefix-list loopback");
  EXPECT_EQ(c.ToString(table), "exists l ~ /ip prefix-list loopback");
}

TEST(Contract, RelationalToStringMatchesPaperStyle) {
  PatternTable table;
  Contract c;
  c.kind = ContractKind::kRelational;
  c.pattern = Intern(&table, "/interface Port-Channel[a:num]");
  c.param = 0;
  c.transform1 = Transform{TransformKind::kHex, 0};
  c.relation = RelationKind::kEquals;
  c.pattern2 = Intern(&table, "/route-target import [a:mac]");
  c.param2 = 0;
  c.transform2 = Transform{TransformKind::kMacSegment, 6};
  std::string text = c.ToString(table);
  EXPECT_NE(text.find("forall l1 ~ /interface Port-Channel[a:num]"), std::string::npos);
  EXPECT_NE(text.find("exists l2 ~ /route-target import [a:mac]"), std::string::npos);
  EXPECT_NE(text.find("equals(hex(l1.a), segment(6)(l2.a))"), std::string::npos);
}

TEST(Contract, KeyDistinguishesDirection) {
  PatternTable table;
  Contract a;
  a.kind = ContractKind::kRelational;
  a.pattern = Intern(&table, "/p1 [a:num]");
  a.pattern2 = Intern(&table, "/p2 [a:num]");
  Contract b = a;
  std::swap(b.pattern, b.pattern2);
  EXPECT_NE(a.Key(table), b.Key(table));
}

TEST(Contract, KeyIgnoresStatistics) {
  PatternTable table;
  Contract a;
  a.kind = ContractKind::kUnique;
  a.pattern = Intern(&table, "/hostname DEV[a:num]");
  Contract b = a;
  b.support = 99;
  b.confidence = 0.5;
  EXPECT_EQ(a.Key(table), b.Key(table));
}

// Contract::Key as it was rendered through a stream, kept as the reference for
// the single-string rendering.
std::string StreamKey(const Contract& c, const PatternTable& table) {
  std::ostringstream out;
  out << ContractKindName(c.kind) << '|';
  switch (c.kind) {
    case ContractKind::kPresent:
      out << table.Get(c.pattern).text;
      break;
    case ContractKind::kOrdering:
      out << table.Get(c.pattern).text << '|' << table.Get(c.pattern2).text << '|'
          << (c.successor ? "succ" : "pred");
      break;
    case ContractKind::kType:
      out << c.untyped_pattern << '|' << c.param << '|' << ValueTypeName(c.invalid_type);
      break;
    case ContractKind::kSequence:
    case ContractKind::kUnique:
      out << table.Get(c.pattern).text << '|' << c.param;
      break;
    case ContractKind::kRelational:
      out << table.Get(c.pattern).text << '|' << c.param << '|' << c.transform1.Name() << '|'
          << RelationKindName(c.relation) << '|' << table.Get(c.pattern2).text << '|'
          << c.param2 << '|' << c.transform2.Name();
      break;
  }
  return out.str();
}

TEST(Contract, KeyMatchesTheStreamRendering) {
  PatternTable table;
  const PatternId p1 = Intern(&table, "/interface Port-Channel[a:num]");
  const PatternId p2 =
      Intern(&table, "/router bgp [num]/vlan [num]/rd [a:ip4]:[b:num] with a long tail of text");
  const std::vector<uint16_t> params = {0, 1, 9, 10, 11, 99, 100, 1000, 65535};
  const std::vector<Transform> transforms = {
      IdTransform(),
      {TransformKind::kHex, 0},
      {TransformKind::kMacSegment, 1},
      {TransformKind::kMacSegment, 6},
      {TransformKind::kIpOctet, 1},
      {TransformKind::kIpOctet, 4},
      {TransformKind::kPfxAddr, 0},
      {TransformKind::kPfxLen, 0}};
  const std::vector<RelationKind> relations = {
      RelationKind::kEquals,   RelationKind::kContains, RelationKind::kStartsWith,
      RelationKind::kPrefixOf, RelationKind::kEndsWith, RelationKind::kSuffixOf};
  const std::vector<ValueType> types = {
      ValueType::kNum, ValueType::kHex,  ValueType::kBool, ValueType::kMac, ValueType::kIp4,
      ValueType::kPfx4, ValueType::kIp6, ValueType::kPfx6, ValueType::kStr};
  size_t compared = 0;
  auto expect_same = [&](const Contract& c) {
    EXPECT_EQ(c.Key(table), StreamKey(c, table));
    ++compared;
  };
  for (ContractKind kind : {ContractKind::kPresent, ContractKind::kOrdering, ContractKind::kType,
                            ContractKind::kSequence, ContractKind::kUnique,
                            ContractKind::kRelational}) {
    Contract c;
    c.kind = kind;
    c.pattern = p1;
    c.pattern2 = p2;
    c.untyped_pattern = "/seq [a:?] permit [b:?]";
    for (bool successor : {true, false}) {
      c.successor = successor;
      expect_same(c);
    }
    for (uint16_t param : params) {
      c.param = param;
      c.param2 = static_cast<uint16_t>(params.back() - param);
      for (ValueType type : types) {
        c.invalid_type = type;
        expect_same(c);
      }
    }
    if (kind != ContractKind::kRelational) {
      continue;
    }
    for (const Transform& t1 : transforms) {
      for (const Transform& t2 : transforms) {
        for (RelationKind relation : relations) {
          c.transform1 = t1;
          c.transform2 = t2;
          c.relation = relation;
          expect_same(c);
        }
      }
    }
  }
  EXPECT_GT(compared, 400u);
}

TEST(InternPatternText, ExtractsParamTypes) {
  PatternTable table;
  PatternId id = Intern(&table, "/seq [a:num] permit [b:pfx4]");
  const PatternInfo& info = table.Get(id);
  ASSERT_EQ(info.param_types.size(), 2u);
  EXPECT_EQ(info.param_types[0], ValueType::kNum);
  EXPECT_EQ(info.param_types[1], ValueType::kPfx4);
  EXPECT_EQ(info.untyped, "/seq [a:?] permit [b:?]");
  EXPECT_FALSE(info.is_constant);
}

TEST(InternPatternText, ContextHolesAreNotParams) {
  PatternTable table;
  PatternId id = Intern(&table, "/interface Port-Channel[num]/route-target import [a:mac]");
  const PatternInfo& info = table.Get(id);
  ASSERT_EQ(info.param_types.size(), 1u);
  EXPECT_EQ(info.param_types[0], ValueType::kMac);
}

TEST(InternPatternText, CustomTokenTypesAreStr) {
  PatternTable table;
  PatternId id = Intern(&table, "/interface [a:iface]");
  EXPECT_EQ(table.Get(id).param_types[0], ValueType::kStr);
}

TEST(InternPatternText, ConstantPatterns) {
  PatternTable table;
  PatternId id = Intern(&table, "=/ip address 10.0.0.1");
  EXPECT_TRUE(table.Get(id).is_constant);
  EXPECT_TRUE(table.Get(id).param_types.empty());
}

TEST(InternPatternText, MatchesParserInterning) {
  // A pattern interned from text must be identical (same id) to the one the config
  // parser would intern, so contracts loaded from a file bind to parsed test configs.
  PatternTable table;
  PatternId from_text = Intern(&table, "/vlan [a:num]");
  Lexer lexer;
  ConfigParser parser(&lexer, &table, ParseOptions{});
  ParsedConfig config = parser.Parse("t.cfg", "vlan 251\n");
  EXPECT_EQ(config.lines[0].pattern, from_text);
}

TEST(ContractIo, RoundTripAllKinds) {
  PatternTable table;
  ContractSet set;
  set.constants_mode = true;

  Contract present;
  present.kind = ContractKind::kPresent;
  present.pattern = Intern(&table, "/router bgp [a:num]");
  present.support = 10;
  present.confidence = 1.0;
  set.contracts.push_back(present);

  Contract ordering;
  ordering.kind = ContractKind::kOrdering;
  ordering.pattern = Intern(&table, "/interface Port-Channel[a:num]");
  ordering.pattern2 = Intern(&table, "/interface Port-Channel[num]/evpn ether-segment");
  ordering.successor = true;
  set.contracts.push_back(ordering);

  Contract type;
  type.kind = ContractKind::kType;
  type.untyped_pattern = "/ip address [a:?]";
  type.param = 0;
  type.invalid_type = ValueType::kBool;
  set.contracts.push_back(type);

  Contract seq;
  seq.kind = ContractKind::kSequence;
  seq.pattern = Intern(&table, "/seq [a:num] permit [b:pfx4]");
  seq.param = 0;
  set.contracts.push_back(seq);

  Contract unique;
  unique.kind = ContractKind::kUnique;
  unique.pattern = Intern(&table, "/hostname DEV[a:num]");
  unique.param = 0;
  set.contracts.push_back(unique);

  Contract rel;
  rel.kind = ContractKind::kRelational;
  rel.pattern = Intern(&table, "/vlan [a:num]");
  rel.param = 0;
  rel.transform1 = IdTransform();
  rel.relation = RelationKind::kSuffixOf;
  rel.pattern2 = Intern(&table, "/rd [a:ip4]:[b:num]");
  rel.param2 = 1;
  rel.transform2 = IdTransform();
  rel.score = 12.5;
  rel.support = 8;
  rel.confidence = 0.98;
  set.contracts.push_back(rel);

  std::string json = SerializeContracts(set, table);

  PatternTable table2;
  std::string error;
  auto loaded = ParseContracts(json, &table2, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(loaded->constants_mode);
  ASSERT_EQ(loaded->contracts.size(), set.contracts.size());
  for (size_t i = 0; i < set.contracts.size(); ++i) {
    EXPECT_EQ(loaded->contracts[i].Key(table2), set.contracts[i].Key(table));
  }
  const Contract& rel2 = loaded->contracts.back();
  EXPECT_EQ(rel2.relation, RelationKind::kSuffixOf);
  EXPECT_EQ(rel2.param2, 1);
  EXPECT_DOUBLE_EQ(rel2.score, 12.5);
  EXPECT_EQ(rel2.support, 8);
  EXPECT_NEAR(rel2.confidence, 0.98, 1e-9);
}

TEST(ContractIo, RejectsMalformed) {
  PatternTable table;
  std::string error;
  EXPECT_FALSE(ParseContracts("not json", &table, &error).has_value());
  EXPECT_FALSE(ParseContracts("[]", &table, &error).has_value());
  EXPECT_FALSE(ParseContracts("{}", &table, &error).has_value());
  EXPECT_FALSE(
      ParseContracts(R"({"contracts": [{"kind": "bogus"}]})", &table, &error).has_value());
  EXPECT_FALSE(
      ParseContracts(R"({"contracts": [{"kind": "present"}]})", &table, &error).has_value());
  EXPECT_NE(error.find("pattern"), std::string::npos);
}

// The lexer key is written only when nonzero, as a decimal string, so a set
// learned with the built-in lexer keeps its bytes; it round-trips in full.
TEST(ContractIo, LexerKeyIsWrittenOnlyWhenNonzero) {
  PatternTable table;
  ContractSet set;
  EXPECT_EQ(SerializeContracts(set, table).find("lexerKey"), std::string::npos);
  set.lexer_key = 0xfedcba9876543210ull;
  std::string json = SerializeContracts(set, table);
  EXPECT_NE(json.find("\"lexerKey\": \"18364758544493064720\""), std::string::npos) << json;
  std::string error;
  auto loaded = ParseContracts(json, &table, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->lexer_key, set.lexer_key);
  for (const char* bad : {R"({"lexerKey": 7, "contracts": []})",
                          R"({"lexerKey": "", "contracts": []})",
                          R"({"lexerKey": "-1", "contracts": []})",
                          R"({"lexerKey": "12x", "contracts": []})"}) {
    EXPECT_FALSE(ParseContracts(bad, &table, &error).has_value()) << bad;
  }
}

TEST(ContractSet, CountKind) {
  PatternTable table;
  ContractSet set;
  Contract c;
  c.kind = ContractKind::kPresent;
  c.pattern = Intern(&table, "/a");
  set.contracts.push_back(c);
  set.contracts.push_back(c);
  c.kind = ContractKind::kUnique;
  set.contracts.push_back(c);
  EXPECT_EQ(set.CountKind(ContractKind::kPresent), 2u);
  EXPECT_EQ(set.CountKind(ContractKind::kUnique), 1u);
  EXPECT_EQ(set.CountKind(ContractKind::kSequence), 0u);
}

}  // namespace
}  // namespace concord
