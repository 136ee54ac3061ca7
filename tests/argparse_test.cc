#include "src/util/argparse.h"

#include <gtest/gtest.h>

namespace concord {
namespace {

ArgParser MakeParser() {
  ArgParser p;
  p.AddFlag("configs", "training config glob");
  p.AddFlag("support", "minimum support", "5");
  p.AddBoolFlag("constants", "enable constant learning");
  return p;
}

TEST(ArgParser, FlagWithSeparateValue) {
  ArgParser p = MakeParser();
  const char* argv[] = {"concord", "--configs", "configs/*.cfg"};
  ASSERT_TRUE(p.Parse(3, argv));
  EXPECT_EQ(p.Get("configs"), "configs/*.cfg");
}

TEST(ArgParser, FlagWithEqualsValue) {
  ArgParser p = MakeParser();
  const char* argv[] = {"concord", "--configs=x.cfg"};
  ASSERT_TRUE(p.Parse(2, argv));
  EXPECT_EQ(p.Get("configs"), "x.cfg");
}

TEST(ArgParser, DefaultsApply) {
  ArgParser p = MakeParser();
  const char* argv[] = {"concord"};
  ASSERT_TRUE(p.Parse(1, argv));
  EXPECT_EQ(p.Get("support"), "5");
  EXPECT_EQ(p.GetInt("support"), 5);
  EXPECT_FALSE(p.GetBool("constants"));
}

TEST(ArgParser, BoolFlag) {
  ArgParser p = MakeParser();
  const char* argv[] = {"concord", "--constants"};
  ASSERT_TRUE(p.Parse(2, argv));
  EXPECT_TRUE(p.GetBool("constants"));
}

TEST(ArgParser, BoolFlagRejectsValue) {
  ArgParser p = MakeParser();
  const char* argv[] = {"concord", "--constants=yes"};
  EXPECT_FALSE(p.Parse(2, argv));
  EXPECT_NE(p.error().find("does not take a value"), std::string::npos);
}

TEST(ArgParser, UnknownFlagFails) {
  ArgParser p = MakeParser();
  const char* argv[] = {"concord", "--bogus", "1"};
  EXPECT_FALSE(p.Parse(3, argv));
  EXPECT_NE(p.error().find("unknown flag"), std::string::npos);
}

TEST(ArgParser, MissingValueFails) {
  ArgParser p = MakeParser();
  const char* argv[] = {"concord", "--configs"};
  EXPECT_FALSE(p.Parse(2, argv));
}

TEST(ArgParser, Positional) {
  ArgParser p = MakeParser();
  const char* argv[] = {"concord", "learn", "--support", "10", "extra"};
  ASSERT_TRUE(p.Parse(5, argv));
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "learn");
  EXPECT_EQ(p.positional()[1], "extra");
  EXPECT_EQ(p.GetInt("support"), 10);
}

TEST(ArgParser, RepeatedFlagCollectsAll) {
  ArgParser p = MakeParser();
  const char* argv[] = {"concord", "--configs", "a", "--configs", "b"};
  ASSERT_TRUE(p.Parse(5, argv));
  auto all = p.GetAll("configs");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], "a");
  EXPECT_EQ(all[1], "b");
  EXPECT_EQ(p.Get("configs"), "b");  // Last wins for singular access.
}

TEST(ArgParser, GetDouble) {
  ArgParser p;
  p.AddFlag("confidence", "confidence", "0.96");
  const char* argv[] = {"concord"};
  ASSERT_TRUE(p.Parse(1, argv));
  EXPECT_DOUBLE_EQ(*p.GetDouble("confidence"), 0.96);
  EXPECT_FALSE(p.GetDouble("missing").has_value());
}

TEST(ArgParser, UsageMentionsFlags) {
  ArgParser p = MakeParser();
  std::string usage = p.Usage();
  EXPECT_NE(usage.find("--configs"), std::string::npos);
  EXPECT_NE(usage.find("--support"), std::string::npos);
  EXPECT_NE(usage.find("default: 5"), std::string::npos);
}

TEST(ArgParser, UnknownSnakeCaseFlagStillFails) {
  // --deadline_ms is the snake_case spelling of a declared kebab-case flag;
  // it is as unknown as a flag that was never declared.
  for (const char* flag : {"--no_such_flag", "--deadline_ms"}) {
    ArgParser p = MakeParser();
    p.AddFlag("deadline-ms", "per-request deadline");
    const char* argv[] = {"concord", flag, "1"};
    EXPECT_FALSE(p.Parse(3, argv)) << flag;
    EXPECT_NE(p.error().find("unknown flag"), std::string::npos) << flag;
  }
}

}  // namespace
}  // namespace concord
