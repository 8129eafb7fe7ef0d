#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace solsched::util {
namespace {

Cli make_cli() {
  Cli cli;
  cli.add_flag("days", "7", "number of days");
  cli.add_flag("seed", "42", "random seed");
  cli.add_flag("scale", "1.5", "panel scale");
  cli.add_flag("verbose", "false", "chatty output");
  return cli;
}

TEST(Cli, DefaultsWhenUnset) {
  Cli cli = make_cli();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("days"), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("scale"), 1.5);
  EXPECT_FALSE(cli.get_bool("verbose"));
}

TEST(Cli, SpaceSeparatedValues) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--days", "30", "--scale", "0.5"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_int("days"), 30);
  EXPECT_DOUBLE_EQ(cli.get_double("scale"), 0.5);
}

TEST(Cli, EqualsSyntax) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--seed=99", "--verbose=true"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_seed("seed"), 99u);
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(Cli, BareFlagIsBoolean) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(Cli, BareFlagBeforeAnotherFlag) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--verbose", "--days", "3"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_TRUE(cli.get_bool("verbose"));
  EXPECT_EQ(cli.get_int("days"), 3);
}

TEST(Cli, UnknownFlagFails) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_FALSE(cli.parse(3, argv));
  EXPECT_NE(cli.error().find("bogus"), std::string::npos);
}

TEST(Cli, PositionalArgumentFails) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "stray"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, HelpRequested) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.help_requested());
  const std::string usage = cli.usage("prog");
  EXPECT_NE(usage.find("--days"), std::string::npos);
  EXPECT_NE(usage.find("number of days"), std::string::npos);
}

TEST(Cli, UndeclaredGetThrows) {
  Cli cli = make_cli();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_THROW(cli.get("nonexistent"), std::invalid_argument);
}

// --- parse-time validation of typed values (the silent-zero fix) ----------

TEST(Cli, TrailingGarbageNumberFailsAtParse) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--days", "3x"};
  EXPECT_FALSE(cli.parse(3, argv));
  EXPECT_NE(cli.error().find("--days"), std::string::npos);
  EXPECT_NE(cli.error().find("3x"), std::string::npos);
}

TEST(Cli, NanAndInfRejected) {
  for (const char* bad : {"nan", "inf", "-inf", "NAN"}) {
    Cli cli = make_cli();
    const char* argv[] = {"prog", "--scale", bad};
    EXPECT_FALSE(cli.parse(3, argv)) << bad;
    EXPECT_NE(cli.error().find("--scale"), std::string::npos);
  }
}

TEST(Cli, ScientificAndNegativeNumbersStillParse) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--scale", "1e-3", "--days", "-2"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("scale"), 1e-3);
  EXPECT_EQ(cli.get_int("days"), -2);
}

TEST(Cli, MissingValueAtEndOfArgvFails) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--days"};
  EXPECT_FALSE(cli.parse(2, argv));
  EXPECT_NE(cli.error().find("--days"), std::string::npos);
  EXPECT_NE(cli.error().find("requires a value"), std::string::npos);
}

TEST(Cli, MissingValueBeforeAnotherFlagFails) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--seed", "--verbose"};
  EXPECT_FALSE(cli.parse(3, argv));
  EXPECT_NE(cli.error().find("--seed"), std::string::npos);
}

TEST(Cli, BoolFlagConsumesFollowingLiteral) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--verbose", "off", "--days", "3"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_FALSE(cli.get_bool("verbose"));
  EXPECT_EQ(cli.get_int("days"), 3);
}

TEST(Cli, InvalidBoolLiteralFails) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--verbose=maybe"};
  EXPECT_FALSE(cli.parse(2, argv));
  EXPECT_NE(cli.error().find("--verbose"), std::string::npos);
}

TEST(Cli, NegativeSeedThrowsOnAccess) {
  Cli cli = make_cli();
  // "-2" is a well-formed number, so parse() accepts it; get_seed's
  // unsigned-decimal contract rejects it instead of wrapping via strtoull.
  const char* argv[] = {"prog", "--seed", "-2"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_THROW(cli.get_seed("seed"), std::invalid_argument);
  EXPECT_EQ(cli.get_int("seed"), -2);
}

TEST(Cli, ExplicitStringTypeSkipsNumericValidation) {
  Cli cli;
  cli.add_flag("tag", "123", "run tag", Cli::FlagType::kString);
  const char* argv[] = {"prog", "--tag", "12ab"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get("tag"), "12ab");
}

TEST(Cli, EmptyEqualsValueFailsForNumericFlag) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--days="};
  EXPECT_FALSE(cli.parse(2, argv));
  EXPECT_NE(cli.error().find("--days"), std::string::npos);
}

TEST(Cli, GetUintReadsCountFlags) {
  Cli cli;
  cli.add_flag("port", "7777", "listen port");
  cli.add_flag("queue-depth", "64", "queue capacity");
  const char* argv[] = {"prog", "--port", "8080"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_uint("port"), 8080u);
  EXPECT_EQ(cli.get_uint("queue-depth"), 64u);
}

TEST(Cli, GetUintRejectsNegativeInsteadOfWrapping) {
  Cli cli;
  cli.add_flag("port", "7777", "listen port");
  // "-1" parses as a well-formed number, so parse() accepts it; the
  // unsigned accessor must refuse rather than hand back 2^64 - 1.
  const char* argv[] = {"prog", "--port", "-1"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_THROW(cli.get_uint("port"), std::invalid_argument);
  EXPECT_EQ(cli.get_int("port"), -1);
}

TEST(Cli, GetUintRejectsFractionsAndPlusSign) {
  Cli cli;
  cli.add_flag("timeout-ms", "1000", "request timeout");
  {
    const char* argv[] = {"prog", "--timeout-ms", "1.5"};
    ASSERT_TRUE(cli.parse(3, argv));
    EXPECT_THROW(cli.get_uint("timeout-ms"), std::invalid_argument);
  }
  {
    Cli plus;
    plus.add_flag("timeout-ms", "1000", "request timeout");
    const char* argv[] = {"prog", "--timeout-ms", "+7"};
    ASSERT_TRUE(plus.parse(3, argv));
    EXPECT_THROW(plus.get_uint("timeout-ms"), std::invalid_argument);
  }
}

TEST(Cli, GetUintRejectsOverflow) {
  Cli cli;
  cli.add_flag("queue-depth", "64", "queue capacity");
  // One past 2^64 - 1: strtoull would clamp with ERANGE; the accessor
  // must throw instead of silently saturating.
  const char* argv[] = {"prog", "--queue-depth", "18446744073709551616"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_THROW(cli.get_uint("queue-depth"), std::invalid_argument);
}

TEST(Cli, GetUintEnforcesInclusiveUpperBound) {
  Cli cli;
  cli.add_flag("port", "7777", "listen port");
  const char* argv[] = {"prog", "--port", "65535"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_uint("port", 65535), 65535u);
  EXPECT_THROW(cli.get_uint("port", 65534), std::invalid_argument);
  try {
    cli.get_uint("port", 1024);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--port"), std::string::npos);
  }
}

}  // namespace
}  // namespace solsched::util
