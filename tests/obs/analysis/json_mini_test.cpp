// The one JSON reader (obs/json.hpp): full grammar, RFC 8259 number
// strictness, exact unsigned integers, and the helpers its callers lean on
// (ordered objects, typed lookups).
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>

namespace solsched::obs {
namespace {

TEST(JsonMini, ParsesScalarsAndContainers) {
  const JsonValue v = parse_json(
      "{\"a\": 1.5, \"b\": \"text\", \"c\": [1, 2, 3], "
      "\"d\": {\"nested\": true}, \"e\": null, \"f\": false}");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.number_or("a"), 1.5);
  EXPECT_EQ(v.string_or("b"), "text");
  ASSERT_NE(v.find("c"), nullptr);
  ASSERT_TRUE(v.find("c")->is_array());
  EXPECT_EQ(v.find("c")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(v.find("c")->array[1].number, 2.0);
  ASSERT_NE(v.find("d"), nullptr);
  EXPECT_TRUE(v.find("d")->find("nested")->boolean);
  EXPECT_EQ(v.find("e")->kind, JsonValue::Kind::kNull);
  EXPECT_FALSE(v.find("f")->boolean);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_DOUBLE_EQ(v.number_or("missing", -1.0), -1.0);
  EXPECT_EQ(v.string_or("a", "fallback"), "fallback");  // Wrong type.
}

TEST(JsonMini, PreservesMemberOrder) {
  const JsonValue v = parse_json("{\"z\": 1, \"a\": 2, \"m\": 3}");
  ASSERT_EQ(v.object.size(), 3u);
  EXPECT_EQ(v.object[0].first, "z");
  EXPECT_EQ(v.object[1].first, "a");
  EXPECT_EQ(v.object[2].first, "m");
}

TEST(JsonMini, DecodesEscapes) {
  const JsonValue v =
      parse_json("{\"s\": \"q\\\"b\\\\n\\nt\\tu\\u0041\"}");
  EXPECT_EQ(v.string_or("s"), "q\"b\\n\nt\tuA");
}

TEST(JsonMini, RejectsMalformed) {
  EXPECT_THROW(parse_json(""), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\": 1,}"), std::runtime_error);
  EXPECT_THROW(parse_json("[1, 2"), std::runtime_error);
  EXPECT_THROW(parse_json("{} trailing"), std::runtime_error);
  EXPECT_THROW(parse_json("\"unterminated"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"u\": \"\\u00zz\"}"), std::runtime_error);
  EXPECT_THROW(parse_json("truthy"), std::runtime_error);
  // Numbers follow RFC 8259 and must be finite: no inf/NaN spellings, no
  // hex, no '+' sign, no leading zeros, no bare or trailing '.', nothing
  // that overflows a double.
  for (const char* bad : {"inf", "-inf", "nan", "-nan", "Infinity", "0x10",
                          "+1", "012", "-012", ".5", "1.", "-", "1e", "1e+",
                          "1e999", "-1e999", "[1e999]", "{\"a\": 012}"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(parse_json(bad), std::runtime_error);
  }
}

TEST(JsonMini, ParsesEveryRfc8259NumberForm) {
  EXPECT_EQ(parse_json("0").number, 0.0);
  EXPECT_EQ(parse_json("-0.5").number, -0.5);
  EXPECT_EQ(parse_json("1E3").number, 1000.0);
  EXPECT_EQ(parse_json("2.5e-3").number, 0.0025);
  EXPECT_EQ(parse_json("1e+2").number, 100.0);
  EXPECT_EQ(parse_json("4.9406564584124654e-324").number, 5e-324);
  EXPECT_EQ(parse_json("1e-400").number, 0.0);  // Underflow is finite.
}

// Unsigned integers come from the digits, exactly, at full width; anything
// else that is a number has no unsigned value, whatever double it rounds to.
TEST(JsonMini, UnsignedIntegersAreExactOrAbsent) {
  EXPECT_EQ(parse_json("0").uint, std::optional<std::uint64_t>(0));
  EXPECT_EQ(parse_json("18446744073709551615").uint,
            std::optional<std::uint64_t>(~std::uint64_t{0}));
  EXPECT_EQ(parse_json("18008753236730021613").uint,
            std::optional<std::uint64_t>(18008753236730021613ULL));
  for (const char* not_unsigned : {"-1", "-0", "1.0", "1e3", "2.5",
                                   "18446744073709551616", "1e300", "\"7\"",
                                   "true", "null"}) {
    SCOPED_TRACE(not_unsigned);
    EXPECT_FALSE(parse_json(not_unsigned).uint.has_value());
  }
  const JsonValue doc = parse_json("{\"a\": 7, \"b\": -7, \"c\": 7.5}");
  EXPECT_EQ(doc.u64_or("a"), 7u);
  EXPECT_EQ(doc.u64_or("b", 9), 9u);
  EXPECT_EQ(doc.u64_or("c", 9), 9u);
  EXPECT_EQ(doc.u64_or("missing", 9), 9u);
}

TEST(JsonMini, NumberFormatterIsShortestRoundTrip) {
  for (double x : {0.0, 1.0, 0.125, 1e30, 1.0 / 3.0, -2.5e-300, 5e-324}) {
    SCOPED_TRACE(x);
    EXPECT_EQ(parse_json(json_number(x)).number, x);
  }
  EXPECT_EQ(json_number(1.0), "1");
  EXPECT_EQ(json_number(0.125), "0.125");
  EXPECT_EQ(json_number(1e30), "1e+30");
}

TEST(JsonMini, EscapeRoundTripsThroughParser) {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01";
  const JsonValue v =
      parse_json("{\"s\": \"" + json_escape(nasty) + "\"}");
  EXPECT_EQ(v.string_or("s"), nasty);
}

}  // namespace
}  // namespace solsched::obs
