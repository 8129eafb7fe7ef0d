// Mini JSON reader: full grammar, strictness, and the helpers the analysis
// layer leans on (ordered objects, typed lookups).
#include "obs/analysis/json_mini.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "obs/json_escape.hpp"

namespace solsched::obs::analysis {
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
}

TEST(JsonMini, EscapeRoundTripsThroughParser) {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01";
  const JsonValue v =
      parse_json("{\"s\": \"" + json_escape(nasty) + "\"}");
  EXPECT_EQ(v.string_or("s"), nasty);
}

}  // namespace
}  // namespace solsched::obs::analysis
