// util/json: the minimal JSON value/parser/writer the campaign subsystem
// builds specs and result capsules from.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/check.hpp"

using smpi::util::ContractError;
using smpi::util::JsonValue;
using smpi::util::parse_json;

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_DOUBLE_EQ(parse_json("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(parse_json("-1e-3").as_number(), -1e-3);
  EXPECT_EQ(parse_json("42").as_int(), 42);
  EXPECT_EQ(parse_json("\"hi\\n\\\"there\\\"\"").as_string(), "hi\n\"there\"");
}

TEST(Json, ParsesNestedStructures) {
  const JsonValue doc = parse_json(R"({
    "name": "sweep",
    "axes": [
      {"param": "bw", "values": [0.5, 1, 2]},
      {"param": "coll", "values": ["auto", "ring"]}
    ],
    "nested": {"deep": {"flag": true}}
  })");
  EXPECT_EQ(doc.at("name", "t").as_string(), "sweep");
  const auto& axes = doc.at("axes", "t").items();
  ASSERT_EQ(axes.size(), 2u);
  EXPECT_EQ(axes[0].at("param", "t").as_string(), "bw");
  EXPECT_EQ(axes[0].at("values", "t").items().size(), 3u);
  EXPECT_TRUE(doc.at("nested", "t").at("deep", "t").at("flag", "t").as_bool());
  EXPECT_EQ(doc.find("absent"), nullptr);
  EXPECT_THROW(doc.at("absent", "context"), ContractError);
}

TEST(Json, ReportsLineAndColumnOnErrors) {
  try {
    parse_json("{\n  \"a\": 1,\n  oops\n}", "spec.json");
    FAIL() << "expected a parse error";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("spec.json:3"), std::string::npos) << e.what();
  }
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(parse_json(""), ContractError);
  EXPECT_THROW(parse_json("{\"a\":}"), ContractError);
  EXPECT_THROW(parse_json("[1,]"), ContractError);
  EXPECT_THROW(parse_json("{\"a\":1} trailing"), ContractError);
  EXPECT_THROW(parse_json("\"unterminated"), ContractError);
  EXPECT_THROW(parse_json("{\"a\":1,\"a\":2}"), ContractError);  // duplicate key
  EXPECT_THROW(parse_json("nulL"), ContractError);
}

TEST(Json, KindMismatchesThrow) {
  const JsonValue v = parse_json("\"text\"");
  EXPECT_THROW(v.as_number(), ContractError);
  EXPECT_THROW(v.as_bool(), ContractError);
  EXPECT_THROW(v.items(), ContractError);
  EXPECT_THROW(parse_json("1.5").as_int(), ContractError);
}

// as_int range-checks before casting: a double outside [-2^63, 2^63) has no
// long long value, and the cast itself would be undefined behavior.
TEST(Json, AsIntRejectsNumbersOutsideLongLong) {
  for (const char* text : {"1e300", "-1e300", "9223372036854775808"}) {
    try {
      parse_json(text).as_int();
      FAIL() << text << " should be out of integer range";
    } catch (const ContractError& e) {
      EXPECT_NE(std::string(e.what()).find("out of integer range"), std::string::npos)
          << text << ": " << e.what();
    }
  }
  EXPECT_EQ(parse_json("-9223372036854775808").as_int(), INT64_MIN);
}

TEST(Json, DumpRoundTripsBitExactDoubles) {
  const double value = 0.0012079460497095402;  // a %.17g-worthy simulated time
  JsonValue capsule = JsonValue::object();
  capsule.set("t", JsonValue::number(value));
  const JsonValue back = parse_json(capsule.dump());
  EXPECT_EQ(back.at("t", "t").as_number(), value);  // bit-equal, not just close
}

TEST(Json, DumpPreservesInsertionOrderAndFormats) {
  JsonValue doc = JsonValue::object();
  doc.set("b", JsonValue::number(1));
  doc.set("a", JsonValue::array().append(JsonValue::string("x")).append(JsonValue::null()));
  EXPECT_EQ(doc.dump(), "{\"b\":1,\"a\":[\"x\",null]}");
  const std::string pretty = doc.dump(2);
  EXPECT_NE(pretty.find("\"b\": 1"), std::string::npos);
  // set() replaces in place, keeping position.
  doc.set("b", JsonValue::number(7));
  EXPECT_EQ(doc.dump(), "{\"b\":7,\"a\":[\"x\",null]}");
}
