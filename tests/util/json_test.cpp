#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace scrubber::util {
namespace {

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("3.5").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(Json::parse("-17").as_number(), -17.0);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParseNested) {
  const Json doc = Json::parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_NO_THROW((void)doc.as_object());
  const auto& arr = doc.at("a").as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_DOUBLE_EQ(arr[0].as_number(), 1.0);
  EXPECT_TRUE(arr[2].at("b").as_bool());
  EXPECT_EQ(doc.at("c").as_string(), "x");
}

TEST(Json, ParseStringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xC3\xA9");  // é in UTF-8
}

TEST(Json, ParseWhitespaceTolerant) {
  const Json doc = Json::parse("  { \"a\" :\n[ 1 ,\t2 ] }  ");
  EXPECT_EQ(doc.at("a").as_array().size(), 2u);
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("nul"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("{} trailing"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonError);
}

TEST(Json, TypeMismatchThrows) {
  const Json doc = Json::parse("42");
  EXPECT_THROW((void)doc.as_string(), JsonError);
  EXPECT_THROW((void)doc.as_array(), JsonError);
  EXPECT_THROW((void)doc.as_object(), JsonError);
  EXPECT_THROW((void)doc.as_bool(), JsonError);
  EXPECT_THROW((void)doc.at("x"), JsonError);
}

TEST(Json, FindReturnsNullWhenAbsent) {
  const Json doc = Json::parse(R"({"a": 1})");
  EXPECT_NE(doc.find("a"), nullptr);
  EXPECT_EQ(doc.find("b"), nullptr);
  EXPECT_EQ(Json(3.0).find("a"), nullptr);
}

TEST(Json, RoundTripCompact) {
  const std::string text = R"({"name":"rule","conf":0.97601,"ok":true,"tags":[1,2,3],"sub":{"x":null}})";
  const Json doc = Json::parse(text);
  EXPECT_EQ(Json::parse(doc.dump()).dump(), doc.dump());
}

TEST(Json, DumpPrettyParsesBack) {
  Json doc;
  doc.set("a", Json(1.5));
  doc.set("b", Json(JsonArray{Json("x"), Json(nullptr)}));
  const std::string pretty = doc.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty).dump(), doc.dump());
}

TEST(Json, DumpIntegersWithoutDecimals) {
  EXPECT_EQ(Json(42.0).dump(), "42");
  EXPECT_EQ(Json(-3.0).dump(), "-3");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
}

TEST(Json, DumpEscapesControlCharacters) {
  EXPECT_EQ(Json(std::string("a\nb")).dump(), "\"a\\nb\"");
  EXPECT_EQ(Json(std::string("q\"q")).dump(), "\"q\\\"q\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(Json, SetOverwritesAndPreservesOrder) {
  Json doc;
  doc.set("z", Json(1.0));
  doc.set("a", Json(2.0));
  doc.set("z", Json(3.0));
  const auto& obj = doc.as_object();
  ASSERT_EQ(obj.size(), 2u);
  EXPECT_EQ(obj[0].first, "z");
  EXPECT_DOUBLE_EQ(obj[0].second.as_number(), 3.0);
  EXPECT_EQ(obj[1].first, "a");
}

TEST(Json, SetOnNullCreatesObject) {
  Json doc;  // null
  EXPECT_TRUE(doc.is_null());
  doc.set("k", Json("v"));
  EXPECT_EQ(doc.as_object().size(), 1u);
}

TEST(Json, AsIntRounds) {
  EXPECT_EQ(Json(3.6).as_int(), 4);
  EXPECT_EQ(Json(-2.4).as_int(), -2);
}

TEST(Json, NanSerializesAsNull) {
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json(JsonArray{}).dump(), "[]");
  EXPECT_EQ(Json(JsonObject{}).dump(), "{}");
  EXPECT_EQ(Json::parse("[]").as_array().size(), 0u);
  EXPECT_EQ(Json::parse("{}").as_object().size(), 0u);
}

}  // namespace
}  // namespace scrubber::util
