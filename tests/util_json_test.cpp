#include "util/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/testing/reference_codec.h"

namespace jarvis::util {
namespace {

using testing::ReferenceDump;
using testing::ReferenceFormatNumber;
using testing::ReferenceReadNumber;

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(JsonValue::Parse("null").type(), JsonValue::Type::kNull);
  EXPECT_TRUE(JsonValue::Parse("true").AsBool());
  EXPECT_FALSE(JsonValue::Parse("false").AsBool());
  EXPECT_DOUBLE_EQ(JsonValue::Parse("3.25").AsNumber(), 3.25);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-17").AsNumber(), -17.0);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("1e3").AsNumber(), 1000.0);
  EXPECT_EQ(JsonValue::Parse("\"hi\"").AsString(), "hi");
}

TEST(Json, DumpParsesBack) {
  JsonObject obj;
  obj["name"] = JsonValue("lock");
  obj["watts"] = JsonValue(5.5);
  obj["on"] = JsonValue(true);
  obj["tags"] = JsonValue(JsonArray{JsonValue(1), JsonValue(2)});
  JsonObject nested;
  nested["x"] = JsonValue();
  obj["extra"] = JsonValue(std::move(nested));
  const JsonValue original{std::move(obj)};

  const JsonValue reparsed = JsonValue::Parse(original.Dump());
  EXPECT_EQ(reparsed, original);
}

TEST(Json, EscapesSpecialCharacters) {
  const JsonValue value(std::string("line\nbreak \"quoted\" \\slash\t"));
  const JsonValue reparsed = JsonValue::Parse(value.Dump());
  EXPECT_EQ(reparsed.AsString(), value.AsString());
}

TEST(Json, ControlCharactersEscapedAsUnicode) {
  const std::string raw = "a\x01z";
  const std::string dumped = JsonValue(raw).Dump();
  EXPECT_NE(dumped.find("\\u0001"), std::string::npos);
  EXPECT_EQ(JsonValue::Parse(dumped).AsString(), raw);
}

TEST(Json, UnicodeEscapeDecodesToUtf8) {
  EXPECT_EQ(JsonValue::Parse("\"\\u0041\"").AsString(), "A");
  // 2-byte and 3-byte UTF-8 paths.
  EXPECT_EQ(JsonValue::Parse("\"\\u00e9\"").AsString(), "\xc3\xa9");
  EXPECT_EQ(JsonValue::Parse("\"\\u20ac\"").AsString(), "\xe2\x82\xac");
}

TEST(Json, ParsesNestedDocument) {
  const auto doc = JsonValue::Parse(
      R"({"devices": [{"label": "lock", "states": 4},
                      {"label": "light", "states": 2}],
           "users": 5})");
  EXPECT_EQ(doc.At("users").AsInt(), 5);
  const auto& devices = doc.At("devices").AsArray();
  ASSERT_EQ(devices.size(), 2u);
  EXPECT_EQ(devices[0].At("label").AsString(), "lock");
  EXPECT_EQ(devices[1].At("states").AsInt(), 2);
}

TEST(Json, WhitespaceTolerant) {
  const auto doc = JsonValue::Parse("  {  \"a\" :\n[ 1 ,\t2 ]  }  ");
  EXPECT_EQ(doc.At("a").AsArray().size(), 2u);
}

TEST(Json, MalformedInputsThrow) {
  EXPECT_THROW(JsonValue::Parse(""), JsonError);
  EXPECT_THROW(JsonValue::Parse("{"), JsonError);
  EXPECT_THROW(JsonValue::Parse("[1,]"), JsonError);
  EXPECT_THROW(JsonValue::Parse("{\"a\":1,}"), JsonError);
  EXPECT_THROW(JsonValue::Parse("\"unterminated"), JsonError);
  EXPECT_THROW(JsonValue::Parse("tru"), JsonError);
  EXPECT_THROW(JsonValue::Parse("{} extra"), JsonError);
  EXPECT_THROW(JsonValue::Parse("nan"), JsonError);
}

TEST(Json, TypeMismatchThrows) {
  const JsonValue number(5.0);
  EXPECT_THROW(number.AsString(), JsonError);
  EXPECT_THROW(number.AsArray(), JsonError);
  EXPECT_THROW(number.AsObject(), JsonError);
  EXPECT_THROW(number.At("k"), JsonError);
  const JsonValue text("x");
  EXPECT_THROW(text.AsNumber(), JsonError);
  EXPECT_THROW(text.AsBool(), JsonError);
}

TEST(Json, MissingKeyThrowsAndFallbacksWork) {
  const auto doc = JsonValue::Parse(R"({"a": 1, "s": "x"})");
  EXPECT_THROW(doc.At("missing"), JsonError);
  EXPECT_DOUBLE_EQ(doc.GetNumber("a", -1.0), 1.0);
  EXPECT_DOUBLE_EQ(doc.GetNumber("missing", -1.0), -1.0);
  EXPECT_EQ(doc.GetString("s", "d"), "x");
  EXPECT_EQ(doc.GetString("missing", "d"), "d");
  // Wrong-typed field also falls back.
  EXPECT_DOUBLE_EQ(doc.GetNumber("s", -1.0), -1.0);
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(JsonValue::Parse("[]").AsArray().size(), 0u);
  EXPECT_EQ(JsonValue::Parse("{}").AsObject().size(), 0u);
  EXPECT_EQ(JsonValue(JsonArray{}).Dump(), "[]");
  EXPECT_EQ(JsonValue(JsonObject{}).Dump(), "{}");
}

TEST(Json, IntegersRenderWithoutDecimalPoint) {
  EXPECT_EQ(JsonValue(5.0).Dump(), "5");
  EXPECT_EQ(JsonValue(-3).Dump(), "-3");
  EXPECT_EQ(JsonValue(2.5).Dump(), "2.5");
}

TEST(Json, PrettyPrintRoundTrips) {
  const auto doc =
      JsonValue::Parse(R"({"a": [1, 2, {"b": true}], "c": "text"})");
  const std::string pretty = doc.Dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(JsonValue::Parse(pretty), doc);
}

TEST(Json, CopyOnWriteMutationDoesNotAliasShares) {
  JsonValue a(JsonArray{JsonValue(1)});
  JsonValue b = a;  // shares the array node
  b.MutableArray().push_back(JsonValue(2));
  EXPECT_EQ(a.AsArray().size(), 1u);
  EXPECT_EQ(b.AsArray().size(), 2u);
}

// Every value must Dump to the "%.17g"-era bytes and parse back to the
// same bits. -0.0 takes the integer branch ("0"), as it always has, so it
// comes back as +0.0.
void ExpectExactRoundTrip(const std::vector<double>& values) {
  JsonArray array;
  array.reserve(values.size());
  for (double v : values) array.emplace_back(v);
  const JsonValue doc(std::move(array));
  const std::string dumped = doc.Dump();
  if (dumped != ReferenceDump(doc)) {
    for (double v : values) {
      ASSERT_EQ(JsonValue(v).Dump(), ReferenceFormatNumber(v))
          << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v);
    }
  }
  const JsonValue reparsed = JsonValue::Parse(dumped);
  const JsonArray& parsed = reparsed.AsArray();
  ASSERT_EQ(parsed.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double expected = values[i] == 0.0 ? 0.0 : values[i];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(parsed[i].AsNumber()),
              std::bit_cast<std::uint64_t>(expected))
        << "token " << ReferenceFormatNumber(values[i]);
  }
}

TEST(JsonNumbers, EdgeValuesMatchTheReferenceWriterAndReader) {
  std::vector<double> edges = {0.0,
                               -0.0,
                               DBL_TRUE_MIN,
                               -DBL_TRUE_MIN,
                               DBL_MIN,
                               -DBL_MIN,
                               DBL_MIN - DBL_TRUE_MIN,
                               DBL_MAX,
                               -DBL_MAX,
                               DBL_EPSILON,
                               0.1,
                               1.0 / 3.0,
                               123456.789,
                               1e-5,
                               1e16,
                               9007199254740993.0};
  // Both sides of the integer branch's 1e15 cut, and just off integers.
  for (double base : {1e15, -1e15}) {
    double v = base;
    for (int i = 0; i < 4; ++i) v = std::nextafter(v, 0.0);
    for (int i = 0; i < 8; ++i, v = std::nextafter(v, 2 * base)) {
      edges.push_back(v);
      edges.push_back(v + (base > 0 ? 0.5 : -0.5));
    }
  }
  ExpectExactRoundTrip(edges);
  EXPECT_EQ(JsonValue(DBL_TRUE_MIN).Dump(), "4.9406564584124654e-324");
  EXPECT_EQ(JsonValue(-0.0).Dump(), "0");
  EXPECT_EQ(JsonValue(1e15).Dump(), "1000000000000000");
  EXPECT_EQ(JsonValue(1e17).Dump(), "1e+17");
  EXPECT_EQ(JsonValue(999999999999999.0).Dump(), "999999999999999");
}

TEST(JsonNumbers, RandomBitPatternsMatchTheReferenceWriterAndReader) {
  Rng rng(20260101);
  constexpr int kValues = 1 << 20;
  constexpr int kChunk = 4096;
  std::vector<double> chunk;
  chunk.reserve(kChunk);
  for (int produced = 0; produced < kValues;) {
    const double v = std::bit_cast<double>(rng.NextU64());
    if (!std::isfinite(v)) continue;
    chunk.push_back(v);
    ++produced;
    if (chunk.size() == kChunk) {
      ExpectExactRoundTrip(chunk);
      if (HasFatalFailure()) return;
      chunk.clear();
    }
  }
  ExpectExactRoundTrip(chunk);
}

TEST(JsonNumbers, ReaderMatchesStrtodOnHandWrittenTokens) {
  for (const std::string token :
       {"0", "-0", "0.1", "-2.5e-3", "1E5", "1e+5", "123456789012345678901234",
        "2.2250738585072011e-308", "2.2250738585072014e-308", "1e-310",
        "4.9406564584124654e-324", "2.4703282292062328e-324",
        "9007199254740993", "1.7976931348623157e308", "0.30000000000000004",
        "7.2057594037927933e+16"}) {
    const double parsed = JsonValue::Parse(token).AsNumber();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed),
              std::bit_cast<std::uint64_t>(ReferenceReadNumber(token)))
        << token;
  }
}

TEST(JsonNumbers, SubnormalsParse) {
  const JsonValue doc = JsonValue::Parse("[4.9406564584124654e-324]");
  EXPECT_EQ(doc.AsArray().at(0).AsNumber(), DBL_TRUE_MIN);
  EXPECT_EQ(JsonValue::Parse("-1e-310").AsNumber(), -1e-310);
}

TEST(JsonNumbers, MalformedNumbersThrow) {
  for (const char* text :
       {"[1.2.3]", "[1-2]", "[1e]", "[+1]", "[01]", "[1.]", "[.5]", "[-]",
        "[1e+]", "[-01]", "[1.e5]", "[0x10]", "[1e999]", "[-1e999]",
        "[1e-999]", "[Infinity]", "[-nan]"}) {
    EXPECT_THROW(JsonValue::Parse(text), JsonError) << text;
  }
}

TEST(JsonNesting, DepthIsCappedAt64) {
  const auto nested = [](int depth, char open, char close) {
    std::string text;
    for (int i = 0; i < depth; ++i) {
      text += open;
      if (open == '{') text += "\"k\":";
    }
    text += "1";
    for (int i = 0; i < depth; ++i) text += close;
    return text;
  };
  EXPECT_NO_THROW(JsonValue::Parse(nested(64, '[', ']')));
  EXPECT_NO_THROW(JsonValue::Parse(nested(64, '{', '}')));
  EXPECT_THROW(JsonValue::Parse(nested(65, '[', ']')), JsonError);
  EXPECT_THROW(JsonValue::Parse(nested(65, '{', '}')), JsonError);
  // Depth is nesting, not a count of containers: siblings never add up.
  std::string siblings = "[";
  for (int i = 0; i < 1000; ++i) siblings += i == 0 ? "[[1]]" : ",[[1]]";
  siblings += "]";
  EXPECT_EQ(JsonValue::Parse(siblings).AsArray().size(), 1000u);
}

TEST(JsonNesting, DepthBombThrowsInsteadOfOverflowingTheStack) {
  // 100 KB of '[': far under the 1 MiB serve frame cap, and deep enough to
  // overflow the stack of an uncapped recursive parser.
  EXPECT_THROW(JsonValue::Parse(std::string(100000, '[')), JsonError);
  EXPECT_THROW(JsonValue::Parse(std::string(100000, '[') +
                                std::string(100000, ']')),
               JsonError);
}

}  // namespace
}  // namespace jarvis::util
