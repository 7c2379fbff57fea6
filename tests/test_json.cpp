// Tests for common/json.hpp — the parser behind `codesign-bench compare`
// (BENCH_*.json reading) plus the shared writer helpers.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>

#include "common/error.hpp"

namespace codesign {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(json::Value::parse("null").is_null());
  EXPECT_TRUE(json::Value::parse("true").as_bool());
  EXPECT_FALSE(json::Value::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(json::Value::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(json::Value::parse("-1.5e3").as_number(), -1500.0);
  EXPECT_EQ(json::Value::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, StringEscapes) {
  const auto v = json::Value::parse(R"("a\"b\\c\n\tA")");
  EXPECT_EQ(v.as_string(), "a\"b\\c\n\tA");
}

TEST(JsonParse, NestedDocument) {
  const auto v = json::Value::parse(
      R"({"run":{"repeats":5},"cases":[{"name":"x","samples":[1,2.5]}]})");
  EXPECT_DOUBLE_EQ(v.at("run").at("repeats").as_number(), 5.0);
  const auto& cases = v.at("cases").as_array();
  ASSERT_EQ(cases.size(), 1u);
  EXPECT_EQ(cases[0].at("name").as_string(), "x");
  EXPECT_DOUBLE_EQ(cases[0].at("samples").as_array()[1].as_number(), 2.5);
}

TEST(JsonParse, ObjectPreservesOrderAndLookups) {
  const auto v = json::Value::parse(R"({"b":1,"a":2})");
  const auto& members = v.as_object();
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0].first, "b");
  EXPECT_EQ(v.get("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), Error);
  EXPECT_DOUBLE_EQ(v.number_or("a", -1.0), 2.0);
  EXPECT_DOUBLE_EQ(v.number_or("zz", -1.0), -1.0);
  EXPECT_EQ(v.string_or("zz", "d"), "d");
}

TEST(JsonParse, ErrorsCarryPosition) {
  EXPECT_THROW(json::Value::parse("{"), Error);
  EXPECT_THROW(json::Value::parse("[1,]"), Error);
  EXPECT_THROW(json::Value::parse("{\"a\":1} x"), Error);  // trailing junk
  EXPECT_THROW(json::Value::parse("{'a':1}"), Error);      // single quotes
  try {
    json::Value::parse("[1,\n  oops]");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(JsonParse, KindMismatchThrows) {
  const auto v = json::Value::parse("[1]");
  EXPECT_THROW(v.as_object(), Error);
  EXPECT_THROW(v.as_string(), Error);
  EXPECT_THROW(v.at("k"), Error);
}

TEST(JsonWrite, Escape) {
  EXPECT_EQ(json::escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(json::escape(std::string_view("\x01", 1)), "\\u0001");
  // Control characters without a short form use lowercase \u00xx; DEL and
  // bytes >= 0x80 (UTF-8) pass through; an embedded NUL is escaped.
  EXPECT_EQ(json::escape(std::string_view("\b\f\x1f\x00|\x7f\xc3\xa9", 8)),
            "\\u0008\\u000c\\u001f\\u0000|\x7f\xc3\xa9");
  EXPECT_EQ(json::escape("\r\t"), "\\r\\t");
  EXPECT_EQ(json::escape(""), "");
  EXPECT_EQ(json::escape("plain run"), "plain run");
}

TEST(JsonWrite, FormatDoubleRoundTrips) {
  for (const double v : {0.0, 1.0, -2.5, 0.1, 1.0 / 3.0, 21.433,
                         std::numeric_limits<double>::min()}) {
    const std::string s = json::format_double(v);
    EXPECT_DOUBLE_EQ(json::Value::parse(s).as_number(), v) << s;
  }
  // Identical values format identically (byte-stable reports).
  EXPECT_EQ(json::format_double(0.1 + 0.2), json::format_double(0.1 + 0.2));
}

// The printf/sscanf formatter format_double replaced, kept here as an
// independent oracle: reports must keep exactly these bytes.
std::string printf_format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  double back = 0.0;
  std::sscanf(buf, "%lf", &back);
  if (back != v) std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

TEST(JsonWrite, FormatDoubleMatchesPrintfOnEdgeCases) {
  const double edges[] = {
      0.0, -0.0, 1.0, -1.0, 0.1, 0.1 + 0.2, 1.0 / 3.0, 21.433,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), DBL_MIN, DBL_MAX, -DBL_MAX,
      std::nextafter(DBL_MIN, 0.0),  // largest subnormal
      // %g switches to exponent form below 1e-4 and at 1e15 (precision 15)
      // or 1e17 (precision 17).
      1e-5, 1e-4, 9.99999999999999e-5, 0.000123456789012345, 1e14, 1e15,
      1e16, 1e17, 123456789012345678.0, 999999999999999.9,
      // Integers at and above 2^53, where not every integer is a double.
      9007199254740992.0, 9007199254740994.0, 18014398509481988.0,
      std::ldexp(1.0, 63), std::ldexp(1.0, 64), 1e300, -1e-300,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  for (const double v : edges) {
    EXPECT_EQ(json::format_double(v), printf_format_double(v)) << v;
  }
}

TEST(JsonWrite, FormatDoubleMatchesPrintfOnSeededBitPatterns) {
  std::mt19937_64 rng(20241018);
  std::size_t mismatches = 0;
  for (int i = 0; i < 120000; ++i) {
    const std::uint64_t r = rng();
    std::uint64_t bits = r;  // any finite or non-finite pattern
    if (i % 4 == 1) bits &= 0x800FFFFFFFFFFFFFull;  // subnormals and zeros
    if (i % 4 == 2) {  // magnitudes 2^-20 .. 2^59, where report values live
      bits = (r & 0x800FFFFFFFFFFFFFull) | ((1003ull + (r >> 52) % 80) << 52);
    }
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    if (i % 4 == 3) {  // integers of every width
      v = static_cast<double>(static_cast<std::int64_t>(r) >> (r % 64));
    }
    if (json::format_double(v) != printf_format_double(v) &&
        ++mismatches <= 5) {
      ADD_FAILURE() << printf_format_double(v) << " formatted as "
                    << json::format_double(v);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonWriter, DoublesUseFormatDouble) {
  std::string out;
  json::Writer w(out);
  w.begin_array().value(0.1 + 0.2).value(-0.0).value(1e21).value(5e-324);
  w.end_array();
  EXPECT_EQ(out, "[" + printf_format_double(0.1 + 0.2) + ",-0,1e+21," +
                     printf_format_double(5e-324) + "]");
}

TEST(JsonWriter, IntegersPrintInDecimal) {
  std::string out;
  json::Writer w(out);
  w.begin_array()
      .value(std::numeric_limits<long long>::min())
      .value(std::numeric_limits<unsigned long long>::max())
      .value(0)
      .value(-7)
      .end_array();
  EXPECT_EQ(out, "[-9223372036854775808,18446744073709551615,0,-7]");
}

TEST(JsonBuild, Mutators) {
  auto arr = json::Value::array();
  arr.push_back(json::Value::number(1));
  auto obj = json::Value::object();
  obj.set("xs", std::move(arr));
  EXPECT_DOUBLE_EQ(obj.at("xs").as_array()[0].as_number(), 1.0);
  EXPECT_THROW(obj.push_back(json::Value()), Error);
}

// ---------------------------------------------------------------------------
// json::Writer — the streaming emitter behind bench reports and serve
// responses.

TEST(JsonWriter, CompactObjectAndArray) {
  std::string out;
  json::Writer w(out);
  w.begin_object()
      .member("name", "x")
      .member("n", 3)
      .member("ok", true)
      .key("xs")
      .begin_array()
      .value(1)
      .value(2.5)
      .null()
      .end_array()
      .end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(out, R"({"name":"x","n":3,"ok":true,"xs":[1,2.5,null]})");
}

TEST(JsonWriter, PrettyStyleIndentsPerContainer) {
  std::string out;
  json::Writer w(out);
  // Pretty outer object, compact inner object — the BenchReport layout.
  w.begin_object(json::Writer::Style::kPretty)
      .key("run")
      .begin_object()
      .member("suite", "smoke")
      .end_object()
      .key("cases")
      .begin_array(json::Writer::Style::kPretty)
      .begin_object()
      .member("name", "a")
      .end_object()
      .end_array()
      .end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(out,
            "{\n  \"run\": {\"suite\":\"smoke\"},\n  \"cases\": [\n"
            "    {\"name\":\"a\"}\n  ]\n}");
}

TEST(JsonWriter, EscapingRoundTripsThroughTheParser) {
  // Everything the escaper must handle: quotes, backslashes, control
  // characters, tabs/newlines, and multi-byte UTF-8 passthrough.
  const std::string nasty = "a\"b\\c\n\td\r\x01 \xE2\x82\xAC end";
  std::string out;
  json::Writer w(out);
  w.begin_object().member("s", nasty).end_object();
  const auto parsed = json::Value::parse(out);
  EXPECT_EQ(parsed.at("s").as_string(), nasty);
}

TEST(JsonWriter, NumbersRoundTripThroughTheParser) {
  const double values[] = {0.0,    -0.0,   1.0,        2.5,
                           1e-300, 1e300,  1.0 / 3.0,  -123456.789,
                           3e8,    0.1,    1234567890123456.0};
  for (const double v : values) {
    std::string out;
    json::Writer w(out);
    w.begin_array().value(v).end_array();
    const auto parsed = json::Value::parse(out);
    EXPECT_DOUBLE_EQ(parsed.as_array()[0].as_number(), v) << out;
  }
}

TEST(JsonWriter, RawSplicesPreRenderedJson) {
  std::string out;
  json::Writer w(out);
  w.begin_object().key("metrics").raw(R"({"metrics":[]})").end_object();
  EXPECT_EQ(out, R"({"metrics":{"metrics":[]}})");
}

TEST(JsonWriter, AppendsAfterExistingContent) {
  std::string out = "prefix:";
  json::Writer w(out);
  w.begin_object().member("a", 1).end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(out, R"(prefix:{"a":1})");
}

TEST(JsonWriter, TwoDocumentsInOneString) {
  // Newline-delimited framing: each Writer renders one document and the
  // caller adds the separator.
  std::string out;
  {
    json::Writer w(out);
    w.begin_array(json::Writer::Style::kPretty).value("x").end_array();
  }
  out += '\n';
  {
    json::Writer w(out);
    w.begin_object().member("b", false).end_object();
  }
  out += '\n';
  EXPECT_EQ(out, "[\n  \"x\"\n]\n{\"b\":false}\n");
}

TEST(JsonWriter, MisuseIsCaught) {
  {
    std::string out;
    json::Writer w(out);
    w.begin_object();
    // A value directly inside an object (no key first) is a bug.
    EXPECT_THROW(w.value(1), Error);
  }
  {
    std::string out;
    json::Writer w(out);
    w.begin_array();
    EXPECT_THROW(w.key("k"), Error);  // keys only exist in objects
  }
  {
    std::string out;
    json::Writer w(out);
    // Non-finite numbers have no JSON representation.
    w.begin_array();
    EXPECT_THROW(w.value(std::nan("")), Error);
    EXPECT_THROW(w.value(std::numeric_limits<double>::infinity()), Error);
  }
  {
    std::string out;
    json::Writer w(out);
    w.begin_object().end_object();
    EXPECT_TRUE(w.complete());
    EXPECT_THROW(w.value(1), Error);  // document already finished
  }
  {
    std::string out = "kept";
    json::Writer w(out);
    w.begin_array();
    EXPECT_THROW(w.end_object(), Error);  // mismatched close
    w.begin_object().key("k");
    EXPECT_THROW(w.key("again"), Error);  // two keys, no value
    EXPECT_THROW(w.end_object(), Error);  // dangling key
    EXPECT_EQ(out.rfind("kept", 0), 0u);  // earlier content untouched
  }
}

}  // namespace
}  // namespace codesign
