// The shared JSON codec: writer escaping and number form, the reader's
// grammar, its one \u rule, exact u64/double round trips, the nesting
// bound, and seeded truncation / mutation fuzz over one document of each
// kind the repo writes. parse() is total: any byte string maps to a value
// or to nullopt plus an error, never a crash or a throw.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>

namespace argus::json {
namespace {

using Kind = Value::Kind;

std::string encoded(std::string_view s) {
  std::string out;
  put_string(out, s);
  return out;
}

std::string number(double v) {
  std::string out;
  put_number(out, v);
  return out;
}

/// Decode a JSON string literal; nullopt if it does not parse as one.
std::optional<std::string> unquote(const std::string& text) {
  const auto v = parse(text);
  if (!v || !v->is(Kind::kString)) return std::nullopt;
  return v->text;
}

TEST(JsonWriter, EscapesQuoteBackslashAndControlBytesOnly) {
  EXPECT_EQ(encoded(""), "\"\"");
  EXPECT_EQ(encoded("a\"b\\c/d"), "\"a\\\"b\\\\c/d\"");
  EXPECT_EQ(encoded(std::string("\x00\x01\n\x1f", 4)),
            "\"\\u0000\\u0001\\u000a\\u001f\"");
  // 0x20 and above, including DEL and high bytes, are copied raw.
  EXPECT_EQ(encoded(" ~\x7f\x80\xff"), "\" ~\x7f\x80\xff\"");
}

TEST(JsonWriter, NumbersUseShortestRoundTripForm) {
  EXPECT_EQ(number(0), "0");
  EXPECT_EQ(number(-0.0), "-0");
  EXPECT_EQ(number(1.5), "1.5");
  EXPECT_EQ(number(0.1), "0.1");
  EXPECT_EQ(number(100000), "1e+05");
  EXPECT_EQ(number(123456), "123456");
  EXPECT_EQ(number(1e-7), "1e-07");
}

TEST(JsonReader, ParsesEveryKind) {
  const auto v = parse(
      " {\"n\":null,\"t\":true,\"f\":false,\"x\":-1.5e+2,"
      "\"s\":\"hi\",\"a\":[1,[],{}]} \r\n");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is(Kind::kObject));
  EXPECT_TRUE(v->find("n")->is(Kind::kNull));
  EXPECT_TRUE(v->find("t")->boolean);
  EXPECT_TRUE(v->find("f")->is(Kind::kBool));
  EXPECT_FALSE(v->find("f")->boolean);
  EXPECT_EQ(v->find("x")->as_double(), -150.0);
  EXPECT_EQ(v->find("s")->as_string(), "hi");
  ASSERT_EQ(v->find("a")->items.size(), 3u);
  EXPECT_EQ(v->find("a")->items[0].as_u64(), 1u);
  EXPECT_EQ(v->find("missing"), nullptr);
  // Accessors of the wrong kind are empty, never a reinterpretation.
  EXPECT_FALSE(v->find("s")->as_double().has_value());
  EXPECT_FALSE(v->find("x")->as_string().has_value());
}

TEST(JsonReader, UnicodeEscapeIsExactlyFourHexDigitsUpTo0xFF) {
  EXPECT_EQ(unquote("\"\\u0041\""), "A");
  EXPECT_EQ(unquote("\"\\u00ff\""), "\xff");
  EXPECT_EQ(unquote("\"\\u00FF\""), "\xff");
  EXPECT_EQ(unquote("\"\\u0000\""), std::string(1, '\0'));
  for (const char* bad :
       {"\"\\u0100\"", "\"\\uffff\"", "\"\\u12zz\"", "\"\\u00f\"",
        "\"\\u00\"", "\"\\u\"", "\"\\u+0ff\"", "\"\\u-0ff\"",
        "\"\\u 0ff\"", "\"\\x41\""}) {
    std::string error;
    EXPECT_FALSE(parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  // Every byte survives a writer -> reader round trip.
  for (int b = 0; b < 256; ++b) {
    const std::string s(1, static_cast<char>(b));
    EXPECT_EQ(unquote(encoded(s)), s) << "byte " << b;
  }
}

TEST(JsonReader, OtherEscapesDecode) {
  EXPECT_EQ(unquote(R"("\"\\\/\b\f\n\r\t")"), "\"\\/\b\f\n\r\t");
}

TEST(JsonReader, RejectsTrailingBytes) {
  EXPECT_TRUE(parse("{} \t\r\n").has_value());
  std::string error;
  EXPECT_FALSE(parse("{}x", &error).has_value());
  EXPECT_EQ(error, "trailing bytes after JSON value at offset 2");
  EXPECT_FALSE(parse("1 2").has_value());
  EXPECT_FALSE(parse("{}{}").has_value());
  EXPECT_FALSE(parse("").has_value());
  EXPECT_FALSE(parse("   ").has_value());
}

TEST(JsonReader, DuplicateKeysKeepTheLastValue) {
  const auto v = parse(R"({"a":1,"b":true,"a":"two"})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->members.size(), 2u);
  EXPECT_EQ(v->find("a")->as_string(), "two");
}

TEST(JsonReader, StrictGrammar) {
  for (const char* bad :
       {"01", "+1", ".5", "1.", "1e", "1e+", "-", "--1", "0x10", "nan",
        "inf", "-inf", "tru", "nul", "[1,]", "{\"a\":1,}", "{\"a\"}",
        "{a:1}", "[1 2]", "\"unterminated", "\"raw\ncontrol\"", "'x'"}) {
    std::string error;
    EXPECT_FALSE(parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  for (const char* good : {"0", "-0", "1.25", "1E5", "1e-5", "-12.5e+3",
                           "[]", "{}", "\"\"", "null"}) {
    EXPECT_TRUE(parse(good).has_value()) << good;
  }
}

TEST(JsonReader, U64RoundTripsExactlyAcrossTheFullRange) {
  for (const std::uint64_t x :
       {std::uint64_t{0}, std::uint64_t{1}, (std::uint64_t{1} << 53) + 1,
        std::numeric_limits<std::uint64_t>::max() - 1,
        std::numeric_limits<std::uint64_t>::max()}) {
    const auto v = parse(std::to_string(x));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->as_u64(), x);
  }
  // Out of range, signed, fractional or exponent forms are not u64s.
  for (const char* text :
       {"18446744073709551616", "-1", "1.0", "1e3", "-0"}) {
    const auto v = parse(text);
    ASSERT_TRUE(v.has_value()) << text;
    EXPECT_FALSE(v->as_u64().has_value()) << text;
  }
}

TEST(JsonReader, DoubleRoundTripsBitExactly) {
  for (const double x :
       {0.0, -0.0, 0.1, 1.0 / 3.0, 2.5e-7, 1e21, 123456.789, -98.6,
        5e-324, DBL_MIN, DBL_MAX, -DBL_MAX, 1e15 + 0.5}) {
    const auto v = parse(number(x));
    ASSERT_TRUE(v.has_value()) << number(x);
    const auto back = v->as_double();
    ASSERT_TRUE(back.has_value()) << number(x);
    EXPECT_EQ(std::memcmp(&*back, &x, sizeof(x)), 0) << number(x);
  }
  // Beyond the double range there is no value to recover.
  EXPECT_FALSE(parse("1e999")->as_double().has_value());
}

TEST(JsonReader, NestingIsBounded) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(parse(nested(kMaxDepth)).has_value());
  std::string error;
  EXPECT_FALSE(parse(nested(kMaxDepth + 1), &error).has_value());
  EXPECT_NE(error.find("nesting too deep"), std::string::npos);
  // Objects count toward the same bound.
  std::string objects;
  for (std::size_t i = 0; i <= kMaxDepth; ++i) objects += "{\"k\":";
  objects += "0" + std::string(kMaxDepth + 1, '}');
  EXPECT_FALSE(parse(objects).has_value());
  // A flood of openers is refused, not recursed into.
  EXPECT_FALSE(parse(std::string(50000, '[')).has_value());
}

// One document of each kind the repo writes, captured from its writer.
const char* const kTraceLine =
    R"({"k":"B","ts":12.625,"n":4,"name":"handle.QUE2","cat":"phase",)"
    R"("a":18446744073709551615,"b":3,"arg":"kiosk \"7\"\u0001"})";

const char* const kTrajectory =
    "{\"schema\":1,\"name\":\"scale\",\"entries\":[\n"
    R"({"git_sha":"c06aac996b94","date_utc":"2026-01-01T00:00:00Z",)"
    R"("threads":4,"cpus":4,"repeat":1,"metrics":{"mem.rss_kb.n10000":)"
    R"({"value":412345,"unit":"kB","source":"wall","dir":"lower"},)"
    R"("virtual.found.n10000":{"value":10000,"unit":"services",)"
    R"("source":"virtual","dir":"higher"},"wall.ms.n10000":{"value":)"
    R"(1234.56789,"unit":"ms","source":"wall","dir":"lower"}}},)"
    "\n"
    R"({"git_sha":"unknown","date_utc":"2026-01-02T00:00:00Z",)"
    R"("threads":1,"cpus":8,"repeat":3,"metrics":{"virtual.total_ms":)"
    R"({"value":3.25e-05,"unit":"ms","source":"virtual","dir":"lower"}}})"
    "\n]}\n";

const char* const kProfile =
    R"({"schema":1,"truncated":false,"paths":{"harness.run":{"count":1,)"
    R"("incl_ns":981234,"self_ns":1200},"harness.run;crypto.ec.shamir_)"
    R"(verify":{"count":16,"incl_ns":980034,"self_ns":980034}},"events":[)"
    R"({"lane":1,"seq":0,"depth":0,"path":"harness.run","t0_ns":100,)"
    R"("dur_ns":981234,"self_ns":1200},{"lane":1,"seq":1,"depth":1,)"
    R"("path":"harness.run;crypto.ec.shamir_verify","t0_ns":150,)"
    R"("dur_ns":61252,"self_ns":61252}]})"
    "\n";

const char* const kArtifacts[] = {kTraceLine, kTrajectory, kProfile};

TEST(JsonFuzz, EveryTruncationIsRejected) {
  for (const std::string doc : kArtifacts) {
    ASSERT_TRUE(parse(doc).has_value()) << doc;
    // Each document is one object: no proper prefix that ends inside it is
    // a complete value, and trailing whitespace is all that may be cut.
    const std::size_t body = doc.find_last_not_of(" \n") + 1;
    for (std::size_t n = 0; n < body; ++n) {
      std::string error;
      std::optional<Value> v;
      EXPECT_NO_THROW(v = parse(std::string_view(doc).substr(0, n), &error));
      EXPECT_FALSE(v.has_value()) << "prefix " << n << " of " << doc;
      EXPECT_FALSE(error.empty()) << "prefix " << n << " of " << doc;
    }
  }
}

TEST(JsonFuzz, SeededMutationNeverCrashes) {
  // Overwrite 1-4 random bytes 20k times per document. Mutants must parse
  // or fail with an error; the sweep must see both outcomes to mean
  // anything.
  std::mt19937_64 rng(0x15A0);
  for (const std::string doc : kArtifacts) {
    std::uint64_t accepted = 0, rejected = 0;
    for (int iter = 0; iter < 20000; ++iter) {
      std::string text = doc;
      const std::uint64_t flips = 1 + rng() % 4;
      for (std::uint64_t f = 0; f < flips; ++f) {
        text[rng() % text.size()] = static_cast<char>(rng() % 256);
      }
      std::string error;
      std::optional<Value> v;
      EXPECT_NO_THROW(v = parse(text, &error));
      if (v.has_value()) {
        accepted++;
      } else {
        EXPECT_FALSE(error.empty());
        rejected++;
      }
    }
    EXPECT_GT(accepted, 0u) << doc;
    EXPECT_GT(rejected, 0u) << doc;
  }
}

}  // namespace
}  // namespace argus::json
