// Tests for the common support layer: strings, JSON, matrices, RNG.
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace qmap {
namespace {

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\n x \r"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Strings, SplitWhitespace) {
  const auto parts = split_whitespace("  foo\tbar  baz\n");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
  EXPECT_TRUE(split_whitespace("   ").empty());
}

TEST(Strings, StartsWithAndLower) {
  EXPECT_TRUE(starts_with("OPENQASM 2.0", "OPENQASM"));
  EXPECT_FALSE(starts_with("qasm", "OPENQASM"));
  EXPECT_EQ(to_lower("CNot"), "cnot");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, JsonEscapeQuotesAndBackslashes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_quote("x"), "\"x\"");
  EXPECT_EQ(json_quote("\"\\"), "\"\\\"\\\\\"");
}

TEST(Strings, JsonEscapeControlCharacters) {
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape("\b\f\r"), "\\b\\f\\r");
  EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(json_escape(""), "");
}

TEST(Strings, JsonEscapeAgreesWithJsonDumper) {
  // The Json dumper must produce exactly json_quote for strings, because
  // it delegates to the same escaper (hoisted from json.cpp).
  const std::string nasty = "q\"u\\o\nt\te\x02";
  EXPECT_EQ(Json(nasty).dump(), json_quote(nasty));
  // And the escaped form must survive a parse round-trip.
  EXPECT_EQ(Json::parse(json_quote(nasty)).as_string(), nasty);
}

/// What printf writes for `value` at "%.{precision}g" (this process runs in
/// the C locale, so the decimal point is '.').
std::string printf_g(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
  return buffer;
}

/// The values the number-writer pin compares: an explicit edge list, then
/// a seeded sweep of random bit patterns, scaled mantissas, rounding ties
/// at each precision, and multiples of pi/16.
std::vector<double> number_writer_values() {
  constexpr double kPi = 3.14159265358979323846;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {
      0.0, -0.0, 1e-5, std::nextafter(1e-5, 0.0), std::nextafter(1e-5, 1.0),
      -1e-5, 1e-4, 1e12, 999999999999.5, 999999999999.4, 1e17, 1e6,
      999999.5, 99999.95, 0.5, 1.5, 2.5, 1e-13, 1e13,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), DBL_MIN,
      std::nextafter(DBL_MIN, 0.0), DBL_MAX, -DBL_MAX, DBL_EPSILON, inf,
      -inf, nan, -nan};
  for (int k = -64; k <= 64; ++k) values.push_back(k * kPi / 16);

  std::mt19937_64 bits(0x70C4A125);
  std::uniform_int_distribution<int> decade(-30, 30);
  std::uniform_real_distribution<double> mantissa(1.0, 10.0);
  for (int i = 0; i < 400000; ++i) {
    const std::uint64_t pattern = bits();
    double value;
    std::memcpy(&value, &pattern, sizeof(value));
    values.push_back(value);
  }
  for (int i = 0; i < 400000; ++i) {
    const double value = mantissa(bits) * std::pow(10.0, decade(bits));
    values.push_back(i % 2 == 0 ? value : -value);
  }
  // Decimal ties one digit past each precision: m * 10^e with m a
  // (p+1)-digit integer ending in 5.
  for (const int precision : {6, 12, 17}) {
    std::uniform_int_distribution<std::int64_t> digits(
        static_cast<std::int64_t>(std::pow(10.0, precision - 1)),
        static_cast<std::int64_t>(std::pow(10.0, precision)) - 1);
    for (int i = 0; i < 30000; ++i) {
      const double m = static_cast<double>(digits(bits) * 10 + 5);
      values.push_back(m * std::pow(10.0, decade(bits) - precision));
    }
  }
  for (int k = -100000; k < 100000; ++k) values.push_back(k * kPi / 16);
  return values;
}

TEST(Strings, AppendDoubleMatchesPrintfG) {
  const std::vector<double> values = number_writer_values();
  ASSERT_GE(values.size(), 1000000u);
  std::string written;
  for (const double value : values) {
    for (const int precision : {12, 17, 6}) {
      written.clear();
      append_double(written, value, precision);
      const std::string expected = printf_g(value, precision);
      if (written != expected) {
        char hex[64];
        std::snprintf(hex, sizeof(hex), "%a", value);
        FAIL() << "first value that differs: " << hex << " at %." << precision
               << "g: append_double wrote '" << written << "', printf '"
               << expected << "'";
      }
    }
  }
}

TEST(Strings, AppendDoubleAppendsAndFormatDoubleWraps) {
  std::string out = "rz(";
  append_double(out, 0.5);
  out += ',';
  append_int(out, -42);
  EXPECT_EQ(out, "rz(0.5,-42");
  EXPECT_EQ(format_double(1.0 / 3.0), "0.333333333333");
  EXPECT_EQ(format_double(1.0 / 3.0, 17), "0.33333333333333331");
  EXPECT_EQ(format_double(1.0 / 3.0, 6), "0.333333");
  EXPECT_THROW(append_double(out, 1.0, 0), Error);
  EXPECT_THROW(append_double(out, 1.0, 18), Error);
}

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_NEAR(Json::parse("-2.5e1").as_number(), -25.0, 1e-12);
  EXPECT_EQ(Json::parse("\"hi\\n\"").as_string(), "hi\n");
  EXPECT_EQ(Json::parse("42").as_int(), 42);
}

TEST(Json, ParsesNestedStructures) {
  const Json doc = Json::parse(R"({
    "name": "surface17",           // comments allowed in configs
    "edges": [[1, 5], [1, 4]],
    "nested": {"a": [true, null]}
  })");
  EXPECT_EQ(doc.at("name").as_string(), "surface17");
  EXPECT_EQ(doc.at("edges").size(), 2u);
  EXPECT_EQ(doc.at("edges").at(0).at(1).as_int(), 5);
  EXPECT_TRUE(doc.at("nested").at("a").at(1).is_null());
  EXPECT_TRUE(doc.contains("name"));
  EXPECT_FALSE(doc.contains("missing"));
}

TEST(Json, RoundTripsThroughDump) {
  const std::string text =
      R"({"a":[1,2.5,"x"],"b":{"c":true,"d":null},"e":-3})";
  const Json doc = Json::parse(text);
  const Json reparsed = Json::parse(doc.dump());
  EXPECT_TRUE(doc == reparsed);
  // Pretty printing parses back too.
  EXPECT_TRUE(Json::parse(doc.dump(2)) == doc);
}

TEST(Json, ReportsErrorsWithLocation) {
  try {
    (void)Json::parse("{\n  \"a\": [1, 2,\n}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_GE(e.line(), 2);
  }
}

TEST(Json, RejectsTrailingGarbage) {
  EXPECT_THROW((void)Json::parse("{} extra"), ParseError);
  EXPECT_THROW((void)Json::parse("[1, 2"), ParseError);
  EXPECT_THROW((void)Json::parse(""), ParseError);
}

TEST(Json, TypeMismatchThrows) {
  const Json doc = Json::parse("[1]");
  EXPECT_THROW((void)doc.as_object(), ParseError);
  EXPECT_THROW((void)doc.at("key"), ParseError);
  EXPECT_THROW((void)Json::parse("1.5").as_int(), ParseError);
}

TEST(Json, AsIntRejectsValuesOutsideIntRange) {
  EXPECT_EQ(Json::parse("2147483647").as_int(),
            std::numeric_limits<int>::max());
  EXPECT_EQ(Json::parse("-2147483648").as_int(),
            std::numeric_limits<int>::min());
  EXPECT_THROW((void)Json::parse("2147483648").as_int(), ParseError);
  EXPECT_THROW((void)Json::parse("-2147483649").as_int(), ParseError);
  EXPECT_THROW((void)Json::parse("1e300").as_int(), ParseError);
}

TEST(Json, UnicodeEscapes) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
}

TEST(Matrix, IdentityAndMultiplication) {
  const Matrix id = Matrix::identity(4);
  Matrix m(4, 4);
  m.at(0, 3) = Complex{2.0, 1.0};
  EXPECT_TRUE((id * m).approx_equal(m));
  EXPECT_TRUE((m * id).approx_equal(m));
}

TEST(Matrix, KroneckerProductDimensions) {
  const Matrix a = Matrix::identity(2);
  const Matrix b = Matrix::identity(4);
  const Matrix k = a.kron(b);
  EXPECT_EQ(k.rows(), 8u);
  EXPECT_TRUE(k.approx_equal(Matrix::identity(8)));
}

TEST(Matrix, DaggerIsConjugateTranspose) {
  Matrix m(2, 2);
  m.at(0, 1) = Complex{1.0, 2.0};
  const Matrix d = m.dagger();
  EXPECT_NEAR(d.at(1, 0).imag(), -2.0, 1e-12);
}

TEST(Matrix, UnitarityCheck) {
  const double s = 1.0 / std::sqrt(2.0);
  const Matrix h(2, {Complex{s, 0}, Complex{s, 0}, Complex{s, 0},
                     Complex{-s, 0}});
  EXPECT_TRUE(h.is_unitary());
  Matrix not_unitary(2, 2);
  not_unitary.at(0, 0) = 3.0;
  EXPECT_FALSE(not_unitary.is_unitary());
}

TEST(Matrix, GlobalPhaseEquality) {
  const Matrix id = Matrix::identity(2);
  Matrix phased(2, 2);
  const Complex phase = std::polar(1.0, 0.7);
  phased.at(0, 0) = phase;
  phased.at(1, 1) = phase;
  EXPECT_TRUE(id.equal_up_to_global_phase(phased));
  Matrix scaled(2, 2);
  scaled.at(0, 0) = 2.0;
  scaled.at(1, 1) = 2.0;
  EXPECT_FALSE(id.equal_up_to_global_phase(scaled));
}

TEST(Matrix, InitializerListValidation) {
  EXPECT_THROW(Matrix(2, {Complex{1, 0}}), Error);
}

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.index(1000), b.index(1000));
  }
}

TEST(Rng, RangesRespected) {
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const int v = rng.integer(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
    EXPECT_LT(rng.index(7), 7u);
  }
}

}  // namespace
}  // namespace qmap
