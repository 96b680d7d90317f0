#include "common/str_util.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace emp {
namespace {

TEST(SplitTest, BasicSplit) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  auto parts = Split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, NoDelimiterYieldsSingleField) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StripWhitespaceTest, StripsBothEnds) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(ParseDoubleTest, ParsesValidNumbers) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("  42 "), 42.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
}

TEST(ParseInt64Test, ParsesValidIntegers) {
  EXPECT_EQ(*ParseInt64("123"), 123);
  EXPECT_EQ(*ParseInt64("-5"), -5);
}

TEST(ParseInt64Test, RejectsGarbage) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12.5").ok());
  EXPECT_FALSE(ParseInt64("9999999999999999999999").ok());
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("POLYGON ((", "POLYGON"));
  EXPECT_FALSE(StartsWith("PO", "POLYGON"));
}

TEST(FormatDoubleTest, IntegersHaveNoDecimals) {
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(-120.0), "-120");
}

TEST(FormatDoubleTest, TrimsTrailingZeros) {
  EXPECT_EQ(FormatDouble(3.5, 3), "3.5");
  EXPECT_EQ(FormatDouble(3.125, 3), "3.125");
  EXPECT_EQ(FormatDouble(0.1, 3), "0.1");
}

/// The stream-based formulation FormatDouble had before it moved to
/// std::to_chars, kept as the reference its output must match.
std::string StreamFormatDouble(double v, int precision) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::ostringstream os;
    os << static_cast<long long>(v);
    return os.str();
  }
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed << v;
  std::string s = os.str();
  size_t dot = s.find('.');
  if (dot != std::string::npos) {
    size_t last = s.find_last_not_of('0');
    if (last == dot) last = dot + 1;
    s.erase(last + 1);
  }
  return s;
}

TEST(FormatDoubleTest, MatchesTheStreamFormulationOnEdgeCases) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> edges = {
      0.0, -0.0, 0.5, -0.5, 0.125, 0.375, 2.5, 1e-300, -1e-300,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(), 1e15, -1e15, 1e15 - 1,
      -(1e15 - 1), 1e15 + 0.5, 999999999999999.9, 1e22, 1e300, -1e300,
      4503599627370495.5, 9007199254740993.0, 0.1, 0.7, 1.0 / 3.0, inf,
      -inf, std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  for (double v : edges) {
    for (int precision = 0; precision <= 17; ++precision) {
      EXPECT_EQ(FormatDouble(v, precision), StreamFormatDouble(v, precision))
          << "v=" << v << " precision=" << precision;
    }
  }
  EXPECT_EQ(FormatDouble(0.1, 200), StreamFormatDouble(0.1, 200));
  EXPECT_EQ(FormatDouble(-std::numeric_limits<double>::max(), 300),
            StreamFormatDouble(-std::numeric_limits<double>::max(), 300));
}

TEST(FormatDoubleTest, MatchesTheStreamFormulationOnRandomDoubles) {
  std::mt19937_64 rng(20221);
  std::uniform_int_distribution<int> precision_of(1, 12);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-20, 20);
  std::uniform_int_distribution<int64_t> near_limit(-1000, 1000);
  int mismatches = 0;
  for (int i = 0; i < 100000; ++i) {
    double v = 0.0;
    switch (i % 5) {
      case 0:  // Any bit pattern: subnormals, huge magnitudes, NaNs.
        v = std::bit_cast<double>(rng());
        break;
      case 1:  // Everyday magnitudes across many decades.
        v = unit(rng) * std::pow(10.0, exponent(rng));
        break;
      case 2:  // Integers and near-integers around the +-1e15 cut-over.
        v = (i % 2 == 0 ? 1.0 : -1.0) * 1e15 +
            static_cast<double>(near_limit(rng)) * 0.25;
        break;
      case 3:  // Dyadic values that land on exact decimal ties.
        v = static_cast<double>(near_limit(rng)) / 1024.0;
        break;
      default:  // Report-like values: a few decimals over a wide range.
        v = std::round(unit(rng) * 1e9) / 1000.0;
        break;
    }
    const int precision = precision_of(rng);
    const std::string got = FormatDouble(v, precision);
    const std::string want = StreamFormatDouble(v, precision);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << "v=" << std::bit_cast<uint64_t>(v)
                    << " precision=" << precision << " got " << got
                    << " want " << want;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace emp
