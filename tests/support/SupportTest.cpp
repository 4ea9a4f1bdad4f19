//===--- SupportTest.cpp - support library tests -----------------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/Format.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/TableWriter.h"

#include <gtest/gtest.h>

using namespace olpp;

TEST(Format, Fixed) {
  EXPECT_EQ(formatFixed(1.5, 2), "1.50");
  EXPECT_EQ(formatFixed(-0.336, 1), "-0.3");
  EXPECT_EQ(formatFixed(0.0, 0), "0");
}

TEST(Format, SignedPercent) {
  EXPECT_EQ(formatSignedPercent(-33.6), "-33.6 %");
  EXPECT_EQ(formatSignedPercent(4.4), "+4.4 %");
  EXPECT_EQ(formatSignedPercent(0.0), "+0.0 %");
}

TEST(Format, GroupedInt) {
  EXPECT_EQ(formatInt(3539310, true), "3,539,310");
  EXPECT_EQ(formatInt(-1234, true), "-1,234");
  EXPECT_EQ(formatInt(12), "12");
  EXPECT_EQ(formatInt(0, true), "0");
}

TEST(Format, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcd", 2), "abcd");
}

TEST(Format, ParseUnsignedTakesWholeInRangeDecimals) {
  uint64_t V = 7;
  EXPECT_TRUE(parseUnsigned("0", 0, 10, V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseUnsigned("4294967295", 0, UINT32_MAX, V));
  EXPECT_EQ(V, 4294967295u);
  EXPECT_TRUE(parseUnsigned("18446744073709551615", 0, UINT64_MAX, V));
  EXPECT_EQ(V, UINT64_MAX);
  EXPECT_TRUE(parseUnsigned("007", 1, 10, V));
  EXPECT_EQ(V, 7u);
}

TEST(Format, ParseUnsignedRejectsJunkSignsOverflowAndRange) {
  uint64_t V = 42;
  for (const char *Bad : {"", "abc", "4x", "x4", "-1", "+1", " 1", "1 ", "1.5",
                          "0x10", "18446744073709551616",
                          "99999999999999999999999"})
    EXPECT_FALSE(parseUnsigned(Bad, 0, UINT64_MAX, V)) << "'" << Bad << "'";
  EXPECT_FALSE(parseUnsigned(nullptr, 0, UINT64_MAX, V));
  EXPECT_FALSE(parseUnsigned("0", 1, 10, V));
  EXPECT_FALSE(parseUnsigned("11", 1, 10, V));
  EXPECT_FALSE(parseUnsigned("4294967296", 0, UINT32_MAX, V));
  EXPECT_EQ(V, 42u); // untouched on every failure
}

TEST(Format, ParseSignedTakesWholeDecimals) {
  int64_t V = 7;
  EXPECT_TRUE(parseSigned("0", V));
  EXPECT_EQ(V, 0);
  EXPECT_TRUE(parseSigned("-0", V));
  EXPECT_EQ(V, 0);
  EXPECT_TRUE(parseSigned("-41", V));
  EXPECT_EQ(V, -41);
  EXPECT_TRUE(parseSigned("-010", V));
  EXPECT_EQ(V, -10);
  EXPECT_TRUE(parseSigned("9223372036854775807", V));
  EXPECT_EQ(V, INT64_MAX);
  EXPECT_TRUE(parseSigned("-9223372036854775808", V));
  EXPECT_EQ(V, INT64_MIN);
}

TEST(Format, ParseSignedRejectsJunkAndOverflow) {
  int64_t V = 42;
  for (const char *Bad : {"", "-", "--1", "+1", "abc", "4x", "x41", "-4x",
                          " 1", "1 ", "- 1", "1.5", "0x10",
                          "9223372036854775808", "-9223372036854775809",
                          "99999999999999999999999"})
    EXPECT_FALSE(parseSigned(Bad, V)) << "'" << Bad << "'";
  EXPECT_FALSE(parseSigned(nullptr, V));
  EXPECT_EQ(V, 42); // untouched on every failure
}

TEST(Rng, Deterministic) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, BoundsRespected) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_LT(R.nextBelow(10), 10u);
    int64_t V = R.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng R(1);
  for (int I = 0; I < 50; ++I) {
    EXPECT_TRUE(R.chance(1, 1));
    EXPECT_FALSE(R.chance(0, 5));
  }
}

TEST(Stats, MeanGeomeanMinMax) {
  std::vector<double> V = {1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(V), 7.0 / 3.0);
  EXPECT_NEAR(geomean(V), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(minOf(V), 1.0);
  EXPECT_DOUBLE_EQ(maxOf(V), 4.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(TableWriter, TextAlignment) {
  TableWriter T({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"long-name", "22"});
  std::string Out = T.renderText();
  EXPECT_NE(Out.find("name       value"), std::string::npos);
  EXPECT_NE(Out.find("long-name  22"), std::string::npos);
}

TEST(TableWriter, CsvEscaping) {
  TableWriter T({"a", "b"});
  T.addRow({"x,y", "with \"quote\""});
  std::string Out = T.renderCsv();
  EXPECT_NE(Out.find("\"x,y\""), std::string::npos);
  EXPECT_NE(Out.find("\"with \"\"quote\"\"\""), std::string::npos);
}
