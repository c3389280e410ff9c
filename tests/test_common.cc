// Unit tests for src/common: time parsing, RNG, CSV, math, histogram, JSON.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <set>

#include "common/csv.h"
#include "common/histogram.h"
#include "common/json.h"
#include "common/mathutil.h"
#include "common/rng.h"
#include "common/time.h"

namespace sraps {
namespace {

// --- time -------------------------------------------------------------------

TEST(TimeTest, ParsePlainSeconds) {
  EXPECT_EQ(ParseDuration("61000"), 61000);
  EXPECT_EQ(ParseDuration("0"), 0);
}

TEST(TimeTest, ParseSuffixes) {
  EXPECT_EQ(ParseDuration("30s"), 30);
  EXPECT_EQ(ParseDuration("5m"), 300);
  EXPECT_EQ(ParseDuration("1h"), 3600);
  EXPECT_EQ(ParseDuration("35d"), 35 * kDay);
  EXPECT_EQ(ParseDuration("2w"), 14 * kDay);
}

TEST(TimeTest, ParseCompound) {
  EXPECT_EQ(ParseDuration("1d2h3m4s"), kDay + 2 * kHour + 3 * kMinute + 4);
  EXPECT_EQ(ParseDuration("1d 12h"), kDay + 12 * kHour);
}

TEST(TimeTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseDuration("").has_value());
  EXPECT_FALSE(ParseDuration("abc").has_value());
  EXPECT_FALSE(ParseDuration("5x").has_value());
  EXPECT_FALSE(ParseDuration("h5").has_value());
}

TEST(TimeTest, FormatDurationRoundTrips) {
  EXPECT_EQ(FormatDuration(0), "0s");
  EXPECT_EQ(FormatDuration(90), "1m 30s");
  EXPECT_EQ(FormatDuration(kDay + kHour), "1d 1h");
  EXPECT_EQ(FormatDuration(-60), "-1m");
}

TEST(TimeTest, FormatTime) {
  EXPECT_EQ(FormatTime(0), "0+00:00:00");
  EXPECT_EQ(FormatTime(kDay + 2 * kHour + 3 * kMinute + 4), "1+02:03:04");
}

// --- rng --------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.UniformInt(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values reachable
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(3);
  EXPECT_EQ(rng.UniformInt(9, 9), 9);
}

TEST(RngTest, UniformIntThrowsOnInvertedRange) {
  Rng rng(3);
  EXPECT_THROW(rng.UniformInt(5, 2), std::invalid_argument);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) samples.push_back(rng.Normal(10.0, 2.0));
  EXPECT_NEAR(Mean(samples), 10.0, 0.05);
  EXPECT_NEAR(StdDev(samples), 2.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) samples.push_back(rng.Exponential(0.5));
  EXPECT_NEAR(Mean(samples), 2.0, 0.1);
}

TEST(RngTest, ExponentialRejectsNonPositiveRate) {
  Rng rng(1);
  EXPECT_THROW(rng.Exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.Exponential(-1.0), std::invalid_argument);
}

TEST(RngTest, WeibullShapeOneIsExponential) {
  Rng rng(17);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) samples.push_back(rng.Weibull(1.0, 3.0));
  EXPECT_NEAR(Mean(samples), 3.0, 0.15);  // mean of Weibull(1, l) = l
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(19);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(RngTest, CategoricalThrowsOnBadWeights) {
  Rng rng(1);
  EXPECT_THROW(rng.Categorical({}), std::invalid_argument);
  EXPECT_THROW(rng.Categorical({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.Categorical({1.0, -1.0}), std::invalid_argument);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.Split();
  // The child stream should not mirror the parent.
  Rng b(42);
  b.Split();
  EXPECT_EQ(a.NextU64(), b.NextU64());  // parents stay in sync
  EXPECT_NE(child.NextU64(), a.NextU64());
}

// --- csv --------------------------------------------------------------------

TEST(CsvTest, ParseBasic) {
  const auto t = CsvTable::Parse("a,b,c\n1,2,3\n4,5,6\n");
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_cols(), 3u);
  EXPECT_EQ(t.Cell(0, "b"), "2");
  EXPECT_EQ(t.Cell(1, 2), "6");
}

TEST(CsvTest, ParseQuotedFields) {
  const auto t = CsvTable::Parse("name,desc\nx,\"a,b\"\ny,\"say \"\"hi\"\"\"\n");
  EXPECT_EQ(t.Cell(0, "desc"), "a,b");
  EXPECT_EQ(t.Cell(1, "desc"), "say \"hi\"");
}

TEST(CsvTest, ParseCrLf) {
  const auto t = CsvTable::Parse("a,b\r\n1,2\r\n");
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.Cell(0, "b"), "2");
}

TEST(CsvTest, ParseEmptyTrailingField) {
  const auto t = CsvTable::Parse("a,b\n1,\n");
  EXPECT_EQ(t.Cell(0, "b"), "");
}

TEST(CsvTest, RaggedRowThrows) {
  EXPECT_THROW(CsvTable::Parse("a,b\n1\n"), std::runtime_error);
}

TEST(CsvTest, UnterminatedQuoteThrows) {
  EXPECT_THROW(CsvTable::Parse("a\n\"oops\n"), std::runtime_error);
}

TEST(CsvTest, TypedAccessors) {
  const auto t = CsvTable::Parse("x,y\n1.5,7\n,\n");
  EXPECT_DOUBLE_EQ(t.GetDouble(0, "x").value(), 1.5);
  EXPECT_EQ(t.GetInt(0, "y").value(), 7);
  EXPECT_FALSE(t.GetDouble(1, "x").has_value());
  EXPECT_FALSE(t.GetInt(1, "y").has_value());
}

TEST(CsvTest, MalformedNumberThrows) {
  const auto t = CsvTable::Parse("x\nnope\n");
  EXPECT_THROW(t.GetDouble(0, "x"), std::runtime_error);
}

TEST(CsvTest, NumberFormatIsPinned) {
  // Generated datasets write every number through CsvNumber: these strings
  // are their bytes.
  EXPECT_EQ(CsvNumber(0.1), "0.1");
  EXPECT_EQ(CsvNumber(14.35720367), "14.35720367");
  EXPECT_EQ(CsvNumber(1e-7), "1e-07");
  EXPECT_EQ(CsvNumber(123456789012.0), "1.23456789e+11");
  EXPECT_EQ(CsvNumber(-0.0), "-0");
  EXPECT_EQ(CsvNumber(1.0 / 3.0), "0.3333333333");
}

TEST(CsvTest, CellParsersAgreeWithTheCParsers) {
  // Every cell strtod / strtoll accept whole keeps their value bit for bit,
  // including the ones from_chars refuses or reads differently.
  for (const char* cell : {"1.5", "-0", "0.1", "1e-310", "1e400", "-1e400", " 2.5", "+3",
                           "0x1p3", "inf", "-Infinity", "nan", "nan(123)", ".5", "5.",
                           "1e", "abc", "1.5x", " "}) {
    char* end = nullptr;
    const double want = std::strtod(cell, &end);
    const std::optional<double> got = ParseCsvDouble(cell);
    if (*end != '\0' || end == cell) {
      EXPECT_FALSE(got.has_value()) << cell;
      continue;
    }
    ASSERT_TRUE(got.has_value()) << cell;
    EXPECT_EQ(std::memcmp(&want, &*got, sizeof want), 0) << cell;
  }
  for (const char* cell : {"7", "-42", "007", "+5", " 9", "99999999999999999999",
                           "-99999999999999999999", "1.0", "x", "3 "}) {
    char* end = nullptr;
    const long long want = std::strtoll(cell, &end, 10);
    const std::optional<std::int64_t> got = ParseCsvInt(cell);
    if (*end != '\0' || end == cell) {
      EXPECT_FALSE(got.has_value()) << cell;
      continue;
    }
    ASSERT_TRUE(got.has_value()) << cell;
    EXPECT_EQ(*got, want) << cell;
  }
  EXPECT_FALSE(ParseCsvDouble("").has_value());
  EXPECT_FALSE(ParseCsvInt("").has_value());
}

TEST(CsvTest, ReaderNamesTheLineOfEachRow) {
  // Blank lines are skipped; a newline inside quotes still counts.
  CsvReader reader = CsvReader::FromText("a,b\n\n\"x\ny\",1\r\n2,3\n", 4);
  std::vector<std::string> row;
  ASSERT_TRUE(reader.Next(row));
  EXPECT_EQ(reader.Where(), "text:1");
  ASSERT_TRUE(reader.Next(row));
  EXPECT_EQ(row, (std::vector<std::string>{"x\ny", "1"}));
  EXPECT_EQ(reader.Where(), "text:3");
  ASSERT_TRUE(reader.Next(row));
  EXPECT_EQ(row, (std::vector<std::string>{"2", "3"}));
  EXPECT_EQ(reader.line(), 5u);
  EXPECT_FALSE(reader.Next(row));
}

TEST(CsvTest, WriterRoundTrip) {
  CsvWriter w({"a", "b"});
  w.AddRow({"1", "two,with comma"});
  w.AddRow({"3", "quote\"inside"});
  const auto t = CsvTable::Parse(w.ToString());
  EXPECT_EQ(t.Cell(0, "b"), "two,with comma");
  EXPECT_EQ(t.Cell(1, "b"), "quote\"inside");
}

TEST(CsvTest, WriterRejectsWidthMismatch) {
  CsvWriter w({"a", "b"});
  EXPECT_THROW(w.AddRow({"only one"}), std::invalid_argument);
}

// --- math -------------------------------------------------------------------

TEST(MathTest, MeanAndStdDev) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_NEAR(StdDev({2, 4, 4, 4, 5, 5, 7, 9}), 2.0, 1e-12);
}

TEST(MathTest, Percentile) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.0);
  EXPECT_THROW(Percentile({}, 50), std::invalid_argument);
}

TEST(MathTest, KahanSumStable) {
  std::vector<double> v(1000000, 0.1);
  EXPECT_NEAR(KahanSum(v), 100000.0, 1e-6);
}

TEST(MathTest, L2NormalizeColumns) {
  std::vector<std::vector<double>> rows = {{3, 0}, {4, 0}};
  L2NormalizeColumns(rows);
  EXPECT_DOUBLE_EQ(rows[0][0], 0.6);
  EXPECT_DOUBLE_EQ(rows[1][0], 0.8);
  EXPECT_DOUBLE_EQ(rows[0][1], 0.0);  // zero column untouched
}

TEST(MathTest, L2NormalizeRejectsRagged) {
  std::vector<std::vector<double>> rows = {{1, 2}, {3}};
  EXPECT_THROW(L2NormalizeColumns(rows), std::invalid_argument);
}

TEST(MathTest, ClampLerpApprox) {
  EXPECT_DOUBLE_EQ(Clamp(5, 0, 3), 3);
  EXPECT_DOUBLE_EQ(Clamp(-1, 0, 3), 0);
  EXPECT_DOUBLE_EQ(Lerp(10, 20, 0.25), 12.5);
  EXPECT_TRUE(ApproxEqual(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(ApproxEqual(1.0, 1.1));
}

// --- histogram ---------------------------------------------------------------

TEST(HistogramTest, Buckets) {
  Histogram h({0, 10, 100, 1000}, {"s", "m", "l"});
  h.Add(5);
  h.Add(10);
  h.Add(99);
  h.Add(500);
  h.Add(-1);
  h.Add(1000);
  EXPECT_DOUBLE_EQ(h.Count(0), 1);
  EXPECT_DOUBLE_EQ(h.Count(1), 2);
  EXPECT_DOUBLE_EQ(h.Count(2), 1);
  EXPECT_DOUBLE_EQ(h.CountUnderflow(), 1);
  EXPECT_DOUBLE_EQ(h.CountOverflow(), 1);
  EXPECT_DOUBLE_EQ(h.Total(), 6);
}

TEST(HistogramTest, WeightedAdds) {
  Histogram h({0, 1, 2});
  h.Add(0.5, 2.5);
  EXPECT_DOUBLE_EQ(h.Count(0), 2.5);
}

TEST(HistogramTest, InvalidEdgesThrow) {
  EXPECT_THROW(Histogram({1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(HistogramTest, LabelCountMustMatch) {
  EXPECT_THROW(Histogram({0, 1, 2}, {"only-one"}), std::invalid_argument);
}

// --- json -------------------------------------------------------------------

TEST(JsonTest, ParsePrimitives) {
  EXPECT_TRUE(JsonValue::Parse("null").is_null());
  EXPECT_EQ(JsonValue::Parse("true").AsBool(), true);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-3.25e2").AsDouble(), -325.0);
  EXPECT_EQ(JsonValue::Parse("\"hi\\n\"").AsString(), "hi\n");
}

TEST(JsonTest, ParseNested) {
  const auto v = JsonValue::Parse(R"({"a": [1, 2, {"b": "c"}], "d": {}})");
  EXPECT_EQ(v.At("a").AsArray().size(), 3u);
  EXPECT_EQ(v.At("a").AsArray()[2].At("b").AsString(), "c");
  EXPECT_TRUE(v.At("d").AsObject().empty());
}

TEST(JsonTest, ParseUnicodeEscape) {
  EXPECT_EQ(JsonValue::Parse("\"\\u0041\"").AsString(), "A");
}

TEST(JsonTest, DumpParseRoundTrip) {
  JsonObject o;
  o["x"] = 1.5;
  o["y"] = JsonValue(JsonArray{JsonValue("a"), JsonValue(true), JsonValue()});
  o["name"] = "with \"quotes\" and\nnewline";
  const JsonValue v(std::move(o));
  const JsonValue back = JsonValue::Parse(v.Dump(2));
  EXPECT_DOUBLE_EQ(back.At("x").AsDouble(), 1.5);
  EXPECT_EQ(back.At("y").AsArray()[0].AsString(), "a");
  EXPECT_EQ(back.At("name").AsString(), "with \"quotes\" and\nnewline");
}

TEST(JsonTest, TrailingGarbageThrows) {
  EXPECT_THROW(JsonValue::Parse("{} extra"), std::runtime_error);
}

TEST(JsonTest, MissingKeyThrows) {
  const auto v = JsonValue::Parse("{}");
  EXPECT_THROW(v.At("nope"), std::runtime_error);
  EXPECT_DOUBLE_EQ(v.GetDouble("nope", 7.0), 7.0);
}

TEST(JsonTest, TypeMismatchThrows) {
  EXPECT_THROW(JsonValue::Parse("3").AsString(), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("\"s\"").AsDouble(), std::runtime_error);
}

// Property sweep: duration parse/format round trip on many values.
class DurationRoundTrip : public ::testing::TestWithParam<SimDuration> {};

TEST_P(DurationRoundTrip, FormatThenParse) {
  const SimDuration d = GetParam();
  const auto parsed = ParseDuration(FormatDuration(d));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, d);
}

INSTANTIATE_TEST_SUITE_P(Durations, DurationRoundTrip,
                         ::testing::Values(1, 59, 60, 61, 3599, 3600, 3661, 86399,
                                           86400, 90061, 31 * kDay, 12345678));

}  // namespace
}  // namespace sraps
