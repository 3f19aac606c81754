// Unit tests for src/common: Status/Result, RNG determinism and
// distribution sanity, string utilities, CSV round trips, CLI parsing.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include <gtest/gtest.h>

#include "common/cli.h"
#include "common/csv.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace fairwos::common {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

Result<int> Doubler(Result<int> in) {
  FW_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(Doubler(21).value(), 42);
  EXPECT_FALSE(Doubler(Status::Internal("boom")).ok());
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntUnbiasedMean) {
  Rng rng(8);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.UniformInt(10));
  EXPECT_NEAR(sum / n, 4.5, 0.1);
}

TEST(RngTest, NormalMoments) {
  Rng rng(9);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(10);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, FillBernoulliMatchesPerElementLoop) {
  // Dropout draws its masks in one FillBernoulli call; it must be the
  // per-element Bernoulli loop it replaced, draw for draw, RNG state
  // included (an odd Normal() leaves a cached variate that must survive).
  for (const double p : {0.0, 0.5, 0.8, 1.0}) {
    Rng loop_rng(21), fill_rng(21);
    loop_rng.Normal();
    fill_rng.Normal();
    const int64_t n = 3 * 16 + 5;
    std::vector<float> loop_mask(static_cast<size_t>(n));
    for (float& m : loop_mask) m = loop_rng.Bernoulli(p) ? 2.0f : 0.0f;
    std::vector<float> fill_mask(static_cast<size_t>(n), -1.0f);
    fill_rng.FillBernoulli(p, 2.0f, fill_mask.data(), n);
    EXPECT_EQ(fill_mask, loop_mask) << "p = " << p;
    EXPECT_EQ(fill_rng.SaveState(), loop_rng.SaveState()) << "p = " << p;
  }
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(11);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<int64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (int64_t v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(RngTest, SampleAllIsPermutation) {
  Rng rng(12);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<int64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, ShuffleKeepsMultiset) {
  Rng rng(13);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(14);
  Rng child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.NextU64() == child.NextU64());
  EXPECT_EQ(same, 0);
}

TEST(StringUtilTest, SplitPreservesEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, ParseIntValid) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt(" -7 ").value(), -7);
}

TEST(StringUtilTest, ParseIntRejectsGarbage) {
  EXPECT_FALSE(ParseInt("12x").ok());
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("1.5").ok());
}

TEST(StringUtilTest, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(ParseDouble("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
}

TEST(StringUtilTest, ParseDoubleRejectsGarbage) {
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5junk").ok());
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
}

TEST(StringUtilTest, FormatMeanStd) {
  EXPECT_EQ(FormatMeanStd(86.5638, 2.7449), "86.56 ± 2.74");
}

TEST(CsvTest, RoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "fw_csv_test.csv").string();
  CsvTable table;
  table.header = {"a", "b"};
  table.rows = {{"1", "2"}, {"3", "4"}};
  ASSERT_TRUE(WriteCsv(path, table).ok());
  auto read = ReadCsv(path, /*has_header=*/true);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->header, table.header);
  EXPECT_EQ(read->rows, table.rows);
  std::filesystem::remove(path);
}

TEST(CsvTest, MissingFileIsIoError) {
  auto read = ReadCsv("/nonexistent/not_here.csv", false);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, SkipsBlankLinesAndCr) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "fw_csv_cr.csv").string();
  std::ofstream out(path);
  out << "x,y\r\n\n1,2\r\n";
  out.close();
  auto read = ReadCsv(path, /*has_header=*/true);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->rows.size(), 1u);
  EXPECT_EQ(read->rows[0][1], "2");
  std::filesystem::remove(path);
}

TEST(CliTest, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=2.5", "--k", "7", "--verbose"};
  auto flags = CliFlags::Parse(5, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  EXPECT_DOUBLE_EQ(flags->GetDouble("alpha", 0), 2.5);
  EXPECT_EQ(flags->GetInt("k", 0), 7);
  EXPECT_TRUE(flags->GetBool("verbose", false));
  EXPECT_EQ(flags->GetString("absent", "dflt"), "dflt");
}

TEST(CliTest, RejectsPositional) {
  const char* argv[] = {"prog", "stray"};
  EXPECT_FALSE(CliFlags::Parse(2, const_cast<char**>(argv)).ok());
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch w;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GT(w.Seconds(), 0.0);
  const double before = w.Seconds();
  w.Reset();
  EXPECT_LE(w.Seconds(), before + 1.0);
}

}  // namespace
}  // namespace fairwos::common
