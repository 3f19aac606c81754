// Tests for src/eval: statistics helpers, k-means, t-SNE, the table
// printer, and the repeated-trial harness.
#include <cmath>

#include <gtest/gtest.h>

#include "baselines/vanilla.h"
#include "common/metrics.h"
#include "data/synthetic.h"
#include "eval/harness.h"
#include "eval/kmeans.h"
#include "eval/stats.h"
#include "eval/table.h"
#include "eval/tsne.h"

namespace fairwos::eval {
namespace {

TEST(StatsTest, MeanStdHandComputed) {
  auto ms = ComputeMeanStd({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(ms.mean, 5.0);
  EXPECT_DOUBLE_EQ(ms.stddev, 2.0);
}

TEST(StatsTest, PearsonPerfectAndInverse) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> z = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, z), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantIsZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(StatsTest, SilhouetteSeparatedClusters) {
  // Two tight, well-separated 1-D clusters.
  std::vector<float> points = {0.0f, 0.1f, 0.2f, 10.0f, 10.1f, 10.2f};
  std::vector<int> labels = {0, 0, 0, 1, 1, 1};
  EXPECT_GT(SilhouetteScore(points, 1, labels), 0.9);
}

TEST(StatsTest, SilhouetteMixedClustersNearZero) {
  std::vector<float> points = {0.0f, 1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
  std::vector<int> labels = {0, 1, 0, 1, 0, 1};
  EXPECT_LT(SilhouetteScore(points, 1, labels), 0.1);
}

TEST(StatsTest, SilhouetteSingleClusterIsZero) {
  std::vector<float> points = {0.0f, 1.0f};
  std::vector<int> labels = {0, 0};
  EXPECT_DOUBLE_EQ(SilhouetteScore(points, 1, labels), 0.0);
}

TEST(KMeansTest, RecoversWellSeparatedClusters) {
  common::Rng rng(1);
  std::vector<float> points;
  std::vector<int> truth;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 30; ++i) {
      points.push_back(static_cast<float>(c) * 10.0f +
                       static_cast<float>(rng.Normal(0.0, 0.3)));
      points.push_back(static_cast<float>(rng.Normal(0.0, 0.3)));
      truth.push_back(c);
    }
  }
  auto result = KMeans(points.data(), 90, 2, 3, 50, &rng);
  // Every true cluster must be pure under the recovered assignment.
  for (int c = 0; c < 3; ++c) {
    const int first = result.assignment[static_cast<size_t>(c * 30)];
    for (int i = 0; i < 30; ++i) {
      EXPECT_EQ(result.assignment[static_cast<size_t>(c * 30 + i)], first);
    }
  }
  EXPECT_LT(result.inertia, 90.0 * 0.5);
}

TEST(KMeansTest, KEqualsNGivesZeroInertia) {
  common::Rng rng(2);
  std::vector<float> points = {0.0f, 5.0f, 9.0f};
  auto result = KMeans(points.data(), 3, 1, 3, 20, &rng);
  EXPECT_NEAR(result.inertia, 0.0, 1e-9);
}

TEST(KMeansTest, DeterministicGivenRngState) {
  std::vector<float> points;
  common::Rng data_rng(3);
  for (int i = 0; i < 50; ++i) {
    points.push_back(static_cast<float>(data_rng.Normal()));
  }
  common::Rng a(7), b(7);
  auto ra = KMeans(points.data(), 50, 1, 4, 30, &a);
  auto rb = KMeans(points.data(), 50, 1, 4, 30, &b);
  EXPECT_EQ(ra.assignment, rb.assignment);
}

TEST(TsneTest, SeparatedClustersStaySeparated) {
  // Two 5-D Gaussian blobs far apart must map to separable 2-D clusters.
  common::Rng rng(4);
  const int per_cluster = 20;
  std::vector<float> points;
  std::vector<int> labels;
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < per_cluster; ++i) {
      for (int d = 0; d < 5; ++d) {
        points.push_back(static_cast<float>(c * 20.0 + rng.Normal(0.0, 0.5)));
      }
      labels.push_back(c);
    }
  }
  TsneConfig config;
  config.perplexity = 10.0;
  config.iterations = 500;
  auto embedding = Tsne(points, 2 * per_cluster, 5, config, &rng);
  ASSERT_EQ(embedding.size(), static_cast<size_t>(2 * per_cluster * 2));
  // Clusters must remain separable; t-SNE clusters are elongated, so the
  // silhouette threshold is deliberately modest.
  EXPECT_GT(SilhouetteScore(embedding, 2, labels), 0.25);
}

TEST(TsneTest, OutputIsCentered) {
  common::Rng rng(5);
  std::vector<float> points(40);
  for (auto& v : points) v = static_cast<float>(rng.Normal());
  TsneConfig config;
  config.perplexity = 5.0;
  config.iterations = 50;
  auto embedding = Tsne(points, 20, 2, config, &rng);
  for (int d = 0; d < 2; ++d) {
    double mean = 0.0;
    for (int i = 0; i < 20; ++i) mean += embedding[static_cast<size_t>(i * 2 + d)];
    EXPECT_NEAR(mean / 20.0, 0.0, 1e-3);
  }
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "v"});
  table.AddRow({"a", "1.0"});
  table.AddRow({"long-name", "2"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("| name      | v   |"), std::string::npos);
  EXPECT_NE(out.find("| long-name | 2   |"), std::string::npos);
}

TEST(TablePrinterDeathTest, WrongWidthAborts) {
  TablePrinter table({"a", "b"});
  EXPECT_DEATH(table.AddRow({"only-one"}), "row width");
}

TEST(HarnessTest, TrialMetricsInRange) {
  auto ds = data::MakeDataset("toy", {}).value();
  nn::GnnConfig gnn;
  baselines::TrainOptions train;
  train.epochs = 60;
  baselines::VanillaMethod method(gnn, train);
  auto metrics = RunTrial(&method, ds, 1);
  ASSERT_TRUE(metrics.ok());
  EXPECT_GE(metrics->acc, 0.0);
  EXPECT_LE(metrics->acc, 100.0);
  EXPECT_GE(metrics->auc, 0.0);
  EXPECT_LE(metrics->auc, 100.0);
  EXPECT_GE(metrics->seconds, 0.0);
}

TEST(HarnessTest, RepeatedAggregatesTrials) {
  auto ds = data::MakeDataset("toy", {}).value();
  nn::GnnConfig gnn;
  baselines::TrainOptions train;
  train.epochs = 40;
  baselines::VanillaMethod method(gnn, train);
  auto agg = RunRepeated(&method, ds, 3, 9);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->trials, 3);
  EXPECT_GE(agg->acc.stddev, 0.0);
}

TEST(HarnessTest, RejectsNonPositiveTrials) {
  auto ds = data::MakeDataset("toy", {}).value();
  nn::GnnConfig gnn;
  baselines::VanillaMethod method(gnn, {});
  EXPECT_FALSE(RunRepeated(&method, ds, 0, 1).ok());
}

/// A method whose configuration is invalid: every Fit says so.
class MisconfiguredMethod : public core::FairMethod {
 public:
  std::string name() const override { return "Misconfigured"; }
  common::Result<std::unique_ptr<core::FittedModel>> Fit(
      const data::Dataset&, uint64_t) override {
    return common::Status::InvalidArgument("k must be positive");
  }
};

TEST(EvalTest, InvalidConfigurationComesBackAsItself) {
  auto ds = data::MakeDataset("toy", {}).value();
  MisconfiguredMethod method;
  obs::Counter* failed =
      obs::MetricsRegistry::Global().GetCounter("eval.failed_trials");
  const int64_t failed_before = failed->value();
  auto agg = RunRepeated(&method, ds, 3, 1);
  ASSERT_FALSE(agg.ok());
  EXPECT_EQ(agg.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_EQ(agg.status().message(), "k must be positive");
  // Not counted as a skipped trial failure.
  EXPECT_EQ(failed->value(), failed_before);
}

}  // namespace
}  // namespace fairwos::eval
