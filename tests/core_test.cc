// Tests for the Fairwos core: the KKT λ-solver (against brute force and
// its simplex invariants), the counterfactual search (constraint and
// ordering invariants), the encoder, and the end-to-end trainer.
#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "core/counterfactual.h"
#include "core/encoder.h"
#include "core/fairwos.h"
#include "core/lambda_solver.h"
#include "data/synthetic.h"

namespace fairwos::core {
namespace {

// --- Simplex projection / λ solver -------------------------------------------

double SimplexObjective(const std::vector<double>& lambda,
                        const std::vector<double>& d, double alpha) {
  double obj = 0.0;
  for (size_t i = 0; i < lambda.size(); ++i) {
    obj += alpha * lambda[i] * d[i] + lambda[i] * lambda[i];
  }
  return obj;
}

TEST(SimplexProjectionTest, AlreadyOnSimplexIsFixedPoint) {
  std::vector<double> v = {0.2, 0.3, 0.5};
  auto p = ProjectOntoSimplex(v);
  for (size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(p[i], v[i], 1e-12);
}

TEST(SimplexProjectionTest, UniformFromEqualInputs) {
  auto p = ProjectOntoSimplex({-3.0, -3.0, -3.0, -3.0});
  for (double x : p) EXPECT_NEAR(x, 0.25, 1e-12);
}

TEST(SimplexProjectionTest, DominantCoordinateTakesAll) {
  auto p = ProjectOntoSimplex({10.0, 0.0, 0.0});
  EXPECT_NEAR(p[0], 1.0, 1e-12);
  EXPECT_NEAR(p[1], 0.0, 1e-12);
}

TEST(SimplexProjectionTest, SingleElement) {
  auto p = ProjectOntoSimplex({-42.0});
  EXPECT_NEAR(p[0], 1.0, 1e-12);
}

class SimplexRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimplexRandomTest, OutputSatisfiesConstraints) {
  common::Rng rng(GetParam());
  std::vector<double> v(1 + rng.UniformInt(8));
  for (auto& x : v) x = rng.Normal(0.0, 3.0);
  auto p = ProjectOntoSimplex(v);
  double sum = 0.0;
  for (double x : p) {
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_P(SimplexRandomTest, IsNearestSimplexPointVsRandomCandidates) {
  common::Rng rng(GetParam() + 1000);
  std::vector<double> v(3);
  for (auto& x : v) x = rng.Normal(0.0, 2.0);
  auto p = ProjectOntoSimplex(v);
  auto dist = [&](const std::vector<double>& q) {
    double d = 0.0;
    for (size_t i = 0; i < v.size(); ++i) d += (q[i] - v[i]) * (q[i] - v[i]);
    return d;
  };
  const double dp = dist(p);
  // Random simplex points must never beat the projection.
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> q(3);
    double sum = 0.0;
    for (auto& x : q) {
      x = -std::log(std::max(rng.Uniform(), 1e-12));
      sum += x;
    }
    for (auto& x : q) x /= sum;
    EXPECT_GE(dist(q) + 1e-9, dp);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomTest,
                         ::testing::Range<uint64_t>(0, 10));

TEST(SolveLambdaTest, MatchesBruteForceGrid) {
  const std::vector<double> d = {4.0, 1.0, 2.5};
  const double alpha = 1.5;
  auto lambda = SolveLambda(d, alpha, /*invert_preference=*/false);
  // Brute-force over a fine grid of the 2-simplex.
  double best = 1e18;
  const int steps = 200;
  for (int i = 0; i <= steps; ++i) {
    for (int j = 0; j <= steps - i; ++j) {
      std::vector<double> q = {static_cast<double>(i) / steps,
                               static_cast<double>(j) / steps,
                               static_cast<double>(steps - i - j) / steps};
      best = std::min(best, SimplexObjective(q, d, alpha));
    }
  }
  EXPECT_NEAR(SimplexObjective(lambda, d, alpha), best, 1e-3);
}

TEST(SolveLambdaTest, Eq24PrefersSmallDistances) {
  auto lambda = SolveLambda({5.0, 1.0, 3.0}, 1.0, /*invert_preference=*/false);
  EXPECT_GT(lambda[1], lambda[2]);
  EXPECT_GE(lambda[2], lambda[0]);
}

TEST(SolveLambdaTest, InvertedPrefersLargeDistances) {
  auto lambda = SolveLambda({5.0, 1.0, 3.0}, 1.0, /*invert_preference=*/true);
  EXPECT_GT(lambda[0], lambda[2]);
  EXPECT_GE(lambda[2], lambda[1]);
}

TEST(SolveLambdaTest, AlphaZeroGivesUniform) {
  auto lambda = SolveLambda({9.0, 1.0, 4.0, 2.0}, 0.0, false);
  for (double l : lambda) EXPECT_NEAR(l, 0.25, 1e-12);
}

TEST(SolveLambdaTest, SmallAlphaStaysDense) {
  // With a mild α the regulariser dominates and every attribute keeps some
  // weight (the paper's intended soft weighting).
  auto lambda = SolveLambda({3.0, 1.0, 2.0}, 0.1, false);
  for (double l : lambda) EXPECT_GT(l, 0.0);
}

TEST(SolveLambdaTest, LargeAlphaSparsifies) {
  auto lambda = SolveLambda({3.0, 1.0, 2.0}, 100.0, false);
  EXPECT_NEAR(lambda[1], 1.0, 1e-9);
  EXPECT_NEAR(lambda[0] + lambda[2], 0.0, 1e-9);
}

// --- Median bins -------------------------------------------------------------

TEST(MedianBinsTest, SplitsEachColumnInHalf) {
  common::Rng rng(1);
  tensor::Tensor x = tensor::Tensor::RandNormal({101, 4}, 1.0f, &rng);
  auto bins = MedianBins(x);
  for (int64_t j = 0; j < 4; ++j) {
    int64_t ones = 0;
    for (int64_t i = 0; i < 101; ++i) {
      ones += bins[static_cast<size_t>(i)][static_cast<size_t>(j)];
    }
    // Median split: the high side has ceil(n/2) elements for distinct values.
    EXPECT_NEAR(static_cast<double>(ones), 50.5, 2.0);
  }
}

TEST(MedianBinsTest, ConstantColumnAllOnes) {
  tensor::Tensor x = tensor::Tensor::Full({5, 1}, 2.0f);
  auto bins = MedianBins(x);
  for (const auto& row : bins) EXPECT_EQ(row[0], 1);  // v >= median
}

// --- Counterfactual search ---------------------------------------------------

CounterfactualSet SmallSearch(common::Rng* rng, int64_t top_k) {
  // 8 nodes on a line in embedding space; labels alternate in two halves;
  // a single pseudo-attribute splits odd/even.
  std::vector<float> emb;
  std::vector<std::vector<uint8_t>> bins;
  std::vector<int> labels;
  for (int i = 0; i < 8; ++i) {
    emb.push_back(static_cast<float>(i));
    bins.push_back({static_cast<uint8_t>(i % 2)});
    labels.push_back(i < 4 ? 0 : 1);
  }
  CounterfactualConfig config;
  config.top_k = top_k;
  config.sample_nodes = 0;      // all
  config.candidate_pool = 0;    // all
  return FindCounterfactuals(tensor::Tensor::FromVector({8, 1}, emb), bins,
                             labels, config, rng);
}

TEST(CounterfactualTest, MatchesRespectConstraints) {
  common::Rng rng(2);
  auto cf = SmallSearch(&rng, 2);
  ASSERT_EQ(cf.num_attrs(), 1);
  ASSERT_EQ(cf.anchors.size(), 8u);
  for (size_t a = 0; a < cf.anchors.size(); ++a) {
    const int64_t v = cf.anchors[a];
    for (int64_t m : cf.matches[0][a]) {
      EXPECT_NE(m, v) << "no self-matches";
      EXPECT_EQ(v < 4, m < 4) << "same (pseudo-)label required";
      EXPECT_NE(v % 2, m % 2) << "different pseudo-attribute bin required";
    }
  }
}

TEST(CounterfactualTest, NearestFirstOrdering) {
  common::Rng rng(3);
  auto cf = SmallSearch(&rng, 3);
  for (size_t a = 0; a < cf.anchors.size(); ++a) {
    const auto& slot = cf.matches[0][a];
    const int64_t v = cf.anchors[a];
    for (size_t k = 1; k < slot.size(); ++k) {
      EXPECT_LE(std::abs(slot[k - 1] - v), std::abs(slot[k] - v))
          << "matches must be ordered by increasing embedding distance";
    }
  }
}

TEST(CounterfactualTest, TopKBoundsMatchCount) {
  common::Rng rng(4);
  auto cf = SmallSearch(&rng, 2);
  for (const auto& per_anchor : cf.matches[0]) {
    EXPECT_LE(per_anchor.size(), 2u);
    // Each half has 2 nodes of each parity, so 2 matches always exist.
    EXPECT_EQ(per_anchor.size(), 2u);
  }
}

TEST(CounterfactualTest, ExhaustedConstraintGivesFewerMatches) {
  // All nodes share one bin value: no counterfactuals can exist.
  common::Rng rng(5);
  std::vector<std::vector<uint8_t>> bins(4, {1});
  std::vector<int> labels = {0, 0, 0, 0};
  CounterfactualConfig config;
  config.sample_nodes = 0;
  config.candidate_pool = 0;
  auto cf = FindCounterfactuals(
      tensor::Tensor::FromVector({4, 1}, {0, 1, 2, 3}), bins, labels, config,
      &rng);
  for (const auto& per_anchor : cf.matches[0]) EXPECT_TRUE(per_anchor.empty());
}

TEST(CounterfactualTest, SamplingBoundsRespected) {
  common::Rng rng(6);
  std::vector<float> emb(100);
  std::vector<std::vector<uint8_t>> bins(100, {0});
  std::vector<int> labels(100, 0);
  for (int i = 0; i < 100; ++i) {
    emb[static_cast<size_t>(i)] = static_cast<float>(i);
    bins[static_cast<size_t>(i)][0] = static_cast<uint8_t>(i % 2);
  }
  CounterfactualConfig config;
  config.sample_nodes = 10;
  config.candidate_pool = 20;
  auto cf = FindCounterfactuals(
      tensor::Tensor::FromVector({100, 1}, std::move(emb)), bins, labels,
      config, &rng);
  EXPECT_EQ(cf.anchors.size(), 10u);
}

// --- Encoder ------------------------------------------------------------------

TEST(EncoderTest, ProducesRequestedDimensionAndLearns) {
  auto ds = data::MakeDataset("toy", {}).value();
  EncoderConfig config;
  config.out_dim = 8;
  config.epochs = 300;
  const EncoderOutput encoder =
      PretrainEncoder(config, ds, /*seed=*/3, common::Deadline::Never(), {})
          .value();
  EXPECT_EQ(encoder.x0.dim(0), ds.num_nodes());
  EXPECT_EQ(encoder.x0.dim(1), 8);
  // The encoder head must beat chance on validation by a clear margin.
  EXPECT_GE(encoder.best_val_acc_pct, 58.0);
}

TEST(EncoderTest, DeterministicInSeed) {
  auto ds = data::MakeDataset("toy", {}).value();
  EncoderConfig config;
  config.epochs = 30;
  const auto a =
      PretrainEncoder(config, ds, 9, common::Deadline::Never(), {}).value();
  const auto b =
      PretrainEncoder(config, ds, 9, common::Deadline::Never(), {}).value();
  EXPECT_TRUE(a.x0.ValueEquals(b.x0));
}

// --- Trainer (integration) ----------------------------------------------------

FairwosConfig FastConfig() {
  FairwosConfig config;
  config.pretrain_epochs = 120;
  config.finetune_epochs = 12;
  config.encoder.epochs = 60;
  return config;
}

TEST(FairwosTrainerTest, RunsEndToEndOnToy) {
  auto ds = data::MakeDataset("toy", {}).value();
  FairwosStats stats;
  auto out = TrainFairwos(FastConfig(), ds, 11, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(static_cast<int64_t>(out->pred.size()), ds.num_nodes());
  EXPECT_EQ(out->embeddings.dim(0), ds.num_nodes());
  EXPECT_TRUE(out->pseudo_sens.defined());
  EXPECT_EQ(stats.finetune_epochs_run, 12);
  // λ lives on the simplex.
  double sum = 0.0;
  for (double l : stats.lambda) {
    EXPECT_GE(l, 0.0);
    sum += l;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(FairwosTrainerTest, DeterministicInSeed) {
  auto ds = data::MakeDataset("toy", {}).value();
  auto a = TrainFairwos(FastConfig(), ds, 5, nullptr);
  auto b = TrainFairwos(FastConfig(), ds, 5, nullptr);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->pred, b->pred);
}

TEST(FairwosTrainerTest, AblationSwitchesChangeBehaviour) {
  auto ds = data::MakeDataset("toy", {}).value();
  FairwosConfig base = FastConfig();
  FairwosConfig no_encoder = base;
  no_encoder.use_encoder = false;
  auto with_encoder = TrainFairwos(base, ds, 21, nullptr);
  auto without_encoder = TrainFairwos(no_encoder, ds, 21, nullptr);
  ASSERT_TRUE(with_encoder.ok());
  ASSERT_TRUE(without_encoder.ok());
  EXPECT_FALSE(without_encoder->pseudo_sens.defined());
  EXPECT_TRUE(with_encoder->pseudo_sens.defined());
}

TEST(FairwosTrainerTest, WithoutFairnessSkipsFinetuning) {
  auto ds = data::MakeDataset("toy", {}).value();
  FairwosConfig config = FastConfig();
  config.use_fairness = false;
  FairwosStats stats;
  auto out = TrainFairwos(config, ds, 3, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(stats.finetune_epochs_run, 0);
  EXPECT_TRUE(stats.lambda.empty());
}

TEST(FairwosTrainerTest, WithoutWeightUpdateKeepsUniformLambda) {
  auto ds = data::MakeDataset("toy", {}).value();
  FairwosConfig config = FastConfig();
  config.use_weight_update = false;
  FairwosStats stats;
  ASSERT_TRUE(TrainFairwos(config, ds, 3, &stats).ok());
  for (double l : stats.lambda) {
    EXPECT_NEAR(l, 1.0 / static_cast<double>(stats.lambda.size()), 1e-9);
  }
}

TEST(FairwosTrainerTest, RejectsNegativeAlpha) {
  auto ds = data::MakeDataset("toy", {}).value();
  FairwosConfig config = FastConfig();
  config.alpha = -1.0;
  EXPECT_FALSE(TrainFairwos(config, ds, 3, nullptr).ok());
}

TEST(FairwosMethodTest, ReportsTrainingTime) {
  auto ds = data::MakeDataset("toy", {}).value();
  FairwosMethod method("Fairwos", FastConfig());
  auto fitted = method.Fit(ds, 1);
  ASSERT_TRUE(fitted.ok());
  EXPECT_GT((*fitted)->train_seconds(), 0.0);
  EXPECT_EQ(method.name(), "Fairwos");
}

}  // namespace
}  // namespace fairwos::core
