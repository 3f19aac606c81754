// Degenerate-input behaviour across the stack: tiny graphs, isolated
// nodes, single-class labels, extreme splits. A library is judged by what
// it does at the edges.
#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "core/fairwos.h"
#include "core/lambda_solver.h"
#include "data/synthetic.h"
#include "eval/harness.h"
#include "graph/algorithms.h"
#include "nn/gnn.h"
#include "tensor/ops.h"

namespace fairwos {
namespace {

/// Builds a minimal hand-rolled dataset with full control of the pieces.
data::Dataset TinyDataset(int64_t n, bool with_edges) {
  data::Dataset ds;
  ds.name = "tiny";
  ds.label_name = "y";
  ds.sens_name = "s";
  ds.graph = graph::Graph(n);
  if (with_edges) {
    for (int64_t i = 0; i + 1 < n; ++i) ds.graph.AddEdge(i, i + 1);
  }
  common::Rng rng(3);
  std::vector<float> x(static_cast<size_t>(n * 4));
  for (auto& v : x) v = static_cast<float>(rng.Normal());
  ds.features = tensor::Tensor::FromVector({n, 4}, std::move(x));
  ds.labels.resize(static_cast<size_t>(n));
  ds.sens.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    ds.labels[static_cast<size_t>(i)] = static_cast<int>(i % 2);
    ds.sens[static_cast<size_t>(i)] = static_cast<int>((i / 2) % 2);
  }
  ds.split = data::MakeSplit(n, &rng);
  return ds;
}

TEST(EdgeCaseTest, VanillaOnEdgelessGraph) {
  // Isolated nodes: GCN reduces to a per-node model; must not crash.
  auto ds = TinyDataset(16, /*with_edges=*/false);
  baselines::MethodOptions options;
  options.train.epochs = 20;
  auto method = baselines::MakeMethod("vanilla", options).value();
  auto fitted = method->Fit(ds, 1);
  ASSERT_TRUE(fitted.ok());
  auto out = (*fitted)->Predict(ds);
  EXPECT_EQ(out.pred.size(), 16u);
}

TEST(EdgeCaseTest, FairwosOnTinyGraph) {
  auto ds = TinyDataset(16, /*with_edges=*/true);
  core::FairwosConfig config;
  config.pretrain_epochs = 20;
  config.finetune_epochs = 3;
  config.encoder.epochs = 10;
  config.encoder.out_dim = 4;
  config.counterfactual.top_k = 1;
  auto out = core::TrainFairwos(config, ds, 1, nullptr);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
}

TEST(EdgeCaseTest, SingleClassTrainingLabels) {
  // All-positive labels: the model should learn the constant answer and
  // the fairness metrics should degrade gracefully (gaps become 0/defined).
  auto ds = TinyDataset(16, true);
  for (auto& y : ds.labels) y = 1;
  baselines::MethodOptions options;
  options.train.epochs = 30;
  auto method = baselines::MakeMethod("vanilla", options).value();
  auto metrics = eval::RunTrial(method.get(), ds, 2);
  ASSERT_TRUE(metrics.ok());
  EXPECT_GT(metrics->acc, 95.0);  // constant prediction is easy
  EXPECT_DOUBLE_EQ(metrics->auc, 50.0);
}

TEST(EdgeCaseTest, OneSidedSensitiveGroup) {
  auto ds = TinyDataset(16, true);
  for (auto& s : ds.sens) s = 0;
  baselines::MethodOptions options;
  options.train.epochs = 20;
  auto method = baselines::MakeMethod("vanilla", options).value();
  auto metrics = eval::RunTrial(method.get(), ds, 2);
  ASSERT_TRUE(metrics.ok());
  EXPECT_DOUBLE_EQ(metrics->dsp, 0.0);
  EXPECT_DOUBLE_EQ(metrics->deo, 0.0);
}

TEST(EdgeCaseTest, SpectralBipartitionOnDisconnectedGraph) {
  common::Rng rng(4);
  graph::Graph g(10);  // fully disconnected
  auto side = graph::SpectralBipartition(g, 20, &rng);
  EXPECT_EQ(side.size(), 10u);  // defined, arbitrary sides
}

TEST(EdgeCaseTest, KHopOnSingleton) {
  graph::Graph g(1);
  auto hood = g.KHopNeighborhood(0, 3);
  EXPECT_EQ(hood, std::vector<int64_t>({0}));
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 0.0);
}

TEST(EdgeCaseTest, CounterfactualSearchWithTwoNodes) {
  common::Rng rng(5);
  std::vector<std::vector<uint8_t>> bins = {{0}, {1}};
  std::vector<int> labels = {1, 1};
  core::CounterfactualConfig config;
  config.top_k = 3;  // more than available
  config.sample_nodes = 0;
  config.candidate_pool = 0;
  auto cf = core::FindCounterfactuals(
      tensor::Tensor::FromVector({2, 1}, {0.0f, 1.0f}), bins, labels, config,
      &rng);
  ASSERT_EQ(cf.anchors.size(), 2u);
  EXPECT_EQ(cf.matches[0][0], std::vector<int64_t>({1}));
  EXPECT_EQ(cf.matches[0][1], std::vector<int64_t>({0}));
}

TEST(EdgeCaseTest, DropoutProbabilityZeroIsIdentityEvenWhenTraining) {
  common::Rng rng(6);
  tensor::Tensor x = tensor::Tensor::Ones({8});
  EXPECT_TRUE(tensor::Dropout(x, 0.0f, true, &rng).ValueEquals(x));
}

TEST(EdgeCaseTest, MinimumViableSplit) {
  common::Rng rng(7);
  // 4 nodes: 2 train / 1 val / 1 test.
  auto split = data::MakeSplit(4, &rng);
  EXPECT_EQ(split.train.size(), 2u);
  EXPECT_EQ(split.val.size(), 1u);
  EXPECT_EQ(split.test.size(), 1u);
}

TEST(EdgeCaseTest, EmptyValidationSplitIsRejected) {
  // Every training loop selects its model on the validation split, so a
  // dataset without one is refused up front instead of aborting mid-fit.
  auto ds = TinyDataset(16, true);
  ds.split.train.insert(ds.split.train.end(), ds.split.val.begin(),
                        ds.split.val.end());
  ds.split.val.clear();
  EXPECT_EQ(data::ValidateDataset(ds).code(),
            common::StatusCode::kInvalidArgument);

  baselines::MethodOptions options;
  options.train.epochs = 5;
  auto method = baselines::MakeMethod("vanilla", options).value();
  auto fitted = method->Fit(ds, 1);
  ASSERT_FALSE(fitted.ok());
  EXPECT_EQ(fitted.status().code(), common::StatusCode::kInvalidArgument);

  core::FairwosConfig config;
  config.pretrain_epochs = 5;
  config.finetune_epochs = 1;
  config.encoder.epochs = 2;
  auto out = core::TrainFairwos(config, ds, 1, nullptr);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(EdgeCaseTest, LambdaSolverSingleAttribute) {
  auto lambda = core::SolveLambda({42.0}, 3.0, false);
  ASSERT_EQ(lambda.size(), 1u);
  EXPECT_DOUBLE_EQ(lambda[0], 1.0);
}

}  // namespace
}  // namespace fairwos
