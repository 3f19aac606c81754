// Tests for the extension modules: additional fairness metrics and
// parameter round trips through TrainState checkpoint files.
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "fairness/metrics.h"
#include "nn/checkpoint.h"
#include "nn/gnn.h"

namespace fairwos {
namespace {

std::vector<int64_t> AllIdx(size_t n) {
  std::vector<int64_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = static_cast<int64_t>(i);
  return idx;
}

// --- Extended fairness metrics ----------------------------------------------

TEST(DisparateImpactTest, HandComputed) {
  // p0 = 0.5, p1 = 1.0 -> ratio 0.5.
  std::vector<int> pred = {1, 0, 1, 1};
  std::vector<int> sens = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(fairness::DisparateImpactRatio(pred, sens, AllIdx(4)), 0.5);
}

TEST(DisparateImpactTest, PerfectlyFairIsOne) {
  std::vector<int> pred = {1, 0, 1, 0};
  std::vector<int> sens = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(fairness::DisparateImpactRatio(pred, sens, AllIdx(4)), 1.0);
}

TEST(DisparateImpactTest, NoPositivesAnywhereIsOne) {
  std::vector<int> pred = {0, 0};
  std::vector<int> sens = {0, 1};
  EXPECT_DOUBLE_EQ(fairness::DisparateImpactRatio(pred, sens, AllIdx(2)), 1.0);
}

TEST(CounterfactualConsistencyTest, CountsMatchingPairs) {
  std::vector<int> pred = {1, 1, 0, 1};
  std::vector<std::pair<int64_t, int64_t>> pairs = {{0, 1}, {0, 2}, {0, 3},
                                                    {2, 2}};
  EXPECT_DOUBLE_EQ(fairness::CounterfactualConsistencyPct(pred, pairs), 75.0);
}

TEST(CounterfactualConsistencyTest, EmptyIsPerfect) {
  std::vector<int> pred = {1};
  EXPECT_DOUBLE_EQ(fairness::CounterfactualConsistencyPct(pred, {}), 100.0);
}

// --- Checkpoints ---------------------------------------------------------------

TEST(CheckpointTest, SaveLoadRoundTrip) {
  // A model's parameters survive a TrainState file and restore bit-exactly
  // into a differently-initialized model of the same architecture.
  const std::string path =
      (std::filesystem::temp_directory_path() / "fw_ckpt_test.bin").string();
  common::Rng rng(5);
  graph::Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  nn::GnnConfig config;
  config.in_features = 3;
  config.hidden = 4;
  nn::GnnClassifier a(config, g, &rng);
  nn::GnnClassifier b(config, g, &rng);  // different init
  nn::TrainState saved;
  saved.params = nn::SnapshotParameters(a);
  ASSERT_TRUE(nn::SaveTrainState(path, saved).ok());
  nn::TrainState loaded;
  ASSERT_TRUE(nn::LoadTrainState(path, &loaded).ok());
  ASSERT_TRUE(
      nn::CheckParamsCompatible(b.parameters(), loaded.params, "params").ok());
  nn::RestoreParameters(b, loaded.params);
  for (size_t i = 0; i < a.parameters().size(); ++i) {
    EXPECT_EQ(a.parameters()[i].data(), b.parameters()[i].data());
  }
  std::filesystem::remove(path);
}

TEST(CheckpointTest, ArchitectureMismatchRejected) {
  // A two-layer model's parameters hold more tensors than a one-layer
  // model has: the count check refuses them before any restore.
  const std::string path =
      (std::filesystem::temp_directory_path() / "fw_ckpt_mismatch.bin")
          .string();
  common::Rng rng(6);
  graph::Graph g(4);
  nn::GnnConfig shallow;
  shallow.in_features = 3;
  shallow.hidden = 4;
  nn::GnnConfig deep = shallow;
  deep.num_layers = 2;
  nn::GnnClassifier a(deep, g, &rng);
  nn::GnnClassifier b(shallow, g, &rng);
  ASSERT_NE(a.parameters().size(), b.parameters().size());
  nn::TrainState saved;
  saved.params = nn::SnapshotParameters(a);
  ASSERT_TRUE(nn::SaveTrainState(path, saved).ok());
  nn::TrainState loaded;
  ASSERT_TRUE(nn::LoadTrainState(path, &loaded).ok());
  EXPECT_EQ(
      nn::CheckParamsCompatible(b.parameters(), loaded.params, "params").code(),
      common::StatusCode::kFailedPrecondition);
  std::filesystem::remove(path);
}

TEST(CheckpointTest, GarbageFileRejected) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "fw_ckpt_garbage.bin")
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint";
  }
  nn::TrainState state;
  EXPECT_FALSE(nn::LoadTrainState(path, &state).ok());
  EXPECT_FALSE(nn::LoadTrainState("/nonexistent/ckpt.bin", &state).ok());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace fairwos
