// Backbone-agnosticism tests (paper §III-C claims Fairwos is flexible
// across backbones): every backbone — GCN, GIN, GraphSAGE, GAT — must
// produce well-shaped outputs, train end-to-end, and plug into Fairwos and
// every baseline through the registry.
#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "core/train_loop.h"
#include "data/synthetic.h"
#include "eval/harness.h"
#include "nn/gnn.h"
#include "nn/optim.h"
#include "tensor/ops.h"

namespace fairwos::nn {
namespace {

class BackboneParamTest : public ::testing::TestWithParam<Backbone> {};

graph::Graph RingGraph(int n) {
  graph::Graph g(n);
  for (int i = 0; i < n; ++i) g.AddEdge(i, (i + 1) % n);
  return g;
}

TEST_P(BackboneParamTest, ForwardShapes) {
  common::Rng rng(1);
  GnnConfig config;
  config.backbone = GetParam();
  config.in_features = 5;
  config.hidden = 8;
  config.num_layers = 2;
  graph::Graph g = RingGraph(7);
  GnnClassifier model(config, g, &rng);
  tensor::Tensor logits =
      model.Forward(tensor::Tensor::Ones({7, 5}), /*training=*/false, &rng);
  EXPECT_EQ(logits.dim(0), 7);
  EXPECT_EQ(logits.dim(1), 2);
  EXPECT_GT(model.NumParameters(), 0);
}

TEST_P(BackboneParamTest, GradientsReachEveryParameter) {
  common::Rng rng(2);
  GnnConfig config;
  config.backbone = GetParam();
  config.in_features = 4;
  config.hidden = 8;
  config.dropout = 0.0f;
  graph::Graph g = RingGraph(6);
  GnnClassifier model(config, g, &rng);
  tensor::Tensor x = tensor::Tensor::RandNormal({6, 4}, 1.0f, &rng);
  tensor::SumSquares(model.Forward(x, /*training=*/true, &rng)).Backward();
  for (const auto& p : model.parameters()) {
    ASSERT_FALSE(p.grad().empty());
    double norm = 0.0;
    for (float v : p.grad()) norm += std::abs(v);
    EXPECT_GT(norm, 0.0) << BackboneName(GetParam());
  }
}

TEST_P(BackboneParamTest, LearnsBlockLabels) {
  common::Rng rng(3);
  GnnConfig config;
  config.backbone = GetParam();
  config.in_features = 2;
  config.hidden = 8;
  config.dropout = 0.0f;
  graph::Graph g(20);
  for (int i = 0; i + 1 < 20; ++i) {
    if (i != 9) g.AddEdge(i, i + 1);  // two disjoint chains of 10
  }
  std::vector<int> labels(20);
  std::vector<float> x(40);
  for (int i = 0; i < 20; ++i) {
    labels[static_cast<size_t>(i)] = i < 10 ? 0 : 1;
    x[static_cast<size_t>(2 * i)] = labels[static_cast<size_t>(i)] ? 1.0f : -1.0f;
  }
  tensor::Tensor features = tensor::Tensor::FromVector({20, 2}, std::move(x));
  std::vector<int64_t> all(20);
  for (int i = 0; i < 20; ++i) all[static_cast<size_t>(i)] = i;
  GnnClassifier model(config, g, &rng);
  Adam opt(model.parameters(), 0.05f);
  for (int epoch = 0; epoch < 250; ++epoch) {
    opt.ZeroGrad();
    tensor::SoftmaxCrossEntropy(model.Forward(features, true, &rng), labels,
                                all)
        .Backward();
    opt.Step();
  }
  tensor::NoGradGuard no_grad;
  auto result = PredictFromLogits(model.Forward(features, false, &rng));
  int correct = 0;
  for (int i = 0; i < 20; ++i) {
    correct += result.pred[static_cast<size_t>(i)] == labels[static_cast<size_t>(i)];
  }
  EXPECT_GE(correct, 18) << BackboneName(GetParam());
}

TEST_P(BackboneParamTest, FairwosRunsOnBackbone) {
  auto ds = data::MakeDataset("toy", {}).value();
  baselines::MethodOptions options;
  options.backbone = GetParam();
  options.train.epochs = 50;
  options.fairwos.pretrain_epochs = 50;
  options.fairwos.finetune_epochs = 5;
  options.fairwos.encoder.epochs = 30;
  auto method = baselines::MakeMethod("fairwos", options).value();
  auto fitted = method->Fit(ds, 5);
  ASSERT_TRUE(fitted.ok()) << BackboneName(GetParam()) << ": "
                           << fitted.status().ToString();
  auto out = (*fitted)->Predict(ds);
  EXPECT_EQ(static_cast<int64_t>(out.pred.size()), ds.num_nodes());
}

INSTANTIATE_TEST_SUITE_P(AllBackbones, BackboneParamTest,
                         ::testing::Values(Backbone::kGcn, Backbone::kGin,
                                           Backbone::kSage, Backbone::kGat),
                         [](const auto& info) {
                           return std::string(BackboneName(info.param));
                         });

TEST(SageConvTest, NormalizedRowsHaveUnitNorm) {
  common::Rng rng(4);
  graph::Graph g = RingGraph(5);
  SageConv conv(3, 4, /*normalize=*/true, &rng);
  tensor::Tensor y =
      conv.Forward(g.NeighborMeanAdjacency(),
                   tensor::Tensor::RandNormal({5, 3}, 1.0f, &rng));
  for (int64_t i = 0; i < 5; ++i) {
    double norm = 0.0;
    for (int64_t j = 0; j < 4; ++j) norm += static_cast<double>(y.at(i, j)) * y.at(i, j);
    EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-4);
  }
}

TEST(SageConvTest, IsolatedNodeUsesSelfOnly) {
  common::Rng rng(5);
  graph::Graph g(2);  // no edges
  SageConv conv(2, 3, /*normalize=*/false, &rng);
  tensor::Tensor x = tensor::Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  tensor::Tensor y = conv.Forward(g.NeighborMeanAdjacency(), x);
  // Neighbor mean is all zeros -> output = W_self x + b_self + b_neigh;
  // just verify it is finite and differs per node.
  EXPECT_NE(y.at(0, 0), y.at(1, 0));
}

TEST(GatConvTest, HeadsConcatenateToHidden) {
  common::Rng rng(6);
  graph::Graph g = RingGraph(6);
  GatConv conv(4, 8, /*heads=*/2, 0.2f, &rng);
  tensor::Tensor y = conv.Forward(g.AdjacencyWithSelfLoops(),
                                  tensor::Tensor::Ones({6, 4}));
  EXPECT_EQ(y.dim(0), 6);
  EXPECT_EQ(y.dim(1), 8);
}

TEST(GatConvTest, RejectsIndivisibleHeads) {
  common::Rng rng(7);
  EXPECT_DEATH(GatConv(4, 9, /*heads=*/2, 0.2f, &rng), "divisible");
}

// --- Propagate once: the first layer's aggregate, taken ahead of time -----

/// A ring with a chord from every third node, so rows differ in degree.
graph::Graph ChordRingGraph(int n) {
  graph::Graph g = RingGraph(n);
  for (int i = 0; i < n; i += 3) g.AddEdge(i, (i + n / 2) % n);
  return g;
}

/// Float bit patterns: EXPECT_EQ on them compares bitwise (+0 vs -0 and NaN
/// payloads included).
template <typename Floats>
std::vector<uint32_t> Bits(const Floats& values) {
  std::vector<uint32_t> out;
  out.reserve(values.size());
  for (float v : values) out.push_back(std::bit_cast<uint32_t>(v));
  return out;
}

std::vector<std::vector<uint32_t>> GradBits(const Module& m) {
  std::vector<std::vector<uint32_t>> out;
  for (const auto& p : m.parameters()) out.push_back(Bits(p.grad()));
  return out;
}

/// The encoder's layer loop as written before the first aggregate was split
/// out: each conv's own Forward on its input, ReLU between layers, dropout
/// after the last. Built from the same RNG in the same order as GnnEncoder,
/// so it holds the same weights.
class ReferenceEncoder : public Module {
 public:
  ReferenceEncoder(const GnnConfig& c, common::Rng* rng) : config_(c) {
    int64_t in = c.in_features;
    for (int64_t l = 0; l < c.num_layers; ++l, in = c.hidden) {
      switch (c.backbone) {
        case Backbone::kGcn:
          gcn_.emplace_back(in, c.hidden, rng);
          break;
        case Backbone::kGin:
          gin_.emplace_back(in, c.hidden, c.gin_eps, rng);
          break;
        case Backbone::kSage:
          sage_.emplace_back(in, c.hidden, c.sage_normalize, rng);
          break;
        case Backbone::kGat:
          gat_.emplace_back(in, c.hidden, c.gat_heads, c.gat_negative_slope,
                            rng);
          break;
      }
    }
    for (const auto& m : gcn_) RegisterSubmodule(m);
    for (const auto& m : gin_) RegisterSubmodule(m);
    for (const auto& m : sage_) RegisterSubmodule(m);
    for (const auto& m : gat_) RegisterSubmodule(m);
  }

  tensor::Tensor Forward(
      const std::shared_ptr<const tensor::SparseMatrix>& adj,
      const tensor::Tensor& x, bool training, common::Rng* rng) const {
    tensor::Tensor h = x;
    for (size_t l = 0; l < static_cast<size_t>(config_.num_layers); ++l) {
      if (l > 0) h = tensor::Relu(h);
      switch (config_.backbone) {
        case Backbone::kGcn:
          h = gcn_[l].Forward(adj, h);
          break;
        case Backbone::kGin:
          h = gin_[l].Forward(adj, h, training, rng);
          break;
        case Backbone::kSage:
          h = sage_[l].Forward(adj, h);
          break;
        case Backbone::kGat:
          h = gat_[l].Forward(adj, h);
          break;
      }
    }
    return tensor::Dropout(h, config_.dropout, training, rng);
  }

 private:
  GnnConfig config_;
  std::vector<GcnConv> gcn_;
  std::vector<GinConv> gin_;
  std::vector<SageConv> sage_;
  std::vector<GatConv> gat_;
};

class PropagateBitsTest
    : public ::testing::TestWithParam<std::tuple<Backbone, int64_t, bool>> {
 protected:
  GnnConfig Config() const {
    GnnConfig config;
    config.backbone = std::get<0>(GetParam());
    config.num_layers = std::get<1>(GetParam());
    config.in_features = 5;
    config.hidden = 8;
    config.dropout = 0.5f;
    config.gin_eps = 0.25f;  // a non-trivial self weight
    return config;
  }
  bool training() const { return std::get<2>(GetParam()); }
};

TEST_P(PropagateBitsTest, PropagatedForwardMatchesPlainForwardBitwise) {
  const GnnConfig config = Config();
  const graph::Graph g = ChordRingGraph(9);
  // Three twins with the same weights: the plain path, the propagated path
  // and the reference layer loop.
  common::Rng init_a(11), init_b(11), init_ref(11);
  GnnEncoder plain(config, g, &init_a);
  GnnEncoder propagated(config, g, &init_b);
  ReferenceEncoder reference(config, &init_ref);
  common::Rng data_rng(12);
  const tensor::Tensor x = tensor::Tensor::RandNormal({9, 5}, 1.0f, &data_rng);

  PropagatedInput input;
  {
    tensor::NoGradGuard no_grad;
    input = propagated.Propagate(x);
  }
  EXPECT_EQ(input.aggregate.defined(), config.backbone != Backbone::kGat);
  // Twin RNGs: every path draws the same dropout masks.
  common::Rng rng_a(99), rng_b(99), rng_ref(99);
  const tensor::Tensor h_plain = plain.Forward(x, training(), &rng_a);
  const tensor::Tensor h_prop = propagated.Forward(input, training(), &rng_b);
  const tensor::Tensor h_ref = reference.Forward(
      AdjacencyForBackbone(config.backbone, g), x, training(), &rng_ref);
  EXPECT_EQ(Bits(h_plain.data()), Bits(h_ref.data()));
  EXPECT_EQ(Bits(h_prop.data()), Bits(h_ref.data()));
  const uint64_t next = rng_ref.NextU64();
  EXPECT_EQ(rng_a.NextU64(), next);
  EXPECT_EQ(rng_b.NextU64(), next);

  tensor::SumSquares(h_plain).Backward();
  tensor::SumSquares(h_prop).Backward();
  tensor::SumSquares(h_ref).Backward();
  const auto ref_grads = GradBits(reference);
  ASSERT_EQ(ref_grads.size(), plain.parameters().size());
  EXPECT_EQ(GradBits(plain), ref_grads);
  EXPECT_EQ(GradBits(propagated), ref_grads);
}

TEST_P(PropagateBitsTest, ForwardWithOnAnotherGraphMatchesPropagateWith) {
  // The dynamic-graph serving path: an encoder built on one graph runs over
  // another graph's operator, with a different node count.
  const GnnConfig config = Config();
  common::Rng init(13), init_ref(13);
  GnnEncoder encoder(config, ChordRingGraph(9), &init);
  ReferenceEncoder reference(config, &init_ref);
  const graph::Graph served = ChordRingGraph(14);
  const auto adj = AdjacencyForBackbone(config.backbone, served);
  common::Rng data_rng(14);
  const tensor::Tensor x = tensor::Tensor::RandNormal({14, 5}, 1.0f, &data_rng);
  tensor::NoGradGuard no_grad;
  common::Rng rng_a(7), rng_b(7), rng_ref(7);
  const tensor::Tensor a = encoder.ForwardWith(adj, x, training(), &rng_a);
  const tensor::Tensor b =
      encoder.Forward(encoder.PropagateWith(adj, x), training(), &rng_b);
  const tensor::Tensor ref = reference.Forward(adj, x, training(), &rng_ref);
  EXPECT_EQ(a.dim(0), 14);
  EXPECT_EQ(Bits(a.data()), Bits(ref.data()));
  EXPECT_EQ(Bits(b.data()), Bits(ref.data()));
}

INSTANTIATE_TEST_SUITE_P(
    AllBackbones, PropagateBitsTest,
    ::testing::Combine(::testing::Values(Backbone::kGcn, Backbone::kGin,
                                         Backbone::kSage, Backbone::kGat),
                       ::testing::Values(int64_t{1}, int64_t{2}),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(BackboneName(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param)) + "layer_" +
             (std::get<2>(info.param) ? "train" : "eval");
    });

// Rows-only training (core::GatherSplit): a row-local encoder run on the
// gathered rows of a split gives those rows of the full forward, leaves the
// RNG where the full dropout leaves it, and back-propagates a CE over the
// split into bit-equal gradients for every parameter, head included.
class PropagateBitsGatheredTest : public PropagateBitsTest {};

TEST_P(PropagateBitsGatheredTest, GatheredRowsMatchFullPathBitwise) {
  const GnnConfig config = Config();
  const graph::Graph g = ChordRingGraph(9);
  common::Rng init_full(11), init_rows(11);
  GnnClassifier full(config, g, &init_full);
  GnnClassifier rows(config, g, &init_rows);
  ASSERT_TRUE(rows.encoder().row_local());
  common::Rng data_rng(12);
  const tensor::Tensor x = tensor::Tensor::RandNormal({9, 5}, 1.0f, &data_rng);
  const std::vector<int> labels = {0, 1, 1, 0, 1, 0, 0, 1, 1};
  // Unordered, as a shuffled split is: the CE sums in this order.
  const std::vector<int64_t> split = {7, 2, 5, 0, 8};

  PropagatedInput input;
  core::SplitRows gathered;
  {
    tensor::NoGradGuard no_grad;
    input = full.encoder().Propagate(x);
    gathered = core::GatherSplit(rows, input, labels, split);
  }
  ASSERT_EQ(gathered.input.rows, (std::vector<int64_t>{0, 2, 5, 7, 8}));
  EXPECT_EQ(gathered.input.adj->rows(), 9);

  common::Rng rng_full(99), rng_rows(99);
  const tensor::Tensor h_full = full.Embed(input, training(), &rng_full);
  const tensor::Tensor h_rows =
      rows.Embed(gathered.input, training(), &rng_rows);
  EXPECT_EQ(rng_rows.SaveState(), rng_full.SaveState());
  const tensor::Tensor logits_full = full.Logits(h_full);
  const tensor::Tensor logits_rows = rows.Logits(h_rows);
  const auto& ids = gathered.input.rows;
  EXPECT_EQ(Bits(h_rows.data()), Bits(tensor::Rows(h_full, ids).data()));
  EXPECT_EQ(Bits(logits_rows.data()),
            Bits(tensor::Rows(logits_full, ids).data()));

  tensor::Tensor ce_full =
      tensor::SoftmaxCrossEntropy(logits_full, labels, split);
  tensor::Tensor ce_rows = tensor::SoftmaxCrossEntropy(
      logits_rows, gathered.labels, gathered.index);
  EXPECT_EQ(std::bit_cast<uint32_t>(ce_rows.item()),
            std::bit_cast<uint32_t>(ce_full.item()));
  ce_full.Backward();
  ce_rows.Backward();
  const auto full_grads = GradBits(full);
  ASSERT_EQ(full_grads.size(), rows.parameters().size());
  EXPECT_EQ(GradBits(rows), full_grads);
}

INSTANTIATE_TEST_SUITE_P(
    RowLocalBackbones, PropagateBitsGatheredTest,
    ::testing::Combine(::testing::Values(Backbone::kGcn, Backbone::kGin,
                                         Backbone::kSage),
                       ::testing::Values(int64_t{1}), ::testing::Bool()),
    [](const auto& info) {
      return std::string(BackboneName(std::get<0>(info.param))) + "_" +
             (std::get<2>(info.param) ? "train" : "eval");
    });

TEST(PropagatedInputTest, RejectsMismatchedInput) {
  common::Rng rng(14);
  const graph::Graph g = RingGraph(6);
  GnnConfig config;
  config.in_features = 3;
  config.hidden = 4;
  GnnEncoder gcn(config, g, &rng);
  config.backbone = Backbone::kGin;
  GnnEncoder gin(config, g, &rng);
  const tensor::Tensor x = tensor::Tensor::Ones({6, 3});
  EXPECT_DEATH(gcn.Forward(gin.Propagate(x), false, &rng), "built for backbone gin but the encoder is gcn");
  PropagatedInput stale = gcn.Propagate(x);
  stale.x = tensor::Tensor::Ones({7, 3});
  EXPECT_DEATH(gcn.Forward(stale, false, &rng), "adjacency");
}

TEST(PropagatedInputTest, RejectsGatheredInputOnMixingEncoders) {
  // GAT attends over neighbours and a second layer aggregates the first
  // layer's output, so neither can run from a few gathered rows.
  common::Rng rng(15);
  const graph::Graph g = RingGraph(6);
  const tensor::Tensor x = tensor::Tensor::Ones({6, 3});
  const std::vector<int64_t> ids = {1, 4};
  GnnConfig config;
  config.in_features = 3;
  config.hidden = 4;
  config.backbone = Backbone::kGat;
  config.gat_heads = 2;
  GnnEncoder gat(config, g, &rng);
  EXPECT_FALSE(gat.row_local());
  EXPECT_DEATH(gat.Forward(Rows(gat.Propagate(x), ids), false, &rng),
               "gathered input given to a 1 layer gat encoder");
  config.backbone = Backbone::kGcn;
  config.num_layers = 2;
  GnnEncoder deep(config, g, &rng);
  EXPECT_FALSE(deep.row_local());
  EXPECT_DEATH(deep.Forward(Rows(deep.Propagate(x), ids), false, &rng),
               "gathered input given to a 2 layer gcn encoder");
}

TEST(BackboneParseTest, NewNamesRoundTrip) {
  EXPECT_EQ(ParseBackbone("sage").value(), Backbone::kSage);
  EXPECT_EQ(ParseBackbone("gat").value(), Backbone::kGat);
  EXPECT_STREQ(BackboneName(Backbone::kSage), "sage");
  EXPECT_STREQ(BackboneName(Backbone::kGat), "gat");
}

}  // namespace
}  // namespace fairwos::nn
