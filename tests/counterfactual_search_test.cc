// The counterfactual fine-tune's two hot steps against their reference
// forms: the Eq. 12 search against a full-sort oracle (same anchors, same
// matches, same RNG state afterwards), and the fused Eq. 13 distance
// PairDistanceSum against the Rows/Sub/SumSquares/MulScalar/Add chain it
// replaces (same value and every gradient bit).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/threadpool.h"
#include "core/counterfactual.h"
#include "gradcheck.h"
#include "tensor/backend.h"
#include "tensor/ops.h"

namespace fairwos {
namespace {

using core::CounterfactualConfig;
using core::CounterfactualSet;
using tensor::Tensor;

// --- Search oracle -------------------------------------------------------

/// The search as first written: per anchor, the distance to every
/// same-label pool candidate, one full sort by (distance, id), then one
/// filtered scan per attribute.
CounterfactualSet OracleSearch(const Tensor& embeddings,
                               const std::vector<std::vector<uint8_t>>& bins,
                               const std::vector<int>& pseudo_labels,
                               const CounterfactualConfig& config,
                               common::Rng* rng) {
  const int64_t n = embeddings.dim(0);
  const int64_t h = embeddings.dim(1);
  const int64_t num_attrs = static_cast<int64_t>(bins[0].size());
  auto pick = [&](int64_t k) {
    if (k <= 0 || k >= n) {
      std::vector<int64_t> all(static_cast<size_t>(n));
      std::iota(all.begin(), all.end(), 0);
      return all;
    }
    return rng->SampleWithoutReplacement(n, k);
  };
  CounterfactualSet out;
  out.anchors = pick(config.sample_nodes);
  const std::vector<int64_t> pool = pick(config.candidate_pool);
  out.matches.assign(
      static_cast<size_t>(num_attrs),
      std::vector<std::vector<int64_t>>(out.anchors.size()));
  const float* emb = embeddings.data().data();
  for (size_t a = 0; a < out.anchors.size(); ++a) {
    const int64_t v = out.anchors[a];
    std::vector<std::pair<float, int64_t>> order;
    for (int64_t cand : pool) {
      if (cand == v || pseudo_labels[static_cast<size_t>(cand)] !=
                           pseudo_labels[static_cast<size_t>(v)]) {
        continue;
      }
      float dist = 0.0f;
      for (int64_t d = 0; d < h; ++d) {
        const float diff = emb[v * h + d] - emb[cand * h + d];
        dist += diff * diff;
      }
      order.emplace_back(dist, cand);
    }
    std::sort(order.begin(), order.end());
    for (int64_t i = 0; i < num_attrs; ++i) {
      auto& slot = out.matches[static_cast<size_t>(i)][a];
      const uint8_t anchor_bin =
          bins[static_cast<size_t>(v)][static_cast<size_t>(i)];
      for (const auto& [dist, cand] : order) {
        if (bins[static_cast<size_t>(cand)][static_cast<size_t>(i)] ==
            anchor_bin) {
          continue;
        }
        slot.push_back(cand);
        if (static_cast<int64_t>(slot.size()) == config.top_k) break;
      }
    }
  }
  return out;
}

struct SearchInput {
  Tensor embeddings;
  std::vector<std::vector<uint8_t>> bins;
  std::vector<int> labels;
};

struct InputSpec {
  int64_t n = 200;
  int64_t h = 13;
  int num_labels = 2;
  int64_t num_attrs = 5;
  /// Probability that a bin is 1; near 0 or 1 leaves few differing nodes.
  double p_one = 0.5;
  /// > 0: every embedding row is one of this many prototypes (exact ties).
  int64_t prototypes = 0;
  /// > 0: embeddings are small integers, so distinct rows tie too.
  int integer_range = 0;
};

SearchInput MakeInput(const InputSpec& spec, uint64_t seed) {
  common::Rng rng(seed);
  SearchInput in;
  std::vector<float> protos(
      static_cast<size_t>(std::max<int64_t>(spec.prototypes, 1) * spec.h));
  for (auto& x : protos) x = static_cast<float>(rng.Normal());
  std::vector<float> emb(static_cast<size_t>(spec.n * spec.h));
  for (int64_t v = 0; v < spec.n; ++v) {
    const int64_t p = spec.prototypes > 0 ? rng.UniformInt(spec.prototypes) : 0;
    for (int64_t d = 0; d < spec.h; ++d) {
      float& x = emb[static_cast<size_t>(v * spec.h + d)];
      if (spec.prototypes > 0) {
        x = protos[static_cast<size_t>(p * spec.h + d)];
      } else if (spec.integer_range > 0) {
        x = static_cast<float>(rng.UniformInt(spec.integer_range));
      } else {
        x = static_cast<float>(rng.Normal());
      }
    }
  }
  in.embeddings = Tensor::FromVector({spec.n, spec.h}, std::move(emb));
  in.bins.assign(static_cast<size_t>(spec.n),
                 std::vector<uint8_t>(static_cast<size_t>(spec.num_attrs)));
  for (auto& row : in.bins) {
    for (auto& b : row) b = rng.Uniform(0.0, 1.0) < spec.p_one ? 1 : 0;
  }
  in.labels.resize(static_cast<size_t>(spec.n));
  for (auto& l : in.labels) {
    l = static_cast<int>(rng.UniformInt(spec.num_labels));
  }
  return in;
}

void ExpectSameAsOracle(const SearchInput& in, const CounterfactualConfig& c,
                        uint64_t seed) {
  common::Rng rng(seed), oracle_rng(seed);
  const CounterfactualSet got =
      core::FindCounterfactuals(in.embeddings, in.bins, in.labels, c, &rng);
  const CounterfactualSet want =
      OracleSearch(in.embeddings, in.bins, in.labels, c, &oracle_rng);
  EXPECT_EQ(got.anchors, want.anchors);
  ASSERT_EQ(got.matches.size(), want.matches.size());
  for (size_t i = 0; i < want.matches.size(); ++i) {
    ASSERT_EQ(got.matches[i], want.matches[i]) << "attribute " << i;
  }
  EXPECT_TRUE(rng.SaveState() == oracle_rng.SaveState());
}

CounterfactualConfig Exact(int64_t top_k) {
  CounterfactualConfig c;
  c.top_k = top_k;
  c.sample_nodes = 0;
  c.candidate_pool = 0;
  return c;
}

TEST(CounterfactualOracleTest, ExactSearch) {
  for (int64_t top_k : {1, 3, 5}) {
    ExpectSameAsOracle(MakeInput({}, 1), Exact(top_k), 2);
  }
}

TEST(CounterfactualOracleTest, SampledSearchOverUnorderedPool) {
  CounterfactualConfig c;
  c.top_k = 5;
  c.sample_nodes = 64;
  c.candidate_pool = 150;  // sampled in random order, not ascending
  for (uint64_t seed : {3, 4, 5}) {
    ExpectSameAsOracle(MakeInput({.n = 400, .num_labels = 3}, seed), c,
                       seed + 10);
  }
}

TEST(CounterfactualOracleTest, ExactDistanceTies) {
  // Duplicate rows tie exactly; integer rows tie across distinct rows.
  ExpectSameAsOracle(MakeInput({.n = 300, .prototypes = 6}, 6), Exact(5), 7);
  ExpectSameAsOracle(MakeInput({.n = 300, .h = 3, .integer_range = 3}, 8),
                     Exact(4), 9);
}

TEST(CounterfactualOracleTest, AnchorLabelMissingFromPool) {
  // Label 7 is held by nodes 0 and 1 only; find a seed whose sampled pool
  // holds neither while both stay anchors (sample_nodes 0 draws nothing).
  SearchInput in = MakeInput({.n = 120}, 10);
  in.labels[0] = 7;
  in.labels[1] = 7;
  CounterfactualConfig c = Exact(3);
  c.candidate_pool = 30;
  bool found = false;
  for (uint64_t seed = 1; seed < 100 && !found; ++seed) {
    common::Rng probe(seed);
    const auto pool = probe.SampleWithoutReplacement(120, 30);
    if (std::find_if(pool.begin(), pool.end(), [](int64_t v) {
          return v <= 1;
        }) != pool.end()) {
      continue;
    }
    found = true;
    ExpectSameAsOracle(in, c, seed);
    common::Rng rng(seed);
    const auto cf =
        core::FindCounterfactuals(in.embeddings, in.bins, in.labels, c, &rng);
    for (const auto& per_attr : cf.matches) {
      EXPECT_TRUE(per_attr[0].empty());
      EXPECT_TRUE(per_attr[1].empty());
    }
  }
  ASSERT_TRUE(found);
}

TEST(CounterfactualOracleTest, FewDifferingCandidatesNeedLaterChunks) {
  // Almost every bin is 1, so an attribute finds its top_k differing
  // candidates only deep in the order, or never.
  ExpectSameAsOracle(MakeInput({.n = 1500, .h = 5, .p_one = 0.97}, 11),
                     Exact(5), 12);
  ExpectSameAsOracle(MakeInput({.n = 300, .p_one = 0.995}, 13), Exact(2), 14);
}

TEST(CounterfactualOracleTest, TopKLargerThanBucket) {
  ExpectSameAsOracle(MakeInput({.n = 40, .num_labels = 4}, 15), Exact(25), 16);
}

TEST(CounterfactualOracleTest, AttributeCounts) {
  ExpectSameAsOracle(MakeInput({.n = 150, .num_attrs = 1}, 17), Exact(5), 18);
  CounterfactualConfig c;
  c.top_k = 5;
  c.sample_nodes = 40;
  c.candidate_pool = 300;
  ExpectSameAsOracle(MakeInput({.n = 600, .num_attrs = 277}, 19), c, 20);
}

TEST(CounterfactualOracleTest, WidthsNotAMultipleOfEight) {
  for (int64_t h : {1, 5, 7, 9, 17}) {
    ExpectSameAsOracle(MakeInput({.n = 180, .h = h}, 21 + h), Exact(4), 22);
  }
}

// --- Fused distance against the tape chain --------------------------------

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

uint32_t Bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

/// Pairs of one attribute: lists[k] = (anchor rows, match rows).
using PairLists = std::vector<std::pair<std::vector<int64_t>,
                                        std::vector<int64_t>>>;

/// The Dᵢ chain as the fine-tune built it before the fused op.
Tensor ChainDistance(const Tensor& h, const PairLists& lists, float scale) {
  Tensor d;
  for (const auto& [anchors, matches] : lists) {
    if (anchors.empty()) continue;
    Tensor diff =
        tensor::Sub(tensor::Rows(h, anchors), tensor::Rows(h, matches));
    Tensor dist = tensor::MulScalar(tensor::SumSquares(diff), scale);
    d = d.defined() ? tensor::Add(d, dist) : dist;
  }
  return d;
}

Tensor FusedDistance(const Tensor& h, const PairLists& lists, float scale) {
  std::vector<std::vector<int64_t>> anchors, matches;
  for (const auto& [a, m] : lists) {
    anchors.push_back(a);
    matches.push_back(m);
  }
  return tensor::PairDistanceSum(h, std::move(anchors), std::move(matches),
                                 scale);
}

struct LossRun {
  std::vector<float> values;  // each Dᵢ, then the loss
  std::vector<float> h_grad;
  std::vector<std::vector<float>> param_grads;
};

/// A small fine-tune step: h = relu(x·W + b), CE on a head, plus
/// Σᵢ wᵢ·Dᵢ, then one Backward.
LossRun RunLoss(const std::vector<PairLists>& attrs, int64_t n, bool fused) {
  common::Rng rng(31);
  const int64_t f = 6, c = 17;
  Tensor x = Tensor::RandNormal({n, f}, 1.0f, &rng);
  Tensor w = Tensor::RandNormal({f, c}, 0.5f, &rng).set_requires_grad(true);
  Tensor b = Tensor::RandNormal({c}, 0.1f, &rng).set_requires_grad(true);
  Tensor head =
      Tensor::RandNormal({c, 2}, 0.5f, &rng).set_requires_grad(true);
  Tensor h =
      tensor::Relu(tensor::AddRowBroadcast(tensor::MatMul(x, w), b));
  std::vector<int> labels(static_cast<size_t>(n));
  std::vector<int64_t> train;
  for (int64_t v = 0; v < n; ++v) {
    labels[static_cast<size_t>(v)] = static_cast<int>(v % 2);
    if (v % 3 == 0) train.push_back(v);
  }
  Tensor total =
      tensor::SoftmaxCrossEntropy(tensor::MatMul(h, head), labels, train);
  LossRun run;
  const float scale = 1.0f / 37.0f;
  for (size_t i = 0; i < attrs.size(); ++i) {
    Tensor d = fused ? FusedDistance(h, attrs[i], scale)
                     : ChainDistance(h, attrs[i], scale);
    if (!d.defined()) continue;
    run.values.push_back(d.item());
    total = tensor::Add(
        total, tensor::MulScalar(d, 0.3f + 0.1f * static_cast<float>(i)));
  }
  total.Backward();
  run.values.push_back(total.item());
  run.h_grad = h.grad();
  for (const Tensor& p : {w, b, head}) run.param_grads.push_back(p.grad());
  return run;
}

void ExpectSameRun(const LossRun& got, const LossRun& want,
                   const std::string& where) {
  ASSERT_EQ(got.values.size(), want.values.size()) << where;
  for (size_t i = 0; i < want.values.size(); ++i) {
    EXPECT_EQ(Bits(got.values[i]), Bits(want.values[i])) << where << " #" << i;
  }
  EXPECT_TRUE(BitEqual(got.h_grad, want.h_grad)) << where;
  ASSERT_EQ(got.param_grads.size(), want.param_grads.size());
  for (size_t p = 0; p < want.param_grads.size(); ++p) {
    EXPECT_TRUE(BitEqual(got.param_grads[p], want.param_grads[p]))
        << where << " param " << p;
  }
}

/// Random pairs over [0, n): repeated ids, anchors that are also matches
/// and self-pairs (an exact zero difference) all occur.
PairLists RandomLists(int64_t n, const std::vector<size_t>& sizes,
                      common::Rng* rng) {
  PairLists lists;
  for (size_t size : sizes) {
    std::vector<int64_t> a(size), m(size);
    for (size_t r = 0; r < size; ++r) {
      a[r] = rng->UniformInt(n);
      m[r] = r % 7 == 3 ? a[r] : rng->UniformInt(n);
    }
    if (size >= 4) m[1] = m[2];  // a repeated match id within one k
    lists.emplace_back(std::move(a), std::move(m));
  }
  return lists;
}

/// Restores the backend and the pool size a test changed.
struct BackendGuard {
  tensor::SimdMode mode =
      tensor::ParseSimdMode(tensor::ActiveBackendInfo().requested_mode)
          .value();
  ~BackendGuard() {
    (void)tensor::SelectBackend(mode);
    common::SetGlobalThreadCount(0);
  }
};

TEST(PairDistanceSumTest, MatchesChainBitwiseUnderEveryBackendAndPool) {
  BackendGuard guard;
  const int64_t n = 90;
  common::Rng rng(41);
  std::vector<PairLists> attrs = {
      RandomLists(n, {40, 38, 0, 25, 9}, &rng),  // an empty k inside
      RandomLists(n, {2100}, &rng),  // > one Reduce chunk: pooled partials
      RandomLists(n, {0, 0, 0}, &rng),  // no pairs: no term at all
      RandomLists(n, {1}, &rng),        // top_k = 1
      RandomLists(n, {0, 12, 12, 4}, &rng),  // empty first k
  };
  std::vector<LossRun> runs;
  for (tensor::SimdMode mode :
       {tensor::SimdMode::kScalar, tensor::SimdMode::kAuto}) {
    ASSERT_TRUE(tensor::SelectBackend(mode).ok());
    for (int threads : {1, 4}) {
      common::SetGlobalThreadCount(threads);
      const std::string where = std::string(tensor::SimdModeName(mode)) +
                                " @" + std::to_string(threads);
      const LossRun chain = RunLoss(attrs, n, /*fused=*/false);
      const LossRun fused = RunLoss(attrs, n, /*fused=*/true);
      ExpectSameRun(fused, chain, where);
      if (!runs.empty()) ExpectSameRun(fused, runs.front(), where);
      runs.push_back(fused);
    }
  }
}

TEST(PairDistanceSumTest, ZeroSignsFollowTheChain) {
  // A leaf whose gradient holds −0 before Backward: a zero-distance pair
  // adds 0 + (−0) = +0 through the chain's zeroed intermediates, and the
  // fused op must leave the same signs. Row 1 is only ever a match, of the
  // identical row 0, so its −0 survives unless the fused op adds 0 + (−0).
  auto run = [](bool fused) {
    Tensor h = Tensor::FromVector({4, 3}, {1, 2, 3, 1, 2, 3, 0, -1, 5, 2, 2, 2})
                   .set_requires_grad(true);
    h.mutable_grad().assign(12, -0.0f);
    const PairLists lists = {{{0, 2, 3}, {1, 2, 0}}, {{3}, {2}}};
    Tensor d = fused ? FusedDistance(h, lists, 0.25f)
                     : ChainDistance(h, lists, 0.25f);
    tensor::MulScalar(d, 0.5f).Backward();
    return h.grad();
  };
  EXPECT_TRUE(BitEqual(run(true), run(false)));
}

TEST(PairDistanceSumTest, GradientMatchesFiniteDifferences) {
  common::Rng rng(43);
  Tensor h = Tensor::RandNormal({5, 3}, 1.0f, &rng);
  testing::ExpectGradientsMatch(h, [&] {
    return tensor::PairDistanceSum(h, {{0, 1, 4}, {2}}, {{3, 1, 0}, {0}},
                                   0.7f);
  });
}

TEST(PairDistanceSumTest, NoPairsIsUndefined) {
  Tensor h = Tensor::Ones({3, 2}).set_requires_grad(true);
  EXPECT_FALSE(tensor::PairDistanceSum(h, {{}, {}}, {{}, {}}, 1.0f).defined());
  EXPECT_FALSE(tensor::PairDistanceSum(h, {}, {}, 1.0f).defined());
}

TEST(PairDistanceSumTest, ValueIsScaledSquaredDistance) {
  Tensor h = Tensor::FromVector({3, 2}, {0, 0, 3, 4, 1, 1});
  // k = 0: ‖h0 − h1‖² = 25; k = 1: ‖h2 − h0‖² + ‖h1 − h1‖² = 2.
  const Tensor d = tensor::PairDistanceSum(h, {{0}, {2, 1}}, {{1}, {0, 1}},
                                           0.5f);
  EXPECT_FLOAT_EQ(d.item(), 13.5f);
}

TEST(PairDistanceSumDeathTest, ListsOfDifferentLengthsAbort) {
  Tensor h = Tensor::Ones({4, 2});
  EXPECT_DEATH(tensor::PairDistanceSum(h, {{0, 1}}, {{2}}, 1.0f),
               "PairDistanceSum");
  EXPECT_DEATH(tensor::PairDistanceSum(h, {{0}, {1}}, {{2}}, 1.0f),
               "anchors.size");
}

}  // namespace
}  // namespace fairwos
