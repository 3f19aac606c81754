// Quality properties of the counterfactual search on realistic data: the
// matches must actually be *near* neighbours (closer than random
// same-label nodes) and respect the constraints at scale — the semantic
// heart of Eq. 12.
#include <cmath>

#include <gtest/gtest.h>

#include "core/counterfactual.h"
#include "core/encoder.h"
#include "data/synthetic.h"

namespace fairwos::core {
namespace {

struct SearchFixture {
  data::Dataset ds;
  tensor::Tensor embeddings;  // the encoder's pseudo-attrs double as both
  std::vector<std::vector<uint8_t>> bins;
  CounterfactualSet cf;
};

SearchFixture BuildFixture(uint64_t seed) {
  SearchFixture fixture{data::MakeDataset("toy", {}).value(), {}, {}, {}};
  EncoderConfig config;
  config.out_dim = 8;
  config.epochs = 80;
  fixture.embeddings =
      PretrainEncoder(config, fixture.ds, seed, common::Deadline::Never(), {})
          .value()
          .x0;
  fixture.bins = MedianBins(fixture.embeddings);
  CounterfactualConfig search;
  search.top_k = 3;
  search.sample_nodes = 0;
  search.candidate_pool = 0;  // exact
  common::Rng rng(seed + 1);
  fixture.cf = FindCounterfactuals(fixture.embeddings, fixture.bins,
                                   fixture.ds.labels, search, &rng);
  return fixture;
}

double Distance(const tensor::Tensor& emb, int64_t a, int64_t b) {
  double d = 0.0;
  for (int64_t k = 0; k < emb.dim(1); ++k) {
    const double diff = emb.at(a, k) - emb.at(b, k);
    d += diff * diff;
  }
  return d;
}

TEST(CounterfactualQualityTest, ConstraintsHoldOnRealData) {
  auto fixture = BuildFixture(11);
  for (int64_t i = 0; i < fixture.cf.num_attrs(); ++i) {
    for (size_t a = 0; a < fixture.cf.anchors.size(); ++a) {
      const int64_t v = fixture.cf.anchors[a];
      for (int64_t m : fixture.cf.matches[static_cast<size_t>(i)][a]) {
        EXPECT_EQ(fixture.ds.labels[static_cast<size_t>(v)],
                  fixture.ds.labels[static_cast<size_t>(m)]);
        EXPECT_NE(fixture.bins[static_cast<size_t>(v)][static_cast<size_t>(i)],
                  fixture.bins[static_cast<size_t>(m)][static_cast<size_t>(i)]);
      }
    }
  }
}

TEST(CounterfactualQualityTest, MatchesAreCloserThanRandomSameLabelPairs) {
  auto fixture = BuildFixture(12);
  // Mean distance of top-1 matches.
  double match_total = 0.0;
  int64_t match_count = 0;
  for (int64_t i = 0; i < fixture.cf.num_attrs(); ++i) {
    for (size_t a = 0; a < fixture.cf.anchors.size(); ++a) {
      const auto& slot = fixture.cf.matches[static_cast<size_t>(i)][a];
      if (slot.empty()) continue;
      match_total += Distance(fixture.embeddings, fixture.cf.anchors[a],
                              slot[0]);
      ++match_count;
    }
  }
  ASSERT_GT(match_count, 0);
  const double match_mean = match_total / static_cast<double>(match_count);

  // Mean distance of random same-label pairs.
  common::Rng rng(13);
  double random_total = 0.0;
  int64_t random_count = 0;
  const int64_t n = fixture.ds.num_nodes();
  while (random_count < 500) {
    const int64_t a = rng.UniformInt(n);
    const int64_t b = rng.UniformInt(n);
    if (a == b || fixture.ds.labels[static_cast<size_t>(a)] !=
                      fixture.ds.labels[static_cast<size_t>(b)]) {
      continue;
    }
    random_total += Distance(fixture.embeddings, a, b);
    ++random_count;
  }
  const double random_mean = random_total / static_cast<double>(random_count);
  EXPECT_LT(match_mean, random_mean)
      << "Eq. 12's nearest-neighbour property must beat random matching";
}

TEST(CounterfactualQualityTest, SampledSearchApproximatesExact) {
  auto fixture = BuildFixture(14);
  // Re-run with a sampling budget and compare top-1 distances: the sampled
  // matches may differ but must not be wildly farther on average.
  CounterfactualConfig sampled;
  sampled.top_k = 3;
  sampled.sample_nodes = 0;       // same anchors (all)
  sampled.candidate_pool = 100;   // half the nodes
  common::Rng rng(15);
  auto cf_sampled = FindCounterfactuals(fixture.embeddings, fixture.bins,
                                        fixture.ds.labels, sampled, &rng);
  auto mean_top1 = [&](const CounterfactualSet& cf) {
    double total = 0.0;
    int64_t count = 0;
    for (int64_t i = 0; i < cf.num_attrs(); ++i) {
      for (size_t a = 0; a < cf.anchors.size(); ++a) {
        const auto& slot = cf.matches[static_cast<size_t>(i)][a];
        if (slot.empty()) continue;
        total += Distance(fixture.embeddings, cf.anchors[a], slot[0]);
        ++count;
      }
    }
    return total / static_cast<double>(std::max<int64_t>(count, 1));
  };
  EXPECT_LT(mean_top1(cf_sampled), 4.0 * mean_top1(fixture.cf));
}

TEST(CounterfactualQualityTest, DeterministicGivenRngState) {
  auto a = BuildFixture(16);
  auto b = BuildFixture(16);
  ASSERT_EQ(a.cf.anchors, b.cf.anchors);
  for (int64_t i = 0; i < a.cf.num_attrs(); ++i) {
    EXPECT_EQ(a.cf.matches[static_cast<size_t>(i)],
              b.cf.matches[static_cast<size_t>(i)]);
  }
}

}  // namespace
}  // namespace fairwos::core
