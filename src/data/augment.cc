#include "data/augment.h"

#include <algorithm>
#include <cmath>

namespace fairwos::data {

Dataset WithFeatureNoise(const Dataset& ds, double stddev, common::Rng* rng) {
  FW_CHECK_GE(stddev, 0.0);
  FW_CHECK(rng != nullptr);
  Dataset out = ds;
  out.features = ds.features.DetachCopy();
  for (auto& v : out.features.mutable_data()) {
    v += static_cast<float>(rng->Normal(0.0, stddev));
  }
  return out;
}

Dataset WithEdgeDropout(const Dataset& ds, double keep_prob,
                        common::Rng* rng) {
  FW_CHECK_GE(keep_prob, 0.0);
  FW_CHECK_LE(keep_prob, 1.0);
  FW_CHECK(rng != nullptr);
  Dataset out = ds;
  out.graph = graph::Graph(ds.num_nodes());
  for (int64_t u = 0; u < ds.num_nodes(); ++u) {
    for (int64_t v : ds.graph.Neighbors(u)) {
      if (u < v && rng->Bernoulli(keep_prob)) out.graph.AddEdge(u, v);
    }
  }
  return out;
}

Dataset WithMaskedAttributes(const Dataset& ds, double mask_fraction,
                             common::Rng* rng) {
  FW_CHECK_GE(mask_fraction, 0.0);
  FW_CHECK_LE(mask_fraction, 1.0);
  FW_CHECK(rng != nullptr);
  Dataset out = ds;
  out.features = ds.features.DetachCopy();
  const int64_t f = ds.num_attrs();
  const int64_t n_mask = static_cast<int64_t>(
      std::llround(mask_fraction * static_cast<double>(f)));
  if (n_mask == 0) return out;
  const auto masked = rng->SampleWithoutReplacement(f, n_mask);
  auto& data = out.features.mutable_data();
  for (int64_t i = 0; i < ds.num_nodes(); ++i) {
    for (int64_t j : masked) {
      data[static_cast<size_t>(i * f + j)] = 0.0f;
    }
  }
  return out;
}

}  // namespace fairwos::data
