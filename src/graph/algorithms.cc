#include "graph/algorithms.h"

#include <cmath>

namespace fairwos::graph {

std::vector<int> SpectralBipartition(const Graph& g, int64_t iterations,
                                     common::Rng* rng) {
  FW_CHECK_GE(iterations, 1);
  FW_CHECK(rng != nullptr);
  const int64_t n = g.num_nodes();
  FW_CHECK_GT(n, 0);
  auto adj = g.RowNormalizedAdjacency();  // self-loops keep it aperiodic
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng->Normal());
  std::vector<float> next(static_cast<size_t>(n));
  for (int64_t iter = 0; iter < iterations; ++iter) {
    // Deflate the trivial stationary direction (all ones), then one step.
    double mean = 0.0;
    for (float x : v) mean += x;
    mean /= static_cast<double>(n);
    for (auto& x : v) x -= static_cast<float>(mean);
    adj->Multiply(v.data(), 1, next.data());
    double norm = 0.0;
    for (float x : next) norm += static_cast<double>(x) * x;
    norm = std::sqrt(norm);
    if (norm < 1e-12) break;  // graph has no non-trivial structure
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = next[i] / static_cast<float>(norm);
    }
  }
  std::vector<int> side(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    side[static_cast<size_t>(i)] = v[static_cast<size_t>(i)] >= 0.0f ? 1 : 0;
  }
  return side;
}

}  // namespace fairwos::graph
