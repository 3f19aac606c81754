// Counterfactual data augmentation (paper §III-D, Eq. 11-12): instead of
// perturbing attributes (which fabricates non-realistic counterfactuals),
// Fairwos searches the *real* dataset for each node's counterfactuals —
// nodes with the same (pseudo-)label but a different value of the i-th
// pseudo-sensitive attribute, nearest in GNN embedding space.
#ifndef FAIRWOS_CORE_COUNTERFACTUAL_H_
#define FAIRWOS_CORE_COUNTERFACTUAL_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace fairwos::core {

struct CounterfactualConfig {
  /// K — counterfactuals kept per (node, attribute); paper sweeps 1..20.
  int64_t top_k = 5;
  /// Anchor nodes regularized per refresh; <= 0 uses every node. Sampling
  /// bounds the O(anchors * pool) search on commodity CPUs.
  int64_t sample_nodes = 512;
  /// Candidate pool size; <= 0 searches the full node set (exact Eq. 12).
  int64_t candidate_pool = 1024;
};

/// The search result: for attribute i and anchor position a,
/// matches[i][a] holds up to K node ids ordered by increasing embedding
/// distance, equal distances by node id. Fewer than K entries means the
/// constraint set was exhausted.
struct CounterfactualSet {
  std::vector<int64_t> anchors;
  std::vector<std::vector<std::vector<int64_t>>> matches;  // [I][A][<=K]

  int64_t num_attrs() const { return static_cast<int64_t>(matches.size()); }
};

/// Runs the top-K search of Eq. 12.
///
/// `embeddings` are the current GNN representations h [N, H] (read as plain
/// values — the search itself is not differentiated through);
/// `bins[v][i]` is the discretised value of pseudo-attribute i at node v;
/// `pseudo_labels` come from the pre-trained classifier (semi-supervised
/// setting, §III-D). Deterministic in (inputs, rng state).
CounterfactualSet FindCounterfactuals(
    const tensor::Tensor& embeddings,
    const std::vector<std::vector<uint8_t>>& bins,
    const std::vector<int>& pseudo_labels, const CounterfactualConfig& config,
    common::Rng* rng);

}  // namespace fairwos::core

#endif  // FAIRWOS_CORE_COUNTERFACTUAL_H_
