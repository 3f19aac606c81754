// The dataset abstraction every method consumes: topology + non-sensitive
// features + labels, with the sensitive attribute held out for evaluation
// only (the paper's problem setting, §II-C: S ∉ F during training).
#ifndef FAIRWOS_DATA_DATASET_H_
#define FAIRWOS_DATA_DATASET_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/graph.h"
#include "tensor/tensor.h"

namespace fairwos::data {

/// Node indices for the semi-supervised split (paper: 50% / 25% / 25%).
struct Split {
  std::vector<int64_t> train;
  std::vector<int64_t> val;
  std::vector<int64_t> test;
};

/// An attributed, labeled graph for fair node classification.
///
/// Invariant: `features` has graph.num_nodes() rows and does NOT contain the
/// sensitive attribute; `sens` is only consulted by evaluation metrics
/// (fairness is verified with s at test time, §II-B).
struct Dataset {
  std::string name;
  graph::Graph graph{0};
  tensor::Tensor features;      // [N, F], standardized
  std::vector<int> labels;      // y ∈ {0, 1}
  std::vector<int> sens;        // s ∈ {0, 1}; held out from training
  Split split;
  std::string label_name;
  std::string sens_name;

  int64_t num_nodes() const { return graph.num_nodes(); }
  int64_t num_attrs() const { return features.dim(1); }
};

/// Draws a random 50/25/25 train/val/test split over all nodes.
Split MakeSplit(int64_t num_nodes, common::Rng* rng);

/// In-place column standardization to zero mean / unit variance (constant
/// columns become all-zero). Returns per-column (mean, std) for tests.
struct ColumnStats {
  std::vector<float> mean;
  std::vector<float> stddev;
};
ColumnStats StandardizeColumns(tensor::Tensor* features);

/// Validates the Dataset invariants (sizes agree, labels/sens binary,
/// split covers disjoint subsets, none of train, val and test empty).
/// Returns the first violation found.
common::Status ValidateDataset(const Dataset& ds);

}  // namespace fairwos::data

#endif  // FAIRWOS_DATA_DATASET_H_
