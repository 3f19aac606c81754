#include "data/dataset.h"

#include <cmath>
#include <unordered_set>

#include "common/string_util.h"

namespace fairwos::data {

Split MakeSplit(int64_t num_nodes, common::Rng* rng) {
  FW_CHECK(rng != nullptr);
  FW_CHECK_GT(num_nodes, 0);
  std::vector<int64_t> order(static_cast<size_t>(num_nodes));
  for (int64_t i = 0; i < num_nodes; ++i) order[static_cast<size_t>(i)] = i;
  rng->Shuffle(&order);
  const int64_t n_train = num_nodes / 2;
  const int64_t n_val = num_nodes / 4;
  Split split;
  split.train.assign(order.begin(), order.begin() + n_train);
  split.val.assign(order.begin() + n_train, order.begin() + n_train + n_val);
  split.test.assign(order.begin() + n_train + n_val, order.end());
  return split;
}

ColumnStats StandardizeColumns(tensor::Tensor* features) {
  FW_CHECK(features != nullptr);
  FW_CHECK_EQ(features->rank(), 2);
  const int64_t n = features->dim(0), f = features->dim(1);
  FW_CHECK_GT(n, 0);
  ColumnStats stats;
  stats.mean.assign(static_cast<size_t>(f), 0.0f);
  stats.stddev.assign(static_cast<size_t>(f), 0.0f);
  auto& data = features->mutable_data();
  for (int64_t j = 0; j < f; ++j) {
    double sum = 0.0, sum_sq = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      const double v = data[static_cast<size_t>(i * f + j)];
      sum += v;
      sum_sq += v * v;
    }
    const double mean = sum / static_cast<double>(n);
    const double var =
        std::max(0.0, sum_sq / static_cast<double>(n) - mean * mean);
    const double stddev = std::sqrt(var);
    stats.mean[static_cast<size_t>(j)] = static_cast<float>(mean);
    stats.stddev[static_cast<size_t>(j)] = static_cast<float>(stddev);
    for (int64_t i = 0; i < n; ++i) {
      auto& v = data[static_cast<size_t>(i * f + j)];
      v = stddev > 1e-12 ? static_cast<float>((v - mean) / stddev) : 0.0f;
    }
  }
  return stats;
}

common::Status ValidateDataset(const Dataset& ds) {
  const int64_t n = ds.graph.num_nodes();
  if (n == 0) return common::Status::InvalidArgument("empty graph");
  if (!ds.features.defined() || ds.features.rank() != 2 ||
      ds.features.dim(0) != n) {
    return common::Status::InvalidArgument("features shape mismatch");
  }
  if (static_cast<int64_t>(ds.labels.size()) != n) {
    return common::Status::InvalidArgument("labels size mismatch");
  }
  if (static_cast<int64_t>(ds.sens.size()) != n) {
    return common::Status::InvalidArgument("sens size mismatch");
  }
  for (int64_t i = 0; i < n; ++i) {
    if (ds.labels[static_cast<size_t>(i)] != 0 &&
        ds.labels[static_cast<size_t>(i)] != 1) {
      return common::Status::InvalidArgument("labels must be binary");
    }
    if (ds.sens[static_cast<size_t>(i)] != 0 &&
        ds.sens[static_cast<size_t>(i)] != 1) {
      return common::Status::InvalidArgument("sens must be binary");
    }
  }
  std::unordered_set<int64_t> seen;
  for (const auto* part : {&ds.split.train, &ds.split.val, &ds.split.test}) {
    for (int64_t i : *part) {
      if (i < 0 || i >= n) {
        return common::Status::OutOfRange("split index out of range");
      }
      if (!seen.insert(i).second) {
        return common::Status::InvalidArgument(
            "split parts overlap at node " + std::to_string(i));
      }
    }
  }
  if (ds.split.train.empty() || ds.split.test.empty()) {
    return common::Status::InvalidArgument("train/test split empty");
  }
  // Every training loop selects its model on the validation split.
  if (ds.split.val.empty()) {
    return common::Status::InvalidArgument("validation split empty");
  }
  return common::Status::OK();
}

}  // namespace fairwos::data
