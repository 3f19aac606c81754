#include "baselines/train_util.h"

#include <algorithm>
#include <numeric>

#include "common/trace.h"
#include "graph/algorithms.h"
#include "eval/stats.h"
#include "tensor/ops.h"

namespace fairwos::baselines {

// Checkpoint phase id (docs/resume.md); 1 and 2 belong to core::FitFairwos.
constexpr int64_t kPhaseBaseline = 0;

common::Result<int64_t> TrainClassifier(const TrainOptions& options,
                                        const data::Dataset& ds,
                                        const tensor::Tensor& features,
                                        const PenaltyFn& penalty,
                                        nn::GnnClassifier* model,
                                        common::Rng* rng,
                                        TrainDiagnostics* diag) {
  FW_CHECK(model != nullptr);
  const nn::PropagatedInput input = PropagateInput(*model, features);
  return TrainClassifier(options, ds, input,
                         core::GatherSplit(*model, input, ds.labels,
                                           ds.split.val),
                         penalty, model, rng, diag);
}

common::Result<int64_t> TrainClassifier(const TrainOptions& options,
                                        const data::Dataset& ds,
                                        const nn::PropagatedInput& input,
                                        const core::SplitRows& val,
                                        const PenaltyFn& penalty,
                                        nn::GnnClassifier* model,
                                        common::Rng* rng,
                                        TrainDiagnostics* diag) {
  FW_TRACE_SPAN("baseline/train");
  FW_ASSIGN_OR_RETURN(core::CheckpointSession session,
                      core::OpenCheckpoints(options.checkpoint,
                                            {kPhaseBaseline},
                                            "baseline classifier"));
  core::ClassifierPhase phase;
  phase.phase = {kPhaseBaseline, "baseline", "baseline/train_epoch",
                 "baseline train"};
  phase.penalty_fields = true;
  int64_t epochs_run = 0;
  TrainDiagnostics local_diag;
  FW_RETURN_IF_ERROR(core::TrainClassifierPhase(
      &phase, options, options.deadline, session, ds, input, val, penalty,
      model, rng, &epochs_run, diag != nullptr ? diag : &local_diag));
  return epochs_run;
}

tensor::Tensor LogitMargin(const tensor::Tensor& logits) {
  FW_CHECK_EQ(logits.rank(), 2);
  FW_CHECK_EQ(logits.dim(1), 2);
  static const tensor::Tensor kMarginWeights =
      tensor::Tensor::FromVector({2, 1}, {-1.0f, 1.0f});
  return tensor::MatMul(logits, kMarginWeights);
}

std::vector<int64_t> RankAttributesBySuspicion(const data::Dataset& ds,
                                               common::Rng* rng) {
  const tensor::Tensor& features = ds.features;
  const std::vector<int>& labels = ds.labels;
  const std::vector<int64_t>& train_idx = ds.split.train;
  FW_CHECK_EQ(features.rank(), 2);
  FW_CHECK(!train_idx.empty());
  const int64_t n = features.dim(0), f = features.dim(1);
  const std::vector<int> partition =
      graph::SpectralBipartition(ds.graph, /*iterations=*/100, rng);
  std::vector<double> group(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    group[static_cast<size_t>(i)] = partition[static_cast<size_t>(i)];
  }
  // Label vector restricted to the training split — the only labels a
  // method may consult.
  std::vector<double> train_labels(train_idx.size());
  for (size_t r = 0; r < train_idx.size(); ++r) {
    train_labels[r] = labels[static_cast<size_t>(train_idx[r])];
  }
  std::vector<double> suspicion(static_cast<size_t>(f));
  std::vector<double> column(static_cast<size_t>(n));
  std::vector<double> train_column(train_idx.size());
  for (int64_t j = 0; j < f; ++j) {
    for (int64_t i = 0; i < n; ++i) {
      column[static_cast<size_t>(i)] = features.at(i, j);
    }
    for (size_t r = 0; r < train_idx.size(); ++r) {
      train_column[r] = features.at(train_idx[r], j);
    }
    suspicion[static_cast<size_t>(j)] =
        std::abs(eval::PearsonCorrelation(column, group)) -
        std::abs(eval::PearsonCorrelation(train_column, train_labels));
  }
  std::vector<int64_t> order(static_cast<size_t>(f));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return suspicion[static_cast<size_t>(a)] > suspicion[static_cast<size_t>(b)];
  });
  return order;
}

}  // namespace fairwos::baselines
