#include "core/encoder.h"

#include <algorithm>

#include "fairness/metrics.h"
#include "tensor/ops.h"

namespace fairwos::core {

common::Result<EncoderOutput> PretrainEncoder(
    const EncoderConfig& config, const data::Dataset& ds, uint64_t seed,
    const common::Deadline& deadline, const CheckpointSession& session,
    const nn::RecoveryConfig& recovery, int64_t checkpoint_every) {
  FW_CHECK_GT(config.out_dim, 0);
  FW_CHECK_GT(config.epochs, 0);
  common::Rng rng(seed);
  nn::GnnConfig gnn;
  gnn.backbone = nn::Backbone::kGcn;  // the encoder always sees structure
  gnn.in_features = ds.num_attrs();
  gnn.hidden = config.out_dim;
  gnn.num_layers = 1;
  gnn.num_classes = 2;
  gnn.dropout = config.dropout;
  nn::GnnClassifier model(gnn, ds.graph, &rng);

  // Eq. 5 is optimised on the train split; validation loss drives model
  // selection. Checkpoints use the phase-0 section layout.
  TrainOptions options;
  options.epochs = config.epochs;
  options.patience = config.patience;
  options.lr = config.lr;
  options.weight_decay = config.weight_decay;
  options.recovery = recovery;
  options.checkpoint.every = checkpoint_every;
  ClassifierPhase phase;
  phase.phase = {kEncoderPhase, "encoder", "encoder/pretrain_epoch",
                 "encoder pre-train"};
  int64_t epochs_run = 0;
  TrainDiagnostics diag;
  const nn::PropagatedInput input = PropagateInput(model, ds.features);
  FW_RETURN_IF_ERROR(TrainClassifierPhase(&phase, options, deadline, session,
                                          ds, input, /*penalty=*/nullptr,
                                          &model, &rng, &epochs_run, &diag));
  EncoderOutput out;
  out.best_val_acc_pct = fairness::AccuracyPct(
      EvaluateAll(model, input, &rng).pred, ds.labels, ds.split.val);

  // Eq. 6: apply the frozen encoder as a feature extractor.
  tensor::NoGradGuard no_grad;
  out.x0 = model.Embed(input, /*training=*/false, &rng).DetachCopy();
  return out;
}

std::vector<std::vector<uint8_t>> MedianBins(const tensor::Tensor& x0) {
  FW_CHECK_EQ(x0.rank(), 2);
  const int64_t n = x0.dim(0), f = x0.dim(1);
  FW_CHECK_GT(n, 0);
  std::vector<std::vector<uint8_t>> bins(
      static_cast<size_t>(n), std::vector<uint8_t>(static_cast<size_t>(f)));
  std::vector<float> column(static_cast<size_t>(n));
  for (int64_t j = 0; j < f; ++j) {
    for (int64_t i = 0; i < n; ++i) column[static_cast<size_t>(i)] = x0.at(i, j);
    auto mid = column.begin() + static_cast<int64_t>(column.size()) / 2;
    std::nth_element(column.begin(), mid, column.end());
    const float median = *mid;
    for (int64_t i = 0; i < n; ++i) {
      bins[static_cast<size_t>(i)][static_cast<size_t>(j)] =
          x0.at(i, j) >= median ? 1 : 0;
    }
  }
  return bins;
}

}  // namespace fairwos::core
