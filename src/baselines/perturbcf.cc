#include "baselines/perturbcf.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/stopwatch.h"
#include "nn/optim.h"
#include "tensor/ops.h"

namespace fairwos::baselines {

tensor::Tensor FlipPseudoAttributes(const tensor::Tensor& x0,
                                    double flip_fraction, common::Rng* rng) {
  FW_CHECK_EQ(x0.rank(), 2);
  FW_CHECK_GE(flip_fraction, 0.0);
  FW_CHECK_LE(flip_fraction, 1.0);
  const int64_t n = x0.dim(0), f = x0.dim(1);
  const int64_t n_flip = std::clamp<int64_t>(
      static_cast<int64_t>(std::llround(flip_fraction * static_cast<double>(f))),
      1, f);
  const std::vector<int64_t> flip = rng->SampleWithoutReplacement(f, n_flip);
  tensor::Tensor out = x0.DetachCopy();
  std::vector<float> column(static_cast<size_t>(n));
  for (int64_t j : flip) {
    for (int64_t i = 0; i < n; ++i) column[static_cast<size_t>(i)] = x0.at(i, j);
    auto mid = column.begin() + static_cast<int64_t>(column.size()) / 2;
    std::nth_element(column.begin(), mid, column.end());
    const float median = *mid;
    for (int64_t i = 0; i < n; ++i) {
      out.set(i, j, 2.0f * median - x0.at(i, j));
    }
  }
  return out;
}

common::Result<std::unique_ptr<core::FittedModel>> PerturbCfMethod::Fit(
    const data::Dataset& ds, uint64_t seed) {
  FW_RETURN_IF_ERROR(data::ValidateDataset(ds));
  if (config_.alpha < 0.0) {
    return common::Status::InvalidArgument("alpha must be non-negative");
  }
  common::Stopwatch watch;
  common::Rng rng(seed);

  // Shared first stage with Fairwos: pseudo-sensitive attributes + GNN
  // pre-training.
  FW_ASSIGN_OR_RETURN(
      core::EncoderOutput encoder,
      core::PretrainEncoder(config_.encoder, ds, rng.NextU64(),
                            train_.deadline, core::CheckpointSession{}));
  const tensor::Tensor x0 = std::move(encoder.x0);
  nn::GnnConfig gnn = gnn_;
  gnn.in_features = x0.dim(1);
  nn::GnnClassifier model(gnn, ds.graph, &rng);
  // X⁰ is fixed, so its first-layer product is taken once; the flipped
  // copy changes every epoch and is propagated per epoch.
  const nn::PropagatedInput input = PropagateInput(model, x0);
  const core::SplitRows val =
      core::GatherSplit(model, input, ds.labels, ds.split.val);
  FW_RETURN_IF_ERROR(TrainClassifier(train_, ds, input, val,
                                     /*penalty=*/nullptr, &model, &rng)
                         .status());

  // Fine-tune with the fabricated counterfactual (the non-realistic kind).
  const double pretrain_val_acc = ValidationAccuracyPct(model, val, &rng);
  const double acceptable = pretrain_val_acc - config_.utility_tolerance_pct;
  nn::Adam opt(model.parameters(), config_.finetune_lr, 0.9f, 0.999f, 1e-8f,
               train_.weight_decay);
  auto best_snapshot = nn::SnapshotParameters(model);
  auto fallback_snapshot = best_snapshot;
  bool have_tolerated = false;
  double best_val = -1.0;
  core::EpochLoop loop;
  loop.phase = {.name = "perturbcf_finetune",
                .span = "perturbcf/finetune_epoch",
                .label = "PerturbCF fine-tune"};
  loop.epochs = config_.finetune_epochs;
  loop.deadline = &train_.deadline;
  loop.recovery = train_.recovery;
  loop.step = [&](obs::Event* event) {
    tensor::Tensor x0_cf =
        FlipPseudoAttributes(x0, config_.flip_fraction, &rng);
    tensor::Tensor h = model.Embed(input, /*training=*/true, &rng);
    tensor::Tensor h_cf = model.Embed(x0_cf, /*training=*/true, &rng);
    tensor::Tensor consistency = tensor::MulScalar(
        tensor::SumSquares(tensor::Sub(h, h_cf)),
        1.0f / static_cast<float>(ds.num_nodes()));
    // Normalize like Fairwos so α is scale-free.
    const float scale =
        consistency.item() > 1e-12f ? 1.0f / consistency.item() : 0.0f;
    tensor::Tensor ce =
        tensor::SoftmaxCrossEntropy(model.Logits(h), ds.labels, ds.split.train);
    tensor::Tensor loss = tensor::Add(
        ce, tensor::MulScalar(consistency,
                              static_cast<float>(config_.alpha) * scale));
    loss.Backward();
    const double loss_total = loss.item();
    event->Set("loss_total", loss_total)
        .Set("loss_cls", ce.item())
        .Set("loss_consistency", loss_total - ce.item());
    return loss_total;
  };
  loop.after_commit = [&](obs::Event* event) {
    const double val_acc = ValidationAccuracyPct(model, val, &rng);
    event->Set("val_acc", val_acc);
    if (val_acc >= acceptable) {
      best_snapshot = nn::SnapshotParameters(model);
      have_tolerated = true;
    }
    if (val_acc > best_val) {
      best_val = val_acc;
      fallback_snapshot = nn::SnapshotParameters(model);
    }
    return false;
  };
  TrainDiagnostics diag;
  FW_RETURN_IF_ERROR(core::RunEpochs(loop, model, &opt, &rng, &diag));
  nn::RestoreParameters(model,
                        have_tolerated ? best_snapshot : fallback_snapshot);

  return core::MakeFittedGnn(std::move(model),
                             core::FittedGnnModel::InputKind::kFrozen, x0,
                             {name(), ds.name, seed}, watch.Seconds(),
                             /*pseudo_sens=*/x0);
}

}  // namespace fairwos::baselines
