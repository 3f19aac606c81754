#include "core/encoder.h"

#include <algorithm>
#include <limits>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/train_loop.h"
#include "fairness/metrics.h"
#include "nn/guard.h"
#include "tensor/ops.h"

namespace fairwos::core {

PretrainedEncoder::PretrainedEncoder(const EncoderConfig& config,
                                     const data::Dataset& ds, uint64_t seed,
                                     const common::Deadline* deadline) {
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
  nn::Adam opt(model.parameters(), config.lr, 0.9f, 0.999f, 1e-8f,
               config.weight_decay);

  auto snapshot = nn::SnapshotParameters(model);
  double best_val_loss = std::numeric_limits<double>::infinity();
  int64_t since_best = 0;
  obs::WindowedHistogram* epoch_window =
      obs::MetricsRegistry::Global().GetWindowed("train.window.epoch_ms");
  obs::WindowedHistogram* grad_window =
      obs::MetricsRegistry::Global().GetWindowed("train.window.grad_norm");
  for (int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    if (deadline != nullptr && deadline->Expired()) break;
    FW_TRACE_SPAN("encoder/pretrain_epoch");
    common::Stopwatch epoch_watch;
    opt.ZeroGrad();
    tensor::Tensor logits = model.Forward(ds.features, /*training=*/true, &rng);
    tensor::Tensor loss =
        tensor::SoftmaxCrossEntropy(logits, ds.labels, ds.split.train);
    loss.Backward();
    const double grad_norm = obs::TelemetryEnabled()
                                 ? nn::GlobalGradNorm(model.parameters())
                                 : 0.0;
    opt.Step();

    // Validation loss drives checkpointing (Eq. 5 is optimised on the
    // train split only).
    const double val_loss = ValidationLoss(model, ds.features, ds, &rng);
    epoch_window->Observe(epoch_watch.Millis());
    if (obs::TelemetryEnabled()) {
      grad_window->Observe(grad_norm);
      obs::EmitEvent(obs::Event("epoch")
                         .Set("phase", "encoder")
                         .Set("epoch", epoch)
                         .Set("loss_cls", loss.item())
                         .Set("val_loss", val_loss)
                         .Set("grad_norm", grad_norm)
                         .Set("lr", static_cast<double>(opt.lr())));
    }
    if (val_loss < best_val_loss) {
      best_val_loss = val_loss;
      snapshot = nn::SnapshotParameters(model);
      since_best = 0;
    } else if (config.patience > 0 && ++since_best >= config.patience) {
      break;
    }
  }
  nn::RestoreParameters(model, snapshot);
  best_val_acc_ = fairness::AccuracyPct(
      EvaluateAll(model, ds.features, &rng).pred, ds.labels, ds.split.val);

  // Eq. 6: apply the frozen encoder as a feature extractor.
  tensor::NoGradGuard no_grad;
  x0_ = model.Embed(ds.features, /*training=*/false, &rng).DetachCopy();
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
