#include "baselines/train_util.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "eval/kmeans.h"
#include "graph/algorithms.h"
#include "eval/stats.h"
#include "fairness/metrics.h"
#include "nn/optim.h"
#include "tensor/ops.h"

namespace fairwos::baselines {
namespace {

// Checkpoint phase id (docs/resume.md); 1 and 2 belong to core::TrainFairwos.
constexpr int64_t kPhaseBaseline = 0;

common::Status CheckParamsMatch(
    const std::vector<tensor::Tensor>& params,
    const std::vector<std::vector<float>>& saved, const char* what) {
  return nn::CheckParamsCompatible(params, saved, what);
}

}  // namespace

/// Phase-0 TrainState layout (docs/resume.md):
///   params          model parameters at the boundary
///   blobs[0..P)     best-validation snapshot (P = parameter count)
///   scalars         [best_val_loss]
///   counters        [since_best, epochs_run, retries]
common::Result<int64_t> TrainClassifier(const TrainOptions& options,
                                        const data::Dataset& ds,
                                        const tensor::Tensor& features,
                                        const PenaltyFn& penalty,
                                        nn::GnnClassifier* model,
                                        common::Rng* rng,
                                        TrainDiagnostics* diag) {
  FW_CHECK(model != nullptr);
  FW_TRACE_SPAN("baseline/train");
  nn::Adam opt(model->parameters(), options.lr, 0.9f, 0.999f, 1e-8f,
               options.weight_decay);
  opt.set_max_grad_norm(options.max_grad_norm);
  auto best_snapshot = nn::SnapshotParameters(*model);
  double best_val_loss = std::numeric_limits<double>::infinity();
  int64_t since_best = 0;
  int64_t epochs_run = 0;
  bool aborted = false;
  int64_t start_epoch = 0;
  int64_t restored_retries = 0;
  bool resumed = false;
  std::unique_ptr<nn::CheckpointRotation> rotation;
  nn::TrainState resume_state;
  if (options.checkpoint.enabled()) {
    rotation = std::make_unique<nn::CheckpointRotation>(
        options.checkpoint.dir, options.checkpoint.keep);
    if (options.checkpoint.resume) {
      obs::MetricsRegistry::Global().GetCounter("resume.attempts")->Increment();
      auto loaded = rotation->LoadLatestValid();
      if (loaded.ok()) {
        resume_state = std::move(loaded).value();
        if (resume_state.phase != kPhaseBaseline) {
          return common::Status::FailedPrecondition(
              "checkpoint phase " + std::to_string(resume_state.phase) +
              " is not a baseline classifier phase");
        }
        const size_t num_params = model->parameters().size();
        if (resume_state.blobs.size() != num_params ||
            resume_state.scalars.size() != 1 ||
            resume_state.counters.size() != 3) {
          return common::Status::FailedPrecondition(
              "baseline checkpoint has unexpected section sizes");
        }
        FW_RETURN_IF_ERROR(CheckParamsMatch(model->parameters(),
                                            resume_state.params,
                                            "parameters"));
        FW_RETURN_IF_ERROR(CheckParamsMatch(model->parameters(),
                                            resume_state.blobs,
                                            "best-validation snapshot"));
        nn::RestoreParameters(*model, resume_state.params);
        FW_RETURN_IF_ERROR(opt.ImportState(resume_state.optimizer));
        best_snapshot = resume_state.blobs;
        best_val_loss = resume_state.scalars[0];
        since_best = resume_state.counters[0];
        epochs_run = resume_state.counters[1];
        restored_retries = resume_state.counters[2];
        start_epoch = resume_state.epoch;
        resumed = true;
        obs::MetricsRegistry::Global().GetCounter("resume.success")
            ->Increment();
        obs::EmitEvent(obs::Event("resume")
                           .Set("path", rotation->last_loaded_path())
                           .Set("phase", resume_state.phase)
                           .Set("epoch", resume_state.epoch));
      } else if (loaded.status().code() != common::StatusCode::kNotFound) {
        return loaded.status();
      }
      // NotFound: an empty checkpoint directory means a fresh start.
    }
  }
  // Constructed after any restore so its rollback target matches the
  // interrupted run's committed parameters.
  nn::SelfHealing healer(options.recovery, *model, &opt, "baseline train");
  if (resumed) {
    healer.RestoreRetries(restored_retries);
    rng->LoadState(resume_state.rng);
    if (diag != nullptr) {
      diag->resumed = true;
      diag->resume_epoch = start_epoch;
    }
  }
  const auto pack = [&](int64_t next_epoch) {
    nn::TrainState st;
    st.phase = kPhaseBaseline;
    st.epoch = next_epoch;
    st.rng = rng->SaveState();
    st.optimizer = opt.ExportState();
    st.params = nn::SnapshotParameters(*model);
    st.blobs = best_snapshot;
    st.scalars = {best_val_loss};
    st.counters = {since_best, epochs_run, healer.retries()};
    return st;
  };
  obs::WindowedHistogram* epoch_window =
      obs::MetricsRegistry::Global().GetWindowed("train.window.epoch_ms");
  obs::WindowedHistogram* grad_window =
      obs::MetricsRegistry::Global().GetWindowed("train.window.grad_norm");
  for (int64_t epoch = start_epoch; epoch < options.epochs; ++epoch) {
    if (options.deadline.Expired()) {
      bool checkpointed = false;
      if (rotation != nullptr) {
        FW_RETURN_IF_ERROR(rotation->Save(pack(epoch)));
        checkpointed = true;
      }
      if (diag != nullptr) {
        diag->retries = healer.retries();
        diag->deadline_exceeded = true;
      }
      obs::MetricsRegistry::Global()
          .GetCounter("resume.deadline_exceeded")
          ->Increment();
      obs::EmitEvent(
          obs::Event("deadline_exceeded")
              .Set("phase", "baseline")
              .Set("epoch", epoch)
              .Set("reason",
                   common::StopReasonName(options.deadline.reason()))
              .Set("checkpointed", static_cast<int64_t>(checkpointed)));
      return common::Status::DeadlineExceeded(
          "baseline training interrupted at epoch " + std::to_string(epoch));
    }
    FW_TRACE_SPAN("baseline/train_epoch");
    common::Stopwatch epoch_watch;
    ++epochs_run;
    opt.ZeroGrad();
    tensor::Tensor h = model->Embed(features, /*training=*/true, rng);
    tensor::Tensor logits = model->Logits(h);
    tensor::Tensor ce =
        tensor::SoftmaxCrossEntropy(logits, ds.labels, ds.split.train);
    tensor::Tensor loss = ce;
    if (penalty) {
      tensor::Tensor extra = penalty(h, logits);
      if (extra.defined()) loss = tensor::Add(loss, extra);
    }
    loss.Backward();
    const double loss_total = loss.item();
    const double grad_norm = obs::TelemetryEnabled()
                                 ? nn::GlobalGradNorm(model->parameters())
                                 : 0.0;
    if (!healer.GuardedStep(loss_total)) {
      if (!healer.Recover()) {
        aborted = true;  // budget spent: keep the best-validation parameters
        break;
      }
      continue;  // retry the epoch from the rolled-back parameters
    }
    healer.Commit();

    // Early stopping on validation *loss*: accuracy on small validation
    // splits is too coarsely quantised to be a stopping signal.
    const double val_loss = ValidationLoss(*model, features, ds, rng);
    epoch_window->Observe(epoch_watch.Millis());
    if (obs::TelemetryEnabled()) {
      grad_window->Observe(grad_norm);
      obs::EmitEvent(obs::Event("epoch")
                         .Set("phase", "baseline")
                         .Set("epoch", epoch)
                         .Set("loss_total", loss_total)
                         .Set("loss_cls", ce.item())
                         .Set("loss_penalty", loss_total - ce.item())
                         .Set("val_loss", val_loss)
                         .Set("grad_norm", grad_norm)
                         .Set("lr", static_cast<double>(opt.lr())));
    }
    if (val_loss < best_val_loss) {
      best_val_loss = val_loss;
      best_snapshot = nn::SnapshotParameters(*model);
      since_best = 0;
    } else if (options.patience > 0 && ++since_best >= options.patience) {
      break;
    }
    if (rotation != nullptr && options.checkpoint.every > 0 &&
        (epoch + 1) % options.checkpoint.every == 0) {
      FW_RETURN_IF_ERROR(rotation->Save(pack(epoch + 1)));
    }
  }
  nn::RestoreParameters(*model, best_snapshot);
  if (diag != nullptr) {
    diag->retries = healer.retries();
    diag->aborted = aborted;
  }
  return epochs_run;
}

double ValidationLoss(const nn::GnnClassifier& model,
                      const tensor::Tensor& features, const data::Dataset& ds,
                      common::Rng* rng) {
  tensor::NoGradGuard no_grad;
  tensor::Tensor logits = model.Forward(features, /*training=*/false, rng);
  return tensor::SoftmaxCrossEntropy(logits, ds.labels, ds.split.val).item();
}

nn::PredictionResult EvaluateAll(const nn::GnnClassifier& model,
                                 const tensor::Tensor& x, common::Rng* rng) {
  tensor::NoGradGuard no_grad;
  return nn::PredictFromLogits(model.Forward(x, /*training=*/false, rng));
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
