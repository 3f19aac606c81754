#include "core/fairwos.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/lambda_solver.h"
#include "fairness/metrics.h"
#include "nn/optim.h"
#include "tensor/ops.h"

namespace fairwos::core {
namespace {

// Checkpoint phase ids (docs/resume.md). Phase 0 is reserved for
// baselines::TrainClassifier; the encoder phase keeps no durable state.
constexpr int64_t kPhasePretrain = 1;
constexpr int64_t kPhaseFinetune = 2;

void AppendSnapshot(std::vector<std::vector<float>>* blobs,
                    const std::vector<std::vector<float>>& snapshot) {
  blobs->insert(blobs->end(), snapshot.begin(), snapshot.end());
}

/// Checkpoint sections are validated against the live module before
/// RestoreParameters (which FW_CHECK-aborts on mismatch) ever sees them, so
/// a checkpoint from a different config surfaces as a Status.
common::Status CheckParamsMatch(
    const std::vector<tensor::Tensor>& params,
    const std::vector<std::vector<float>>& saved, const char* what) {
  return nn::CheckParamsCompatible(params, saved, what);
}

void EmitResumeEvent(const std::string& path, const nn::TrainState& st) {
  obs::MetricsRegistry::Global().GetCounter("resume.success")->Increment();
  obs::EmitEvent(obs::Event("resume")
                     .Set("path", path)
                     .Set("phase", st.phase)
                     .Set("epoch", st.epoch));
}

void EmitDeadlineEvent(const char* phase, int64_t epoch,
                       const common::Deadline& deadline, bool checkpointed) {
  obs::MetricsRegistry::Global()
      .GetCounter("resume.deadline_exceeded")
      ->Increment();
  obs::EmitEvent(obs::Event("deadline_exceeded")
                     .Set("phase", phase)
                     .Set("epoch", epoch)
                     .Set("reason", common::StopReasonName(deadline.reason()))
                     .Set("checkpointed", static_cast<int64_t>(checkpointed)));
}

/// Evaluation-mode predictions for every node.
nn::PredictionResult Evaluate(const nn::GnnClassifier& model,
                              const tensor::Tensor& x, common::Rng* rng) {
  tensor::NoGradGuard no_grad;
  return nn::PredictFromLogits(model.Forward(x, /*training=*/false, rng));
}

/// Validation cross-entropy — the early-stopping signal (accuracy on small
/// validation splits is too coarsely quantised).
double ValLoss(const nn::GnnClassifier& model, const tensor::Tensor& x,
               const data::Dataset& ds, common::Rng* rng) {
  tensor::NoGradGuard no_grad;
  tensor::Tensor logits = model.Forward(x, /*training=*/false, rng);
  return tensor::SoftmaxCrossEntropy(logits, ds.labels, ds.split.val).item();
}

/// Per-attribute counterfactual distances Dᵢ (Eq. 13) measured on a plain
/// embedding matrix, no tape — feeds the λ update and diagnostics.
std::vector<double> MeasureDistances(const tensor::Tensor& emb,
                                     const CounterfactualSet& cf,
                                     int64_t top_k) {
  const int64_t num_attrs = cf.num_attrs();
  const int64_t dim = emb.dim(1);
  const double anchor_norm =
      1.0 / static_cast<double>(std::max<size_t>(cf.anchors.size(), 1));
  std::vector<double> distances(static_cast<size_t>(num_attrs), 0.0);
  const float* data = emb.data().data();
  for (int64_t i = 0; i < num_attrs; ++i) {
    double total = 0.0;
    for (size_t a = 0; a < cf.anchors.size(); ++a) {
      const float* anchor = data + cf.anchors[a] * dim;
      const auto& slot = cf.matches[static_cast<size_t>(i)][a];
      const int64_t k_max =
          std::min<int64_t>(top_k, static_cast<int64_t>(slot.size()));
      for (int64_t k = 0; k < k_max; ++k) {
        const float* other = data + slot[static_cast<size_t>(k)] * dim;
        for (int64_t d = 0; d < dim; ++d) {
          const double diff = static_cast<double>(anchor[d]) - other[d];
          total += diff * diff;
        }
      }
    }
    distances[static_cast<size_t>(i)] = total * anchor_norm;
  }
  return distances;
}

/// Pre-trains the classifier (Eq. 10) with best-validation checkpointing and
/// rollback-and-retry divergence recovery. With a non-null `rotation`, the
/// loop additionally writes phase-1 TrainState checkpoints every
/// `config.checkpoint.every` epochs; a non-null `resume` restarts from that
/// state (see the layout comment at PackPretrainState). On deadline expiry
/// it saves one final checkpoint and returns DeadlineExceeded; the epoch
/// and retry counts written so far stay valid either way.
///
/// Phase-1 TrainState layout (docs/resume.md):
///   params          model parameters at the boundary
///   blobs[0]        X⁰ flattened row-major ([N, num_attrs])
///   blobs[1..1+P)   best-validation snapshot (P = parameter count)
///   scalars         [best_val_loss, encoder_val_acc_pct]
///   counters        [since_best, epochs_run, retries, num_attrs]
common::Status PretrainClassifier(
    const FairwosConfig& config, const data::Dataset& ds,
    const tensor::Tensor& x, double encoder_val_acc,
    nn::GnnClassifier* model, common::Rng* rng,
    nn::CheckpointRotation* rotation, const nn::TrainState* resume,
    int64_t* epochs_run_out, int64_t* retries_out) {
  FW_TRACE_SPAN("fairwos/classifier_pretrain");
  nn::Adam opt(model->parameters(), config.lr, 0.9f, 0.999f, 1e-8f,
               config.weight_decay);
  opt.set_max_grad_norm(config.max_grad_norm);
  auto best_snapshot = nn::SnapshotParameters(*model);
  double best_val_loss = std::numeric_limits<double>::infinity();
  int64_t since_best = 0;
  int64_t epochs_run = 0;
  int64_t start_epoch = 0;
  int64_t restored_retries = 0;
  if (resume != nullptr) {
    const size_t num_params = model->parameters().size();
    if (resume->blobs.size() != 1 + num_params ||
        resume->scalars.size() != 2 || resume->counters.size() != 4) {
      return common::Status::FailedPrecondition(
          "pre-train checkpoint has unexpected section sizes");
    }
    std::vector<std::vector<float>> saved_best(resume->blobs.begin() + 1,
                                               resume->blobs.end());
    FW_RETURN_IF_ERROR(
        CheckParamsMatch(model->parameters(), resume->params, "parameters"));
    FW_RETURN_IF_ERROR(CheckParamsMatch(model->parameters(), saved_best,
                                        "best-validation snapshot"));
    nn::RestoreParameters(*model, resume->params);
    FW_RETURN_IF_ERROR(opt.ImportState(resume->optimizer));
    best_snapshot = std::move(saved_best);
    best_val_loss = resume->scalars[0];
    since_best = resume->counters[0];
    epochs_run = resume->counters[1];
    restored_retries = resume->counters[2];
    start_epoch = resume->epoch;
  }
  // Constructed after any restore so its rollback target is the restored
  // parameters — exactly what the interrupted run's healer held committed.
  nn::SelfHealing healer(config.recovery, *model, &opt, "Fairwos pre-train");
  if (resume != nullptr) {
    healer.RestoreRetries(restored_retries);
    rng->LoadState(resume->rng);
  }
  const auto pack = [&](int64_t next_epoch) {
    nn::TrainState st;
    st.phase = kPhasePretrain;
    st.epoch = next_epoch;
    st.rng = rng->SaveState();
    st.optimizer = opt.ExportState();
    st.params = nn::SnapshotParameters(*model);
    st.blobs.emplace_back(x.data().begin(), x.data().end());
    AppendSnapshot(&st.blobs, best_snapshot);
    st.scalars = {best_val_loss, encoder_val_acc};
    st.counters = {since_best, epochs_run, healer.retries(), x.dim(1)};
    return st;
  };
  obs::WindowedHistogram* epoch_window =
      obs::MetricsRegistry::Global().GetWindowed("train.window.epoch_ms");
  obs::WindowedHistogram* grad_window =
      obs::MetricsRegistry::Global().GetWindowed("train.window.grad_norm");
  for (int64_t epoch = start_epoch; epoch < config.pretrain_epochs; ++epoch) {
    if (config.deadline.Expired()) {
      bool checkpointed = false;
      if (rotation != nullptr) {
        FW_RETURN_IF_ERROR(rotation->Save(pack(epoch)));
        checkpointed = true;
      }
      *epochs_run_out = epochs_run;
      *retries_out = healer.retries();
      EmitDeadlineEvent("pretrain", epoch, config.deadline, checkpointed);
      return common::Status::DeadlineExceeded(
          "Fairwos pre-train interrupted at epoch " + std::to_string(epoch));
    }
    FW_TRACE_SPAN("fairwos/pretrain_epoch");
    common::Stopwatch epoch_watch;
    ++epochs_run;
    opt.ZeroGrad();
    tensor::Tensor logits = model->Forward(x, /*training=*/true, rng);
    tensor::Tensor loss =
        tensor::SoftmaxCrossEntropy(logits, ds.labels, ds.split.train);
    loss.Backward();
    // Gradient norms cost a full parameter sweep — only pay it when a
    // telemetry sink is attached.
    const double grad_norm = obs::TelemetryEnabled()
                                 ? nn::GlobalGradNorm(model->parameters())
                                 : 0.0;
    if (!healer.GuardedStep(loss.item())) {
      if (!healer.Recover()) break;  // budget spent: keep best-val params
      continue;                      // retry from the rolled-back parameters
    }
    healer.Commit();

    const double val_loss = ValLoss(*model, x, ds, rng);
    epoch_window->Observe(epoch_watch.Millis());
    if (obs::TelemetryEnabled()) {
      grad_window->Observe(grad_norm);
      obs::EmitEvent(obs::Event("epoch")
                         .Set("phase", "pretrain")
                         .Set("epoch", epoch)
                         .Set("loss_cls", loss.item())
                         .Set("val_loss", val_loss)
                         .Set("grad_norm", grad_norm)
                         .Set("lr", static_cast<double>(opt.lr())));
    }
    if (val_loss < best_val_loss) {
      best_val_loss = val_loss;
      best_snapshot = nn::SnapshotParameters(*model);
      since_best = 0;
    } else if (config.pretrain_patience > 0 &&
               ++since_best >= config.pretrain_patience) {
      break;
    }
    if (rotation != nullptr && config.checkpoint.every > 0 &&
        (epoch + 1) % config.checkpoint.every == 0) {
      FW_RETURN_IF_ERROR(rotation->Save(pack(epoch + 1)));
    }
  }
  nn::RestoreParameters(*model, best_snapshot);
  *epochs_run_out = epochs_run;
  *retries_out = healer.retries();
  return common::Status::OK();
}

}  // namespace

common::Result<std::unique_ptr<FittedGnnModel>> FitFairwos(
    const FairwosConfig& config, const data::Dataset& ds, uint64_t seed,
    FairwosStats* stats) {
  FW_TRACE_SPAN("fairwos/train");
  FW_RETURN_IF_ERROR(data::ValidateDataset(ds));
  if (config.alpha < 0.0) {
    return common::Status::InvalidArgument("alpha must be non-negative");
  }
  common::Stopwatch watch;
  common::Rng rng(seed);
  FairwosStats local_stats;

  // --- Crash-resume bootstrap (docs/resume.md) ----------------------------
  std::unique_ptr<nn::CheckpointRotation> rotation;
  nn::TrainState resume_state;
  bool resuming = false;
  if (config.checkpoint.enabled()) {
    rotation = std::make_unique<nn::CheckpointRotation>(config.checkpoint.dir,
                                                        config.checkpoint.keep);
    if (config.checkpoint.resume) {
      obs::MetricsRegistry::Global().GetCounter("resume.attempts")->Increment();
      auto loaded = rotation->LoadLatestValid();
      if (loaded.ok()) {
        resume_state = std::move(loaded).value();
        if (resume_state.phase != kPhasePretrain &&
            resume_state.phase != kPhaseFinetune) {
          return common::Status::FailedPrecondition(
              "checkpoint phase " + std::to_string(resume_state.phase) +
              " is not a Fairwos phase (was it written by a baseline?)");
        }
        resuming = true;
        local_stats.resumed = true;
        local_stats.resume_phase = resume_state.phase;
        local_stats.resume_epoch = resume_state.epoch;
        EmitResumeEvent(rotation->last_loaded_path(), resume_state);
      } else if (loaded.status().code() != common::StatusCode::kNotFound) {
        return loaded.status();
      }
      // NotFound: an empty checkpoint directory means a fresh start.
    }
  }

  // --- Step 1: pseudo-sensitive attributes (Eq. 4-6) ----------------------
  tensor::Tensor x0;
  if (resuming) {
    // X⁰ is frozen after step 1, so checkpoints carry it verbatim (both
    // phase layouts put num_attrs at counters[3] and the flattened X⁰ in
    // blobs[0]); resume never re-runs the encoder.
    const int64_t num_nodes = ds.num_nodes();
    const int64_t saved_attrs =
        resume_state.counters.size() >= 4 ? resume_state.counters[3] : 0;
    if (saved_attrs <= 0 || resume_state.blobs.empty() ||
        static_cast<int64_t>(resume_state.blobs[0].size()) !=
            num_nodes * saved_attrs) {
      return common::Status::FailedPrecondition(
          "checkpoint pseudo-attributes do not match this dataset");
    }
    x0 = tensor::Tensor::FromVector({num_nodes, saved_attrs},
                                    resume_state.blobs[0]);
  } else {
    if (config.deadline.Expired()) {
      EmitDeadlineEvent("encoder", 0, config.deadline, /*checkpointed=*/false);
      if (stats != nullptr) *stats = local_stats;
      return common::Status::DeadlineExceeded(
          "deadline expired before Fairwos training started");
    }
    if (config.use_encoder) {
      FW_TRACE_SPAN("fairwos/encoder_pretrain");
      PretrainedEncoder encoder(config.encoder, ds, rng.NextU64(),
                                &config.deadline);
      x0 = encoder.pseudo_attributes();
      local_stats.encoder_val_acc_pct = encoder.best_val_accuracy_pct();
    } else {
      // Ablation Fwos w/o E: every non-sensitive attribute is its own
      // pseudo-sensitive attribute.
      x0 = ds.features.DetachCopy();
    }
    if (config.deadline.Expired()) {
      // The encoder phase keeps no durable state (it is cheap relative to
      // the classifier phases): an interruption here aborts cleanly and a
      // resumed run restarts the encoder from scratch.
      EmitDeadlineEvent("encoder", 0, config.deadline, /*checkpointed=*/false);
      if (stats != nullptr) *stats = local_stats;
      return common::Status::DeadlineExceeded(
          "Fairwos encoder pre-train interrupted");
    }
  }
  const int64_t num_attrs = x0.dim(1);

  // --- Step 2: pre-train the GNN classifier (Eq. 10) ----------------------
  nn::GnnConfig gnn = config.gnn;
  gnn.in_features = num_attrs;
  nn::GnnClassifier model(gnn, ds.graph, &rng);

  const bool resume_finetune =
      resuming && resume_state.phase == kPhaseFinetune;
  if (resume_finetune &&
      !(config.use_fairness && config.finetune_epochs > 0)) {
    // With fine-tuning disabled the resumed run would keep a never-trained
    // model (the phase-2 path skips classifier pre-training entirely).
    return common::Status::FailedPrecondition(
        "fine-tune checkpoint cannot be resumed with fairness fine-tuning "
        "disabled");
  }
  std::vector<int> pseudo_labels;
  if (!resume_finetune) {
    const nn::TrainState* pretrain_resume =
        resuming && resume_state.phase == kPhasePretrain ? &resume_state
                                                         : nullptr;
    if (pretrain_resume != nullptr) {
      if (resume_state.scalars.size() != 2) {
        return common::Status::FailedPrecondition(
            "pre-train checkpoint has unexpected section sizes");
      }
      local_stats.encoder_val_acc_pct = resume_state.scalars[1];
    }
    common::Status pretrain_status = PretrainClassifier(
        config, ds, x0, local_stats.encoder_val_acc_pct, &model, &rng,
        rotation.get(), pretrain_resume, &local_stats.pretrain_epochs_run,
        &local_stats.pretrain_retries);
    if (!pretrain_status.ok()) {
      if (stats != nullptr) *stats = local_stats;
      return pretrain_status;
    }

    // Pseudo-labels for the counterfactual search (semi-supervised
    // setting). Ground-truth labels override pseudo-labels where known.
    pseudo_labels = Evaluate(model, x0, &rng).pred;
    for (int64_t v : ds.split.train) {
      pseudo_labels[static_cast<size_t>(v)] =
          ds.labels[static_cast<size_t>(v)];
    }
  }

  // --- Step 3: fairness fine-tuning (Eq. 12-16, Algorithm 1 lines 5-13) ---
  if (config.use_fairness && config.finetune_epochs > 0) {
    FW_TRACE_SPAN("fairwos/finetune");
    const auto bins = MedianBins(x0);
    std::vector<double> lambda(
        static_cast<size_t>(num_attrs),
        1.0 / static_cast<double>(num_attrs));  // Algorithm 1 line 2
    nn::Adam opt(model.parameters(), config.finetune_lr, 0.9f, 0.999f, 1e-8f,
                 config.weight_decay);
    opt.set_max_grad_norm(config.max_grad_norm);
    // Degradation target when fine-tuning cannot stabilize: the pre-trained
    // classifier, i.e. the "w/o F" ablation.
    auto pretrained_snapshot = nn::SnapshotParameters(model);
    // Utility reference for model selection: the pre-trained model.
    double pretrain_val_acc = 0.0;
    auto best_snapshot = pretrained_snapshot;
    bool have_tolerated = false;
    auto fallback_snapshot = best_snapshot;
    double best_val = -1.0;
    int64_t start_epoch = 0;
    int64_t restored_retries = 0;
    if (resume_finetune) {
      // Phase-2 TrainState layout (docs/resume.md):
      //   params            model parameters at the boundary
      //   blobs[0]          X⁰; [1..1+P) pretrained, [1+P..1+2P) best,
      //                     [1+2P..1+3P) fallback snapshots
      //   scalars           [pretrain_val_acc, best_val, encoder_val_acc,
      //                     λ₀..λ_A, D₀..D_A]
      //   counters          [finetune_epochs_run, retries, have_tolerated,
      //                     num_attrs, pretrain_epochs_run,
      //                     pretrain_retries, pseudo_label₀..pseudo_label_N]
      const size_t num_params = model.parameters().size();
      const size_t num_nodes = static_cast<size_t>(ds.num_nodes());
      const size_t attrs = static_cast<size_t>(num_attrs);
      if (resume_state.blobs.size() != 1 + 3 * num_params ||
          resume_state.scalars.size() != 3 + 2 * attrs ||
          resume_state.counters.size() != 6 + num_nodes) {
        return common::Status::FailedPrecondition(
            "fine-tune checkpoint has unexpected section sizes");
      }
      const auto blob_slice = [&](size_t first) {
        return std::vector<std::vector<float>>(
            resume_state.blobs.begin() + 1 + first * num_params,
            resume_state.blobs.begin() + 1 + (first + 1) * num_params);
      };
      auto saved_pretrained = blob_slice(0);
      auto saved_best = blob_slice(1);
      auto saved_fallback = blob_slice(2);
      FW_RETURN_IF_ERROR(CheckParamsMatch(model.parameters(),
                                          resume_state.params, "parameters"));
      FW_RETURN_IF_ERROR(CheckParamsMatch(model.parameters(), saved_pretrained,
                                          "pre-trained snapshot"));
      FW_RETURN_IF_ERROR(CheckParamsMatch(model.parameters(), saved_best,
                                          "best snapshot"));
      FW_RETURN_IF_ERROR(CheckParamsMatch(model.parameters(), saved_fallback,
                                          "fallback snapshot"));
      nn::RestoreParameters(model, resume_state.params);
      FW_RETURN_IF_ERROR(opt.ImportState(resume_state.optimizer));
      pretrained_snapshot = std::move(saved_pretrained);
      best_snapshot = std::move(saved_best);
      fallback_snapshot = std::move(saved_fallback);
      pretrain_val_acc = resume_state.scalars[0];
      best_val = resume_state.scalars[1];
      local_stats.encoder_val_acc_pct = resume_state.scalars[2];
      lambda.assign(resume_state.scalars.begin() + 3,
                    resume_state.scalars.begin() + 3 + attrs);
      local_stats.finetune_epochs_run = resume_state.counters[0];
      restored_retries = resume_state.counters[1];
      have_tolerated = resume_state.counters[2] != 0;
      local_stats.pretrain_epochs_run = resume_state.counters[4];
      local_stats.pretrain_retries = resume_state.counters[5];
      // Dᵢ diagnostics are only meaningful once an epoch has run; an
      // all-zero placeholder marks a checkpoint written before the first.
      if (local_stats.finetune_epochs_run > 0) {
        local_stats.final_distances.assign(
            resume_state.scalars.begin() + 3 + attrs,
            resume_state.scalars.begin() + 3 + 2 * attrs);
      }
      pseudo_labels.resize(num_nodes);
      for (size_t v = 0; v < num_nodes; ++v) {
        pseudo_labels[v] = static_cast<int>(resume_state.counters[6 + v]);
      }
      start_epoch = resume_state.epoch;
    } else {
      pretrain_val_acc = fairness::AccuracyPct(
          Evaluate(model, x0, &rng).pred, ds.labels, ds.split.val);
    }
    // Constructed after any restore so its rollback target matches the
    // interrupted run's committed parameters.
    nn::SelfHealing healer(config.recovery, model, &opt, "Fairwos fine-tune");
    if (resume_finetune) {
      healer.RestoreRetries(restored_retries);
      rng.LoadState(resume_state.rng);
    }
    const double acceptable_val_acc =
        pretrain_val_acc - config.utility_tolerance_pct;
    const auto pack = [&](int64_t next_epoch) {
      nn::TrainState st;
      st.phase = kPhaseFinetune;
      st.epoch = next_epoch;
      st.rng = rng.SaveState();
      st.optimizer = opt.ExportState();
      st.params = nn::SnapshotParameters(model);
      st.blobs.emplace_back(x0.data().begin(), x0.data().end());
      AppendSnapshot(&st.blobs, pretrained_snapshot);
      AppendSnapshot(&st.blobs, best_snapshot);
      AppendSnapshot(&st.blobs, fallback_snapshot);
      st.scalars = {pretrain_val_acc, best_val,
                    local_stats.encoder_val_acc_pct};
      st.scalars.insert(st.scalars.end(), lambda.begin(), lambda.end());
      if (local_stats.final_distances.empty()) {
        st.scalars.insert(st.scalars.end(), static_cast<size_t>(num_attrs),
                          0.0);
      } else {
        st.scalars.insert(st.scalars.end(),
                          local_stats.final_distances.begin(),
                          local_stats.final_distances.end());
      }
      st.counters = {local_stats.finetune_epochs_run,
                     healer.retries(),
                     have_tolerated ? int64_t{1} : int64_t{0},
                     num_attrs,
                     local_stats.pretrain_epochs_run,
                     local_stats.pretrain_retries};
      st.counters.reserve(st.counters.size() + pseudo_labels.size());
      for (int label : pseudo_labels) st.counters.push_back(label);
      return st;
    };
    obs::WindowedHistogram* epoch_window =
        obs::MetricsRegistry::Global().GetWindowed("train.window.epoch_ms");
    obs::WindowedHistogram* grad_window =
        obs::MetricsRegistry::Global().GetWindowed("train.window.grad_norm");
    for (int64_t epoch = start_epoch; epoch < config.finetune_epochs;
         ++epoch) {
      if (config.deadline.Expired()) {
        bool checkpointed = false;
        if (rotation != nullptr) {
          common::Status save_status = rotation->Save(pack(epoch));
          if (!save_status.ok()) {
            if (stats != nullptr) *stats = local_stats;
            return save_status;
          }
          checkpointed = true;
        }
        local_stats.finetune_retries = healer.retries();
        local_stats.lambda = lambda;
        EmitDeadlineEvent("finetune", epoch, config.deadline, checkpointed);
        if (stats != nullptr) *stats = local_stats;
        return common::Status::DeadlineExceeded(
            "Fairwos fine-tune interrupted at epoch " +
            std::to_string(epoch));
      }
      FW_TRACE_SPAN("fairwos/finetune_epoch");
      common::Stopwatch epoch_watch;
      ++local_stats.finetune_epochs_run;
      // (a) refresh the counterfactual set from current embeddings.
      tensor::Tensor frozen_emb;
      {
        tensor::NoGradGuard no_grad;
        frozen_emb = model.Embed(x0, /*training=*/false, &rng);
      }
      CounterfactualSet cf = [&] {
        FW_TRACE_SPAN("fairwos/counterfactual_search");
        return FindCounterfactuals(frozen_emb, bins, pseudo_labels,
                                   config.counterfactual, &rng);
      }();

      // (b) λ update (Algorithm 1 lines 9-12) from the *current*
      // embeddings, solved before the θ step so the importance weights
      // shape every parameter update — including the first fine-tuning
      // epoch, which the utility-tolerance selection often keeps.
      if (config.use_weight_update) {
        const std::vector<double> eval_distances =
            MeasureDistances(frozen_emb, cf, config.counterfactual.top_k);
        double mean_d = 0.0;
        for (double d : eval_distances) mean_d += d;
        mean_d /= static_cast<double>(eval_distances.size());
        if (mean_d > 1e-12) {
          std::vector<double> normalized_eval = eval_distances;
          for (double& d : normalized_eval) d /= mean_d;
          lambda = SolveLambda(normalized_eval, config.alpha,
                               config.invert_lambda_preference);
        }
      }

      // (c) θ update on Eq. 16.
      opt.ZeroGrad();
      tensor::Tensor h = model.Embed(x0, /*training=*/true, &rng);
      tensor::Tensor logits = model.Logits(h);
      tensor::Tensor total =
          tensor::SoftmaxCrossEntropy(logits, ds.labels, ds.split.train);
      const double loss_cls = total.item();  // CE before the fairness term
      local_stats.final_distances.assign(static_cast<size_t>(num_attrs), 0.0);
      const double anchor_norm =
          1.0 / static_cast<double>(std::max<size_t>(cf.anchors.size(), 1));
      std::vector<tensor::Tensor> distances(static_cast<size_t>(num_attrs));
      for (int64_t i = 0; i < num_attrs; ++i) {
        // Dᵢ = (1/|A|) Σ_a Σ_k ‖h_a − h̄ᵏ_a‖²  (Eq. 13 with Eq. 33's L2²).
        tensor::Tensor d_i;
        for (int64_t k = 0; k < config.counterfactual.top_k; ++k) {
          std::vector<int64_t> anchor_ids, cf_ids;
          for (size_t a = 0; a < cf.anchors.size(); ++a) {
            const auto& slot = cf.matches[static_cast<size_t>(i)][a];
            if (static_cast<int64_t>(slot.size()) > k) {
              anchor_ids.push_back(cf.anchors[a]);
              cf_ids.push_back(slot[static_cast<size_t>(k)]);
            }
          }
          if (anchor_ids.empty()) continue;
          tensor::Tensor diff = tensor::Sub(tensor::Rows(h, anchor_ids),
                                            tensor::Rows(h, cf_ids));
          tensor::Tensor dist = tensor::MulScalar(
              tensor::SumSquares(diff), static_cast<float>(anchor_norm));
          d_i = d_i.defined() ? tensor::Add(d_i, dist) : dist;
        }
        if (!d_i.defined()) continue;  // constraint set empty for attr i
        distances[static_cast<size_t>(i)] = d_i;
        local_stats.final_distances[static_cast<size_t>(i)] = d_i.item();
      }
      // Distances are normalized by their mean so that α is scale-free:
      // the raw Dᵢ magnitude depends on the embedding scale, which varies
      // across datasets and backbones (DESIGN.md §4).
      double mean_distance = 0.0;
      for (double d : local_stats.final_distances) mean_distance += d;
      mean_distance /= static_cast<double>(num_attrs);
      const double scale =
          mean_distance > 1e-12 ? 1.0 / mean_distance : 0.0;
      for (int64_t i = 0; i < num_attrs; ++i) {
        if (!distances[static_cast<size_t>(i)].defined()) continue;
        total = tensor::Add(
            total,
            tensor::MulScalar(distances[static_cast<size_t>(i)],
                              static_cast<float>(config.alpha * scale *
                                                 lambda[static_cast<size_t>(i)])));
      }
      total.Backward();
      const double loss_total = total.item();
      const double grad_norm = obs::TelemetryEnabled()
                                   ? nn::GlobalGradNorm(model.parameters())
                                   : 0.0;
      if (!healer.GuardedStep(loss_total)) {
        if (!healer.Recover()) {
          local_stats.finetune_degraded = true;
          break;
        }
        continue;  // retry the epoch from the rolled-back parameters
      }
      healer.Commit();

      // Model selection within fine-tuning: later epochs are fairer, so we
      // keep the *latest* epoch whose validation accuracy stays within the
      // utility tolerance of the pre-trained model; the best-validation
      // epoch is the fallback when no epoch qualifies.
      auto eval = Evaluate(model, x0, &rng);
      const double val_acc =
          fairness::AccuracyPct(eval.pred, ds.labels, ds.split.val);
      epoch_window->Observe(epoch_watch.Millis());
      if (obs::TelemetryEnabled()) {
        grad_window->Observe(grad_norm);
        obs::EmitEvent(obs::Event("epoch")
                           .Set("phase", "finetune")
                           .Set("epoch", epoch)
                           .Set("loss_total", loss_total)
                           .Set("loss_cls", loss_cls)
                           .Set("loss_fair", loss_total - loss_cls)
                           .Set("mean_distance", mean_distance)
                           .Set("grad_norm", grad_norm)
                           .Set("lr", static_cast<double>(opt.lr()))
                           .Set("val_acc", val_acc));
      }
      if (val_acc >= acceptable_val_acc) {
        best_snapshot = nn::SnapshotParameters(model);
        have_tolerated = true;
      }
      if (val_acc > best_val) {
        best_val = val_acc;
        fallback_snapshot = nn::SnapshotParameters(model);
      }
      if (rotation != nullptr && config.checkpoint.every > 0 &&
          (epoch + 1) % config.checkpoint.every == 0) {
        common::Status save_status = rotation->Save(pack(epoch + 1));
        if (!save_status.ok()) {
          if (stats != nullptr) *stats = local_stats;
          return save_status;
        }
      }
    }
    if (local_stats.finetune_degraded) {
      FW_LOG(Warning) << "Fairwos fine-tuning could not stabilize within "
                      << config.recovery.max_retries
                      << " retries; falling back to the pre-trained "
                         "classifier (degrading to the w/o F ablation)";
      obs::MetricsRegistry::Global()
          .GetCounter("fairwos.finetune_degraded")
          ->Increment();
      obs::EmitEvent(obs::Event("degraded")
                         .Set("phase", "finetune")
                         .Set("retries", healer.retries())
                         .Set("fallback", "pretrained classifier (w/o F)"));
      nn::RestoreParameters(model, pretrained_snapshot);
    } else {
      nn::RestoreParameters(
          model, have_tolerated ? best_snapshot : fallback_snapshot);
    }
    local_stats.finetune_retries = healer.retries();
    local_stats.lambda = lambda;
  }

  // --- Freeze --------------------------------------------------------------
  // X⁰ is the frozen model input: the dataset's raw features never reach
  // the classifier directly, so the fitted model carries X⁰ itself.
  auto fitted = std::make_unique<FittedGnnModel>(
      std::move(model), FittedGnnModel::InputKind::kFrozen, x0,
      FittedGnnModel::Provenance{"Fairwos", ds.name, seed});
  if (config.use_encoder) fitted->set_pseudo_sens(x0);
  fitted->set_train_seconds(watch.Seconds());
  if (stats != nullptr) *stats = local_stats;
  return fitted;
}

common::Result<MethodOutput> TrainFairwos(const FairwosConfig& config,
                                          const data::Dataset& ds,
                                          uint64_t seed, FairwosStats* stats) {
  FW_ASSIGN_OR_RETURN(std::unique_ptr<FittedGnnModel> fitted,
                      FitFairwos(config, ds, seed, stats));
  return fitted->Predict(ds);
}

common::Result<std::unique_ptr<FittedModel>> FairwosMethod::Fit(
    const data::Dataset& ds, uint64_t seed) {
  // Fit into a local and publish under the lock: concurrent trials must
  // not scribble on last_stats_ mid-run (FitFairwos writes *stats on the
  // deadline path too, so publish on error as well).
  FairwosStats stats;
  common::Result<std::unique_ptr<FittedGnnModel>> fitted =
      FitFairwos(config_, ds, seed, &stats);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    last_stats_ = stats;
  }
  FW_RETURN_IF_ERROR(fitted.status());
  auto model = std::move(fitted).value();
  // The ablation variants share the Fairwos pipeline but report their own
  // display names; restamp so exported artifacts carry the actual method.
  model->set_method_name(name_);
  return std::unique_ptr<FittedModel>(std::move(model));
}

}  // namespace fairwos::core
