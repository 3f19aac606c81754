#include "core/fairwos.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/lambda_solver.h"
#include "core/train_loop.h"
#include "nn/optim.h"
#include "tensor/ops.h"

namespace fairwos::core {
namespace {

// Checkpoint phase ids (docs/resume.md). Phase 0 is reserved for
// baselines::TrainClassifier; the encoder is kEncoderPhase (core/encoder.h).
constexpr int64_t kPhasePretrain = 1;
constexpr int64_t kPhaseFinetune = 2;

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

}  // namespace

common::Result<std::unique_ptr<FittedGnnModel>> FitFairwos(
    const FairwosConfig& config, const data::Dataset& ds, uint64_t seed,
    FairwosStats* stats) {
  FW_TRACE_SPAN("fairwos/train");
  FW_RETURN_IF_ERROR(data::ValidateDataset(ds));
  if (config.alpha < 0.0) {
    return common::Status::InvalidArgument("alpha must be non-negative");
  }
  if (config.counterfactual.top_k < 1) {
    return common::Status::InvalidArgument(
        "counterfactual top_k must be at least 1");
  }
  common::Stopwatch watch;
  common::Rng rng(seed);
  // Filled in place, so callers see how far a failed run got.
  FairwosStats scratch_stats;
  FairwosStats& local_stats = stats != nullptr ? *stats : scratch_stats;
  local_stats = FairwosStats{};

  // --- Crash-resume bootstrap (docs/resume.md) ----------------------------
  FW_ASSIGN_OR_RETURN(
      CheckpointSession session,
      OpenCheckpoints(config.checkpoint,
                      {kPhasePretrain, kPhaseFinetune, kEncoderPhase},
                      "Fairwos"));
  if (session.resume) {
    local_stats.resumed = true;
    local_stats.resume_phase = session.resume->phase;
    local_stats.resume_epoch = session.resume->epoch;
  }

  // --- Step 1: pseudo-sensitive attributes (Eq. 4-6) ----------------------
  tensor::Tensor x0;
  if (session.resume && session.resume->phase != kEncoderPhase) {
    // X⁰ is frozen after step 1, so checkpoints carry it verbatim (both
    // phase layouts put num_attrs at counters[3] and the flattened X⁰ in
    // blobs[0]); resume never re-runs the encoder.
    const nn::TrainState& st = *session.resume;
    const int64_t num_nodes = ds.num_nodes();
    const int64_t saved_attrs = st.counters.size() >= 4 ? st.counters[3] : 0;
    if (saved_attrs <= 0 || st.blobs.empty() ||
        static_cast<int64_t>(st.blobs[0].size()) != num_nodes * saved_attrs) {
      return common::Status::FailedPrecondition(
          "checkpoint pseudo-attributes do not match this dataset");
    }
    x0 = tensor::Tensor::FromVector({num_nodes, saved_attrs}, st.blobs[0]);
  } else if (config.use_encoder) {
    FW_TRACE_SPAN("fairwos/encoder_pretrain");
    FW_ASSIGN_OR_RETURN(
        EncoderOutput encoder,
        PretrainEncoder(config.encoder, ds, rng.NextU64(), config.deadline,
                        session, config.recovery, config.checkpoint.every));
    x0 = std::move(encoder.x0);
    local_stats.encoder_val_acc_pct = encoder.best_val_acc_pct;
    // A resumed encoder is done with its state; pre-train starts fresh.
    session.resume.reset();
  } else if (session.resume) {
    return common::Status::FailedPrecondition(
        "encoder checkpoint cannot be resumed with the encoder disabled");
  } else {
    // Ablation Fwos w/o E: every non-sensitive attribute is its own
    // pseudo-sensitive attribute.
    x0 = ds.features.DetachCopy();
  }
  const nn::TrainState* resume = session.resume ? &*session.resume : nullptr;
  const int64_t num_attrs = x0.dim(1);

  // --- Step 2: pre-train the GNN classifier (Eq. 10) ----------------------
  nn::GnnConfig gnn = config.gnn;
  gnn.in_features = num_attrs;
  nn::GnnClassifier model(gnn, ds.graph, &rng);
  // X⁰ is fixed from here on (restored, on a resume), so its first-layer
  // product is taken once for pre-train, pseudo-labels and fine-tune.
  const nn::PropagatedInput input = PropagateInput(model, x0);
  const SplitRows val = GatherSplit(model, input, ds.labels, ds.split.val);

  const bool resume_finetune =
      resume != nullptr && resume->phase == kPhaseFinetune;
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
    // The baselines' classifier loop, no penalty; phase 1 adds X⁰,
    // encoder_val_acc and num_attrs to the phase-0 layout (docs/resume.md).
    TrainOptions options;
    options.epochs = config.pretrain_epochs;
    options.patience = config.pretrain_patience;
    options.lr = config.lr;
    options.weight_decay = config.weight_decay;
    options.recovery = config.recovery;
    options.max_grad_norm = config.max_grad_norm;
    options.checkpoint.every = config.checkpoint.every;
    ClassifierPhase pretrain{.phase = {kPhasePretrain, "pretrain",
                                       "fairwos/pretrain_epoch",
                                       "Fairwos pre-train"},
                             .penalty_fields = false,
                             .lead_blobs = {x0},
                             .extra_scalars = {local_stats.encoder_val_acc_pct},
                             .extra_counters = {num_attrs}};
    TrainDiagnostics diag;
    const common::Status status = [&] {
      FW_TRACE_SPAN("fairwos/classifier_pretrain");
      return TrainClassifierPhase(&pretrain, options, config.deadline, session,
                                  ds, input, val, /*penalty=*/nullptr, &model,
                                  &rng, &local_stats.pretrain_epochs_run,
                                  &diag);
    }();
    local_stats.encoder_val_acc_pct = pretrain.extra_scalars[0];
    local_stats.pretrain_retries = diag.retries;
    if (!status.ok()) return status;

    // Pseudo-labels for the counterfactual search (semi-supervised
    // setting). Ground-truth labels override pseudo-labels where known.
    pseudo_labels = EvaluateAll(model, input, &rng).pred;
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
    // The phase-2 blob order after X⁰.
    const std::pair<std::vector<std::vector<float>>*, const char*> snapshots[] =
        {{&pretrained_snapshot, "pre-trained snapshot"},
         {&best_snapshot, "best snapshot"},
         {&fallback_snapshot, "fallback snapshot"}};
    if (!resume_finetune) {
      pretrain_val_acc = ValidationAccuracyPct(model, val, &rng);
    }

    EpochLoop loop;
    loop.phase = {kPhaseFinetune, "finetune", "fairwos/finetune_epoch",
                  "Fairwos fine-tune"};
    loop.epochs = config.finetune_epochs;
    loop.deadline = &config.deadline;
    loop.recovery = config.recovery;
    loop.rotation = session.rotation.get();
    loop.checkpoint_every = config.checkpoint.every;
    loop.resume = resume_finetune ? resume : nullptr;
    loop.epochs_run = &local_stats.finetune_epochs_run;
    loop.step = [&](obs::Event* event) {
      // (a) refresh the counterfactual set from current embeddings.
      tensor::Tensor frozen_emb;
      {
        tensor::NoGradGuard no_grad;
        frozen_emb = model.Embed(input, /*training=*/false, &rng);
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
      tensor::Tensor h = model.Embed(input, /*training=*/true, &rng);
      tensor::Tensor logits = model.Logits(h);
      tensor::Tensor total =
          tensor::SoftmaxCrossEntropy(logits, ds.labels, ds.split.train);
      const double loss_cls = total.item();  // CE before the fairness term
      local_stats.final_distances.assign(static_cast<size_t>(num_attrs), 0.0);
      const double anchor_norm =
          1.0 / static_cast<double>(std::max<size_t>(cf.anchors.size(), 1));
      std::vector<tensor::Tensor> distances(static_cast<size_t>(num_attrs));
      const auto top_k = static_cast<size_t>(config.counterfactual.top_k);
      for (int64_t i = 0; i < num_attrs; ++i) {
        // Dᵢ = (1/|A|) Σ_a Σ_k ‖h_a − h̄ᵏ_a‖²  (Eq. 13 with Eq. 33's L2²);
        // term k pairs every anchor that has a k-th match with it.
        std::vector<std::vector<int64_t>> anchor_ids(top_k), cf_ids(top_k);
        for (size_t a = 0; a < cf.anchors.size(); ++a) {
          const auto& slot = cf.matches[static_cast<size_t>(i)][a];
          for (size_t k = 0; k < std::min(slot.size(), top_k); ++k) {
            anchor_ids[k].push_back(cf.anchors[a]);
            cf_ids[k].push_back(slot[k]);
          }
        }
        tensor::Tensor d_i =
            tensor::PairDistanceSum(h, std::move(anchor_ids),
                                    std::move(cf_ids),
                                    static_cast<float>(anchor_norm));
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
      event->Set("loss_total", loss_total)
          .Set("loss_cls", loss_cls)
          .Set("loss_fair", loss_total - loss_cls)
          .Set("mean_distance", mean_distance);
      return loss_total;
    };
    loop.after_commit = [&](obs::Event* event) {
      // Model selection within fine-tuning: later epochs are fairer, so we
      // keep the *latest* epoch whose validation accuracy stays within the
      // utility tolerance of the pre-trained model; the best-validation
      // epoch is the fallback when no epoch qualifies.
      const double val_acc = ValidationAccuracyPct(model, val, &rng);
      event->Set("val_acc", val_acc);
      if (val_acc >= pretrain_val_acc - config.utility_tolerance_pct) {
        best_snapshot = nn::SnapshotParameters(model);
        have_tolerated = true;
      }
      if (val_acc > best_val) {
        best_val = val_acc;
        fallback_snapshot = nn::SnapshotParameters(model);
      }
      return false;
    };
    // Phase-2 TrainState layout (docs/resume.md):
    //   params            model parameters at the boundary
    //   blobs[0]          X⁰; [1..1+P) pretrained, [1+P..1+2P) best,
    //                     [1+2P..1+3P) fallback snapshots
    //   scalars           [pretrain_val_acc, best_val, encoder_val_acc,
    //                     λ₀..λ_A, D₀..D_A]
    //   counters          [finetune_epochs_run, retries, have_tolerated,
    //                     num_attrs, pretrain_epochs_run,
    //                     pretrain_retries, pseudo_label₀..pseudo_label_N]
    loop.pack = [&](int64_t retries, nn::TrainState* st) {
      st->blobs.emplace_back(x0.data().begin(), x0.data().end());
      for (const auto& snapshot : snapshots) {
        st->blobs.insert(st->blobs.end(), snapshot.first->begin(),
                         snapshot.first->end());
      }
      st->scalars = {pretrain_val_acc, best_val,
                     local_stats.encoder_val_acc_pct};
      st->scalars.insert(st->scalars.end(), lambda.begin(), lambda.end());
      // Dᵢ is only meaningful once an epoch has run; an all-zero
      // placeholder marks a checkpoint written before the first.
      std::vector<double> distances = local_stats.final_distances;
      distances.resize(static_cast<size_t>(num_attrs), 0.0);
      st->scalars.insert(st->scalars.end(), distances.begin(), distances.end());
      st->counters = {local_stats.finetune_epochs_run,
                      retries,
                      have_tolerated ? int64_t{1} : int64_t{0},
                      num_attrs,
                      local_stats.pretrain_epochs_run,
                      local_stats.pretrain_retries};
      st->counters.insert(st->counters.end(), pseudo_labels.begin(),
                          pseudo_labels.end());
    };
    loop.unpack = [&](const nn::TrainState& st) -> common::Result<int64_t> {
      const size_t num_params = model.parameters().size();
      const size_t num_nodes = static_cast<size_t>(ds.num_nodes());
      const size_t attrs = static_cast<size_t>(num_attrs);
      if (st.blobs.size() != 1 + 3 * num_params ||
          st.scalars.size() != 3 + 2 * attrs ||
          st.counters.size() != 6 + num_nodes) {
        return common::Status::FailedPrecondition(
            "fine-tune checkpoint has unexpected section sizes");
      }
      for (size_t i = 0; i < 3; ++i) {
        std::vector<std::vector<float>> saved(
            st.blobs.begin() + 1 + i * num_params,
            st.blobs.begin() + 1 + (i + 1) * num_params);
        FW_RETURN_IF_ERROR(nn::CheckParamsCompatible(model.parameters(), saved,
                                                     snapshots[i].second));
        *snapshots[i].first = std::move(saved);
      }
      pretrain_val_acc = st.scalars[0];
      best_val = st.scalars[1];
      local_stats.encoder_val_acc_pct = st.scalars[2];
      lambda.assign(st.scalars.begin() + 3, st.scalars.begin() + 3 + attrs);
      local_stats.finetune_epochs_run = st.counters[0];
      have_tolerated = st.counters[2] != 0;
      local_stats.pretrain_epochs_run = st.counters[4];
      local_stats.pretrain_retries = st.counters[5];
      if (local_stats.finetune_epochs_run > 0) {
        local_stats.final_distances.assign(st.scalars.begin() + 3 + attrs,
                                           st.scalars.end());
      }
      pseudo_labels.assign(st.counters.begin() + 6, st.counters.end());
      return st.counters[1];
    };

    TrainDiagnostics result;
    const common::Status status = RunEpochs(loop, model, &opt, &rng, &result);
    local_stats.finetune_retries = result.retries;
    local_stats.lambda = lambda;
    if (!status.ok()) return status;
    if (result.aborted) {
      local_stats.finetune_degraded = true;
      FW_LOG(Warning) << "Fairwos fine-tuning could not stabilize within "
                      << config.recovery.max_retries
                      << " retries; falling back to the pre-trained "
                         "classifier (degrading to the w/o F ablation)";
      obs::MetricsRegistry::Global()
          .GetCounter("fairwos.finetune_degraded")
          ->Increment();
      obs::EmitEvent(obs::Event("degraded")
                         .Set("phase", "finetune")
                         .Set("retries", result.retries)
                         .Set("fallback", "pretrained classifier (w/o F)"));
      nn::RestoreParameters(model, pretrained_snapshot);
    } else {
      nn::RestoreParameters(
          model, have_tolerated ? best_snapshot : fallback_snapshot);
    }
  }

  // --- Freeze --------------------------------------------------------------
  // X⁰ is the frozen model input: the dataset's raw features never reach
  // the classifier directly, so the fitted model carries X⁰ itself.
  auto fitted = std::make_unique<FittedGnnModel>(
      std::move(model), FittedGnnModel::InputKind::kFrozen, x0,
      FittedGnnModel::Provenance{"Fairwos", ds.name, seed});
  if (config.use_encoder) fitted->set_pseudo_sens(x0);
  fitted->set_train_seconds(watch.Seconds());
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
