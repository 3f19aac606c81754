// Fairwos (paper §III, Algorithm 1): fair GNN training via graph
// counterfactuals without sensitive attributes.
//
// Pipeline:
//   1. Pre-train the encoder and freeze X⁰ = Encoder(G)   (Eq. 4-6)
//   2. Pre-train the GNN classifier on X⁰                 (Eq. 10)
//   3. Repeat (fine-tuning):
//        a. search graph counterfactuals per pseudo-attr  (Eq. 12)
//        b. update θ on L_U + α Σᵢ λᵢ Dᵢ                  (Eq. 16)
//        c. update λ by the closed-form KKT solution      (Eq. 24)
#ifndef FAIRWOS_CORE_FAIRWOS_H_
#define FAIRWOS_CORE_FAIRWOS_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "core/counterfactual.h"
#include "core/encoder.h"
#include "core/fitted.h"
#include "core/method.h"
#include "nn/checkpoint.h"
#include "nn/gnn.h"
#include "nn/guard.h"

namespace fairwos::core {

struct FairwosConfig {
  /// Backbone configuration; `in_features` is filled in from the data (or
  /// the encoder output) at training time.
  nn::GnnConfig gnn;
  EncoderConfig encoder;
  CounterfactualConfig counterfactual;

  /// Paper §V-A4 uses 1000 pre-train epochs on a GPU; the CPU default
  /// relies on early stopping instead.
  int64_t pretrain_epochs = 300;
  int64_t pretrain_patience = 30;
  /// Paper §V-A4: the fairness fine-tuning phase runs 15 epochs. Because
  /// Adam's step size is gradient-scale invariant, a handful of epochs at
  /// the pre-training learning rate cannot move the model; the fine-tuning
  /// phase therefore gets its own (larger) learning rate.
  int64_t finetune_epochs = 50;
  float finetune_lr = 3e-2f;

  float lr = 1e-3f;  // paper: Adam, 0.001
  float weight_decay = 5e-4f;

  /// α — weight of the fairness regularization term (Eq. 15).
  double alpha = 1.0;

  /// Model selection during fine-tuning (paper §V-A4: early stop "to
  /// preserve competitive utility"): the latest fine-tuning epoch whose
  /// validation accuracy stays within this many percentage points of the
  /// pre-trained model's is kept; if none qualifies, the best-validation
  /// fine-tuning epoch is kept.
  double utility_tolerance_pct = 4.0;

  // Ablation switches (paper §V-C): Fwos w/o E, w/o F, w/o W.
  bool use_encoder = true;
  bool use_fairness = true;
  bool use_weight_update = true;

  /// See lambda_solver.h: false = Eq. 24 verbatim, true = prose reading.
  bool invert_lambda_preference = false;

  /// Rollback-and-retry policy for all three training phases: on a NaN/Inf
  /// loss, gradient, or parameter the loop restores the last-good
  /// parameters, halves the learning rate, and retries
  /// (docs/robustness.md). When fine-tuning cannot stabilize within the
  /// budget, training degrades to the pre-trained classifier (the "w/o F"
  /// ablation) instead of failing.
  nn::RecoveryConfig recovery;

  /// Steady-state global-norm gradient clip applied on every optimizer
  /// step; <= 0 (the default) leaves steps unclipped until the recovery
  /// path enables clipping after a divergence.
  float max_grad_norm = 0.0f;

  /// Durable crash-resume (docs/resume.md): rotating full-training-state
  /// checkpoints written at epoch boundaries of the encoder pre-train,
  /// classifier pre-train and fairness fine-tune phases, and deterministic
  /// restart from the newest valid one. Disabled while `checkpoint.dir` is
  /// empty.
  nn::CheckpointOptions checkpoint;

  /// Cooperative stop token, polled at every epoch boundary (including the
  /// encoder's). On expiry the run writes one final checkpoint (when
  /// checkpointing is enabled) and returns Status::DeadlineExceeded.
  common::Deadline deadline;
};

/// Diagnostics exposed to benches and tests.
struct FairwosStats {
  std::vector<double> lambda;           // final importance weights
  std::vector<double> final_distances;  // final per-attribute Dᵢ
  double encoder_val_acc_pct = 0.0;
  int64_t pretrain_epochs_run = 0;
  int64_t finetune_epochs_run = 0;
  /// Divergence recoveries (rollback + lr halving) performed per phase.
  int64_t pretrain_retries = 0;
  int64_t finetune_retries = 0;
  /// True when fine-tuning exhausted its retry budget and the pre-trained
  /// classifier was kept — graceful degradation to the "w/o F" ablation.
  bool finetune_degraded = false;
  /// Crash-resume provenance: whether this run restarted from a checkpoint,
  /// and if so from which phase/epoch boundary (docs/resume.md).
  bool resumed = false;
  int64_t resume_phase = 0;
  int64_t resume_epoch = 0;
};

/// Trains Fairwos once and freezes the result. Deterministic in (config,
/// dataset, seed); with checkpointing enabled, a run interrupted at any
/// epoch boundary and then resumed produces a bit-identical model.
/// `stats` may be nullptr; it is written on every path, errors included,
/// so callers can report how far an interrupted run got.
common::Result<std::unique_ptr<FittedGnnModel>> FitFairwos(
    const FairwosConfig& config, const data::Dataset& ds, uint64_t seed,
    FairwosStats* stats);

/// Fit-then-predict convenience kept for benches and tests that consume the
/// predictions directly; behaviour-identical to the pre-split fused run.
common::Result<MethodOutput> TrainFairwos(const FairwosConfig& config,
                                          const data::Dataset& ds,
                                          uint64_t seed, FairwosStats* stats);

/// FairMethod adapter, including the ablation variants; `name` is shown in
/// tables ("Fairwos", "Fwos w/o E", ...).
class FairwosMethod : public FairMethod {
 public:
  FairwosMethod(std::string name, FairwosConfig config)
      : name_(std::move(name)), config_(std::move(config)) {}

  std::string name() const override { return name_; }

  /// Thread-safe: one FairwosMethod may run concurrent trials
  /// (eval::RunRepeated with --threads > 1); each Fit writes last_stats()
  /// under a lock, so after parallel trials it holds the stats of whichever
  /// trial finished last.
  common::Result<std::unique_ptr<FittedModel>> Fit(const data::Dataset& ds,
                                                   uint64_t seed) override;

  FairwosStats last_stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return last_stats_;
  }

 private:
  std::string name_;
  FairwosConfig config_;
  mutable std::mutex stats_mu_;
  FairwosStats last_stats_;  // under stats_mu_
};

}  // namespace fairwos::core

#endif  // FAIRWOS_CORE_FAIRWOS_H_
