// One epoch-loop driver for every training loop: the checkpointed phases
// (baseline classifier 0, Fairwos pre-train 1, fine-tune 2, encoder 3) and
// the uncheckpointed PerturbCF fine-tune and FairGKD teacher. See
// docs/resume.md and docs/robustness.md.
#ifndef FAIRWOS_CORE_TRAIN_LOOP_H_
#define FAIRWOS_CORE_TRAIN_LOOP_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "data/dataset.h"
#include "nn/checkpoint.h"
#include "nn/gnn.h"
#include "nn/guard.h"
#include "nn/prediction.h"

namespace fairwos::core {

/// A run's checkpoint rotation (null while disabled) and resume state.
struct CheckpointSession {
  std::unique_ptr<nn::CheckpointRotation> rotation;
  std::optional<nn::TrainState> resume;
};

/// The resume bootstrap. With `options.resume`: counts `resume.attempts`,
/// loads the newest valid checkpoint (NotFound is a fresh start), rejects a
/// phase outside `phases`, counts `resume.success` and emits `resume`.
common::Result<CheckpointSession> OpenCheckpoints(
    const nn::CheckpointOptions& options, std::initializer_list<int64_t> phases,
    const char* owner);

/// Counts `resume.deadline_exceeded`, emits the `deadline_exceeded` event
/// and returns DeadlineExceeded(message).
common::Status StopAtDeadline(const char* phase, int64_t epoch,
                              const common::Deadline& deadline,
                              bool checkpointed, const std::string& message);

struct TrainOptions {
  int64_t epochs = 300;
  int64_t patience = 30;  // early stop on validation loss; <= 0 disables
  float lr = 1e-3f;       // paper §V-A4: Adam, 0.001
  float weight_decay = 5e-4f;
  /// Rollback-and-retry policy on NaN/Inf divergence (docs/robustness.md).
  nn::RecoveryConfig recovery;
  /// Steady-state global-norm gradient clip; <= 0 disables until recovery.
  float max_grad_norm = 0.0f;
  /// Durable crash-resume (docs/resume.md): rotating phase-0 TrainState
  /// checkpoints at epoch boundaries, and deterministic restart from the
  /// newest valid one. Disabled while `checkpoint.dir` is empty.
  nn::CheckpointOptions checkpoint;
  /// Cooperative stop token polled at every epoch boundary; on expiry the
  /// loop writes one final checkpoint (when checkpointing is enabled) and
  /// TrainClassifier returns Status::DeadlineExceeded.
  common::Deadline deadline;
};

/// Robustness diagnostics of one RunEpochs run (and of TrainClassifier).
struct TrainDiagnostics {
  /// Divergence recoveries (rollback + lr halving) performed.
  int64_t retries = 0;
  /// True when the retry budget was exhausted and training stopped early
  /// (TrainClassifier keeps the best-validation parameters seen so far).
  bool aborted = false;
  /// Crash-resume provenance (docs/resume.md).
  bool resumed = false;
  int64_t resume_epoch = 0;
};

/// Optional extra loss computed from the representation and logits of the
/// current forward pass; return an undefined Tensor for "no penalty".
using PenaltyFn = std::function<tensor::Tensor(const tensor::Tensor& h,
                                               const tensor::Tensor& logits)>;

/// Names one phase of training.
struct EpochPhase {
  int64_t id = 0;          // TrainState::phase (unused without a rotation)
  const char* name = "";   // the "phase" field of its events
  const char* span = "";   // per-epoch span; a literal (the recorder keeps it)
  const char* label = "";  // healer log context and error messages
};

struct EpochLoop {
  EpochPhase phase;
  int64_t epochs = 0;  // runs [resumed epoch or 0, epochs)
  const common::Deadline* deadline = nullptr;  // polled atop every epoch
  nn::RecoveryConfig recovery;
  nn::CheckpointRotation* rotation = nullptr;  // null: no checkpoints
  int64_t checkpoint_every = 0;  // <= 0: only the deadline's checkpoint
  const nn::TrainState* resume = nullptr;  // null: fresh start
  int64_t* epochs_run = nullptr;  // started epochs; null: not counted
  /// Forward, loss and Backward; adds loss fields to the epoch event and
  /// returns the loss the guard checks.
  std::function<double(obs::Event* event)> step;
  /// Validation and model selection after Commit; true stops the loop.
  std::function<bool(obs::Event* event)> after_commit;
  /// Appends the caller's blobs, scalars and counters to a checkpoint
  /// (unused without a rotation).
  std::function<void(int64_t retries, nn::TrainState* st)> pack;
  /// Validates and takes them back; returns the saved retry count (unused
  /// without a resume state).
  std::function<common::Result<int64_t>(const nn::TrainState& st)> unpack;
};

/// Runs `loop` on (model, opt). Resume restores the caller's sections, the
/// parameters, the optimizer, the healer (built after them) and the RNG
/// last. Each epoch polls the deadline (on expiry: final checkpoint, then
/// StopAtDeadline), then in the phase's span runs ZeroGrad, `step`, the
/// guarded step (a failed one rolls back and uses up its epoch),
/// `after_commit`, `train.window.*`, the `epoch` event and checkpoint-every.
/// `diag` is reset, then filled on every return after the restore.
common::Status RunEpochs(const EpochLoop& loop, const nn::Module& model,
                         nn::Optimizer* opt, common::Rng* rng,
                         TrainDiagnostics* diag);

/// One user of the classifier loop. Checkpoints: blobs = lead_blobs + best
/// snapshot; scalars = [best_val_loss, extra_scalars...]; counters =
/// [since_best, epochs_run, retries, extra_counters...]. Resume refills the
/// extra scalars and counters (the caller has read the lead blobs).
struct ClassifierPhase {
  EpochPhase phase;
  bool penalty_fields = false;  // epoch events carry loss_total/loss_penalty
  std::vector<tensor::Tensor> lead_blobs;
  std::vector<double> extra_scalars;
  std::vector<int64_t> extra_counters;
};

/// CE(train) [+ penalty] through RunEpochs, keeping the best-validation-
/// loss parameters (patience early stop). Every train and validation
/// forward runs from `input`, so the first layer's sparse product is never
/// recomputed. Polls `deadline` and uses `session`, not
/// options.deadline/checkpoint, so one poll sequence and rotation can span
/// phases. Writes `*epochs_run` and `*diag`.
common::Status TrainClassifierPhase(
    ClassifierPhase* phase, const TrainOptions& options,
    const common::Deadline& deadline, const CheckpointSession& session,
    const data::Dataset& ds, const nn::PropagatedInput& input,
    const PenaltyFn& penalty, nn::GnnClassifier* model, common::Rng* rng,
    int64_t* epochs_run, TrainDiagnostics* diag);

/// `x` through the model's first sparse product over its own graph, as a
/// tape-free constant: built once per fit and reused by every epoch.
nn::PropagatedInput PropagateInput(const nn::GnnClassifier& model,
                                   const tensor::Tensor& x);

/// Evaluation-mode predictions for every node (the merged prediction type;
/// only `pred` and `prob1` are filled here).
nn::PredictionResult EvaluateAll(const nn::GnnClassifier& model,
                                 const nn::PropagatedInput& input,
                                 common::Rng* rng);

/// Cross-entropy of the model on the validation split (evaluation mode) —
/// the early-stopping signal used across the repository.
double ValidationLoss(const nn::GnnClassifier& model,
                      const nn::PropagatedInput& input,
                      const data::Dataset& ds, common::Rng* rng);

}  // namespace fairwos::core

#endif  // FAIRWOS_CORE_TRAIN_LOOP_H_
