// Numerical guardrails and self-healing for training loops.
//
// GradientGuard is the detection layer: it scans the loss, every parameter
// gradient, and every parameter value for NaN/Inf after each step.
// SelfHealing is the recovery layer: it keeps a rolling last-known-good
// parameter snapshot and, when the guard trips, rolls the model back,
// halves the learning rate, enables gradient clipping, and lets the caller
// retry the step — up to a bounded retry budget, after which the caller
// degrades gracefully (core/fairwos falls back to the pre-trained
// classifier). Policy details: docs/robustness.md.
#ifndef FAIRWOS_NN_GUARD_H_
#define FAIRWOS_NN_GUARD_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "nn/module.h"
#include "nn/optim.h"
#include "tensor/tensor.h"

namespace fairwos::nn {

/// Global L2 norm over every parameter gradient (parameters that never
/// received a gradient contribute zero).
double GlobalGradNorm(const std::vector<tensor::Tensor>& params);

/// Scales all gradients by max_norm / norm when the global norm exceeds
/// `max_norm` (> 0). Returns the pre-clip norm. A non-finite norm is left
/// untouched — scaling NaN hides it from the guard instead of fixing it.
double ClipGradNorm(const std::vector<tensor::Tensor>& params,
                    double max_norm);

/// Detects NaN/Inf in the loss, gradients, and parameters of one model.
/// All checks return OK or Internal with a precise description.
class GradientGuard {
 public:
  explicit GradientGuard(std::vector<tensor::Tensor> params)
      : params_(std::move(params)) {}

  common::Status CheckLoss(double loss) const;
  common::Status CheckGradients() const;
  common::Status CheckParameters() const;

 private:
  std::vector<tensor::Tensor> params_;
};

/// Rollback-and-retry policy knobs, embedded in FairwosConfig/TrainOptions.
struct RecoveryConfig {
  /// Divergences tolerated before the loop gives up (0 disables recovery:
  /// the first divergence immediately exhausts the budget).
  int64_t max_retries = 3;
  /// Learning-rate multiplier applied on every recovery.
  double lr_decay = 0.5;
  /// Global-norm gradient clip enabled on the optimizer after the first
  /// divergence — steady-state steps run unclipped unless the caller also
  /// sets Optimizer::set_max_grad_norm themselves.
  double retry_clip_norm = 5.0;
};

/// Self-healing harness around one (model, optimizer) training loop. The
/// training loops do not use it by hand: core::RunEpochs
/// (core/train_loop.h) runs GuardedStep, then Recover on failure (retrying
/// in the next epoch, or stopping once the budget is spent), then Commit
/// on success, once per epoch.
class SelfHealing {
 public:
  /// Snapshots the model's current parameters as the initial last-good
  /// state. `context` names the loop in log lines ("fine-tune", ...).
  SelfHealing(const RecoveryConfig& config, const Module& model,
              Optimizer* opt, std::string context);

  /// Checks loss and gradients, applies the optimizer step, then checks the
  /// updated parameters. Returns true when everything stayed finite; on
  /// false the step may have poisoned the parameters — call Recover().
  bool GuardedStep(double loss);

  /// Marks the current parameters as last-known-good.
  void Commit();

  /// Restores the last-good parameters, decays the learning rate, and turns
  /// on gradient clipping. Returns false when the retry budget is spent
  /// (the model is still restored to the last-good state).
  bool Recover();

  /// Number of recoveries performed so far.
  int64_t retries() const { return retries_; }

  /// Restores a retry count consumed before a crash, so a resumed run
  /// continues with the same remaining budget (docs/resume.md).
  void RestoreRetries(int64_t retries) {
    FW_CHECK_GE(retries, 0);
    retries_ = retries;
  }

  /// Why the most recent GuardedStep failed (for logs and stats).
  const common::Status& last_failure() const { return last_failure_; }

 private:
  RecoveryConfig config_;
  const Module& model_;
  Optimizer* opt_;
  std::string context_;
  GradientGuard guard_;
  std::vector<std::vector<float>> last_good_;
  common::Status last_failure_;
  int64_t retries_ = 0;
};

}  // namespace fairwos::nn

#endif  // FAIRWOS_NN_GUARD_H_
