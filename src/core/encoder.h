// The encoder module (paper §III-B, Eq. 4-6): a graph-aware dimensionality
// reducer whose output coordinates become the pseudo-sensitive attributes
// X⁰. It is pre-trained on the node-classification task through a linear
// softmax head, then frozen and applied as a feature extractor.
#ifndef FAIRWOS_CORE_ENCODER_H_
#define FAIRWOS_CORE_ENCODER_H_

#include <cstdint>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/train_loop.h"
#include "data/dataset.h"
#include "nn/guard.h"

namespace fairwos::core {

/// Checkpoint phase id of the encoder pre-train (docs/resume.md).
inline constexpr int64_t kEncoderPhase = 3;

struct EncoderConfig {
  /// I — the number of pseudo-sensitive attributes (Fig. 5 sweeps this).
  int64_t out_dim = 16;
  int64_t epochs = 100;
  float lr = 1e-3f;
  float weight_decay = 5e-4f;
  float dropout = 0.5f;
  /// Early-stopping patience on validation loss; <= 0 disables.
  int64_t patience = 30;
};

struct EncoderOutput {
  /// X⁰: [N, out_dim] pseudo-sensitive attributes, detached constants.
  tensor::Tensor x0;
  /// Validation accuracy of the encoder's own head at the best epoch.
  double best_val_acc_pct = 0.0;
};

/// Pre-trains a one-layer GCN encoder (captures non-sensitive attributes
/// AND structure, per Fig. 3) with a softmax head on the training labels
/// (Eq. 5), deterministically from `seed`, then returns the frozen
/// low-dimensional attributes X⁰ = Encoder(G). The loop is
/// TrainClassifierPhase as checkpoint phase kEncoderPhase: it polls
/// `deadline` every epoch, writes to `session.rotation` and resumes from
/// `session.resume` (null or a phase-kEncoderPhase state). Errors are
/// DeadlineExceeded, a mismatched checkpoint or a failed write.
common::Result<EncoderOutput> PretrainEncoder(
    const EncoderConfig& config, const data::Dataset& ds, uint64_t seed,
    const common::Deadline& deadline, const CheckpointSession& session,
    const nn::RecoveryConfig& recovery = {}, int64_t checkpoint_every = 0);

/// Per-column median split used to make "x⁰ᵢ differs" well-defined for
/// continuous embeddings (DESIGN.md §4): bins[v][i] ∈ {0, 1}.
std::vector<std::vector<uint8_t>> MedianBins(const tensor::Tensor& x0);

}  // namespace fairwos::core

#endif  // FAIRWOS_CORE_ENCODER_H_
