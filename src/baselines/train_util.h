// Shared GNN training loop for the baseline methods: cross-entropy on the
// train split plus an optional differentiable penalty, with best-validation
// checkpointing. It runs core::TrainClassifierPhase, the loop Fairwos'
// pre-training runs too, so runtime comparisons (Fig. 8) are
// apples-to-apples.
#ifndef FAIRWOS_BASELINES_TRAIN_UTIL_H_
#define FAIRWOS_BASELINES_TRAIN_UTIL_H_

#include "core/fitted.h"
#include "core/method.h"
#include "core/train_loop.h"
#include "data/dataset.h"
#include "nn/gnn.h"

namespace fairwos::baselines {

using core::EvaluateAll, core::PenaltyFn, core::PropagateInput,
    core::TrainDiagnostics, core::TrainOptions, core::ValidationAccuracyPct;

/// Trains `model` on `features`, minimising CE(train) [+ penalty], keeping
/// the best-validation parameters. Steps are guarded: a NaN/Inf loss,
/// gradient, or parameter rolls the model back to the last-good snapshot,
/// halves the learning rate, and retries within `options.recovery`'s
/// budget. Returns epochs actually run; `diag` (may be null) receives the
/// recovery counters — on every return path, including the errors.
///
/// With `options.checkpoint` enabled the loop writes phase-0 TrainState
/// checkpoints and can resume from one bit-identically (docs/resume.md);
/// on `options.deadline` expiry it writes a final checkpoint and returns
/// DeadlineExceeded. Other error Statuses mean a malformed or mismatched
/// checkpoint, or a failed checkpoint write.
common::Result<int64_t> TrainClassifier(const TrainOptions& options,
                                        const data::Dataset& ds,
                                        const tensor::Tensor& features,
                                        const PenaltyFn& penalty,
                                        nn::GnnClassifier* model,
                                        common::Rng* rng,
                                        TrainDiagnostics* diag = nullptr);

/// The same loop from an input the caller has already propagated
/// (PropagateInput) and its validation rows (core::GatherSplit of
/// ds.split.val), for callers that reuse them after training.
common::Result<int64_t> TrainClassifier(const TrainOptions& options,
                                        const data::Dataset& ds,
                                        const nn::PropagatedInput& input,
                                        const core::SplitRows& val,
                                        const PenaltyFn& penalty,
                                        nn::GnnClassifier* model,
                                        common::Rng* rng,
                                        TrainDiagnostics* diag = nullptr);

/// The "difference of class logits" margin used by penalty terms:
/// margin = logits · [−1, +1]ᵀ, shape [N, 1]. Differentiable.
tensor::Tensor LogitMargin(const tensor::Tensor& logits);

/// Data-driven stand-in for the domain knowledge RemoveR/FairRF assume:
/// when a hidden demographic drives edge formation (the homophily channel
/// every fairness benchmark exhibits), its loudest unsupervised signature
/// is the graph's dominant community split. Attributes are ranked by
/// |correlation with the spectral bipartition| minus |correlation with the
/// training labels| — "looks like the community structure, not like the
/// task". Subtracting the label correlation keeps the heuristic from
/// flagging the attributes that carry the task signal, which would make
/// the downstream regularisation *increase* proxy reliance. Returns
/// attribute indices, most suspicious first.
std::vector<int64_t> RankAttributesBySuspicion(const data::Dataset& ds,
                                               common::Rng* rng);

}  // namespace fairwos::baselines

#endif  // FAIRWOS_BASELINES_TRAIN_UTIL_H_
