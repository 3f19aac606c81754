// The experiment harness: runs a FairMethod on a dataset over repeated
// seeded trials and aggregates the paper's metrics (ACC / ΔSP / ΔEO, plus
// F1 / AUC / runtime) as mean ± std, exactly what Table II and the figure
// benches report.
#ifndef FAIRWOS_EVAL_HARNESS_H_
#define FAIRWOS_EVAL_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "core/method.h"
#include "data/dataset.h"
#include "eval/stats.h"

namespace fairwos::eval {

/// Test-split metrics of one training run.
struct TrialMetrics {
  double acc = 0.0;   // percent
  double f1 = 0.0;    // percent
  double auc = 0.0;   // percent
  double dsp = 0.0;   // ΔSP, percent
  double deo = 0.0;   // ΔEO, percent
  double seconds = 0.0;
};

/// Mean ± std over the trials that succeeded. `trials` counts successes;
/// `failed_trials` counts trials whose method returned an error and were
/// skipped (logged) instead of aborting the aggregation.
struct AggregateMetrics {
  MeanStd acc, f1, auc, dsp, deo, seconds;
  int64_t trials = 0;
  int64_t failed_trials = 0;
  /// One "trial <n>: <Status>" entry per failed trial, in trial order — so
  /// telemetry and the Table II output can report *why* trials failed.
  std::vector<std::string> failure_reasons;
  /// Trials never launched because the deadline expired between trials
  /// (docs/resume.md); the aggregate over the completed ones stays valid.
  int64_t skipped_trials = 0;
};

/// Trains `method` once with `seed` and evaluates on ds.split.test.
/// The sensitive attribute is consulted here — and only here (§II-B).
common::Result<TrialMetrics> RunTrial(core::FairMethod* method,
                                      const data::Dataset& ds, uint64_t seed);

/// Runs `trials` independent trials with seeds derived from `base_seed`.
/// Tolerates partial failure: an errored trial is skipped and counted in
/// `failed_trials`; an error is returned only when every trial fails. A
/// trial that returns InvalidArgument is not skipped: a configuration the
/// method rejects fails every trial the same way, so that Status comes
/// back as itself.
///
/// Trials execute in parallel on the global thread pool (--threads /
/// FAIRWOS_THREADS; docs/parallelism.md). Every trial seed is pre-drawn
/// from `base_seed` before any trial starts and results land in per-trial
/// slots that are aggregated in trial order after the join, so the
/// aggregate — and the trial_done/trial_failed telemetry order — is
/// bit-identical at any thread count and unaffected by failed or skipped
/// trials.
///
/// A non-null `deadline` is polled before each trial launches: on expiry
/// the unlaunched trials are counted in `skipped_trials` and the completed
/// ones are aggregated (DeadlineExceeded when none completed). A trial that
/// *itself* returns DeadlineExceeded — an interrupted training loop that
/// saved a resume checkpoint — takes precedence, so callers can print the
/// resume hint instead of a half-aggregated table.
common::Result<AggregateMetrics> RunRepeated(
    core::FairMethod* method, const data::Dataset& ds, int64_t trials,
    uint64_t base_seed, const common::Deadline* deadline = nullptr);

}  // namespace fairwos::eval

#endif  // FAIRWOS_EVAL_HARNESS_H_
