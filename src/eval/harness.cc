#include "eval/harness.h"

#include <atomic>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/threadpool.h"
#include "common/trace.h"
#include "fairness/metrics.h"

namespace fairwos::eval {
namespace {

/// Outcome slot for one trial, written only by the worker that ran that
/// trial and read only after the parallel region joins.
struct TrialSlot {
  enum class State {
    kSkipped,   // never launched (deadline expired or halt raised)
    kDone,      // metrics valid
    kFailed,    // status holds the trial error
    kAbort,     // status goes back to the caller as itself: the trial hit
                // its deadline mid-training, or the configuration is invalid
                // and every trial would fail the same way
  };
  State state = State::kSkipped;
  TrialMetrics metrics;
  common::Status status = common::Status::OK();
};

}  // namespace

common::Result<TrialMetrics> RunTrial(core::FairMethod* method,
                                      const data::Dataset& ds, uint64_t seed) {
  FW_CHECK(method != nullptr);
  FW_TRACE_SPAN("eval/trial");
  FW_ASSIGN_OR_RETURN(std::unique_ptr<core::FittedModel> fitted,
                      method->Fit(ds, seed));
  core::MethodOutput out = fitted->Predict(ds);
  out.train_seconds = fitted->train_seconds();
  if (static_cast<int64_t>(out.pred.size()) != ds.num_nodes()) {
    return common::Status::Internal(method->name() +
                                    ": prediction size mismatch");
  }
  TrialMetrics m;
  const auto& idx = ds.split.test;
  m.acc = fairness::AccuracyPct(out.pred, ds.labels, idx);
  m.f1 = fairness::F1Pct(out.pred, ds.labels, idx);
  m.auc = fairness::AucPct(out.prob1, ds.labels, idx);
  m.dsp = fairness::StatisticalParityGapPct(out.pred, ds.sens, idx);
  m.deo = fairness::EqualOpportunityGapPct(out.pred, ds.labels, ds.sens, idx);
  m.seconds = out.train_seconds;
  return m;
}

common::Result<AggregateMetrics> RunRepeated(core::FairMethod* method,
                                             const data::Dataset& ds,
                                             int64_t trials,
                                             uint64_t base_seed,
                                             const common::Deadline* deadline) {
  if (trials <= 0) {
    return common::Status::InvalidArgument("trials must be positive");
  }
  FW_TRACE_SPAN("eval/run_repeated");
  // Pre-draw every trial seed up front: trial t's seed is the t-th draw of
  // the stream no matter which trials run, fail, or are skipped, and no
  // matter how many threads execute them — the foundation of the
  // bit-identical --threads 1 vs --threads N guarantee.
  std::vector<uint64_t> seeds(static_cast<size_t>(trials));
  {
    common::Rng seed_stream(base_seed);
    for (auto& s : seeds) s = seed_stream.NextU64();
  }
  // Independent trials run in parallel on the global pool, each writing its
  // own pre-sized slot; aggregation, telemetry, and failure reporting all
  // walk the slots in trial order after the join, so the outputs are
  // deterministic regardless of completion order.
  std::vector<TrialSlot> slots(static_cast<size_t>(trials));
  std::atomic<bool> halt{false};
  common::ParallelFor(0, trials, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t t = lo; t < hi; ++t) {
      if (halt.load(std::memory_order_relaxed)) return;
      if (deadline != nullptr && deadline->Expired()) {
        halt.store(true, std::memory_order_relaxed);
        return;
      }
      auto trial = RunTrial(method, ds, seeds[static_cast<size_t>(t)]);
      TrialSlot& slot = slots[static_cast<size_t>(t)];
      if (trial.ok()) {
        slot.state = TrialSlot::State::kDone;
        slot.metrics = *trial;
      } else if (const common::StatusCode code = trial.status().code();
                 code == common::StatusCode::kDeadlineExceeded ||
                 code == common::StatusCode::kInvalidArgument) {
        slot.state = TrialSlot::State::kAbort;
        slot.status = trial.status();
        halt.store(true, std::memory_order_relaxed);
      } else {
        slot.state = TrialSlot::State::kFailed;
        slot.status = trial.status();
      }
    }
  });

  // In-order walk of the slots: every aggregate, event, and reason string
  // comes out in trial order.
  int64_t skipped = 0;
  for (const TrialSlot& slot : slots) {
    if (slot.state == TrialSlot::State::kSkipped) ++skipped;
  }
  std::vector<double> acc, f1, auc, dsp, deo, seconds;
  int64_t failed = 0;
  std::vector<std::string> failure_reasons;
  common::Status last_error = common::Status::OK();
  bool deadline_reported = false;
  for (int64_t t = 0; t < trials; ++t) {
    const TrialSlot& slot = slots[static_cast<size_t>(t)];
    switch (slot.state) {
      case TrialSlot::State::kAbort:
        // An interrupted training loop left a resume checkpoint behind, or
        // the method rejected its configuration — surface that to the
        // caller instead of aggregating around it.
        return slot.status;
      case TrialSlot::State::kSkipped: {
        if (deadline_reported) break;
        deadline_reported = true;
        obs::EmitEvent(
            obs::Event("deadline_exceeded")
                .Set("phase", "harness")
                .Set("trial", t + 1)
                .Set("trials", trials)
                .Set("reason", deadline != nullptr
                                   ? common::StopReasonName(deadline->reason())
                                   : "none")
                .Set("skipped_trials", skipped));
        FW_LOG(Warning) << method->name() << ": deadline expired before trial "
                        << t + 1 << "/" << trials << "; skipping the rest";
        break;
      }
      case TrialSlot::State::kFailed: {
        // One bad trial must not poison the whole aggregation: skip it,
        // keep the failure visible in the logs, in `failed_trials`, and —
        // with the precise Status — in `failure_reasons` and the telemetry
        // stream.
        ++failed;
        last_error = slot.status;
        failure_reasons.push_back("trial " + std::to_string(t + 1) + ": " +
                                  last_error.ToString());
        obs::MetricsRegistry::Global()
            .GetCounter("eval.failed_trials")
            ->Increment();
        obs::EmitEvent(obs::Event("trial_failed")
                           .Set("method", method->name())
                           .Set("trial", t + 1)
                           .Set("trials", trials)
                           .Set("reason", last_error.ToString()));
        FW_LOG(Warning) << method->name() << " trial " << t + 1 << "/"
                        << trials << " failed, skipping: "
                        << last_error.ToString();
        break;
      }
      case TrialSlot::State::kDone: {
        const TrialMetrics& m = slot.metrics;
        if (obs::TelemetryEnabled()) {
          obs::EmitEvent(obs::Event("trial_done")
                             .Set("method", method->name())
                             .Set("trial", t + 1)
                             .Set("trials", trials)
                             .Set("acc", m.acc)
                             .Set("dsp", m.dsp)
                             .Set("deo", m.deo)
                             .Set("seconds", m.seconds));
        }
        acc.push_back(m.acc);
        f1.push_back(m.f1);
        auc.push_back(m.auc);
        dsp.push_back(m.dsp);
        deo.push_back(m.deo);
        seconds.push_back(m.seconds);
        break;
      }
    }
  }
  if (acc.empty() && skipped > 0) {
    return common::Status::DeadlineExceeded(
        method->name() + ": deadline expired before any trial completed");
  }
  if (acc.empty()) {
    return common::Status::Internal(
        method->name() + ": all " + std::to_string(trials) +
        " trials failed; last error: " + last_error.ToString());
  }
  AggregateMetrics agg;
  agg.acc = ComputeMeanStd(acc);
  agg.f1 = ComputeMeanStd(f1);
  agg.auc = ComputeMeanStd(auc);
  agg.dsp = ComputeMeanStd(dsp);
  agg.deo = ComputeMeanStd(deo);
  agg.seconds = ComputeMeanStd(seconds);
  agg.trials = static_cast<int64_t>(acc.size());
  agg.failed_trials = failed;
  agg.failure_reasons = std::move(failure_reasons);
  agg.skipped_trials = skipped;
  return agg;
}

}  // namespace fairwos::eval
