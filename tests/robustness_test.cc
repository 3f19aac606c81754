// Tests for the numerical-guardrail / self-healing layer: health scans,
// CRC32, the deterministic FaultInjector schedule, GradientGuard detection,
// gradient clipping, SelfHealing rollback-and-retry, the fault-injected
// Fairwos fine-tune recovery demanded by the PR acceptance criteria, and
// partial-failure tolerance in eval::RunRepeated.
#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/train_util.h"
#include "common/crc32.h"
#include "common/fault.h"
#include "common/health.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/fairwos.h"
#include "data/synthetic.h"
#include "eval/harness.h"
#include "fairness/metrics.h"
#include "nn/guard.h"
#include "nn/optim.h"

namespace fairwos {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// --- common::health -----------------------------------------------------------

TEST(HealthTest, AllFiniteOnCleanBuffer) {
  std::vector<float> v = {0.0f, -1.5f, 3e30f};
  EXPECT_TRUE(common::AllFinite(v));
  EXPECT_TRUE(common::CheckHealth(v).ok());
}

TEST(HealthTest, DetectsNanAndInf) {
  std::vector<float> v = {1.0f, kNan, 2.0f, kInf, -kInf, kNan};
  EXPECT_FALSE(common::AllFinite(v));
  auto report = common::CheckHealth(v);
  EXPECT_EQ(report.nan_count, 2);
  EXPECT_EQ(report.inf_count, 2);
  EXPECT_EQ(report.first_bad_index, 1);
  EXPECT_FALSE(report.ok());
}

TEST(HealthTest, IsFiniteScalar) {
  EXPECT_TRUE(common::IsFinite(0.0));
  EXPECT_FALSE(common::IsFinite(std::nan("")));
  EXPECT_FALSE(common::IsFinite(std::numeric_limits<double>::infinity()));
}

// --- common::Crc32 ------------------------------------------------------------

TEST(Crc32Test, KnownAnswer) {
  // The standard CRC-32 check value.
  EXPECT_EQ(common::Crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const char* data = "fairwos checkpoint payload";
  const uint32_t one_shot = common::Crc32(data, 26);
  const uint32_t first = common::Crc32(data, 10);
  EXPECT_EQ(common::Crc32(data + 10, 16, first), one_shot);
}

TEST(Crc32Test, SensitiveToSingleBitFlip) {
  std::vector<unsigned char> buf(64, 0xAB);
  const uint32_t clean = common::Crc32(buf.data(), buf.size());
  buf[40] ^= 0x08;
  EXPECT_NE(common::Crc32(buf.data(), buf.size()), clean);
}

// --- testing::FaultInjector ---------------------------------------------------

TEST(FaultInjectorTest, DisarmedNeverFires) {
  testing::FaultInjector fi(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(fi.ShouldFire(testing::FaultSite::kGradient));
  }
  EXPECT_EQ(fi.visits(testing::FaultSite::kGradient), 10);
  EXPECT_EQ(fi.fires(testing::FaultSite::kGradient), 0);
}

TEST(FaultInjectorTest, FiresOnceAtScheduledVisit) {
  testing::FaultInjector fi(1);
  fi.Arm(testing::FaultSite::kLossValue, /*at_visit=*/3);
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) {
    fired.push_back(fi.ShouldFire(testing::FaultSite::kLossValue));
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, false, true, false, false}));
  EXPECT_EQ(fi.fires(testing::FaultSite::kLossValue), 1);
}

TEST(FaultInjectorTest, PeriodicScheduleWithCount) {
  testing::FaultInjector fi(1);
  fi.Arm(testing::FaultSite::kParameter, /*at_visit=*/1, /*count=*/2,
         /*every=*/3);
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) {
    fired.push_back(fi.ShouldFire(testing::FaultSite::kParameter));
  }
  // Visits 1 and 4 fire; visit 7 would match but the count is exhausted.
  EXPECT_EQ(fired, (std::vector<bool>{false, true, false, false, true, false,
                                      false, false, false}));
}

TEST(FaultInjectorTest, UnlimitedCountKeepsFiring) {
  testing::FaultInjector fi(1);
  fi.Arm(testing::FaultSite::kGradient, 0, /*count=*/-1);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(fi.ShouldFire(testing::FaultSite::kGradient));
  }
}

TEST(FaultInjectorTest, SitesAreIndependent) {
  testing::FaultInjector fi(1);
  fi.Arm(testing::FaultSite::kGradient, 0);
  EXPECT_FALSE(fi.ShouldFire(testing::FaultSite::kLossValue));
  EXPECT_TRUE(fi.ShouldFire(testing::FaultSite::kGradient));
}

TEST(FaultInjectorTest, ScopedInstallRestoresPrevious) {
  EXPECT_EQ(testing::ActiveFaultInjector(), nullptr);
  testing::FaultInjector outer(1), inner(2);
  {
    testing::ScopedFaultInjector a(&outer);
    EXPECT_EQ(testing::ActiveFaultInjector(), &outer);
    {
      testing::ScopedFaultInjector b(&inner);
      EXPECT_EQ(testing::ActiveFaultInjector(), &inner);
    }
    EXPECT_EQ(testing::ActiveFaultInjector(), &outer);
  }
  EXPECT_EQ(testing::ActiveFaultInjector(), nullptr);
}

// --- nn::GradientGuard / clipping --------------------------------------------

std::vector<tensor::Tensor> MakeParams() {
  auto a = tensor::Tensor::FromVector({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  auto b = tensor::Tensor::FromVector({2}, {0.5f, -0.5f});
  a.set_requires_grad(true);
  b.set_requires_grad(true);
  return {a, b};
}

void SetGrad(tensor::Tensor* t, std::vector<float> g) {
  t->mutable_grad() = std::move(g);
}

TEST(GradientGuardTest, CleanStateIsHealthy) {
  auto params = MakeParams();
  SetGrad(&params[0], {0.1f, 0.1f, 0.1f, 0.1f});
  nn::GradientGuard guard(params);
  EXPECT_TRUE(guard.CheckLoss(0.5).ok());
  EXPECT_TRUE(guard.CheckGradients().ok());
  EXPECT_TRUE(guard.CheckParameters().ok());
}

TEST(GradientGuardTest, DetectsNonFiniteLoss) {
  nn::GradientGuard guard(MakeParams());
  EXPECT_FALSE(guard.CheckLoss(std::nan("")).ok());
  EXPECT_FALSE(guard.CheckLoss(-std::numeric_limits<double>::infinity()).ok());
}

TEST(GradientGuardTest, DetectsNanGradient) {
  auto params = MakeParams();
  SetGrad(&params[1], {0.0f, kNan});
  nn::GradientGuard guard(params);
  auto status = guard.CheckGradients();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kInternal);
  // The message names the offending parameter.
  EXPECT_NE(status.message().find("parameter 1"), std::string::npos);
}

TEST(GradientGuardTest, DetectsInfParameter) {
  auto params = MakeParams();
  params[0].mutable_data()[2] = kInf;
  nn::GradientGuard guard(params);
  EXPECT_FALSE(guard.CheckParameters().ok());
}

TEST(ClipGradNormTest, ScalesDownOverlongGradients) {
  auto params = MakeParams();
  SetGrad(&params[0], {3.0f, 0.0f, 0.0f, 0.0f});
  SetGrad(&params[1], {0.0f, 4.0f});  // global norm = 5
  const double pre = nn::ClipGradNorm(params, 1.0);
  EXPECT_NEAR(pre, 5.0, 1e-6);
  EXPECT_NEAR(nn::GlobalGradNorm(params), 1.0, 1e-5);
  EXPECT_NEAR(params[0].grad()[0], 0.6f, 1e-5);
}

TEST(ClipGradNormTest, ShortGradientsUntouched) {
  auto params = MakeParams();
  SetGrad(&params[0], {0.3f, 0.0f, 0.0f, 0.0f});
  SetGrad(&params[1], {0.0f, 0.4f});
  nn::ClipGradNorm(params, 10.0);
  EXPECT_FLOAT_EQ(params[0].grad()[0], 0.3f);
  EXPECT_FLOAT_EQ(params[1].grad()[1], 0.4f);
}

TEST(ClipGradNormTest, NonFiniteNormLeftForTheGuard) {
  auto params = MakeParams();
  SetGrad(&params[0], {kNan, 0.0f, 0.0f, 0.0f});
  nn::ClipGradNorm(params, 1.0);
  // Clipping must not scale (and thereby launder) a NaN gradient.
  EXPECT_TRUE(std::isnan(params[0].grad()[0]));
}

TEST(OptimizerTest, LrAccessorsAndClipping) {
  auto params = MakeParams();
  nn::Sgd opt(params, /*lr=*/1.0f);
  EXPECT_FLOAT_EQ(opt.lr(), 1.0f);
  opt.set_lr(0.5f);
  EXPECT_FLOAT_EQ(opt.lr(), 0.5f);
  opt.set_max_grad_norm(1.0f);
  SetGrad(&params[0], {3.0f, 0.0f, 0.0f, 0.0f});
  SetGrad(&params[1], {0.0f, 4.0f});
  opt.Step();  // clipped to norm 1: update = lr * 0.6 on params[0][0]
  EXPECT_NEAR(params[0].data()[0], 1.0f - 0.5f * 0.6f, 1e-5);
}

// --- nn::SelfHealing ----------------------------------------------------------

class TinyModule : public nn::Module {
 public:
  TinyModule() {
    w_ = RegisterParameter(
        tensor::Tensor::FromVector({2}, {1.0f, 2.0f}));
  }
  tensor::Tensor w_;
};

TEST(SelfHealingTest, HealthyStepsCommitAndNeverRetry) {
  TinyModule model;
  nn::Sgd opt(model.parameters(), 0.1f);
  nn::SelfHealing healer(nn::RecoveryConfig{}, model, &opt, "test");
  SetGrad(&model.w_, {1.0f, 1.0f});
  EXPECT_TRUE(healer.GuardedStep(0.5));
  healer.Commit();
  EXPECT_EQ(healer.retries(), 0);
  EXPECT_NEAR(model.w_.data()[0], 0.9f, 1e-6);
}

TEST(SelfHealingTest, NanLossBlocksTheStep) {
  TinyModule model;
  nn::Sgd opt(model.parameters(), 0.1f);
  nn::SelfHealing healer(nn::RecoveryConfig{}, model, &opt, "test");
  SetGrad(&model.w_, {1.0f, 1.0f});
  EXPECT_FALSE(healer.GuardedStep(std::nan("")));
  // The step was not applied: parameters are untouched.
  EXPECT_FLOAT_EQ(model.w_.data()[0], 1.0f);
}

TEST(SelfHealingTest, RecoverRollsBackDecaysLrAndEnablesClipping) {
  TinyModule model;
  nn::Sgd opt(model.parameters(), 0.1f);
  nn::RecoveryConfig config;
  config.max_retries = 2;
  config.lr_decay = 0.5;
  config.retry_clip_norm = 7.0;
  nn::SelfHealing healer(config, model, &opt, "test");
  // One healthy committed step.
  SetGrad(&model.w_, {1.0f, 1.0f});
  ASSERT_TRUE(healer.GuardedStep(0.5));
  healer.Commit();
  const auto good = model.w_.data();
  // A poisoned step: a parameter goes NaN during the update (corrupted
  // directly here; the clean gradients pass the pre-step checks, so the
  // failure is caught by the post-step parameter scan).
  model.w_.mutable_data()[0] = kNan;
  SetGrad(&model.w_, {0.0f, 0.0f});
  ASSERT_FALSE(healer.GuardedStep(0.5));
  EXPECT_TRUE(std::isnan(model.w_.data()[0]));
  ASSERT_TRUE(healer.Recover());
  EXPECT_EQ(model.w_.data(), good);  // rolled back
  EXPECT_FLOAT_EQ(opt.lr(), 0.05f);  // halved
  EXPECT_FLOAT_EQ(opt.max_grad_norm(), 7.0f);
  EXPECT_EQ(healer.retries(), 1);
}

TEST(SelfHealingTest, BudgetExhaustionStillRestoresLastGood) {
  TinyModule model;
  nn::Sgd opt(model.parameters(), 0.1f);
  nn::RecoveryConfig config;
  config.max_retries = 1;
  nn::SelfHealing healer(config, model, &opt, "test");
  const auto initial = model.w_.data();
  for (int attempt = 0; attempt < 2; ++attempt) {
    SetGrad(&model.w_, {kNan, 0.0f});
    ASSERT_FALSE(healer.GuardedStep(0.5));
    if (attempt == 0) {
      ASSERT_TRUE(healer.Recover());
    } else {
      ASSERT_FALSE(healer.Recover());  // budget spent
    }
  }
  // Even the failed Recover restored the last-good parameters.
  EXPECT_EQ(model.w_.data(), initial);
}

TEST(SelfHealingTest, ZeroBudgetDisablesRecovery) {
  TinyModule model;
  nn::Sgd opt(model.parameters(), 0.1f);
  nn::RecoveryConfig config;
  config.max_retries = 0;
  nn::SelfHealing healer(config, model, &opt, "test");
  SetGrad(&model.w_, {kNan, 0.0f});
  ASSERT_FALSE(healer.GuardedStep(0.5));
  EXPECT_FALSE(healer.Recover());
}

// --- Self-healing baseline training ------------------------------------------

data::Dataset ToyDataset() { return data::MakeDataset("toy", {}).value(); }

nn::GnnClassifier ToyClassifier(const data::Dataset& ds, common::Rng* rng) {
  nn::GnnConfig config;
  config.in_features = ds.features.dim(1);
  config.hidden = 8;
  return nn::GnnClassifier(config, ds.graph, rng);
}

TEST(TrainClassifierRecoveryTest, RecoversFromOnePoisonedLoss) {
  auto ds = ToyDataset();
  common::Rng rng(3);
  auto model = ToyClassifier(ds, &rng);
  baselines::TrainOptions options;
  options.epochs = 30;
  options.patience = 0;
  testing::FaultInjector fi(11);
  // Visits alternate train-loss / validation-loss; visit 4 is epoch 2's
  // train loss.
  fi.Arm(testing::FaultSite::kLossValue, /*at_visit=*/4);
  baselines::TrainDiagnostics diag;
  {
    testing::ScopedFaultInjector scoped(&fi);
    baselines::TrainClassifier(options, ds, ds.features, nullptr, &model,
                               &rng, &diag);
  }
  EXPECT_EQ(fi.fires(testing::FaultSite::kLossValue), 1);
  EXPECT_EQ(diag.retries, 1);
  EXPECT_FALSE(diag.aborted);
  for (const auto& p : model.parameters()) {
    EXPECT_TRUE(common::AllFinite(p.data().data(), p.data().size()));
  }
}

TEST(TrainClassifierRecoveryTest, PersistentFaultAbortsWithFiniteModel) {
  auto ds = ToyDataset();
  common::Rng rng(3);
  auto model = ToyClassifier(ds, &rng);
  baselines::TrainOptions options;
  options.epochs = 50;
  options.recovery.max_retries = 2;
  testing::FaultInjector fi(11);
  // Every optimizer step poisons a gradient: training cannot make progress.
  fi.Arm(testing::FaultSite::kGradient, 0, /*count=*/-1);
  baselines::TrainDiagnostics diag;
  {
    testing::ScopedFaultInjector scoped(&fi);
    baselines::TrainClassifier(options, ds, ds.features, nullptr, &model,
                               &rng, &diag);
  }
  EXPECT_EQ(diag.retries, 2);
  EXPECT_TRUE(diag.aborted);
  for (const auto& p : model.parameters()) {
    EXPECT_TRUE(common::AllFinite(p.data().data(), p.data().size()));
  }
}

// --- Fairwos end-to-end fault recovery (PR acceptance criteria) ---------------

core::FairwosConfig FastConfig() {
  core::FairwosConfig config;
  config.pretrain_epochs = 120;
  config.finetune_epochs = 12;
  config.encoder.epochs = 60;
  return config;
}

/// Optimizer-step visits consumed by one uninjected run — used to aim
/// faults at the fine-tuning phase, whose steps come last.
int64_t CountOptimizerSteps(const data::Dataset& ds, uint64_t seed) {
  testing::FaultInjector counter(0);  // installed but never armed
  testing::ScopedFaultInjector scoped(&counter);
  auto out = core::TrainFairwos(FastConfig(), ds, seed, nullptr);
  FW_CHECK(out.ok());
  return counter.visits(testing::FaultSite::kGradient);
}

TEST(FairwosFaultRecoveryTest, NanGradientMidFinetuneRecovers) {
  auto ds = ToyDataset();
  const uint64_t seed = 11;

  core::FairwosStats clean_stats;
  auto clean = core::TrainFairwos(FastConfig(), ds, seed, &clean_stats);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean_stats.finetune_retries, 0);
  const int64_t total_steps = CountOptimizerSteps(ds, seed);
  ASSERT_GE(clean_stats.finetune_epochs_run, 12);

  // Poison one gradient in the middle of fine-tuning (the last 12 optimizer
  // steps of the run are the fine-tuning epochs).
  testing::FaultInjector fi(29);
  fi.Arm(testing::FaultSite::kGradient, total_steps - 6);
  core::FairwosStats stats;
  common::Result<core::MethodOutput> injected = common::Status::Internal("");
  {
    testing::ScopedFaultInjector scoped(&fi);
    injected = core::TrainFairwos(FastConfig(), ds, seed, &stats);
  }
  // The guard fired, the loop rolled back and retried, and training still
  // succeeded without degradation.
  EXPECT_EQ(fi.fires(testing::FaultSite::kGradient), 1);
  ASSERT_TRUE(injected.ok());
  EXPECT_EQ(stats.finetune_retries, 1);
  EXPECT_EQ(stats.pretrain_retries, 0);
  EXPECT_FALSE(stats.finetune_degraded);

  // Final metrics stay within noise of the uninjected run.
  const auto& test_idx = ds.split.test;
  const double clean_acc =
      fairness::AccuracyPct(clean->pred, ds.labels, test_idx);
  const double injected_acc =
      fairness::AccuracyPct(injected->pred, ds.labels, test_idx);
  EXPECT_NEAR(injected_acc, clean_acc, 10.0);
  for (const auto& p : injected->embeddings.data()) {
    EXPECT_TRUE(std::isfinite(p));
  }
}

TEST(FairwosFaultRecoveryTest, UnrecoverableFinetuneDegradesToPretrained) {
  auto ds = ToyDataset();
  const uint64_t seed = 11;
  const int64_t total_steps = CountOptimizerSteps(ds, seed);

  // Reference: the same run with fine-tuning disabled ("w/o F").
  core::FairwosConfig no_fairness = FastConfig();
  no_fairness.use_fairness = false;
  auto reference = core::TrainFairwos(no_fairness, ds, seed, nullptr);
  ASSERT_TRUE(reference.ok());

  // Sabotage every fine-tuning step: recovery must exhaust its budget and
  // fall back to the pre-trained classifier instead of failing the run.
  testing::FaultInjector fi(31);
  fi.Arm(testing::FaultSite::kGradient, total_steps - 10, /*count=*/-1);
  core::FairwosStats stats;
  common::Result<core::MethodOutput> degraded = common::Status::Internal("");
  {
    testing::ScopedFaultInjector scoped(&fi);
    degraded = core::TrainFairwos(FastConfig(), ds, seed, &stats);
  }
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(stats.finetune_degraded);
  EXPECT_EQ(stats.finetune_retries, FastConfig().recovery.max_retries);
  // Graceful degradation: the output is exactly the pre-trained ("w/o F")
  // classifier's, not a half-poisoned fine-tuned model.
  EXPECT_EQ(degraded->pred, reference->pred);
}

TEST(FairwosFaultRecoveryTest, PretrainRecoveryIsCountedSeparately) {
  auto ds = ToyDataset();
  const uint64_t seed = 11;
  const int64_t total_steps = CountOptimizerSteps(ds, seed);
  // Three optimizer steps before fine-tuning begins: the tail of the
  // classifier pre-training phase.
  testing::FaultInjector fi(13);
  fi.Arm(testing::FaultSite::kGradient, total_steps - 12 - 3);
  core::FairwosStats stats;
  common::Result<core::MethodOutput> out = common::Status::Internal("");
  {
    testing::ScopedFaultInjector scoped(&fi);
    out = core::TrainFairwos(FastConfig(), ds, seed, &stats);
  }
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(stats.pretrain_retries, 1);
  EXPECT_EQ(stats.finetune_retries, 0);
  EXPECT_FALSE(stats.finetune_degraded);
}

TEST(FairwosFaultRecoveryTest, PoisonedFirstEncoderLossIsRecovered) {
  auto ds = ToyDataset();
  obs::Counter* trips =
      obs::MetricsRegistry::Global().GetCounter("selfheal.guard_trips");
  const int64_t trips_before = trips->value();
  // Visit 0 of the loss site is the encoder's first training loss.
  testing::FaultInjector fi(17);
  fi.Arm(testing::FaultSite::kLossValue, /*at_visit=*/0);
  core::FairwosStats stats;
  common::Result<std::unique_ptr<core::FittedGnnModel>> fitted =
      common::Status::Internal("");
  {
    testing::ScopedFaultInjector scoped(&fi);
    fitted = core::FitFairwos(FastConfig(), ds, /*seed=*/11, &stats);
  }
  EXPECT_EQ(fi.fires(testing::FaultSite::kLossValue), 1);
  EXPECT_EQ(trips->value() - trips_before, 1);
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  EXPECT_EQ(stats.pretrain_retries, 0);
  const tensor::Tensor& x0 = fitted.value()->pseudo_sens();
  ASSERT_TRUE(x0.defined());
  EXPECT_EQ(x0.dim(0), ds.num_nodes());
  EXPECT_TRUE(common::AllFinite(x0.data().data(), x0.data().size()));
}

// --- eval::RunRepeated partial failure ----------------------------------------

/// Fails on a configurable subset of trials, succeeds (with a vanilla-style
/// constant prediction) otherwise. Failures are keyed on the trial seed —
/// reproducing RunRepeated's pre-drawn seed stream — rather than on call
/// order, so the double behaves identically when trials run in parallel.
class FlakyMethod : public core::FairMethod {
 public:
  FlakyMethod(uint64_t base_seed, const std::vector<bool>& fail_on_trial) {
    common::Rng seed_stream(base_seed);
    for (bool fail : fail_on_trial) {
      const uint64_t seed = seed_stream.NextU64();
      if (fail) failing_seeds_.push_back(seed);
    }
  }

  std::string name() const override { return "Flaky"; }

  common::Result<std::unique_ptr<core::FittedModel>> Fit(
      const data::Dataset& ds, uint64_t seed) override {
    if (std::find(failing_seeds_.begin(), failing_seeds_.end(), seed) !=
        failing_seeds_.end()) {
      return common::Status::Internal("injected trial failure");
    }
    core::MethodOutput out;
    out.pred.assign(static_cast<size_t>(ds.num_nodes()), 1);
    out.prob1.assign(static_cast<size_t>(ds.num_nodes()), 0.75f);
    out.train_seconds = 0.01;
    return std::unique_ptr<core::FittedModel>(
        new core::PrecomputedModel(name(), std::move(out)));
  }

 private:
  std::vector<uint64_t> failing_seeds_;
};

TEST(RunRepeatedPartialFailureTest, SkipsFailedTrialsAndCountsThem) {
  auto ds = ToyDataset();
  FlakyMethod method(/*base_seed=*/1, {false, true, false, true, false});
  auto agg = eval::RunRepeated(&method, ds, 5, /*base_seed=*/1);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->trials, 3);
  EXPECT_EQ(agg->failed_trials, 2);
  EXPECT_GT(agg->acc.mean, 0.0);
}

TEST(RunRepeatedPartialFailureTest, AllTrialsFailingIsAnError) {
  auto ds = ToyDataset();
  FlakyMethod method(/*base_seed=*/1, {true, true, true});
  auto agg = eval::RunRepeated(&method, ds, 3, /*base_seed=*/1);
  ASSERT_FALSE(agg.ok());
  EXPECT_EQ(agg.status().code(), common::StatusCode::kInternal);
}

TEST(RunRepeatedPartialFailureTest, NoFailuresReportsZero) {
  auto ds = ToyDataset();
  FlakyMethod method(/*base_seed=*/1, {});
  auto agg = eval::RunRepeated(&method, ds, 3, /*base_seed=*/1);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->trials, 3);
  EXPECT_EQ(agg->failed_trials, 0);
}

}  // namespace
}  // namespace fairwos
