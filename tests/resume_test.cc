// Durable crash-resume tests (docs/resume.md): RNG / optimizer / full
// TrainState round trips, rotation + latest-valid fallback, cooperative
// deadlines, and the headline guarantee — kill-and-resume at an epoch
// boundary produces bit-identical results to an uninterrupted run, for both
// the baseline classifier loop and full Fairwos training.
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/train_util.h"
#include "common/deadline.h"
#include "common/durable_file.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/fairwos.h"
#include "data/synthetic.h"
#include "nn/checkpoint.h"
#include "nn/gnn.h"
#include "nn/optim.h"
#include "tensor/ops.h"

namespace fairwos {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

int64_t FileSize(const std::string& path) {
  return static_cast<int64_t>(std::filesystem::file_size(path));
}

// --- Deadline -------------------------------------------------------------

TEST(DeadlineTest, NeverDoesNotExpire) {
  common::Deadline d = common::Deadline::Never();
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.reason(), common::StopReason::kNone);
}

TEST(DeadlineTest, AfterChecksExpiresOnExactPoll) {
  common::Deadline d = common::Deadline::AfterChecks(3);
  EXPECT_FALSE(d.Expired());
  EXPECT_FALSE(d.Expired());
  EXPECT_FALSE(d.Expired());
  EXPECT_TRUE(d.Expired());
  EXPECT_TRUE(d.Expired());  // stays expired
  EXPECT_EQ(d.reason(), common::StopReason::kInjected);
}

TEST(DeadlineTest, AfterZeroChecksIsImmediatelyExpired) {
  common::Deadline d = common::Deadline::AfterChecks(0);
  EXPECT_TRUE(d.Expired());
  EXPECT_EQ(d.reason(), common::StopReason::kInjected);
}

TEST(DeadlineTest, WallClockExpires) {
  common::Deadline past = common::Deadline::After(0.0);
  EXPECT_TRUE(past.Expired());
  EXPECT_EQ(past.reason(), common::StopReason::kWallClock);

  common::Deadline future = common::Deadline::After(3600.0);
  EXPECT_FALSE(future.Expired());
  EXPECT_GT(future.RemainingSeconds(), 0.0);
}

TEST(DeadlineTest, CancellationTripsEveryDeadline) {
  common::ClearCancellation();
  common::Deadline d = common::Deadline::Never();
  EXPECT_FALSE(d.Expired());
  common::RequestCancellation();
  EXPECT_TRUE(common::CancellationRequested());
  EXPECT_TRUE(d.Expired());
  EXPECT_EQ(d.reason(), common::StopReason::kSignal);
  common::ClearCancellation();
}

// --- Rng state round trip -------------------------------------------------

TEST(RngStateTest, RoundTripContinuesIdenticalStream) {
  common::Rng rng(123);
  for (int i = 0; i < 17; ++i) rng.NextU64();
  const common::RngState saved = rng.SaveState();
  std::vector<double> expected;
  for (int i = 0; i < 50; ++i) expected.push_back(rng.Uniform());
  rng.LoadState(saved);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.Uniform(), expected[i]);
}

TEST(RngStateTest, OddNormalDrawsPreserveCachedVariate) {
  // Box-Muller produces normals in pairs; an odd draw count leaves the
  // second variate cached. The checkpoint must carry that cache, or the
  // resumed stream shifts by one normal.
  common::Rng rng(7);
  rng.Normal();
  rng.Normal();
  rng.Normal();  // odd count: one variate cached
  const common::RngState saved = rng.SaveState();
  EXPECT_TRUE(saved.has_cached_normal);
  std::vector<double> expected;
  for (int i = 0; i < 9; ++i) expected.push_back(rng.Normal());
  expected.push_back(rng.Uniform());
  rng.LoadState(saved);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(rng.Normal(), expected[i]);
  EXPECT_EQ(rng.Uniform(), expected[9]);
}

TEST(RngStateTest, RestoredRngSavesIdenticalState) {
  common::Rng a(99);
  a.Normal();  // leave a cached variate
  const common::RngState saved = a.SaveState();
  common::Rng b(1);
  b.LoadState(saved);
  EXPECT_TRUE(b.SaveState() == saved);
}

// --- Optimizer state round trip -------------------------------------------

TEST(OptimizerStateTest, AdamExportImportRoundTrip) {
  tensor::Tensor x = tensor::Tensor::FromVector({3}, {5.0f, -5.0f, 2.0f});
  x.set_requires_grad(true);
  nn::Adam a({x}, /*lr=*/0.1f);
  for (int i = 0; i < 7; ++i) {
    a.ZeroGrad();
    tensor::SumSquares(x).Backward();
    a.Step();
  }
  const nn::OptimizerState state = a.ExportState();
  EXPECT_EQ(state.step_count, 7);
  ASSERT_EQ(state.moment1.size(), 1u);
  ASSERT_EQ(state.moment1[0].size(), 3u);

  tensor::Tensor y = tensor::Tensor::FromVector(
      {3}, std::vector<float>(x.data().begin(), x.data().end()));
  y.set_requires_grad(true);
  nn::Adam b({y}, /*lr=*/0.5f);  // wrong lr, overwritten by import
  ASSERT_TRUE(b.ImportState(state).ok());
  const nn::OptimizerState reexported = b.ExportState();
  EXPECT_EQ(reexported.lr, state.lr);
  EXPECT_EQ(reexported.step_count, state.step_count);
  EXPECT_EQ(reexported.moment1, state.moment1);
  EXPECT_EQ(reexported.moment2, state.moment2);

  // The restored optimizer continues exactly like the original.
  for (int i = 0; i < 5; ++i) {
    a.ZeroGrad();
    tensor::SumSquares(x).Backward();
    a.Step();
    b.ZeroGrad();
    tensor::SumSquares(y).Backward();
    b.Step();
  }
  EXPECT_EQ(x.data(), y.data());
}

TEST(OptimizerStateTest, AdamImportRejectsMismatchedShapes) {
  tensor::Tensor x = tensor::Tensor::FromVector({3}, {1.0f, 2.0f, 3.0f});
  x.set_requires_grad(true);
  nn::Adam opt({x}, 0.1f);
  nn::OptimizerState state = opt.ExportState();
  state.moment1[0].resize(2);
  EXPECT_EQ(opt.ImportState(state).code(),
            common::StatusCode::kFailedPrecondition);
  state = opt.ExportState();
  state.lr = 0.0f;
  EXPECT_EQ(opt.ImportState(state).code(),
            common::StatusCode::kFailedPrecondition);
}

// --- TrainState serialization ---------------------------------------------

nn::TrainState SampleState() {
  nn::TrainState st;
  st.phase = 2;
  st.epoch = 41;
  common::Rng rng(5);
  rng.Normal();
  st.rng = rng.SaveState();
  st.optimizer.lr = 0.25f;
  st.optimizer.max_grad_norm = 1.5f;
  st.optimizer.step_count = 19;
  st.optimizer.moment1 = {{0.1f, -0.2f}, {0.3f}};
  st.optimizer.moment2 = {{0.01f, 0.02f}, {0.03f}};
  st.params = {{1.0f, 2.0f}, {3.0f}};
  st.blobs = {{4.0f, 5.0f, 6.0f}, {7.0f}};
  st.scalars = {0.5, -2.75, 1e-9};
  st.counters = {3, 0, -7, 1};
  return st;
}

void ExpectStatesEqual(const nn::TrainState& a, const nn::TrainState& b) {
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_TRUE(a.rng == b.rng);
  EXPECT_EQ(a.optimizer.lr, b.optimizer.lr);
  EXPECT_EQ(a.optimizer.max_grad_norm, b.optimizer.max_grad_norm);
  EXPECT_EQ(a.optimizer.step_count, b.optimizer.step_count);
  EXPECT_EQ(a.optimizer.moment1, b.optimizer.moment1);
  EXPECT_EQ(a.optimizer.moment2, b.optimizer.moment2);
  EXPECT_EQ(a.params, b.params);
  EXPECT_EQ(a.blobs, b.blobs);
  EXPECT_EQ(a.scalars, b.scalars);
  EXPECT_EQ(a.counters, b.counters);
}

TEST(TrainStateTest, FileRoundTrip) {
  const std::string dir = TempDir("fw_trainstate_roundtrip");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/state.fwck";
  const nn::TrainState saved = SampleState();
  ASSERT_TRUE(nn::SaveTrainState(path, saved).ok());
  nn::TrainState loaded;
  ASSERT_TRUE(nn::LoadTrainState(path, &loaded).ok());
  ExpectStatesEqual(saved, loaded);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove_all(dir);
}

TEST(TrainStateTest, FlippedByteIsIoError) {
  const std::string dir = TempDir("fw_trainstate_corrupt");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/state.fwck";
  ASSERT_TRUE(nn::SaveTrainState(path, SampleState()).ok());
  ASSERT_TRUE(
      testing::FaultInjector::FlipByte(path, FileSize(path) - 5, 0x20).ok());
  nn::TrainState loaded;
  EXPECT_EQ(nn::LoadTrainState(path, &loaded).code(),
            common::StatusCode::kIoError);
  std::filesystem::remove_all(dir);
}

TEST(TrainStateTest, ModuleCheckpointIsWrongVersion) {
  // A well-formed FWCP file of another version (here the v4 model
  // artifact's) must not parse as a v3 TrainState.
  const std::string dir = TempDir("fw_trainstate_wrongver");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/state.fwck";
  ASSERT_TRUE(common::WriteCheckpointEnvelope(
                  path, common::kModelArtifactVersion, std::string(64, '\x01'))
                  .ok());
  nn::TrainState loaded;
  EXPECT_EQ(nn::LoadTrainState(path, &loaded).code(),
            common::StatusCode::kInvalidArgument);
  std::filesystem::remove_all(dir);
}

TEST(TrainStateTest, ReadPathFaultInjectionIsCaughtByCrc) {
  // kCheckpointRead flips one bit in the buffer *after* it is read back —
  // simulating disk/bus rot between write and read. The CRC must catch it.
  const std::string dir = TempDir("fw_trainstate_readfault");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/state.fwck";
  ASSERT_TRUE(nn::SaveTrainState(path, SampleState()).ok());
  ::fairwos::testing::FaultInjector injector(3);
  injector.Arm(::fairwos::testing::FaultSite::kCheckpointRead, 0);
  {
    ::fairwos::testing::ScopedFaultInjector scoped(&injector);
    nn::TrainState loaded;
    EXPECT_EQ(nn::LoadTrainState(path, &loaded).code(),
              common::StatusCode::kIoError);
  }
  EXPECT_EQ(injector.fires(::fairwos::testing::FaultSite::kCheckpointRead), 1);
  // Without the injector the same file loads fine: the fault was injected,
  // not real.
  nn::TrainState loaded;
  EXPECT_TRUE(nn::LoadTrainState(path, &loaded).ok());
  std::filesystem::remove_all(dir);
}

// --- CheckpointRotation ---------------------------------------------------

TEST(CheckpointRotationTest, KeepsNewestN) {
  const std::string dir = TempDir("fw_rotation_keep");
  nn::CheckpointRotation rotation(dir, /*keep=*/3);
  nn::TrainState st = SampleState();
  for (int64_t e = 1; e <= 5; ++e) {
    st.epoch = e;
    ASSERT_TRUE(rotation.Save(st).ok());
  }
  const auto files = nn::CheckpointRotation::ListCheckpoints(dir);
  EXPECT_EQ(files.size(), 3u);
  auto latest = rotation.LoadLatestValid();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().epoch, 5);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointRotationTest, SequenceSurvivesRestart) {
  const std::string dir = TempDir("fw_rotation_restart");
  nn::TrainState st = SampleState();
  {
    nn::CheckpointRotation rotation(dir, 3);
    st.epoch = 1;
    ASSERT_TRUE(rotation.Save(st).ok());
  }
  {
    // A fresh process re-scans the directory: the new save must sort after
    // the old one, not collide with it.
    nn::CheckpointRotation rotation(dir, 3);
    st.epoch = 2;
    ASSERT_TRUE(rotation.Save(st).ok());
    auto latest = rotation.LoadLatestValid();
    ASSERT_TRUE(latest.ok());
    EXPECT_EQ(latest.value().epoch, 2);
  }
  EXPECT_EQ(nn::CheckpointRotation::ListCheckpoints(dir).size(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointRotationTest, CorruptNewestFallsBackWithTelemetry) {
  const std::string dir = TempDir("fw_rotation_fallback");
  nn::CheckpointRotation rotation(dir, 3);
  nn::TrainState st = SampleState();
  st.epoch = 10;
  ASSERT_TRUE(rotation.Save(st).ok());
  st.epoch = 20;
  ASSERT_TRUE(rotation.Save(st).ok());
  const auto files = nn::CheckpointRotation::ListCheckpoints(dir);
  ASSERT_EQ(files.size(), 2u);
  ASSERT_TRUE(
      testing::FaultInjector::FlipByte(files.back(), FileSize(files.back()) - 9,
                                       0x40)
          .ok());

  obs::CollectingSink sink;
  obs::SetEventSink(&sink);
  auto latest = rotation.LoadLatestValid();
  obs::SetEventSink(nullptr);

  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().epoch, 10);  // the older, intact checkpoint
  EXPECT_EQ(rotation.last_loaded_path(), files.front());
  int fallback_events = 0;
  for (const auto& event : sink.events()) {
    if (event.name() == "resume_fallback") {
      ++fallback_events;
      EXPECT_EQ(event.GetString("path"), files.back());
      EXPECT_FALSE(event.GetString("reason").empty());
    }
  }
  EXPECT_EQ(fallback_events, 1);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointRotationTest, CrcHighWordFlipInNewestFallsBack) {
  // Byte 21 lies in the high word of the u64 CRC field: the payload is
  // intact, but the file is damaged and must not be resumed from.
  const std::string dir = TempDir("fw_rotation_crc_high");
  nn::CheckpointRotation rotation(dir, 3);
  nn::TrainState st = SampleState();
  st.epoch = 10;
  ASSERT_TRUE(rotation.Save(st).ok());
  st.epoch = 20;
  ASSERT_TRUE(rotation.Save(st).ok());
  const auto files = nn::CheckpointRotation::ListCheckpoints(dir);
  ASSERT_EQ(files.size(), 2u);
  ASSERT_TRUE(testing::FaultInjector::FlipByte(files.back(), 21).ok());

  obs::CollectingSink sink;
  obs::SetEventSink(&sink);
  auto latest = rotation.LoadLatestValid();
  obs::SetEventSink(nullptr);

  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().epoch, 10);
  EXPECT_EQ(rotation.last_loaded_path(), files.front());
  int fallback_events = 0;
  for (const auto& event : sink.events()) {
    if (event.name() == "resume_fallback") {
      ++fallback_events;
      EXPECT_EQ(event.GetString("path"), files.back());
      EXPECT_NE(event.GetString("reason").find("CRC"), std::string::npos);
    }
  }
  EXPECT_EQ(fallback_events, 1);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointRotationTest, AllCorruptIsNotFound) {
  const std::string dir = TempDir("fw_rotation_allcorrupt");
  nn::CheckpointRotation rotation(dir, 3);
  nn::TrainState st = SampleState();
  ASSERT_TRUE(rotation.Save(st).ok());
  const auto files = nn::CheckpointRotation::ListCheckpoints(dir);
  ASSERT_EQ(files.size(), 1u);
  ASSERT_TRUE(testing::FaultInjector::Truncate(files[0], 7).ok());
  EXPECT_EQ(rotation.LoadLatestValid().status().code(),
            common::StatusCode::kNotFound);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointRotationTest, MissingDirectoryIsNotFound) {
  nn::CheckpointRotation rotation(TempDir("fw_rotation_missing"), 3);
  EXPECT_EQ(rotation.LoadLatestValid().status().code(),
            common::StatusCode::kNotFound);
}

// --- Kill-and-resume determinism: baseline classifier ---------------------

data::Dataset ToyDataset() { return data::MakeDataset("toy", {}).value(); }

nn::GnnClassifier ToyClassifier(const data::Dataset& ds, common::Rng* rng) {
  nn::GnnConfig config;
  config.in_features = ds.features.dim(1);
  config.hidden = 8;
  return nn::GnnClassifier(config, ds.graph, rng);
}

std::vector<std::vector<float>> RunBaseline(
    const data::Dataset& ds, const baselines::TrainOptions& options,
    common::Status* status_out = nullptr,
    baselines::TrainDiagnostics* diag_out = nullptr) {
  common::Rng rng(17);
  auto model = ToyClassifier(ds, &rng);
  baselines::TrainDiagnostics diag;
  auto result = baselines::TrainClassifier(options, ds, ds.features, nullptr,
                                           &model, &rng, &diag);
  if (status_out != nullptr) *status_out = result.status();
  if (diag_out != nullptr) *diag_out = diag;
  return nn::SnapshotParameters(model);
}

TEST(KillAndResumeTest, BaselineClassifierIsBitIdentical) {
  auto ds = ToyDataset();
  baselines::TrainOptions options;
  options.epochs = 30;
  options.patience = 0;
  const auto uninterrupted = RunBaseline(ds, options);

  const std::string dir = TempDir("fw_resume_baseline");
  baselines::TrainOptions interrupted = options;
  interrupted.checkpoint.dir = dir;
  interrupted.checkpoint.every = 4;
  interrupted.deadline = common::Deadline::AfterChecks(13);
  common::Status status;
  RunBaseline(ds, interrupted, &status);
  ASSERT_EQ(status.code(), common::StatusCode::kDeadlineExceeded);
  ASSERT_FALSE(nn::CheckpointRotation::ListCheckpoints(dir).empty());

  baselines::TrainOptions resumed = options;
  resumed.checkpoint.dir = dir;
  resumed.checkpoint.every = 4;
  resumed.checkpoint.resume = true;
  baselines::TrainDiagnostics diag;
  const auto params = RunBaseline(ds, resumed, &status, &diag);
  ASSERT_TRUE(status.ok()) << status.ToString();
  // AfterChecks(13) lets 13 polls pass (epochs 0..12 run) and expires at
  // the top of epoch 13, so the final checkpoint names epoch 13 as next.
  EXPECT_TRUE(diag.resumed);
  EXPECT_EQ(diag.resume_epoch, 13);
  EXPECT_EQ(params, uninterrupted)
      << "kill-and-resume must reproduce the uninterrupted run bit for bit";
  std::filesystem::remove_all(dir);
}

TEST(KillAndResumeTest, BaselineRejectsFairwosCheckpoint) {
  auto ds = ToyDataset();
  const std::string dir = TempDir("fw_resume_phase_mismatch");
  nn::CheckpointRotation rotation(dir, 3);
  nn::TrainState st = SampleState();  // phase 2: a Fairwos fine-tune state
  ASSERT_TRUE(rotation.Save(st).ok());
  baselines::TrainOptions options;
  options.epochs = 5;
  options.checkpoint.dir = dir;
  options.checkpoint.resume = true;
  common::Status status;
  RunBaseline(ds, options, &status);
  EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition);
  std::filesystem::remove_all(dir);
}

// --- Kill-and-resume determinism: full Fairwos ----------------------------

core::FairwosConfig SmallFairwosConfig() {
  core::FairwosConfig config;
  config.encoder.out_dim = 4;
  config.encoder.epochs = 8;
  config.pretrain_epochs = 12;
  config.pretrain_patience = 0;
  config.finetune_epochs = 6;
  config.gnn.hidden = 8;
  return config;
}

struct FairwosRun {
  common::Status status = common::Status::OK();
  std::vector<int> pred;
  std::vector<float> prob1;
  core::FairwosStats stats;
};

FairwosRun RunFairwos(const data::Dataset& ds,
                      const core::FairwosConfig& config) {
  FairwosRun run;
  auto out = core::TrainFairwos(config, ds, /*seed=*/21, &run.stats);
  run.status = out.status();
  if (out.ok()) {
    run.pred = out.value().pred;
    run.prob1 = out.value().prob1;
  }
  return run;
}

/// Interrupts Fairwos after `checks` deadline polls, resumes, and asserts
/// the resumed run ends bit-identical to `reference`.
void ExpectFairwosResumeIdentical(const data::Dataset& ds,
                                  const FairwosRun& reference, int64_t checks,
                                  int64_t expected_phase) {
  const std::string dir =
      TempDir("fw_resume_fairwos_" + std::to_string(checks));
  core::FairwosConfig interrupted = SmallFairwosConfig();
  interrupted.checkpoint.dir = dir;
  interrupted.checkpoint.every = 3;
  interrupted.deadline = common::Deadline::AfterChecks(checks);
  const FairwosRun broken = RunFairwos(ds, interrupted);
  ASSERT_EQ(broken.status.code(), common::StatusCode::kDeadlineExceeded)
      << broken.status.ToString();
  ASSERT_FALSE(nn::CheckpointRotation::ListCheckpoints(dir).empty());

  core::FairwosConfig resumed_config = SmallFairwosConfig();
  resumed_config.checkpoint.dir = dir;
  resumed_config.checkpoint.every = 3;
  resumed_config.checkpoint.resume = true;
  const FairwosRun resumed = RunFairwos(ds, resumed_config);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_TRUE(resumed.stats.resumed);
  EXPECT_EQ(resumed.stats.resume_phase, expected_phase);

  EXPECT_EQ(resumed.pred, reference.pred);
  EXPECT_EQ(resumed.prob1, reference.prob1);
  EXPECT_EQ(resumed.stats.encoder_val_acc_pct,
            reference.stats.encoder_val_acc_pct);
  EXPECT_EQ(resumed.stats.lambda, reference.stats.lambda);
  EXPECT_EQ(resumed.stats.final_distances, reference.stats.final_distances);
  EXPECT_EQ(resumed.stats.pretrain_epochs_run,
            reference.stats.pretrain_epochs_run);
  EXPECT_EQ(resumed.stats.finetune_epochs_run,
            reference.stats.finetune_epochs_run);
  std::filesystem::remove_all(dir);
}

TEST(KillAndResumeTest, FairwosIsBitIdenticalFromEitherPhase) {
  auto ds = ToyDataset();
  const FairwosRun reference = RunFairwos(ds, SmallFairwosConfig());
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
  // Deadline polls: one per encoder epoch (8), classifier pre-train epoch
  // (12) and fine-tune epoch (6). AfterChecks(n) expires at poll n + 1, so
  // n = 0..7 interrupts encoder epochs 0..7 (phase 3), n = 8..19 pre-train
  // epochs 0..11 (phase 1; n = 8 keeps the finished encoder's X⁰) and
  // n = 20..25 fine-tune epochs 0..5 (phase 2; n = 20 writes the all-zero
  // Dᵢ placeholder).
  for (int64_t checks = 0; checks <= 25; ++checks) {
    SCOPED_TRACE("checks=" + std::to_string(checks));
    ExpectFairwosResumeIdentical(
        ds, reference, checks,
        /*expected_phase=*/checks <= 7 ? 3 : (checks <= 19 ? 1 : 2));
  }
}

/// A temp directory private to the running test (ctest runs tests in
/// parallel processes).
std::string TestTempDir(const std::string& suffix) {
  const char* test =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  return TempDir(std::string("fw_resume_") + test + "_" + suffix);
}

/// The newest checkpoint of a Fairwos run interrupted after `checks` polls.
nn::TrainState InterruptedFairwosState(const data::Dataset& ds,
                                       int64_t checks) {
  const std::string dir = TestTempDir("source");
  core::FairwosConfig config = SmallFairwosConfig();
  config.checkpoint.dir = dir;
  config.deadline = common::Deadline::AfterChecks(checks);
  EXPECT_EQ(RunFairwos(ds, config).status.code(),
            common::StatusCode::kDeadlineExceeded);
  nn::CheckpointRotation rotation(dir, 3);
  auto loaded = rotation.LoadLatestValid();
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::filesystem::remove_all(dir);
  return loaded.ok() ? std::move(loaded).value() : nn::TrainState{};
}

/// Resumes Fairwos (`config`, default SmallFairwosConfig) from `st` alone
/// and returns the run's status.
common::Status ResumeFairwosFrom(
    const data::Dataset& ds, const nn::TrainState& st,
    core::FairwosConfig config = SmallFairwosConfig()) {
  const std::string dir = TestTempDir("tampered");
  EXPECT_TRUE(nn::CheckpointRotation(dir, 3).Save(st).ok());
  config.checkpoint.dir = dir;
  config.checkpoint.resume = true;
  const common::Status status = RunFairwos(ds, config).status;
  std::filesystem::remove_all(dir);
  return status;
}

TEST(KillAndResumeTest, FairwosRejectsBaselineCheckpoint) {
  auto ds = ToyDataset();
  nn::TrainState st = SampleState();
  st.phase = 0;
  EXPECT_EQ(ResumeFairwosFrom(ds, st).code(),
            common::StatusCode::kFailedPrecondition);
}

TEST(KillAndResumeTest, FairwosRejectsShortSections) {
  auto ds = ToyDataset();
  // Poll 4 is encoder epoch 3 (phase 3), poll 14 pre-train epoch 5
  // (phase 1), poll 23 fine-tune epoch 2 (phase 2).
  for (const auto& [checks, phase] :
       std::vector<std::pair<int64_t, int64_t>>{{3, 3}, {13, 1}, {22, 2}}) {
    const nn::TrainState st = InterruptedFairwosState(ds, checks);
    ASSERT_EQ(st.phase, phase);
    ASSERT_TRUE(ResumeFairwosFrom(ds, st).ok());
    for (int section = 0; section < 3; ++section) {
      SCOPED_TRACE("phase " + std::to_string(st.phase) + ", section " +
                   std::to_string(section));
      nn::TrainState short_st = st;
      if (section == 0) short_st.blobs.pop_back();
      if (section == 1) short_st.scalars.pop_back();
      if (section == 2) short_st.counters.pop_back();
      EXPECT_EQ(ResumeFairwosFrom(ds, short_st).code(),
                common::StatusCode::kFailedPrecondition);
    }
  }
}

TEST(KillAndResumeTest, FairwosRejectsMismatchedPseudoAttributes) {
  auto ds = ToyDataset();
  nn::TrainState st = InterruptedFairwosState(ds, /*checks=*/13);
  ASSERT_EQ(st.phase, 1);
  ASSERT_FALSE(st.blobs.empty());
  st.blobs[0].pop_back();  // X⁰ one value short of [N, num_attrs]
  EXPECT_EQ(ResumeFairwosFrom(ds, st).code(),
            common::StatusCode::kFailedPrecondition);
}

TEST(KillAndResumeTest, EncoderCheckpointNeedsTheSameEncoder) {
  auto ds = ToyDataset();
  const nn::TrainState st = InterruptedFairwosState(ds, /*checks=*/3);
  ASSERT_EQ(st.phase, 3);
  ASSERT_TRUE(ResumeFairwosFrom(ds, st).ok());
  core::FairwosConfig no_encoder = SmallFairwosConfig();
  no_encoder.use_encoder = false;
  EXPECT_EQ(ResumeFairwosFrom(ds, st, no_encoder).code(),
            common::StatusCode::kFailedPrecondition);
  core::FairwosConfig wider = SmallFairwosConfig();
  wider.encoder.out_dim += 2;
  EXPECT_EQ(ResumeFairwosFrom(ds, st, wider).code(),
            common::StatusCode::kFailedPrecondition);
}

TEST(KillAndResumeTest, BaselineRejectsEncoderCheckpoint) {
  auto ds = ToyDataset();
  const nn::TrainState st = InterruptedFairwosState(ds, /*checks=*/3);
  ASSERT_EQ(st.phase, 3);
  const std::string dir = TestTempDir("baseline");
  ASSERT_TRUE(nn::CheckpointRotation(dir, 3).Save(st).ok());
  baselines::TrainOptions options;
  options.epochs = 5;
  options.checkpoint.dir = dir;
  options.checkpoint.resume = true;
  common::Status status;
  RunBaseline(ds, options, &status);
  EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition);
  std::filesystem::remove_all(dir);
}

TEST(KillAndResumeTest, FairwosEmitsResumeTelemetry) {
  auto ds = ToyDataset();
  const std::string dir = TempDir("fw_resume_telemetry");
  core::FairwosConfig interrupted = SmallFairwosConfig();
  interrupted.checkpoint.dir = dir;
  interrupted.checkpoint.every = 3;
  interrupted.deadline = common::Deadline::AfterChecks(15);

  obs::CollectingSink sink;
  obs::SetEventSink(&sink);
  const FairwosRun broken = RunFairwos(ds, interrupted);
  obs::SetEventSink(nullptr);
  ASSERT_EQ(broken.status.code(), common::StatusCode::kDeadlineExceeded);
  bool saw_deadline = false, saw_save = false;
  for (const auto& event : sink.events()) {
    if (event.name() == "deadline_exceeded") {
      saw_deadline = true;
      EXPECT_EQ(event.GetString("reason"), "injected");
      EXPECT_EQ(event.GetString("checkpointed"), "1");
    }
    if (event.name() == "checkpoint_save") saw_save = true;
  }
  EXPECT_TRUE(saw_deadline);
  EXPECT_TRUE(saw_save);

  core::FairwosConfig resumed_config = SmallFairwosConfig();
  resumed_config.checkpoint.dir = dir;
  resumed_config.checkpoint.resume = true;
  obs::CollectingSink resume_sink;
  obs::SetEventSink(&resume_sink);
  const FairwosRun resumed = RunFairwos(ds, resumed_config);
  obs::SetEventSink(nullptr);
  ASSERT_TRUE(resumed.status.ok());
  bool saw_resume = false;
  for (const auto& event : resume_sink.events()) {
    if (event.name() == "resume") {
      saw_resume = true;
      EXPECT_FALSE(event.GetString("path").empty());
      EXPECT_EQ(event.GetString("phase"), "1");
    }
  }
  EXPECT_TRUE(saw_resume);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fairwos
