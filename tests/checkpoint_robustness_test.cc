// Corruption-resistance tests for the FWCP envelope and the v3 TrainState
// payload: every class of file damage (truncation, wrong magic/version,
// flipped payload bit, size lies) must be rejected with the documented
// Status code, must never FW_CHECK-abort, and must leave the caller's state
// untouched. A well-formed file for another architecture is rejected by
// CheckParamsCompatible before any parameter is restored.
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "nn/checkpoint.h"
#include "nn/gnn.h"

namespace fairwos::nn {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

GnnClassifier MakeModel(uint64_t seed, int64_t hidden = 4) {
  common::Rng rng(seed);
  graph::Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  GnnConfig config;
  config.in_features = 3;
  config.hidden = hidden;
  return GnnClassifier(config, g, &rng);
}

/// A TrainState carrying a real model's parameters and every loop-defined
/// section, so the corruption sweeps cover each field of the v3 payload.
TrainState MakeState(uint64_t seed, int64_t hidden = 4) {
  TrainState state;
  state.phase = 2;
  state.epoch = 17;
  common::Rng rng(seed);
  rng.Normal();
  state.rng = rng.SaveState();
  state.optimizer.lr = 0.01f;
  state.optimizer.max_grad_norm = 5.0f;
  state.optimizer.step_count = 3;
  state.params = SnapshotParameters(MakeModel(seed, hidden));
  state.optimizer.moment1 = state.params;
  state.optimizer.moment2 = state.params;
  state.blobs = {{1.0f, 2.0f, 3.0f}};
  state.scalars = {0.5, -1.25};
  state.counters = {4, -1};
  return state;
}

bool StatesEqual(const TrainState& a, const TrainState& b) {
  return a.phase == b.phase && a.epoch == b.epoch && a.rng == b.rng &&
         a.optimizer.lr == b.optimizer.lr &&
         a.optimizer.max_grad_norm == b.optimizer.max_grad_norm &&
         a.optimizer.step_count == b.optimizer.step_count &&
         a.optimizer.moment1 == b.optimizer.moment1 &&
         a.optimizer.moment2 == b.optimizer.moment2 && a.params == b.params &&
         a.blobs == b.blobs && a.scalars == b.scalars &&
         a.counters == b.counters;
}

int64_t FileSize(const std::string& path) {
  return static_cast<int64_t>(std::filesystem::file_size(path));
}

class CheckpointRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // PID-qualified so concurrently running test processes (ctest -j) never
    // clobber each other's checkpoint file.
    path_ = TempPath("fw_ckpt_robust_test." +
                     std::to_string(::getpid()) + ".bin");
    std::filesystem::remove(path_);
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".tmp");
  }

  /// Loads `path_` into a pre-filled state and asserts the load fails with
  /// `expected_code` without writing to that state.
  void ExpectLoadRejected(common::StatusCode expected_code) {
    const TrainState before = MakeState(5);
    TrainState state = before;
    const common::Status status = LoadTrainState(path_, &state);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), expected_code) << status.ToString();
    EXPECT_TRUE(StatesEqual(state, before))
        << "a failed load wrote to the caller's state";
  }

  /// Saves a state, applies `corrupt`, then expects the load to fail.
  void ExpectRejected(const std::function<void(const std::string&)>& corrupt,
                      common::StatusCode expected_code) {
    ASSERT_TRUE(SaveTrainState(path_, MakeState(1)).ok());
    corrupt(path_);
    ExpectLoadRejected(expected_code);
  }

  std::string path_;
};

TEST_F(CheckpointRobustnessTest, RoundTripStillWorks) {
  const TrainState saved = MakeState(1);
  ASSERT_TRUE(SaveTrainState(path_, saved).ok());
  TrainState loaded = MakeState(2);
  ASSERT_TRUE(LoadTrainState(path_, &loaded).ok());
  EXPECT_TRUE(StatesEqual(saved, loaded));
  // Atomic write: no stale temp file is left behind.
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(CheckpointRobustnessTest, TruncatedFileIsIoError) {
  ExpectRejected(
      [](const std::string& p) {
        ASSERT_TRUE(
            testing::FaultInjector::Truncate(p, FileSize(p) / 2).ok());
      },
      common::StatusCode::kIoError);
}

TEST_F(CheckpointRobustnessTest, TruncatedInsideHeaderIsIoError) {
  ExpectRejected(
      [](const std::string& p) {
        ASSERT_TRUE(testing::FaultInjector::Truncate(p, 10).ok());
      },
      common::StatusCode::kIoError);
}

TEST_F(CheckpointRobustnessTest, WrongMagicIsInvalidArgument) {
  ExpectRejected(
      [](const std::string& p) {
        // The magic lives in the high half of the first u64 (little-endian:
        // bytes 4-7).
        ASSERT_TRUE(testing::FaultInjector::FlipByte(p, 5, 0xFF).ok());
      },
      common::StatusCode::kInvalidArgument);
}

TEST_F(CheckpointRobustnessTest, WrongVersionIsInvalidArgument) {
  ExpectRejected(
      [](const std::string& p) {
        // The version lives in the low half of the first u64 (bytes 0-3).
        ASSERT_TRUE(testing::FaultInjector::FlipByte(p, 0, 0x40).ok());
      },
      common::StatusCode::kInvalidArgument);
}

TEST_F(CheckpointRobustnessTest, FlippedPayloadByteIsIoError) {
  ExpectRejected(
      [](const std::string& p) {
        // Deep inside the payload: a value of the last section.
        ASSERT_TRUE(
            testing::FaultInjector::FlipByte(p, FileSize(p) - 3, 0x10).ok());
      },
      common::StatusCode::kIoError);
}

TEST_F(CheckpointRobustnessTest, FlippedSizeFieldIsIoErrorNotHugeAlloc) {
  ExpectRejected(
      [](const std::string& p) {
        // High byte of the payload-size field (bytes 8-15): the header now
        // promises an absurd payload. Load must reject it from the file
        // size alone, not attempt the allocation.
        ASSERT_TRUE(testing::FaultInjector::FlipByte(p, 14, 0x80).ok());
      },
      common::StatusCode::kIoError);
}

TEST_F(CheckpointRobustnessTest, ShapeMismatchIsFailedPrecondition) {
  // The file is well-formed, so it loads; restoring it into a wider model
  // is refused by CheckParamsCompatible before RestoreParameters could
  // abort on the size mismatch.
  ASSERT_TRUE(SaveTrainState(path_, MakeState(1, /*hidden=*/4)).ok());
  TrainState loaded;
  ASSERT_TRUE(LoadTrainState(path_, &loaded).ok());
  const common::Status status = CheckParamsCompatible(
      MakeModel(2, /*hidden=*/8).parameters(), loaded.params, "params");
  EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition)
      << status.ToString();
  EXPECT_TRUE(CheckParamsCompatible(MakeModel(3).parameters(), loaded.params,
                                    "params")
                  .ok());
}

TEST_F(CheckpointRobustnessTest, GarbageFileIsRejectedWithoutAbort) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "definitely not a checkpoint, but long enough for a header";
  }
  ExpectLoadRejected(common::StatusCode::kInvalidArgument);
}

TEST_F(CheckpointRobustnessTest, FaultInjectedBitFlipDuringSaveIsCaught) {
  ::fairwos::testing::FaultInjector injector(7);
  injector.Arm(::fairwos::testing::FaultSite::kCheckpointFlip, 0);
  {
    ::fairwos::testing::ScopedFaultInjector scoped(&injector);
    ASSERT_TRUE(SaveTrainState(path_, MakeState(1)).ok());
  }
  EXPECT_EQ(injector.fires(::fairwos::testing::FaultSite::kCheckpointFlip), 1);
  // The save wrote corrupt bytes; the CRC computed from the intended bytes
  // must expose that at load time.
  ExpectLoadRejected(common::StatusCode::kIoError);
}

TEST_F(CheckpointRobustnessTest, FaultInjectedTruncationDuringSaveIsCaught) {
  ::fairwos::testing::FaultInjector injector(7);
  injector.Arm(::fairwos::testing::FaultSite::kCheckpointTruncate, 0);
  {
    ::fairwos::testing::ScopedFaultInjector scoped(&injector);
    ASSERT_TRUE(SaveTrainState(path_, MakeState(1)).ok());
  }
  EXPECT_EQ(
      injector.fires(::fairwos::testing::FaultSite::kCheckpointTruncate), 1);
  ExpectLoadRejected(common::StatusCode::kIoError);
}

TEST_F(CheckpointRobustnessTest, EveryByteFlipIsRejectedOrRoundTrips) {
  // Exhaustive single-bit-flip sweep over a small checkpoint: no flip may
  // crash the loader or silently load a wrong state. A flip is either
  // rejected, or (in the unused high half of the zero-extended CRC field)
  // harmless, and then the state must round-trip exactly.
  const TrainState reference = MakeState(1);
  ASSERT_TRUE(SaveTrainState(path_, reference).ok());
  const int64_t size = FileSize(path_);
  const TrainState before = MakeState(9);
  for (int64_t offset = 0; offset < size; ++offset) {
    ASSERT_TRUE(testing::FaultInjector::FlipByte(path_, offset, 0x04).ok());
    TrainState victim = before;
    const common::Status status = LoadTrainState(path_, &victim);
    if (status.ok()) {
      EXPECT_TRUE(StatesEqual(victim, reference))
          << "flip at " << offset << " loaded a silently-corrupt state";
    } else {
      EXPECT_TRUE(StatesEqual(victim, before))
          << "flip at " << offset << " wrote to the state on error";
    }
    // Restore the original byte for the next iteration.
    ASSERT_TRUE(testing::FaultInjector::FlipByte(path_, offset, 0x04).ok());
  }
}

TEST_F(CheckpointRobustnessTest, UnwritableDirectoryIsIoError) {
  auto status = SaveTrainState("/nonexistent-dir/ckpt.bin", MakeState(1));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kIoError);
}

}  // namespace
}  // namespace fairwos::nn
