// The FWCP checkpoint envelope and the durable crash-resume layer
// (docs/resume.md): full-training-state v3 checkpoints, rotating keep-N
// retention, and latest-valid selection.
//
// Envelope (little-endian, see docs/robustness.md):
//   u64  (magic "FWCP" << 32) | version
//   u64  payload byte size
//   u64  CRC-32 of the payload (zero-extended)
//   payload
//
// The v3 payload serializes a complete TrainState (see SaveTrainState for
// the field order); v4 is the frozen model artifact (serve/artifact.h).
//
// Robustness guarantees:
//   * Saves are atomic AND durable: the file is written to `<path>.tmp`,
//     flushed to stable storage (fsync of the file and its directory), and
//     renamed into place — a crash at any instant leaves either the old
//     checkpoint or the complete new one, never a torn file.
//   * Loads verify the header and the payload CRC before touching any
//     caller state; a truncated or bit-flipped file is rejected with a
//     precise Status. Load never FW_CHECK-aborts on malformed input.
//   * Both the save path and the read path carry fairwos::testing fault-
//     injection hooks (kCheckpointFlip / kCheckpointTruncate /
//     kCheckpointRead) so tests can prove the CRC catches disk and bus
//     corruption in either direction.
//
// Status codes returned by the load functions:
//   InvalidArgument     wrong magic or unsupported version
//   IoError             unreadable, truncated, size-mismatched, or
//                       CRC-mismatched (corrupt) file
//   FailedPrecondition  well-formed checkpoint whose parameter count or
//                       sizes do not match the model (CheckParamsCompatible)
#ifndef FAIRWOS_NN_CHECKPOINT_H_
#define FAIRWOS_NN_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "nn/module.h"
#include "nn/optim.h"

namespace fairwos::nn {

// --------------------------------------------------------------------------
// FWCP envelope — shared by all checkpoint-family codecs
// --------------------------------------------------------------------------

/// Envelope versions in use. v3 is implemented here; v4 is the frozen model
/// artifact (serve/artifact.h), which reuses the same envelope.
inline constexpr uint32_t kTrainStateCheckpointVersion = 3;
inline constexpr uint32_t kModelArtifactVersion = 4;

/// Writes `payload` to `path` inside the FWCP magic/size/CRC header,
/// atomically and durably (tmp file + fsync + rename + directory fsync).
/// Carries the kCheckpointFlip/kCheckpointTruncate write-path fault hooks.
common::Status WriteCheckpointEnvelope(const std::string& path,
                                       uint32_t version, std::string payload);

/// Reads and authenticates an FWCP file: validates the magic, the exact
/// `expected_version`, the size field, and the payload CRC before any byte
/// reaches the caller. Carries the kCheckpointRead read-path fault hook.
/// Errors follow the Status contract in the header comment above.
common::Status ReadCheckpointEnvelope(const std::string& path,
                                      uint32_t expected_version,
                                      std::string* payload);

/// Validates a snapshot (or any per-parameter float blob list) against a
/// module's parameters — count and per-tensor element count — so that
/// RestoreParameters (which FW_CHECK-aborts on mismatch) only ever sees
/// compatible data. `what` names the section in the error message.
common::Status CheckParamsCompatible(
    const std::vector<tensor::Tensor>& params,
    const std::vector<std::vector<float>>& saved, const char* what);

// --------------------------------------------------------------------------
// Durable crash-resume (docs/resume.md)
// --------------------------------------------------------------------------

/// The complete state of an interrupted training loop, serialized as a v3
/// checkpoint. Restoring every field at an epoch boundary makes the resumed
/// run bit-identical to an uninterrupted one: the module parameters, the
/// optimizer moments, the RNG stream, and the loop's own bookkeeping all
/// continue exactly where they stopped.
///
/// `params` carries the module parameters; `blobs`, `scalars`, and
/// `counters` are loop-defined sections (best-model snapshots, frozen
/// pseudo-attributes, early-stopping counters, ...) whose layout each
/// training loop documents at its pack/unpack site. The checkpoint layer
/// only guarantees their faithful round trip.
struct TrainState {
  /// Loop-defined phase id (core::TrainFairwos: 1 = classifier pre-train,
  /// 2 = fairness fine-tune; baselines::TrainClassifier: 0).
  int64_t phase = 0;
  /// Next epoch to run within the phase.
  int64_t epoch = 0;
  common::RngState rng;
  OptimizerState optimizer;
  std::vector<std::vector<float>> params;
  std::vector<std::vector<float>> blobs;
  std::vector<double> scalars;
  std::vector<int64_t> counters;
};

/// Writes `state` to `path` as a v3 checkpoint (atomic + durable, through
/// WriteCheckpointEnvelope).
common::Status SaveTrainState(const std::string& path,
                              const TrainState& state);

/// Reads a v3 checkpoint. `state` is written only on success.
common::Status LoadTrainState(const std::string& path, TrainState* state);

/// Rotating keep-N retention over a checkpoint directory. Files are named
/// `state-<seq>.fwck` with a strictly increasing sequence number that
/// survives process restarts (the directory is scanned on first use), so
/// "newest" is well defined even across crashes.
class CheckpointRotation {
 public:
  /// `keep` >= 1: how many most-recent checkpoints Save retains.
  CheckpointRotation(std::string dir, int64_t keep = 3);

  /// Writes `state` to the next slot, then prunes all but the newest
  /// `keep` checkpoints. Creates the directory if needed.
  common::Status Save(const TrainState& state);

  /// Loads the newest checkpoint that parses and passes its CRC. A damaged
  /// newer file falls back to the previous slot, emitting one
  /// `resume_fallback` telemetry event (and a `resume.fallbacks` counter
  /// tick) per rejected file. NotFound when the directory holds no valid
  /// checkpoint at all.
  common::Result<TrainState> LoadLatestValid();

  /// Path of the checkpoint LoadLatestValid returned; empty before a
  /// successful load. Diagnostic for logs and the `resume` event.
  const std::string& last_loaded_path() const { return last_loaded_path_; }

  /// Checkpoint files under `dir`, sorted oldest-first by sequence number.
  /// Non-checkpoint files are ignored.
  static std::vector<std::string> ListCheckpoints(const std::string& dir);

 private:
  std::string dir_;
  int64_t keep_;
  int64_t next_seq_ = -1;  // lazily initialised from the directory listing
  std::string last_loaded_path_;
};

/// Crash-resume knobs shared by every resumable training loop
/// (core::FairwosConfig, core::TrainOptions).
struct CheckpointOptions {
  /// Directory for rotating TrainState checkpoints; empty disables the
  /// whole subsystem (zero overhead on the training loop).
  std::string dir;
  /// Save every N completed epochs; <= 0 saves only the graceful final
  /// checkpoint written when a Deadline expires.
  int64_t every = 0;
  /// Rotation depth passed to CheckpointRotation.
  int64_t keep = 3;
  /// Resume from the latest valid checkpoint in `dir` before training; a
  /// fresh start when the directory holds none.
  bool resume = false;

  bool enabled() const { return !dir.empty(); }
};

}  // namespace fairwos::nn

#endif  // FAIRWOS_NN_CHECKPOINT_H_
