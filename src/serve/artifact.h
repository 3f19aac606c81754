// The frozen-model artifact (`.fwmodel`): everything needed to reconstruct
// a FittedGnnModel for serving, serialized as a v4 FWCP envelope — the same
// magic/CRC/atomic-rename layer as the v3 training checkpoints
// (common/durable_file.h), so corruption detection and the fault-injection
// hooks come for free. See docs/serving.md.
//
// Format v4 payload (little-endian, after the FWCP header):
//   string  model id
//   string  provenance: method name
//   string  provenance: dataset name
//   u64     provenance: fit seed
//   u64 backbone, u64 in_features, u64 hidden, u64 num_layers,
//   u64 num_classes, f32 dropout, f32 gin_eps, u64 sage_normalize,
//   u64 gat_heads, f32 gat_negative_slope          (GnnConfig)
//   u64     parameter count; per parameter: u64 count + float32 data
//   u64 count + float32 data                       (input column means)
//   u64 count + float32 data                       (input column stddevs)
//   u64     input kind (0 = dataset features, 1 = frozen matrix)
//   if frozen: u64 rows, u64 cols, float32 data
//   u64     frozen input doubles as pseudo-sensitive attributes (0/1)
#ifndef FAIRWOS_SERVE_ARTIFACT_H_
#define FAIRWOS_SERVE_ARTIFACT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fitted.h"
#include "data/dataset.h"

namespace fairwos::serve {

/// In-memory form of a `.fwmodel` file.
struct ModelArtifact {
  /// Stable identifier used for cache keys and telemetry; defaults to
  /// "<method>:<dataset>:<seed>" (DefaultModelId).
  std::string model_id;
  core::FittedGnnModel::Provenance provenance;
  nn::GnnConfig gnn;
  /// Flattened parameter tensors, in Module::parameters() order.
  std::vector<std::vector<float>> params;
  /// Per-column mean/stddev of the matrix the model predicts from. For
  /// kDatasetFeatures models these are the serving-side compatibility
  /// check: a dataset whose feature statistics drift from the fit-time
  /// ones is rejected at restore (validation only — features are never
  /// re-normalized, preserving bit-identity with the in-process model).
  std::vector<float> input_mean;
  std::vector<float> input_std;
  core::FittedGnnModel::InputKind input_kind =
      core::FittedGnnModel::InputKind::kDatasetFeatures;
  /// Defined iff input_kind == kFrozen.
  tensor::Tensor frozen_input;
  /// True when the frozen input is the encoder's X⁰ and should be exposed
  /// as PredictionResult::pseudo_sens.
  bool input_is_pseudo_sens = false;
};

/// "<method>:<dataset>:<seed>" — the default model id.
std::string DefaultModelId(const core::FittedGnnModel::Provenance& p);

/// Per-column mean and population stddev of a [N, F] matrix.
void ComputeColumnStats(const tensor::Tensor& x, std::vector<float>* mean,
                        std::vector<float>* stddev);

/// Captures a fitted model as an artifact. `ds` supplies the input matrix
/// statistics for kDatasetFeatures models; it must be the dataset the model
/// was fit on. `model_id` empty picks DefaultModelId.
ModelArtifact MakeArtifact(const core::FittedGnnModel& model,
                           const data::Dataset& ds,
                           const std::string& model_id = "");

/// Writes the artifact to `path` as a v4 FWCP file (atomic + durable).
common::Status SaveModelArtifact(const std::string& path,
                                 const ModelArtifact& artifact);

/// Reads and authenticates a v4 FWCP file. Errors follow the checkpoint
/// Status contract: InvalidArgument for a wrong magic/version, IoError for
/// truncation or CRC mismatch or a malformed payload.
common::Result<ModelArtifact> LoadModelArtifact(const std::string& path);

/// Reconstructs the servable model against `ds` (which supplies the graph
/// and, for kDatasetFeatures artifacts, the input matrix). Validates the
/// parameter shapes and — for kDatasetFeatures — the dataset's column
/// statistics against the artifact before touching any model state;
/// FailedPrecondition when they do not match.
common::Result<std::unique_ptr<core::FittedGnnModel>> RestoreFittedModel(
    const ModelArtifact& artifact, const data::Dataset& ds);

}  // namespace fairwos::serve

#endif  // FAIRWOS_SERVE_ARTIFACT_H_
