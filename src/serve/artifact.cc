#include "serve/artifact.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/durable_file.h"
#include "common/fault.h"
#include "nn/checkpoint.h"

namespace fairwos::serve {
namespace {

common::Status Malformed(const std::string& path, const char* what) {
  return common::Status::IoError("model artifact " + path +
                                 ": malformed payload (" + what + ")");
}

}  // namespace

std::string DefaultModelId(const core::FittedGnnModel::Provenance& p) {
  return p.method + ":" + p.dataset + ":" + std::to_string(p.seed);
}

void ComputeColumnStats(const tensor::Tensor& x, std::vector<float>* mean,
                        std::vector<float>* stddev) {
  FW_CHECK_EQ(x.rank(), 2);
  const int64_t n = x.dim(0), f = x.dim(1);
  mean->assign(static_cast<size_t>(f), 0.0f);
  stddev->assign(static_cast<size_t>(f), 0.0f);
  if (n == 0) return;
  for (int64_t j = 0; j < f; ++j) {
    double sum = 0.0, sum_sq = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      const double v = x.at(i, j);
      sum += v;
      sum_sq += v * v;
    }
    const double mu = sum / static_cast<double>(n);
    const double var =
        std::max(0.0, sum_sq / static_cast<double>(n) - mu * mu);
    (*mean)[static_cast<size_t>(j)] = static_cast<float>(mu);
    (*stddev)[static_cast<size_t>(j)] = static_cast<float>(std::sqrt(var));
  }
}

ModelArtifact MakeArtifact(const core::FittedGnnModel& model,
                           const data::Dataset& ds,
                           const std::string& model_id) {
  ModelArtifact artifact;
  artifact.provenance = model.provenance();
  artifact.model_id =
      model_id.empty() ? DefaultModelId(artifact.provenance) : model_id;
  artifact.gnn = model.classifier().encoder().config();
  for (const auto& p : model.classifier().parameters()) {
    artifact.params.emplace_back(p.data().begin(), p.data().end());
  }
  artifact.input_kind = model.input_kind();
  const tensor::Tensor& input = model.ResolveInput(ds);
  ComputeColumnStats(input, &artifact.input_mean, &artifact.input_std);
  if (artifact.input_kind == core::FittedGnnModel::InputKind::kFrozen) {
    artifact.frozen_input = model.frozen_input();
    artifact.input_is_pseudo_sens = model.pseudo_sens().defined();
  }
  return artifact;
}

common::Status SaveModelArtifact(const std::string& path,
                                 const ModelArtifact& artifact) {
  std::string payload;
  common::AppendString(&payload, artifact.model_id);
  common::AppendString(&payload, artifact.provenance.method);
  common::AppendString(&payload, artifact.provenance.dataset);
  common::AppendU64(&payload, artifact.provenance.seed);

  const nn::GnnConfig& gnn = artifact.gnn;
  common::AppendU64(&payload, static_cast<uint64_t>(gnn.backbone));
  common::AppendU64(&payload, static_cast<uint64_t>(gnn.in_features));
  common::AppendU64(&payload, static_cast<uint64_t>(gnn.hidden));
  common::AppendU64(&payload, static_cast<uint64_t>(gnn.num_layers));
  common::AppendU64(&payload, static_cast<uint64_t>(gnn.num_classes));
  common::AppendF32(&payload, gnn.dropout);
  common::AppendF32(&payload, gnn.gin_eps);
  common::AppendU64(&payload, gnn.sage_normalize ? 1 : 0);
  common::AppendU64(&payload, static_cast<uint64_t>(gnn.gat_heads));
  common::AppendF32(&payload, gnn.gat_negative_slope);

  common::AppendU64(&payload, artifact.params.size());
  for (const auto& p : artifact.params) {
    common::AppendU64(&payload, p.size());
    common::AppendFloats(&payload, p);
  }
  common::AppendU64(&payload, artifact.input_mean.size());
  common::AppendFloats(&payload, artifact.input_mean);
  common::AppendU64(&payload, artifact.input_std.size());
  common::AppendFloats(&payload, artifact.input_std);

  const bool frozen =
      artifact.input_kind == core::FittedGnnModel::InputKind::kFrozen;
  common::AppendU64(&payload, frozen ? 1 : 0);
  if (frozen) {
    FW_CHECK(artifact.frozen_input.defined());
    FW_CHECK_EQ(artifact.frozen_input.rank(), 2);
    common::AppendU64(&payload,
                      static_cast<uint64_t>(artifact.frozen_input.dim(0)));
    common::AppendU64(&payload,
                      static_cast<uint64_t>(artifact.frozen_input.dim(1)));
    common::AppendFloats(&payload, artifact.frozen_input.data());
  }
  common::AppendU64(&payload, artifact.input_is_pseudo_sens ? 1 : 0);

  return common::WriteCheckpointEnvelope(path, common::kModelArtifactVersion,
                                         std::move(payload));
}

common::Result<ModelArtifact> LoadModelArtifact(const std::string& path) {
  // Fault-injection site modelling a failed artifact mapping (mmap/read
  // error after the file opened). Fired before any byte is parsed, so a
  // registry Swap that hits it must leave the old model fully in place.
  if (auto* fi = testing::ActiveFaultInjector();
      fi != nullptr && fi->ShouldFire(testing::FaultSite::kServeArtifactMmap)) {
    return common::Status::IoError("model artifact " + path +
                                   ": injected mmap fault");
  }
  std::string payload;
  FW_RETURN_IF_ERROR(common::ReadCheckpointEnvelope(
      path, common::kModelArtifactVersion, &payload));
  common::PayloadReader reader(payload);

  ModelArtifact artifact;
  if (!reader.ReadString(&artifact.model_id) ||
      !reader.ReadString(&artifact.provenance.method) ||
      !reader.ReadString(&artifact.provenance.dataset) ||
      !reader.ReadU64(&artifact.provenance.seed)) {
    return Malformed(path, "identity section");
  }

  uint64_t backbone = 0, in_features = 0, hidden = 0, num_layers = 0;
  uint64_t num_classes = 0, sage_normalize = 0, gat_heads = 0;
  nn::GnnConfig& gnn = artifact.gnn;
  if (!reader.ReadU64(&backbone) || !reader.ReadU64(&in_features) ||
      !reader.ReadU64(&hidden) || !reader.ReadU64(&num_layers) ||
      !reader.ReadU64(&num_classes) || !reader.ReadF32(&gnn.dropout) ||
      !reader.ReadF32(&gnn.gin_eps) || !reader.ReadU64(&sage_normalize) ||
      !reader.ReadU64(&gat_heads) || !reader.ReadF32(&gnn.gat_negative_slope)) {
    return Malformed(path, "config section");
  }
  if (backbone > static_cast<uint64_t>(nn::Backbone::kGat)) {
    return Malformed(path, "unknown backbone");
  }
  gnn.backbone = static_cast<nn::Backbone>(backbone);
  gnn.in_features = static_cast<int64_t>(in_features);
  gnn.hidden = static_cast<int64_t>(hidden);
  gnn.num_layers = static_cast<int64_t>(num_layers);
  gnn.num_classes = static_cast<int64_t>(num_classes);
  gnn.sage_normalize = sage_normalize != 0;
  gnn.gat_heads = static_cast<int64_t>(gat_heads);
  if (gnn.in_features <= 0 || gnn.hidden <= 0 || gnn.num_layers <= 0 ||
      gnn.num_classes <= 0) {
    return Malformed(path, "non-positive model dimension");
  }

  uint64_t param_count = 0;
  if (!reader.ReadU64(&param_count)) return Malformed(path, "parameter count");
  artifact.params.resize(param_count);
  for (auto& p : artifact.params) {
    if (!reader.ReadSizedFloats(&p)) return Malformed(path, "parameter data");
  }
  if (!reader.ReadSizedFloats(&artifact.input_mean) ||
      !reader.ReadSizedFloats(&artifact.input_std)) {
    return Malformed(path, "input statistics");
  }
  if (artifact.input_mean.size() != artifact.input_std.size() ||
      artifact.input_mean.size() != static_cast<size_t>(gnn.in_features)) {
    return Malformed(path, "input statistics size");
  }

  uint64_t frozen = 0;
  if (!reader.ReadU64(&frozen)) return Malformed(path, "input kind");
  artifact.input_kind = frozen != 0
                            ? core::FittedGnnModel::InputKind::kFrozen
                            : core::FittedGnnModel::InputKind::kDatasetFeatures;
  if (frozen != 0) {
    uint64_t rows = 0, cols = 0;
    if (!reader.ReadU64(&rows) || !reader.ReadU64(&cols)) {
      return Malformed(path, "frozen input shape");
    }
    // Divide instead of multiplying so a corrupt row count can't overflow.
    if (cols != static_cast<uint64_t>(gnn.in_features) ||
        rows > (reader.remaining() / sizeof(float)) / cols) {
      return Malformed(path, "frozen input size");
    }
    std::vector<float> values(rows * cols);
    if (!reader.ReadFloats(&values)) return Malformed(path, "frozen input");
    artifact.frozen_input = tensor::Tensor::FromVector(
        {static_cast<int64_t>(rows), static_cast<int64_t>(cols)},
        std::move(values));
  }
  uint64_t pseudo = 0;
  if (!reader.ReadU64(&pseudo)) return Malformed(path, "pseudo-sens flag");
  artifact.input_is_pseudo_sens = pseudo != 0;
  if (!reader.exhausted()) return Malformed(path, "trailing bytes");
  return artifact;
}

common::Result<std::unique_ptr<core::FittedGnnModel>> RestoreFittedModel(
    const ModelArtifact& artifact, const data::Dataset& ds) {
  // Construct the skeleton first: its parameters define the expected
  // shapes. The seed is irrelevant — every weight is overwritten.
  common::Rng rng(0);
  nn::GnnClassifier model(artifact.gnn, ds.graph, &rng);
  FW_RETURN_IF_ERROR(nn::CheckParamsCompatible(
      model.parameters(), artifact.params, "model artifact"));

  const bool frozen =
      artifact.input_kind == core::FittedGnnModel::InputKind::kFrozen;
  if (frozen) {
    if (!artifact.frozen_input.defined() ||
        artifact.frozen_input.dim(0) != ds.num_nodes()) {
      return common::Status::FailedPrecondition(
          "model artifact frozen input has " +
          std::to_string(artifact.frozen_input.defined()
                             ? artifact.frozen_input.dim(0)
                             : 0) +
          " rows but the dataset has " + std::to_string(ds.num_nodes()) +
          " nodes");
    }
  } else {
    if (ds.features.dim(1) != artifact.gnn.in_features) {
      return common::Status::FailedPrecondition(
          "dataset has " + std::to_string(ds.features.dim(1)) +
          " features but the model artifact expects " +
          std::to_string(artifact.gnn.in_features));
    }
    // Validate — never re-normalize — the serving dataset's statistics
    // against the fit-time ones. A drifted dataset would silently produce
    // garbage predictions; bit-identity with the in-process model requires
    // the features pass through untouched.
    std::vector<float> mean, stddev;
    ComputeColumnStats(ds.features, &mean, &stddev);
    constexpr float kTol = 1e-3f;
    for (size_t j = 0; j < mean.size(); ++j) {
      if (std::fabs(mean[j] - artifact.input_mean[j]) > kTol ||
          std::fabs(stddev[j] - artifact.input_std[j]) > kTol) {
        return common::Status::FailedPrecondition(
            "dataset normalization stats do not match the model artifact "
            "(column " +
            std::to_string(j) + ")");
      }
    }
  }

  nn::RestoreParameters(model, artifact.params);
  auto fitted = std::make_unique<core::FittedGnnModel>(
      std::move(model), artifact.input_kind, artifact.frozen_input,
      artifact.provenance);
  if (artifact.input_is_pseudo_sens) {
    fitted->set_pseudo_sens(artifact.frozen_input);
  }
  return fitted;
}

}  // namespace fairwos::serve
