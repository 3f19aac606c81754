#include "baselines/fairgkd.h"

#include <numeric>

#include "common/stopwatch.h"
#include "fairness/metrics.h"
#include "nn/optim.h"
#include "tensor/ops.h"

namespace fairwos::baselines {
namespace {

/// Trains the feature-only MLP teacher and returns its soft predictions
/// (softmax probabilities) for every node.
common::Result<tensor::Tensor> TrainMlpTeacher(const FairGkdConfig& config,
                                               const TrainOptions& train,
                                               const data::Dataset& ds,
                                               common::Rng* rng) {
  nn::Mlp mlp({ds.num_attrs(), config.mlp_hidden, 2}, /*dropout=*/0.5f, rng);
  nn::Adam opt(mlp.parameters(), train.lr, 0.9f, 0.999f, 1e-8f,
               train.weight_decay);
  auto best_snapshot = nn::SnapshotParameters(mlp);
  double best_val = -1.0;
  int64_t since_best = 0;
  core::EpochLoop loop;
  loop.phase = {.name = "fairgkd_teacher",
                .span = "fairgkd/teacher_epoch",
                .label = "FairGKD MLP teacher"};
  loop.epochs = config.teacher_epochs;
  loop.deadline = &train.deadline;
  loop.recovery = train.recovery;
  loop.step = [&](obs::Event* event) {
    tensor::Tensor logits = mlp.Forward(ds.features, /*training=*/true, rng);
    tensor::Tensor loss =
        tensor::SoftmaxCrossEntropy(logits, ds.labels, ds.split.train);
    loss.Backward();
    const double loss_cls = loss.item();
    event->Set("loss_cls", loss_cls);
    return loss_cls;
  };
  loop.after_commit = [&](obs::Event* event) {
    tensor::NoGradGuard no_grad;
    const double val_acc = fairness::AccuracyPct(
        nn::PredictFromLogits(mlp.Forward(ds.features, /*training=*/false, rng))
            .pred,
        ds.labels, ds.split.val);
    event->Set("val_acc", val_acc);
    if (val_acc > best_val) {
      best_val = val_acc;
      best_snapshot = nn::SnapshotParameters(mlp);
      since_best = 0;
      return false;
    }
    return train.patience > 0 && ++since_best >= train.patience;
  };
  TrainDiagnostics diag;
  FW_RETURN_IF_ERROR(core::RunEpochs(loop, mlp, &opt, rng, &diag));
  nn::RestoreParameters(mlp, best_snapshot);
  tensor::NoGradGuard no_grad;
  return tensor::Softmax(mlp.Forward(ds.features, /*training=*/false, rng))
      .DetachCopy();
}

/// Trains the structure-only GNN teacher; soft predictions for all nodes.
common::Result<tensor::Tensor> TrainStructureTeacher(
    const FairGkdConfig& config, const TrainOptions& train,
    const nn::GnnConfig& backbone, const data::Dataset& ds,
    common::Rng* rng) {
  tensor::Tensor struct_features = StructureOnlyFeatures(ds.graph);
  nn::GnnConfig gnn = backbone;
  gnn.in_features = struct_features.dim(1);
  nn::GnnClassifier teacher(gnn, ds.graph, rng);
  const nn::PropagatedInput input = PropagateInput(teacher, struct_features);
  TrainOptions teacher_train = train;
  teacher_train.epochs = config.teacher_epochs;
  // The student's loop owns the checkpoint directory; the teacher is not
  // checkpointed.
  teacher_train.checkpoint = nn::CheckpointOptions{};
  const core::SplitRows val =
      core::GatherSplit(teacher, input, ds.labels, ds.split.val);
  FW_RETURN_IF_ERROR(TrainClassifier(teacher_train, ds, input, val,
                                     /*penalty=*/nullptr, &teacher, rng)
                         .status());
  tensor::NoGradGuard no_grad;
  return tensor::Softmax(teacher.Forward(input, /*training=*/false, rng))
      .DetachCopy();
}

}  // namespace

tensor::Tensor StructureOnlyFeatures(const graph::Graph& g) {
  const int64_t n = g.num_nodes();
  std::vector<float> features(static_cast<size_t>(n * 2));
  for (int64_t v = 0; v < n; ++v) {
    const double deg = static_cast<double>(g.Degree(v));
    double neighbor_deg = 0.0;
    for (int64_t u : g.Neighbors(v)) {
      neighbor_deg += static_cast<double>(g.Degree(u));
    }
    if (deg > 0.0) neighbor_deg /= deg;
    features[static_cast<size_t>(v * 2)] = static_cast<float>(deg);
    features[static_cast<size_t>(v * 2 + 1)] =
        static_cast<float>(neighbor_deg);
  }
  tensor::Tensor out = tensor::Tensor::FromVector({n, 2}, std::move(features));
  data::StandardizeColumns(&out);
  return out;
}

common::Result<std::unique_ptr<core::FittedModel>> FairGkdMethod::Fit(
    const data::Dataset& ds, uint64_t seed) {
  FW_RETURN_IF_ERROR(data::ValidateDataset(ds));
  if (config_.gamma < 0.0) {
    return common::Status::InvalidArgument("gamma must be non-negative");
  }
  common::Stopwatch watch;
  common::Rng rng(seed);

  // Stage 1: two partial-knowledge teachers.
  FW_ASSIGN_OR_RETURN(tensor::Tensor feature_soft,
                      TrainMlpTeacher(config_, train_, ds, &rng));
  FW_ASSIGN_OR_RETURN(tensor::Tensor structure_soft,
                      TrainStructureTeacher(config_, train_, gnn_, ds, &rng));
  // Averaged soft target.
  tensor::Tensor target;
  {
    tensor::NoGradGuard no_grad;
    target = tensor::MulScalar(tensor::Add(feature_soft, structure_soft), 0.5f)
                 .DetachCopy();
  }

  // Stage 2: distill into the student on all nodes.
  std::vector<int64_t> all_nodes(static_cast<size_t>(ds.num_nodes()));
  std::iota(all_nodes.begin(), all_nodes.end(), 0);
  const float gamma = static_cast<float>(config_.gamma);
  PenaltyFn penalty = [&target, &all_nodes, gamma](
                          const tensor::Tensor& /*h*/,
                          const tensor::Tensor& logits) {
    return tensor::MulScalar(
        tensor::SoftCrossEntropy(logits, target, all_nodes), gamma);
  };

  nn::GnnConfig gnn = gnn_;
  gnn.in_features = ds.num_attrs();
  nn::GnnClassifier student(gnn, ds.graph, &rng);
  FW_RETURN_IF_ERROR(
      TrainClassifier(train_, ds, ds.features, penalty, &student, &rng)
          .status());
  return core::MakeFittedGnn(
      std::move(student), core::FittedGnnModel::InputKind::kDatasetFeatures,
      tensor::Tensor(), {name(), ds.name, seed}, watch.Seconds());
}

}  // namespace fairwos::baselines
