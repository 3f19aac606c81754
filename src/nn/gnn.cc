#include "nn/gnn.h"

#include "common/trace.h"
#include "nn/init.h"
#include "tensor/ops.h"

namespace fairwos::nn {

common::Result<Backbone> ParseBackbone(const std::string& name) {
  if (name == "gcn") return Backbone::kGcn;
  if (name == "gin") return Backbone::kGin;
  if (name == "sage") return Backbone::kSage;
  if (name == "gat") return Backbone::kGat;
  return common::Status::InvalidArgument("unknown backbone: " + name);
}

const char* BackboneName(Backbone backbone) {
  switch (backbone) {
    case Backbone::kGcn:
      return "gcn";
    case Backbone::kGin:
      return "gin";
    case Backbone::kSage:
      return "sage";
    case Backbone::kGat:
      return "gat";
  }
  return "?";
}

std::shared_ptr<const tensor::SparseMatrix> AdjacencyForBackbone(
    Backbone backbone, const graph::Graph& g) {
  switch (backbone) {
    case Backbone::kGcn:
      return g.GcnNormalizedAdjacency();
    case Backbone::kGin:
      return g.PlainAdjacency();
    case Backbone::kSage:
      return g.NeighborMeanAdjacency();
    case Backbone::kGat:
      return g.AdjacencyWithSelfLoops();
  }
  return nullptr;
}

GcnConv::GcnConv(int64_t in_features, int64_t out_features, common::Rng* rng)
    : linear_(in_features, out_features, rng) {
  RegisterSubmodule(linear_);
}

tensor::Tensor GcnConv::Forward(
    const std::shared_ptr<const tensor::SparseMatrix>& adj_norm,
    const tensor::Tensor& x) const {
  FW_TRACE_SPAN("gcn_conv/forward");
  return linear_.Forward(tensor::SpMM(adj_norm, x));
}

tensor::Tensor GcnConv::Transform(const tensor::Tensor& aggregated) const {
  FW_TRACE_SPAN("gcn_conv/forward");
  return linear_.Forward(aggregated);
}

GinConv::GinConv(int64_t in_features, int64_t out_features, float eps,
                 common::Rng* rng)
    : mlp_({in_features, out_features, out_features}, /*dropout=*/0.0f, rng),
      eps_(eps) {
  RegisterSubmodule(mlp_);
}

tensor::Tensor GinConv::Forward(
    const std::shared_ptr<const tensor::SparseMatrix>& adj_plain,
    const tensor::Tensor& x, bool training, common::Rng* rng) const {
  FW_TRACE_SPAN("gin_conv/forward");
  return mlp_.Forward(Aggregate(adj_plain, x), training, rng);
}

tensor::Tensor GinConv::Aggregate(
    const std::shared_ptr<const tensor::SparseMatrix>& adj_plain,
    const tensor::Tensor& x) const {
  tensor::Tensor aggregated = tensor::SpMM(adj_plain, x);
  tensor::Tensor self = tensor::MulScalar(x, 1.0f + eps_);
  return tensor::Add(self, aggregated);
}

tensor::Tensor GinConv::Transform(const tensor::Tensor& aggregated,
                                  bool training, common::Rng* rng) const {
  FW_TRACE_SPAN("gin_conv/forward");
  return mlp_.Forward(aggregated, training, rng);
}

SageConv::SageConv(int64_t in_features, int64_t out_features, bool normalize,
                   common::Rng* rng)
    : self_linear_(in_features, out_features, rng),
      neighbor_linear_(in_features, out_features, rng),
      normalize_(normalize) {
  RegisterSubmodule(self_linear_);
  RegisterSubmodule(neighbor_linear_);
}

tensor::Tensor SageConv::Forward(
    const std::shared_ptr<const tensor::SparseMatrix>& neighbor_mean,
    const tensor::Tensor& x) const {
  return Transform(x, tensor::SpMM(neighbor_mean, x));
}

tensor::Tensor SageConv::Transform(const tensor::Tensor& x,
                                   const tensor::Tensor& aggregated) const {
  tensor::Tensor out = tensor::Add(self_linear_.Forward(x),
                                   neighbor_linear_.Forward(aggregated));
  return normalize_ ? tensor::L2NormalizeRows(out) : out;
}

GatConv::GatConv(int64_t in_features, int64_t out_features, int64_t heads,
                 float negative_slope, common::Rng* rng)
    : negative_slope_(negative_slope) {
  FW_CHECK_GE(heads, 1);
  FW_CHECK_EQ(out_features % heads, 0)
      << "GAT: out_features must be divisible by heads";
  const int64_t per_head = out_features / heads;
  for (int64_t h = 0; h < heads; ++h) {
    Head head{Linear(in_features, per_head, rng),
              GlorotUniform(per_head, 1, rng), GlorotUniform(per_head, 1, rng)};
    heads_.push_back(std::move(head));
  }
  for (auto& head : heads_) {
    RegisterSubmodule(head.linear);
    head.att_dst = RegisterParameter(head.att_dst);
    head.att_src = RegisterParameter(head.att_src);
  }
}

tensor::Tensor GatConv::Forward(
    const std::shared_ptr<const tensor::SparseMatrix>& adj_self_loops,
    const tensor::Tensor& x) const {
  std::vector<tensor::Tensor> outputs;
  outputs.reserve(heads_.size());
  const int64_t n = x.dim(0);
  for (const auto& head : heads_) {
    tensor::Tensor z = head.linear.Forward(x);  // [N, per_head]
    tensor::Tensor dst_score =
        tensor::Reshape(tensor::MatMul(z, head.att_dst), {n});
    tensor::Tensor src_score =
        tensor::Reshape(tensor::MatMul(z, head.att_src), {n});
    outputs.push_back(tensor::GatAggregate(adj_self_loops, dst_score,
                                           src_score, z, negative_slope_));
  }
  return outputs.size() == 1 ? outputs[0] : tensor::Concat(outputs, /*axis=*/1);
}

GnnEncoder::GnnEncoder(const GnnConfig& config, const graph::Graph& g,
                       common::Rng* rng)
    : config_(config) {
  FW_CHECK_GT(config.in_features, 0);
  FW_CHECK_GT(config.hidden, 0);
  FW_CHECK_GE(config.num_layers, 1);
  int64_t in = config.in_features;
  switch (config.backbone) {
    case Backbone::kGcn:
      adj_ = g.GcnNormalizedAdjacency();
      for (int64_t l = 0; l < config.num_layers; ++l) {
        gcn_layers_.emplace_back(in, config.hidden, rng);
        in = config.hidden;
      }
      for (const auto& layer : gcn_layers_) RegisterSubmodule(layer);
      break;
    case Backbone::kGin:
      adj_ = g.PlainAdjacency();
      for (int64_t l = 0; l < config.num_layers; ++l) {
        gin_layers_.emplace_back(in, config.hidden, config.gin_eps, rng);
        in = config.hidden;
      }
      for (const auto& layer : gin_layers_) RegisterSubmodule(layer);
      break;
    case Backbone::kSage:
      adj_ = g.NeighborMeanAdjacency();
      for (int64_t l = 0; l < config.num_layers; ++l) {
        sage_layers_.emplace_back(in, config.hidden, config.sage_normalize,
                                  rng);
        in = config.hidden;
      }
      for (const auto& layer : sage_layers_) RegisterSubmodule(layer);
      break;
    case Backbone::kGat:
      adj_ = g.AdjacencyWithSelfLoops();
      for (int64_t l = 0; l < config.num_layers; ++l) {
        gat_layers_.emplace_back(in, config.hidden, config.gat_heads,
                                 config.gat_negative_slope, rng);
        in = config.hidden;
      }
      for (const auto& layer : gat_layers_) RegisterSubmodule(layer);
      break;
  }
}

tensor::Tensor GnnEncoder::Forward(const tensor::Tensor& x, bool training,
                                   common::Rng* rng) const {
  return Forward(Propagate(x), training, rng);
}

tensor::Tensor GnnEncoder::ForwardWith(
    const std::shared_ptr<const tensor::SparseMatrix>& adj,
    const tensor::Tensor& x, bool training, common::Rng* rng) const {
  return Forward(PropagateWith(adj, x), training, rng);
}

PropagatedInput GnnEncoder::Propagate(const tensor::Tensor& x) const {
  return PropagateWith(adj_, x);
}

PropagatedInput GnnEncoder::PropagateWith(
    const std::shared_ptr<const tensor::SparseMatrix>& adj,
    const tensor::Tensor& x) const {
  FW_TRACE_SPAN("gnn/propagate");
  PropagatedInput input{config_.backbone, adj, x, tensor::Tensor()};
  switch (config_.backbone) {
    case Backbone::kGcn:
    case Backbone::kSage:
      input.aggregate = tensor::SpMM(adj, x);
      break;
    case Backbone::kGin:
      input.aggregate = gin_layers_[0].Aggregate(adj, x);
      break;
    case Backbone::kGat:
      break;
  }
  return input;
}

tensor::Tensor GnnEncoder::Forward(const PropagatedInput& input,
                                   bool training, common::Rng* rng) const {
  FW_CHECK(input.backbone == config_.backbone)
      << "propagated input built for backbone"
      << BackboneName(input.backbone) << "but the encoder is"
      << BackboneName(config_.backbone);
  FW_CHECK(input.adj != nullptr);
  FW_CHECK_EQ(input.x.dim(0), input.adj->cols())
      << "propagated input's x does not match its adjacency";
  const auto& adj = input.adj;
  // Layer 0 starts from the precomputed aggregate; deeper layers aggregate
  // their (trainable) input on every call.
  tensor::Tensor h;
  switch (config_.backbone) {
    case Backbone::kGcn:
      h = gcn_layers_[0].Transform(input.aggregate);
      for (size_t l = 1; l < gcn_layers_.size(); ++l) {
        h = gcn_layers_[l].Forward(adj, tensor::Relu(h));
      }
      break;
    case Backbone::kGin:
      h = gin_layers_[0].Transform(input.aggregate, training, rng);
      for (size_t l = 1; l < gin_layers_.size(); ++l) {
        h = gin_layers_[l].Forward(adj, tensor::Relu(h), training, rng);
      }
      break;
    case Backbone::kSage:
      h = sage_layers_[0].Transform(input.x, input.aggregate);
      for (size_t l = 1; l < sage_layers_.size(); ++l) {
        h = sage_layers_[l].Forward(adj, tensor::Relu(h));
      }
      break;
    case Backbone::kGat:
      h = gat_layers_[0].Forward(adj, input.x);
      for (size_t l = 1; l < gat_layers_.size(); ++l) {
        h = gat_layers_[l].Forward(adj, tensor::Relu(h));
      }
      break;
  }
  if (config_.dropout > 0.0f) {
    h = tensor::Dropout(h, config_.dropout, training, rng);
  }
  return h;
}

GnnClassifier::GnnClassifier(const GnnConfig& config, const graph::Graph& g,
                             common::Rng* rng)
    : encoder_(config, g, rng),
      head_(config.hidden, config.num_classes, rng) {
  RegisterSubmodule(encoder_);
  RegisterSubmodule(head_);
}

tensor::Tensor GnnClassifier::Embed(const tensor::Tensor& x, bool training,
                                    common::Rng* rng) const {
  return encoder_.Forward(x, training, rng);
}

tensor::Tensor GnnClassifier::Embed(const PropagatedInput& input,
                                    bool training, common::Rng* rng) const {
  return encoder_.Forward(input, training, rng);
}

tensor::Tensor GnnClassifier::Logits(const tensor::Tensor& h) const {
  return head_.Forward(h);
}

tensor::Tensor GnnClassifier::Forward(const tensor::Tensor& x, bool training,
                                      common::Rng* rng) const {
  return Logits(Embed(x, training, rng));
}

tensor::Tensor GnnClassifier::Forward(const PropagatedInput& input,
                                      bool training, common::Rng* rng) const {
  return Logits(Embed(input, training, rng));
}

tensor::Tensor GnnClassifier::ForwardWith(
    const std::shared_ptr<const tensor::SparseMatrix>& adj,
    const tensor::Tensor& x, bool training, common::Rng* rng) const {
  return Logits(encoder_.ForwardWith(adj, x, training, rng));
}

PredictionResult PredictFromLogits(const tensor::Tensor& logits) {
  FW_CHECK_EQ(logits.rank(), 2);
  tensor::NoGradGuard no_grad;
  tensor::Tensor probs = tensor::Softmax(logits);
  const int64_t n = logits.dim(0), c = logits.dim(1);
  PredictionResult out;
  out.pred.resize(static_cast<size_t>(n));
  out.prob1.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    int best = 0;
    for (int64_t j = 1; j < c; ++j) {
      if (probs.at(i, j) > probs.at(i, best)) best = static_cast<int>(j);
    }
    out.pred[static_cast<size_t>(i)] = best;
    out.prob1[static_cast<size_t>(i)] = c > 1 ? probs.at(i, 1) : probs.at(i, 0);
  }
  return out;
}

}  // namespace fairwos::nn
