// Graph neural network layers and the two backbones the paper evaluates
// (GCN and GIN), plus the node-classification head used everywhere.
#ifndef FAIRWOS_NN_GNN_H_
#define FAIRWOS_NN_GNN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/prediction.h"

namespace fairwos::nn {

/// The GNN backbone family. Fairwos is backbone-agnostic (paper §III-C);
/// GCN and GIN appear in Table II, GraphSAGE and GAT are the extension
/// backbones the paper's related-work section motivates.
enum class Backbone { kGcn, kGin, kSage, kGat };

/// Parses "gcn" / "gin" / "sage" / "gat" (case-sensitive, CLI convention).
common::Result<Backbone> ParseBackbone(const std::string& name);
const char* BackboneName(Backbone backbone);

/// The adjacency operator `backbone`'s layers aggregate with: GCN the
/// symmetric-normalized one, GIN the plain one, SAGE the neighbor mean and
/// GAT the self-loop support set. The one place this mapping is written;
/// dynamic-graph serving asks a graph::GraphSnapshot for the same kind.
graph::OperatorKind OperatorForBackbone(Backbone backbone);

/// `g`'s operator for `backbone` — the one GnnEncoder captures at
/// construction. Exposed so verification passes can rebuild it for a
/// mutated graph and run the encoder via ForwardWith.
std::shared_ptr<const tensor::SparseMatrix> AdjacencyForBackbone(
    Backbone backbone, const graph::Graph& g);

/// One GCN layer: H' = Â H W + b with Â the symmetric-normalized adjacency
/// (paper Eq. 7-8 instantiated as in Kipf & Welling).
class GcnConv : public Module {
 public:
  GcnConv(int64_t in_features, int64_t out_features, common::Rng* rng);

  tensor::Tensor Forward(
      const std::shared_ptr<const tensor::SparseMatrix>& adj_norm,
      const tensor::Tensor& x) const;

  /// The dense half of Forward: aggregated (= Â H) -> aggregated W + b.
  tensor::Tensor Transform(const tensor::Tensor& aggregated) const;

 private:
  Linear linear_;
};

/// One GIN layer: H' = MLP((1 + eps) H + A H); eps fixed at construction.
class GinConv : public Module {
 public:
  GinConv(int64_t in_features, int64_t out_features, float eps,
          common::Rng* rng);

  tensor::Tensor Forward(
      const std::shared_ptr<const tensor::SparseMatrix>& adj_plain,
      const tensor::Tensor& x, bool training, common::Rng* rng) const;

  /// The sparse half of Forward: (1 + eps) H + A H.
  tensor::Tensor Aggregate(
      const std::shared_ptr<const tensor::SparseMatrix>& adj_plain,
      const tensor::Tensor& x) const;

  /// The dense half of Forward: MLP(aggregated).
  tensor::Tensor Transform(const tensor::Tensor& aggregated, bool training,
                           common::Rng* rng) const;

 private:
  Mlp mlp_;
  float eps_;
};

/// One GraphSAGE layer (mean aggregator):
/// H' = l2norm(W_self H + W_neigh · mean_{u∈N(v)} H_u).
class SageConv : public Module {
 public:
  SageConv(int64_t in_features, int64_t out_features, bool normalize,
           common::Rng* rng);

  tensor::Tensor Forward(
      const std::shared_ptr<const tensor::SparseMatrix>& neighbor_mean,
      const tensor::Tensor& x) const;

  /// The dense half of Forward, given aggregated = mean_{u∈N(v)} H_u.
  tensor::Tensor Transform(const tensor::Tensor& x,
                           const tensor::Tensor& aggregated) const;

 private:
  Linear self_linear_;
  Linear neighbor_linear_;
  bool normalize_;
};

/// One multi-head GAT layer (Velickovic et al.): per head h,
///   e_vu = LeakyReLU(a_dstᵀ W_h x_v + a_srcᵀ W_h x_u),
///   out_v = Σ_{u∈N⁺(v)} softmax_u(e_vu) · W_h x_u,
/// heads concatenated. out_features must be divisible by `heads`.
class GatConv : public Module {
 public:
  GatConv(int64_t in_features, int64_t out_features, int64_t heads,
          float negative_slope, common::Rng* rng);

  tensor::Tensor Forward(
      const std::shared_ptr<const tensor::SparseMatrix>& adj_self_loops,
      const tensor::Tensor& x) const;

 private:
  struct Head {
    Linear linear;
    tensor::Tensor att_dst;  // [out/heads, 1]
    tensor::Tensor att_src;  // [out/heads, 1]
  };
  std::vector<Head> heads_;
  float negative_slope_;
};

/// Configuration shared by every GNN model in the repository.
struct GnnConfig {
  Backbone backbone = Backbone::kGcn;
  int64_t in_features = 0;
  int64_t hidden = 16;   // paper §V-A4: hidden unit number 16
  int64_t num_layers = 1;  // paper §V-A4: layer number 1
  int64_t num_classes = 2;
  float dropout = 0.5f;
  float gin_eps = 0.0f;
  bool sage_normalize = true;  // L2-normalize SAGE layer outputs
  int64_t gat_heads = 2;       // attention heads (hidden % heads == 0)
  float gat_negative_slope = 0.2f;
};

/// An encoder input with its first layer's sparse product already taken:
/// Â·x for GCN, (1 + ε)x + A·x for GIN, Â_mean·x for SAGE. GAT attention
/// depends on the weights, so a GAT input carries no aggregate. Built by
/// GnnEncoder::Propagate / PropagateWith for one backbone and consumed by
/// GnnEncoder::Forward(const PropagatedInput&, ...).
///
/// Rows(input, ids) gathers some of its nodes: `rows` then lists them in
/// ascending order, `aggregate` (and `x`, for SAGE) hold only their rows,
/// and `adj` still describes all adj->rows() nodes. Forward on a gathered
/// input returns just those rows of the full forward.
struct PropagatedInput {
  Backbone backbone = Backbone::kGcn;
  std::shared_ptr<const tensor::SparseMatrix> adj;
  tensor::Tensor x;          // undefined in a gathered GCN or GIN input
  tensor::Tensor aggregate;  // undefined for GAT
  std::vector<int64_t> rows;  // empty: every node

  bool gathered() const { return !rows.empty(); }
};

/// The rows `ids` (any order, duplicates allowed, not empty) of a full
/// input, in ascending node order. Tape-free callers build it under a
/// NoGradGuard, once per fixed id set.
PropagatedInput Rows(const PropagatedInput& input,
                     const std::vector<int64_t>& ids);

/// A stack of graph convolutions producing node representations h (the
/// f_G of paper §III-E). The adjacency operators are captured at
/// construction since the graph is fixed per dataset.
///
/// Dropout is applied only after the last layer, so nothing random or
/// trainable comes before the first layer's sparse product: for a fixed
/// input it is the same value on every call. Training loops therefore
/// Propagate their input once per fit and run every epoch's forward from
/// the result (the paper's one-layer GNN, §V-A4, then does no sparse work
/// per epoch at all). Forward(x) and ForwardWith(adj, x) are the same path,
/// propagating on each call.
///
/// A row_local() encoder (one GCN, GIN or SAGE layer) computes each output
/// row from the same row of the aggregate (and of x) alone, and every tensor
/// kernel on that path is row-local (BackendPairTest.
/// GatheredRowsMatchFullProductBitwise). So Forward on a gathered input
/// transforms, drops out and returns only the gathered rows, bit-equal to
/// those rows of the full forward. Dropout still draws masks for all N
/// rows, so the RNG stream is the same. In backward the rows left out would
/// have had zero gradients, which add only ±0 to the weight and bias sums,
/// so the gradients are bit-equal as well. GAT and deeper stacks mix rows
/// and take full inputs only.
class GnnEncoder : public Module {
 public:
  GnnEncoder(const GnnConfig& config, const graph::Graph& g,
             common::Rng* rng);

  /// x: [N, in_features] -> [N, hidden]. ≡ Forward(Propagate(x), ...).
  tensor::Tensor Forward(const tensor::Tensor& x, bool training,
                         common::Rng* rng) const;

  /// Same stack, but aggregating over an explicit adjacency operator
  /// instead of the one captured at construction — the dynamic-graph
  /// serving path (`adj` must be AdjacencyForBackbone-compatible with this
  /// encoder's backbone; its node count may differ from the construction
  /// graph's). ≡ Forward(PropagateWith(adj, x), ...).
  tensor::Tensor ForwardWith(
      const std::shared_ptr<const tensor::SparseMatrix>& adj,
      const tensor::Tensor& x, bool training, common::Rng* rng) const;

  /// The first layer's sparse product of `x` over the captured adjacency
  /// (or over `adj`). Records the tape like any op: build it under a
  /// NoGradGuard to reuse it across backward passes.
  PropagatedInput Propagate(const tensor::Tensor& x) const;
  PropagatedInput PropagateWith(
      const std::shared_ptr<const tensor::SparseMatrix>& adj,
      const tensor::Tensor& x) const;

  /// The stack from a propagated input; aborts if `input` was built for
  /// another backbone, if its x does not match its adjacency, or if it is
  /// gathered and this encoder is not row_local(). A gathered input gives
  /// [len(input.rows), hidden].
  tensor::Tensor Forward(const PropagatedInput& input, bool training,
                         common::Rng* rng) const;

  /// One GCN, GIN or SAGE layer: the encoders that take gathered inputs.
  bool row_local() const {
    return config_.num_layers == 1 && config_.backbone != Backbone::kGat;
  }

  int64_t hidden() const { return config_.hidden; }
  const GnnConfig& config() const { return config_; }

 private:
  GnnConfig config_;
  std::shared_ptr<const tensor::SparseMatrix> adj_;  // backbone-specific
  std::vector<GcnConv> gcn_layers_;
  std::vector<GinConv> gin_layers_;
  std::vector<SageConv> sage_layers_;
  std::vector<GatConv> gat_layers_;
};

/// GNN encoder + linear classification head (paper Eq. 9). Exposes both the
/// representation h and the logits so fairness losses can hook h.
class GnnClassifier : public Module {
 public:
  GnnClassifier(const GnnConfig& config, const graph::Graph& g,
                common::Rng* rng);

  /// Node representations h: [N, hidden].
  tensor::Tensor Embed(const tensor::Tensor& x, bool training,
                       common::Rng* rng) const;
  tensor::Tensor Embed(const PropagatedInput& input, bool training,
                       common::Rng* rng) const;

  /// Class logits from a representation: [N, num_classes].
  tensor::Tensor Logits(const tensor::Tensor& h) const;

  /// Convenience: Logits(Embed(x)).
  tensor::Tensor Forward(const tensor::Tensor& x, bool training,
                         common::Rng* rng) const;
  tensor::Tensor Forward(const PropagatedInput& input, bool training,
                         common::Rng* rng) const;

  /// Logits over an explicit adjacency operator (see
  /// GnnEncoder::ForwardWith) — one eval pass of the dynamic-graph
  /// serving path.
  tensor::Tensor ForwardWith(
      const std::shared_ptr<const tensor::SparseMatrix>& adj,
      const tensor::Tensor& x, bool training, common::Rng* rng) const;

  const GnnEncoder& encoder() const { return encoder_; }

 private:
  GnnEncoder encoder_;
  Linear head_;
};

/// Hard predictions (argmax) and P(class 1) from logits, computed without
/// touching the tape. Only `pred` and `prob1` are filled; callers that
/// expose embeddings or pseudo-attributes add them afterwards.
PredictionResult PredictFromLogits(const tensor::Tensor& logits);

}  // namespace fairwos::nn

#endif  // FAIRWOS_NN_GNN_H_
