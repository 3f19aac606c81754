// Differentiable tensor operations. Every function returns a fresh tensor;
// when gradient recording is enabled (see NoGradGuard) and any input
// requires a gradient, the output carries a tape entry so that
// Tensor::Backward() reaches the inputs.
//
// Shape conventions: rank-2 tensors are row-major [rows, cols]; rank-1
// tensors are column vectors of length n. Shape mismatches are programming
// errors (FW_CHECK), matching how the library is used internally.
#ifndef FAIRWOS_TENSOR_OPS_H_
#define FAIRWOS_TENSOR_OPS_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace fairwos::tensor {

// --- Elementwise binary (same shape) ---------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

/// Elementwise quotient; division by values near zero is the caller's
/// responsibility (gradients blow up exactly as the math says).
Tensor Div(const Tensor& a, const Tensor& b);

// --- Scalar -----------------------------------------------------------------

Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);
Tensor Neg(const Tensor& a);

/// Adds a rank-1 bias of length C to every row of a [N, C] matrix.
Tensor AddRowBroadcast(const Tensor& x, const Tensor& bias);

// --- Linear algebra ---------------------------------------------------------

/// [N, K] x [K, M] -> [N, M].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Transpose of a rank-2 tensor.
Tensor Transpose(const Tensor& a);

/// Sparse-dense product: adj [N, N] (constant) x X [N, C] -> [N, C].
/// The adjacency carries no gradient; d/dX = adjᵀ · dY.
Tensor SpMM(std::shared_ptr<const SparseMatrix> adj, const Tensor& x);

// --- Nonlinearities ----------------------------------------------------------

Tensor Relu(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, float negative_slope);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);

// --- Elementwise analytic ----------------------------------------------------

Tensor Exp(const Tensor& a);
/// Natural log; inputs must be strictly positive.
Tensor Log(const Tensor& a);
/// Square root; inputs must be non-negative (gradient unbounded at 0).
Tensor Sqrt(const Tensor& a);
/// |x|; subgradient 0 at x == 0.
Tensor Abs(const Tensor& a);
/// x^p for real p; inputs must be positive unless p is a non-negative
/// integer-valued exponent applied elementwise via exp(p log x).
Tensor Pow(const Tensor& a, float exponent);
/// Clamps into [lo, hi]; gradient is 1 inside the interval, 0 outside.
Tensor Clamp(const Tensor& a, float lo, float hi);

// --- Reductions ---------------------------------------------------------------

/// Sum / mean of all elements -> scalar [1].
Tensor Sum(const Tensor& a);
Tensor Mean(const Tensor& a);

/// Row-wise (axis = 1) or column-wise (axis = 0) sum / mean of a rank-2
/// tensor -> rank-1 tensor.
Tensor SumAxis(const Tensor& a, int axis);
Tensor MeanAxis(const Tensor& a, int axis);

/// Row-wise L2 normalisation of a [N, C] matrix: each row divided by
/// max(‖row‖₂, eps). Used by the GraphSAGE backbone.
Tensor L2NormalizeRows(const Tensor& a, float eps = 1e-12f);

// --- Indexing -----------------------------------------------------------------

/// Gathers rows of a [N, C] matrix -> [len(idx), C]. Backward scatter-adds.
Tensor Rows(const Tensor& x, const std::vector<int64_t>& idx);

/// Contiguous column slice of a [N, C] matrix -> [N, count].
Tensor SliceCols(const Tensor& x, int64_t start, int64_t count);

/// Reinterprets the element order under a new shape with the same number
/// of elements (row-major, zero copy semantics for gradients).
Tensor Reshape(const Tensor& x, Shape shape);

/// Concatenates rank-2 tensors along an axis (0 = stack rows, 1 = widen).
Tensor Concat(const std::vector<Tensor>& parts, int axis);

// --- Graph attention ----------------------------------------------------------

/// Fused GAT aggregation over a fixed adjacency-with-self-loops `adj`
/// (entries mark edges; values are ignored):
///
///   e_vu    = LeakyReLU(dst_score[v] + src_score[u], slope)  for u ∈ N⁺(v)
///   α_v·    = softmax over N⁺(v) of e_v·
///   out[v]  = Σ_u α_vu · values[u]
///
/// Differentiable w.r.t. dst_score [N], src_score [N] and values [N, C].
Tensor GatAggregate(const std::shared_ptr<const SparseMatrix>& adj,
                    const Tensor& dst_score, const Tensor& src_score,
                    const Tensor& values, float negative_slope);

// --- Regularisation --------------------------------------------------------------

/// Inverted dropout: keeps each element with prob (1 - p) and scales kept
/// elements by 1/(1 - p). Identity when `training` is false or p == 0.
Tensor Dropout(const Tensor& x, float p, bool training, common::Rng* rng);

/// Dropout of some rows of a [num_rows, C] matrix, given only those rows:
/// x is [len(rows), C], row r being row rows[r] of the whole. Draws the
/// masks of all num_rows rows, as Dropout on the whole would, and applies
/// each listed row's mask, so the result is those rows of Dropout(whole)
/// and the RNG ends in the same state.
Tensor DropoutRows(const Tensor& x, float p, bool training, common::Rng* rng,
                   const std::vector<int64_t>& rows, int64_t num_rows);

// --- Probabilities and fused losses ----------------------------------------------

/// Row-wise softmax of a [N, C] matrix (numerically stabilised).
Tensor Softmax(const Tensor& logits);

/// Mean softmax cross-entropy over the rows listed in `indices` of a
/// [N, C] logits matrix with integer labels in [0, C). Fused forward and
/// backward for numerical stability.
Tensor SoftmaxCrossEntropy(const Tensor& logits, const std::vector<int>& labels,
                           const std::vector<int64_t>& indices);

/// Mean binary cross-entropy with logits over `indices` of a rank-1 logits
/// vector; targets are 0/1 floats. Matches paper Eq. (10).
Tensor BceWithLogits(const Tensor& logits, const std::vector<float>& targets,
                     const std::vector<int64_t>& indices);

/// Mean cross-entropy against *soft* targets over `indices`: for each
/// selected row, -Σ_c target[c] · log softmax(logits)[c]. `soft_targets`
/// is a constant [N, C] row-stochastic matrix (no gradient flows into it).
/// Used for knowledge distillation (FairGKD baseline).
Tensor SoftCrossEntropy(const Tensor& logits, const Tensor& soft_targets,
                        const std::vector<int64_t>& indices);

/// Sum of squared elements -> scalar (used for the counterfactual
/// consistency distance, paper Eq. (33)).
Tensor SumSquares(const Tensor& a);

}  // namespace fairwos::tensor

#endif  // FAIRWOS_TENSOR_OPS_H_
