#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/fault.h"
#include "common/threadpool.h"
#include "tensor/backend.h"

namespace fairwos::tensor {
namespace {

using internal::TensorImpl;
using ImplPtr = std::shared_ptr<TensorImpl>;

// Compute kernels live in the KernelBackend layer (tensor/backend.h): the
// Gemm family, SpMM, the elementwise families and reductions below all
// route through ActiveBackend(). What stays in this file is the autograd
// glue (tape construction, backward closures) plus the fused row kernels
// (softmax/losses/GAT/normalize) that are op-specific by nature.
//
// Parallelism discipline (docs/parallelism.md): every ParallelFor below
// chunks over disjoint output slots, and a chunk computes each slot in the
// same order the serial loop would, so results are bit-identical at any
// --threads value. Reductions accumulate fixed-size chunk partials that are
// combined in chunk order — deterministic, independent of the worker count.

/// Builds an op output: takes the forward result, remembers inputs and the
/// backward closure only when recording is on and some input needs a grad.
Tensor MakeOp(Shape shape, FloatBuffer data,
              const std::vector<Tensor>& inputs,
              std::function<void(TensorImpl&)> backward_fn) {
  FW_CHECK_EQ(NumElements(shape), static_cast<int64_t>(data.size()));
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(data);
  bool any_grad = false;
  for (const auto& t : inputs) any_grad |= t.impl_ptr()->requires_grad;
  if (GradRecordingEnabled() && any_grad) {
    impl->requires_grad = true;
    impl->inputs.reserve(inputs.size());
    for (const auto& t : inputs) impl->inputs.push_back(t.impl_ptr());
    impl->backward_fn = std::move(backward_fn);
  }
  return Tensor::WrapImpl(std::move(impl));
}

/// True when `t` participates in gradient flow (leaf parameter or tracked
/// intermediate).
bool NeedsGrad(const ImplPtr& t) { return t->requires_grad; }

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  FW_CHECK(a.shape() == b.shape())
      << op << ": shape mismatch " << ShapeToString(a.shape()) << " vs "
      << ShapeToString(b.shape());
}

/// One elementwise-unary op through the backend: forward via EwiseUnary,
/// backward via EwiseUnaryGrad (which accumulates gy·d(op)/dx into the
/// input gradient). Every unary in ops.h is one line on top of this.
Tensor UnaryBackendOp(const Tensor& a, EwiseUnaryOp op, float p0 = 0.0f,
                      float p1 = 0.0f) {
  const int64_t n = a.numel();
  FloatBuffer out(a.data().size());
  ActiveBackend().EwiseUnary(op, p0, p1, a.data().data(), out.data(), n);
  ImplPtr ai = a.impl_ptr();
  return MakeOp(a.shape(), std::move(out), {a},
                [ai, op, p0, p1, n](TensorImpl& self) {
                  if (!NeedsGrad(ai)) return;
                  ai->EnsureGrad();
                  ActiveBackend().EwiseUnaryGrad(
                      op, p0, p1, self.data.data(), ai->data.data(),
                      self.grad.data(), ai->grad.data(), n);
                });
}

/// One elementwise-binary op through the backend; the backward runs
/// EwiseBinaryGrad once per input that needs a gradient (each accumulates
/// into its own disjoint grad buffer).
Tensor BinaryBackendOp(const Tensor& a, const Tensor& b, EwiseBinaryOp op,
                       const char* name) {
  CheckSameShape(a, b, name);
  const int64_t n = a.numel();
  FloatBuffer out(a.data().size());
  ActiveBackend().EwiseBinary(op, a.data().data(), b.data().data(), out.data(),
                              n);
  ImplPtr ai = a.impl_ptr(), bi = b.impl_ptr();
  return MakeOp(a.shape(), std::move(out), {a, b},
                [ai, bi, op, n](TensorImpl& self) {
                  if (NeedsGrad(ai)) {
                    ai->EnsureGrad();
                    ActiveBackend().EwiseBinaryGrad(
                        op, 0, self.data.data(), self.grad.data(),
                        ai->data.data(), bi->data.data(), ai->grad.data(), n);
                  }
                  if (NeedsGrad(bi)) {
                    bi->EnsureGrad();
                    ActiveBackend().EwiseBinaryGrad(
                        op, 1, self.data.data(), self.grad.data(),
                        ai->data.data(), bi->data.data(), bi->grad.data(), n);
                  }
                });
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryBackendOp(a, b, EwiseBinaryOp::kAdd, "Add");
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryBackendOp(a, b, EwiseBinaryOp::kSub, "Sub");
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryBackendOp(a, b, EwiseBinaryOp::kMul, "Mul");
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryBackendOp(a, b, EwiseBinaryOp::kDiv, "Div");
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryBackendOp(a, EwiseUnaryOp::kAddScalar, s);
}

Tensor MulScalar(const Tensor& a, float s) {
  return UnaryBackendOp(a, EwiseUnaryOp::kMulScalar, s);
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

Tensor AddRowBroadcast(const Tensor& x, const Tensor& bias) {
  FW_CHECK_EQ(x.rank(), 2);
  FW_CHECK_EQ(bias.rank(), 1);
  const int64_t n = x.dim(0), c = x.dim(1);
  FW_CHECK_EQ(bias.dim(0), c) << "AddRowBroadcast: bias length mismatch";
  FloatBuffer out(x.data().size());
  common::ParallelFor(0, n, RowGrain(c), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      for (int64_t j = 0; j < c; ++j) {
        out[static_cast<size_t>(i * c + j)] =
            x.data()[static_cast<size_t>(i * c + j)] +
            bias.data()[static_cast<size_t>(j)];
      }
    }
  });
  ImplPtr xi = x.impl_ptr(), bi = bias.impl_ptr();
  return MakeOp(x.shape(), std::move(out), {x, bias},
                [xi, bi, n, c](TensorImpl& self) {
                  if (NeedsGrad(xi)) {
                    xi->EnsureGrad();
                    common::ParallelFor(
                        0, static_cast<int64_t>(self.grad.size()), kElemGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            xi->grad[static_cast<size_t>(i)] +=
                                self.grad[static_cast<size_t>(i)];
                          }
                        });
                  }
                  if (NeedsGrad(bi)) {
                    bi->EnsureGrad();
                    // Every row folds into the same c bias slots; stays
                    // serial to keep the accumulation order fixed (c is
                    // tiny, so this is never the hot part).
                    for (int64_t i = 0; i < n; ++i) {
                      for (int64_t j = 0; j < c; ++j) {
                        bi->grad[static_cast<size_t>(j)] +=
                            self.grad[static_cast<size_t>(i * c + j)];
                      }
                    }
                  }
                });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  FW_CHECK_EQ(a.rank(), 2);
  FW_CHECK_EQ(b.rank(), 2);
  const int64_t n = a.dim(0), k = a.dim(1), m = b.dim(1);
  FW_CHECK_EQ(b.dim(0), k) << "MatMul: inner dimension mismatch "
                           << ShapeToString(a.shape()) << " x "
                           << ShapeToString(b.shape());
  FloatBuffer out(static_cast<size_t>(n * m), 0.0f);
  ActiveBackend().GemmNN(a.data().data(), b.data().data(), out.data(), n, k,
                         m);
  ImplPtr ai = a.impl_ptr(), bi = b.impl_ptr();
  return MakeOp({n, m}, std::move(out), {a, b},
                [ai, bi, n, k, m](TensorImpl& self) {
                  if (NeedsGrad(ai)) {
                    ai->EnsureGrad();
                    // dA = dY · Bᵀ
                    ActiveBackend().GemmNT(self.grad.data(), bi->data.data(),
                                           ai->grad.data(), n, m, k);
                  }
                  if (NeedsGrad(bi)) {
                    bi->EnsureGrad();
                    // dB = Aᵀ · dY
                    ActiveBackend().GemmTN(ai->data.data(), self.grad.data(),
                                           bi->grad.data(), n, k, m);
                  }
                });
}

Tensor Transpose(const Tensor& a) {
  FW_CHECK_EQ(a.rank(), 2);
  const int64_t n = a.dim(0), m = a.dim(1);
  FloatBuffer out(static_cast<size_t>(n * m));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      out[static_cast<size_t>(j * n + i)] =
          a.data()[static_cast<size_t>(i * m + j)];
    }
  }
  ImplPtr ai = a.impl_ptr();
  return MakeOp({m, n}, std::move(out), {a}, [ai, n, m](TensorImpl& self) {
    if (!NeedsGrad(ai)) return;
    ai->EnsureGrad();
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < m; ++j) {
        ai->grad[static_cast<size_t>(i * m + j)] +=
            self.grad[static_cast<size_t>(j * n + i)];
      }
    }
  });
}

Tensor SpMM(std::shared_ptr<const SparseMatrix> adj, const Tensor& x) {
  FW_CHECK(adj != nullptr);
  FW_CHECK_EQ(x.rank(), 2);
  FW_CHECK_EQ(adj->cols(), x.dim(0))
      << "SpMM: adjacency cols vs feature rows";
  const int64_t c = x.dim(1);
  FloatBuffer out(static_cast<size_t>(adj->rows() * c));
  adj->Multiply(x.data().data(), c, out.data());
  ImplPtr xi = x.impl_ptr();
  return MakeOp({adj->rows(), c}, std::move(out), {x},
                [adj, xi, c](TensorImpl& self) {
                  if (!NeedsGrad(xi)) return;
                  xi->EnsureGrad();
                  // dX = adjᵀ · dY; accumulate via a scratch buffer because
                  // Multiply overwrites its output.
                  std::vector<float> scratch(xi->data.size());
                  adj->Transposed().Multiply(self.grad.data(), c,
                                             scratch.data());
                  for (size_t i = 0; i < scratch.size(); ++i) {
                    xi->grad[i] += scratch[i];
                  }
                });
}

Tensor Relu(const Tensor& a) { return UnaryBackendOp(a, EwiseUnaryOp::kRelu); }

Tensor LeakyRelu(const Tensor& a, float negative_slope) {
  return UnaryBackendOp(a, EwiseUnaryOp::kLeakyRelu, negative_slope);
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryBackendOp(a, EwiseUnaryOp::kSigmoid);
}

Tensor Tanh(const Tensor& a) { return UnaryBackendOp(a, EwiseUnaryOp::kTanh); }

Tensor Exp(const Tensor& a) { return UnaryBackendOp(a, EwiseUnaryOp::kExp); }

Tensor Log(const Tensor& a) {
  for (float v : a.data()) FW_CHECK_GT(v, 0.0f) << "Log requires positive";
  return UnaryBackendOp(a, EwiseUnaryOp::kLog);
}

Tensor Sqrt(const Tensor& a) {
  for (float v : a.data()) FW_CHECK_GE(v, 0.0f) << "Sqrt requires >= 0";
  return UnaryBackendOp(a, EwiseUnaryOp::kSqrt);
}

Tensor Abs(const Tensor& a) { return UnaryBackendOp(a, EwiseUnaryOp::kAbs); }

Tensor Pow(const Tensor& a, float exponent) {
  return UnaryBackendOp(a, EwiseUnaryOp::kPow, exponent);
}

Tensor Clamp(const Tensor& a, float lo, float hi) {
  FW_CHECK_LE(lo, hi);
  return UnaryBackendOp(a, EwiseUnaryOp::kClamp, lo, hi);
}

Tensor Sum(const Tensor& a) {
  const double acc =
      ActiveBackend().Reduce(ReduceKind::kSum, a.data().data(), a.numel());
  ImplPtr ai = a.impl_ptr();
  return MakeOp({1}, {static_cast<float>(acc)}, {a}, [ai](TensorImpl& self) {
    if (!NeedsGrad(ai)) return;
    ai->EnsureGrad();
    const float g = self.grad[0];
    common::ParallelFor(0, static_cast<int64_t>(ai->grad.size()), kElemGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            ai->grad[static_cast<size_t>(i)] += g;
                          }
                        });
  });
}

Tensor Mean(const Tensor& a) {
  FW_CHECK_GT(a.numel(), 0);
  return MulScalar(Sum(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor SumSquares(const Tensor& a) {
  const double acc = ActiveBackend().Reduce(ReduceKind::kSumSquares,
                                            a.data().data(), a.numel());
  ImplPtr ai = a.impl_ptr();
  return MakeOp({1}, {static_cast<float>(acc)}, {a}, [ai](TensorImpl& self) {
    if (!NeedsGrad(ai)) return;
    ai->EnsureGrad();
    const float g = self.grad[0];
    common::ParallelFor(0, static_cast<int64_t>(ai->data.size()), kElemGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            const auto u = static_cast<size_t>(i);
                            ai->grad[u] += 2.0f * g * ai->data[u];
                          }
                        });
  });
}

Tensor Rows(const Tensor& x, const std::vector<int64_t>& idx) {
  FW_CHECK_EQ(x.rank(), 2);
  const int64_t n = x.dim(0), c = x.dim(1);
  FloatBuffer out(idx.size() * static_cast<size_t>(c));
  for (size_t r = 0; r < idx.size(); ++r) {
    FW_CHECK_GE(idx[r], 0);
    FW_CHECK_LT(idx[r], n);
    std::copy_n(x.data().data() + idx[r] * c, c,
                out.data() + static_cast<int64_t>(r) * c);
  }
  ImplPtr xi = x.impl_ptr();
  std::vector<int64_t> idx_copy = idx;
  return MakeOp({static_cast<int64_t>(idx.size()), c}, std::move(out), {x},
                [xi, idx_copy, c](TensorImpl& self) {
                  if (!NeedsGrad(xi)) return;
                  xi->EnsureGrad();
                  for (size_t r = 0; r < idx_copy.size(); ++r) {
                    const float* g =
                        self.grad.data() + static_cast<int64_t>(r) * c;
                    float* dst = xi->grad.data() + idx_copy[r] * c;
                    for (int64_t j = 0; j < c; ++j) dst[j] += g[j];
                  }
                });
}

namespace {

// x * mask, elementwise, with the mask kept for backward.
Tensor ApplyDropoutMask(const Tensor& x, std::vector<float> mask) {
  FloatBuffer out(x.data().size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = x.data()[i] * mask[i];
  ImplPtr xi = x.impl_ptr();
  return MakeOp(x.shape(), std::move(out), {x},
                [xi, mask = std::move(mask)](TensorImpl& self) {
                  if (!NeedsGrad(xi)) return;
                  xi->EnsureGrad();
                  for (size_t i = 0; i < self.grad.size(); ++i) {
                    xi->grad[i] += self.grad[i] * mask[i];
                  }
                });
}

}  // namespace

Tensor Dropout(const Tensor& x, float p, bool training, common::Rng* rng) {
  FW_CHECK_GE(p, 0.0f);
  FW_CHECK_LT(p, 1.0f);
  if (!training || p == 0.0f) return x;
  FW_CHECK(rng != nullptr);
  std::vector<float> mask(x.data().size());
  rng->FillBernoulli(1.0 - p, 1.0f / (1.0f - p), mask.data(),
                     static_cast<int64_t>(mask.size()));
  return ApplyDropoutMask(x, std::move(mask));
}

Tensor DropoutRows(const Tensor& x, float p, bool training, common::Rng* rng,
                   const std::vector<int64_t>& rows, int64_t num_rows) {
  FW_CHECK_GE(p, 0.0f);
  FW_CHECK_LT(p, 1.0f);
  FW_CHECK_EQ(x.rank(), 2);
  FW_CHECK_EQ(x.dim(0), static_cast<int64_t>(rows.size()));
  if (!training || p == 0.0f) return x;
  FW_CHECK(rng != nullptr);
  const int64_t c = x.dim(1);
  std::vector<float> full(static_cast<size_t>(num_rows * c));
  rng->FillBernoulli(1.0 - p, 1.0f / (1.0f - p), full.data(), num_rows * c);
  std::vector<float> mask(x.data().size());
  for (size_t r = 0; r < rows.size(); ++r) {
    FW_CHECK_GE(rows[r], 0);
    FW_CHECK_LT(rows[r], num_rows);
    std::copy_n(full.data() + rows[r] * c, c,
                mask.data() + static_cast<int64_t>(r) * c);
  }
  return ApplyDropoutMask(x, std::move(mask));
}

Tensor Softmax(const Tensor& logits) {
  FW_CHECK_EQ(logits.rank(), 2);
  const int64_t n = logits.dim(0), c = logits.dim(1);
  FloatBuffer out(logits.data().size());
  common::ParallelFor(0, n, RowGrain(c), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* row = logits.data().data() + i * c;
      float* orow = out.data() + i * c;
      float mx = row[0];
      for (int64_t j = 1; j < c; ++j) mx = std::max(mx, row[j]);
      float denom = 0.0f;
      for (int64_t j = 0; j < c; ++j) {
        orow[j] = std::exp(row[j] - mx);
        denom += orow[j];
      }
      for (int64_t j = 0; j < c; ++j) orow[j] /= denom;
    }
  });
  ImplPtr li = logits.impl_ptr();
  return MakeOp(logits.shape(), std::move(out), {logits},
                [li, n, c](TensorImpl& self) {
                  if (!NeedsGrad(li)) return;
                  li->EnsureGrad();
                  common::ParallelFor(
                      0, n, RowGrain(c), [&](int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i) {
                          const float* y = self.data.data() + i * c;
                          const float* gy = self.grad.data() + i * c;
                          float dot = 0.0f;
                          for (int64_t j = 0; j < c; ++j) dot += y[j] * gy[j];
                          float* gx = li->grad.data() + i * c;
                          for (int64_t j = 0; j < c; ++j) {
                            gx[j] += y[j] * (gy[j] - dot);
                          }
                        }
                      });
                });
}

Tensor SoftmaxCrossEntropy(const Tensor& logits, const std::vector<int>& labels,
                           const std::vector<int64_t>& indices) {
  FW_CHECK_EQ(logits.rank(), 2);
  FW_CHECK(!indices.empty()) << "SoftmaxCrossEntropy: empty index set";
  const int64_t n = logits.dim(0), c = logits.dim(1);
  FW_CHECK_EQ(static_cast<int64_t>(labels.size()), n)
      << "labels must cover every row";
  // Cache the softmax for the selected rows; reused by backward. Rows fill
  // disjoint probs/term slots in parallel; the per-row loss terms are then
  // summed serially in row order, so the total matches the serial loop
  // bit-for-bit at any thread count.
  std::vector<float> probs(indices.size() * static_cast<size_t>(c));
  std::vector<double> terms(indices.size(), 0.0);
  const int64_t rows = static_cast<int64_t>(indices.size());
  common::ParallelFor(0, rows, RowGrain(c), [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const int64_t i = indices[static_cast<size_t>(r)];
      FW_CHECK_GE(i, 0);
      FW_CHECK_LT(i, n);
      const int label = labels[static_cast<size_t>(i)];
      FW_CHECK_GE(label, 0);
      FW_CHECK_LT(label, c);
      const float* row = logits.data().data() + i * c;
      float* prow = probs.data() + r * c;
      float mx = row[0];
      for (int64_t j = 1; j < c; ++j) mx = std::max(mx, row[j]);
      float denom = 0.0f;
      for (int64_t j = 0; j < c; ++j) {
        prow[j] = std::exp(row[j] - mx);
        denom += prow[j];
      }
      for (int64_t j = 0; j < c; ++j) prow[j] /= denom;
      terms[static_cast<size_t>(r)] = std::log(denom) + mx - row[label];
    }
  });
  double loss = 0.0;
  for (double t : terms) loss += t;
  loss /= static_cast<double>(indices.size());
  if (auto* fi = fairwos::testing::ActiveFaultInjector();
      fi != nullptr && fi->ShouldFire(fairwos::testing::FaultSite::kLossValue)) {
    loss = std::numeric_limits<double>::quiet_NaN();
  }
  ImplPtr li = logits.impl_ptr();
  std::vector<int64_t> idx = indices;
  std::vector<int> lab = labels;
  return MakeOp(
      {1}, {static_cast<float>(loss)}, {logits},
      [li, idx = std::move(idx), lab = std::move(lab),
       probs = std::move(probs), c](TensorImpl& self) {
        if (!NeedsGrad(li)) return;
        li->EnsureGrad();
        const float g = self.grad[0] / static_cast<float>(idx.size());
        for (size_t r = 0; r < idx.size(); ++r) {
          const int64_t i = idx[r];
          const float* prow = probs.data() + static_cast<int64_t>(r) * c;
          float* grow = li->grad.data() + i * c;
          for (int64_t j = 0; j < c; ++j) {
            const float onehot =
                (j == lab[static_cast<size_t>(i)]) ? 1.0f : 0.0f;
            grow[j] += g * (prow[j] - onehot);
          }
        }
      });
}

Tensor SoftCrossEntropy(const Tensor& logits, const Tensor& soft_targets,
                        const std::vector<int64_t>& indices) {
  FW_CHECK_EQ(logits.rank(), 2);
  FW_CHECK(logits.shape() == soft_targets.shape())
      << "SoftCrossEntropy: logits vs targets shape";
  FW_CHECK(!indices.empty()) << "SoftCrossEntropy: empty index set";
  const int64_t n = logits.dim(0), c = logits.dim(1);
  // Two passes: the exp-heavy softmax fills disjoint probs/log_denom slots
  // in parallel, then a cheap serial loop accumulates the loss in exactly
  // the order the serial kernel used — bit-identical at any thread count.
  std::vector<float> probs(indices.size() * static_cast<size_t>(c));
  std::vector<float> log_denoms(indices.size(), 0.0f);
  const int64_t rows = static_cast<int64_t>(indices.size());
  common::ParallelFor(0, rows, RowGrain(c), [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const int64_t i = indices[static_cast<size_t>(r)];
      FW_CHECK_GE(i, 0);
      FW_CHECK_LT(i, n);
      const float* row = logits.data().data() + i * c;
      float* prow = probs.data() + r * c;
      float mx = row[0];
      for (int64_t j = 1; j < c; ++j) mx = std::max(mx, row[j]);
      float denom = 0.0f;
      for (int64_t j = 0; j < c; ++j) {
        prow[j] = std::exp(row[j] - mx);
        denom += prow[j];
      }
      log_denoms[static_cast<size_t>(r)] = std::log(denom) + mx;
      for (int64_t j = 0; j < c; ++j) prow[j] /= denom;
    }
  });
  double loss = 0.0;
  for (size_t r = 0; r < indices.size(); ++r) {
    const int64_t i = indices[r];
    const float* row = logits.data().data() + i * c;
    const float* target = soft_targets.data().data() + i * c;
    const float log_denom = log_denoms[r];
    for (int64_t j = 0; j < c; ++j) {
      loss -= static_cast<double>(target[j]) * (row[j] - log_denom);
    }
  }
  loss /= static_cast<double>(indices.size());
  ImplPtr li = logits.impl_ptr();
  ImplPtr ti = soft_targets.impl_ptr();
  std::vector<int64_t> idx = indices;
  return MakeOp({1}, {static_cast<float>(loss)}, {logits},
                [li, ti, idx = std::move(idx), probs = std::move(probs),
                 c](TensorImpl& self) {
                  if (!NeedsGrad(li)) return;
                  li->EnsureGrad();
                  const float g =
                      self.grad[0] / static_cast<float>(idx.size());
                  for (size_t r = 0; r < idx.size(); ++r) {
                    const int64_t i = idx[r];
                    const float* prow =
                        probs.data() + static_cast<int64_t>(r) * c;
                    const float* target = ti->data.data() + i * c;
                    float* grow = li->grad.data() + i * c;
                    // Row target mass (normally 1): d/dlogits =
                    // mass * softmax - target.
                    float mass = 0.0f;
                    for (int64_t j = 0; j < c; ++j) mass += target[j];
                    for (int64_t j = 0; j < c; ++j) {
                      grow[j] += g * (mass * prow[j] - target[j]);
                    }
                  }
                });
}

Tensor BceWithLogits(const Tensor& logits, const std::vector<float>& targets,
                     const std::vector<int64_t>& indices) {
  FW_CHECK_EQ(logits.rank(), 1);
  FW_CHECK(!indices.empty()) << "BceWithLogits: empty index set";
  FW_CHECK_EQ(static_cast<int64_t>(targets.size()), logits.dim(0));
  double loss = 0.0;
  for (int64_t i : indices) {
    FW_CHECK_GE(i, 0);
    FW_CHECK_LT(i, logits.dim(0));
    const float x = logits.data()[static_cast<size_t>(i)];
    const float y = targets[static_cast<size_t>(i)];
    // max(x, 0) - x*y + log(1 + exp(-|x|)): stable for both signs.
    loss += std::max(x, 0.0f) - x * y + std::log1p(std::exp(-std::abs(x)));
  }
  loss /= static_cast<double>(indices.size());
  ImplPtr li = logits.impl_ptr();
  std::vector<int64_t> idx = indices;
  std::vector<float> tgt = targets;
  return MakeOp({1}, {static_cast<float>(loss)}, {logits},
                [li, idx = std::move(idx), tgt = std::move(tgt)](
                    TensorImpl& self) {
                  if (!NeedsGrad(li)) return;
                  li->EnsureGrad();
                  const float g = self.grad[0] / static_cast<float>(idx.size());
                  for (int64_t i : idx) {
                    const float x = li->data[static_cast<size_t>(i)];
                    const float sig =
                        x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                                  : std::exp(x) / (1.0f + std::exp(x));
                    li->grad[static_cast<size_t>(i)] +=
                        g * (sig - tgt[static_cast<size_t>(i)]);
                  }
                });
}

Tensor SumAxis(const Tensor& a, int axis) {
  FW_CHECK_EQ(a.rank(), 2);
  FW_CHECK(axis == 0 || axis == 1) << "SumAxis: axis must be 0 or 1";
  const int64_t n = a.dim(0), c = a.dim(1);
  const int64_t out_len = axis == 0 ? c : n;
  FloatBuffer out(static_cast<size_t>(out_len), 0.0f);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < c; ++j) {
      out[static_cast<size_t>(axis == 0 ? j : i)] +=
          a.data()[static_cast<size_t>(i * c + j)];
    }
  }
  ImplPtr ai = a.impl_ptr();
  return MakeOp({out_len}, std::move(out), {a},
                [ai, n, c, axis](TensorImpl& self) {
                  if (!NeedsGrad(ai)) return;
                  ai->EnsureGrad();
                  for (int64_t i = 0; i < n; ++i) {
                    for (int64_t j = 0; j < c; ++j) {
                      ai->grad[static_cast<size_t>(i * c + j)] +=
                          self.grad[static_cast<size_t>(axis == 0 ? j : i)];
                    }
                  }
                });
}

Tensor MeanAxis(const Tensor& a, int axis) {
  FW_CHECK_EQ(a.rank(), 2);
  const float denom =
      static_cast<float>(axis == 0 ? a.dim(0) : a.dim(1));
  FW_CHECK_GT(denom, 0.0f);
  return MulScalar(SumAxis(a, axis), 1.0f / denom);
}

Tensor L2NormalizeRows(const Tensor& a, float eps) {
  FW_CHECK_EQ(a.rank(), 2);
  FW_CHECK_GT(eps, 0.0f);
  const int64_t n = a.dim(0), c = a.dim(1);
  std::vector<float> norms(static_cast<size_t>(n));
  FloatBuffer out(a.data().size());
  common::ParallelFor(0, n, RowGrain(c), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      double sq = 0.0;
      for (int64_t j = 0; j < c; ++j) {
        const float v = a.data()[static_cast<size_t>(i * c + j)];
        sq += static_cast<double>(v) * v;
      }
      norms[static_cast<size_t>(i)] =
          std::max(static_cast<float>(std::sqrt(sq)), eps);
      for (int64_t j = 0; j < c; ++j) {
        out[static_cast<size_t>(i * c + j)] =
            a.data()[static_cast<size_t>(i * c + j)] /
            norms[static_cast<size_t>(i)];
      }
    }
  });
  ImplPtr ai = a.impl_ptr();
  return MakeOp(a.shape(), std::move(out), {a},
                [ai, norms = std::move(norms), n, c](TensorImpl& self) {
                  if (!NeedsGrad(ai)) return;
                  ai->EnsureGrad();
                  common::ParallelFor(
                      0, n, RowGrain(c), [&](int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i) {
                          // d(x/‖x‖)/dx = (I − yyᵀ)/‖x‖ with y = x/‖x‖.
                          const float* y = self.data.data() + i * c;
                          const float* gy = self.grad.data() + i * c;
                          float dot = 0.0f;
                          for (int64_t j = 0; j < c; ++j) {
                            dot += y[j] * gy[j];
                          }
                          const float inv =
                              1.0f / norms[static_cast<size_t>(i)];
                          float* gx = ai->grad.data() + i * c;
                          for (int64_t j = 0; j < c; ++j) {
                            gx[j] += (gy[j] - dot * y[j]) * inv;
                          }
                        }
                      });
                });
}

Tensor SliceCols(const Tensor& x, int64_t start, int64_t count) {
  FW_CHECK_EQ(x.rank(), 2);
  const int64_t n = x.dim(0), c = x.dim(1);
  FW_CHECK_GE(start, 0);
  FW_CHECK_GT(count, 0);
  FW_CHECK_LE(start + count, c) << "SliceCols out of range";
  FloatBuffer out(static_cast<size_t>(n * count));
  for (int64_t i = 0; i < n; ++i) {
    std::copy_n(x.data().data() + i * c + start, count,
                out.data() + i * count);
  }
  ImplPtr xi = x.impl_ptr();
  return MakeOp({n, count}, std::move(out), {x},
                [xi, start, count, n, c](TensorImpl& self) {
                  if (!NeedsGrad(xi)) return;
                  xi->EnsureGrad();
                  for (int64_t i = 0; i < n; ++i) {
                    for (int64_t j = 0; j < count; ++j) {
                      xi->grad[static_cast<size_t>(i * c + start + j)] +=
                          self.grad[static_cast<size_t>(i * count + j)];
                    }
                  }
                });
}

Tensor Reshape(const Tensor& x, Shape shape) {
  FW_CHECK_EQ(NumElements(shape), x.numel())
      << "Reshape must preserve the element count";
  FloatBuffer out = x.data();
  ImplPtr xi = x.impl_ptr();
  return MakeOp(std::move(shape), std::move(out), {x},
                [xi](TensorImpl& self) {
                  if (!NeedsGrad(xi)) return;
                  xi->EnsureGrad();
                  for (size_t i = 0; i < self.grad.size(); ++i) {
                    xi->grad[i] += self.grad[i];
                  }
                });
}

Tensor Concat(const std::vector<Tensor>& parts, int axis) {
  FW_CHECK(!parts.empty());
  FW_CHECK(axis == 0 || axis == 1);
  for (const auto& p : parts) FW_CHECK_EQ(p.rank(), 2);
  int64_t rows = parts[0].dim(0), cols = parts[0].dim(1);
  for (size_t p = 1; p < parts.size(); ++p) {
    if (axis == 0) {
      FW_CHECK_EQ(parts[p].dim(1), cols) << "Concat axis 0: column mismatch";
      rows += parts[p].dim(0);
    } else {
      FW_CHECK_EQ(parts[p].dim(0), rows) << "Concat axis 1: row mismatch";
      cols += parts[p].dim(1);
    }
  }
  FloatBuffer out(static_cast<size_t>(rows * cols));
  if (axis == 0) {
    size_t offset = 0;
    for (const auto& p : parts) {
      std::copy(p.data().begin(), p.data().end(), out.begin() + offset);
      offset += p.data().size();
    }
  } else {
    int64_t col_offset = 0;
    for (const auto& p : parts) {
      const int64_t pc = p.dim(1);
      for (int64_t i = 0; i < rows; ++i) {
        std::copy_n(p.data().data() + i * pc, pc,
                    out.data() + i * cols + col_offset);
      }
      col_offset += pc;
    }
  }
  std::vector<ImplPtr> impls;
  impls.reserve(parts.size());
  for (const auto& p : parts) impls.push_back(p.impl_ptr());
  return MakeOp(
      {rows, cols}, std::move(out), parts,
      [impls, rows, cols, axis](TensorImpl& self) {
        if (axis == 0) {
          size_t offset = 0;
          for (const auto& impl : impls) {
            if (NeedsGrad(impl)) {
              impl->EnsureGrad();
              for (size_t i = 0; i < impl->data.size(); ++i) {
                impl->grad[i] += self.grad[offset + i];
              }
            }
            offset += impl->data.size();
          }
        } else {
          int64_t col_offset = 0;
          for (const auto& impl : impls) {
            const int64_t pc = impl->shape[1];
            if (NeedsGrad(impl)) {
              impl->EnsureGrad();
              for (int64_t i = 0; i < rows; ++i) {
                for (int64_t j = 0; j < pc; ++j) {
                  impl->grad[static_cast<size_t>(i * pc + j)] +=
                      self.grad[static_cast<size_t>(i * cols + col_offset + j)];
                }
              }
            }
            col_offset += pc;
          }
        }
      });
}

Tensor GatAggregate(const std::shared_ptr<const SparseMatrix>& adj,
                    const Tensor& dst_score, const Tensor& src_score,
                    const Tensor& values, float negative_slope) {
  FW_CHECK(adj != nullptr);
  FW_CHECK_EQ(dst_score.rank(), 1);
  FW_CHECK_EQ(src_score.rank(), 1);
  FW_CHECK_EQ(values.rank(), 2);
  const int64_t n = adj->rows();
  FW_CHECK_EQ(adj->cols(), n);
  FW_CHECK_EQ(dst_score.dim(0), n);
  FW_CHECK_EQ(src_score.dim(0), n);
  FW_CHECK_EQ(values.dim(0), n);
  const int64_t c = values.dim(1);

  const auto& row_ptr = adj->row_ptr();
  const auto& col_idx = adj->col_idx();
  std::vector<float> alpha(static_cast<size_t>(adj->nnz()), 0.0f);
  FloatBuffer out(static_cast<size_t>(n * c), 0.0f);
  const float* d = dst_score.data().data();
  const float* s = src_score.data().data();
  const float* x = values.data().data();
  // Each destination row owns its alpha edge slots and its out row, so rows
  // parallelize with bit-identical results; the backward scatters into
  // source-node slots shared across rows and stays serial.
  common::ParallelFor(0, n, RowGrain(c * 8), [&](int64_t lo, int64_t hi) {
    for (int64_t v = lo; v < hi; ++v) {
      const int64_t begin = row_ptr[static_cast<size_t>(v)];
      const int64_t end = row_ptr[static_cast<size_t>(v) + 1];
      if (begin == end) continue;  // isolated node with no self-loop
      // Numerically stable per-row softmax of the LeakyReLU'd scores.
      float mx = -std::numeric_limits<float>::infinity();
      for (int64_t p = begin; p < end; ++p) {
        const float pre = d[v] + s[col_idx[static_cast<size_t>(p)]];
        const float e = pre > 0.0f ? pre : negative_slope * pre;
        alpha[static_cast<size_t>(p)] = e;
        mx = std::max(mx, e);
      }
      float denom = 0.0f;
      for (int64_t p = begin; p < end; ++p) {
        alpha[static_cast<size_t>(p)] =
            std::exp(alpha[static_cast<size_t>(p)] - mx);
        denom += alpha[static_cast<size_t>(p)];
      }
      float* orow = out.data() + v * c;
      for (int64_t p = begin; p < end; ++p) {
        alpha[static_cast<size_t>(p)] /= denom;
        const float a = alpha[static_cast<size_t>(p)];
        const float* xrow = x + col_idx[static_cast<size_t>(p)] * c;
        for (int64_t j = 0; j < c; ++j) orow[j] += a * xrow[j];
      }
    }
  });
  ImplPtr di = dst_score.impl_ptr(), si = src_score.impl_ptr(),
          xi = values.impl_ptr();
  return MakeOp(
      {n, c}, std::move(out), {dst_score, src_score, values},
      [adj, di, si, xi, alpha = std::move(alpha), negative_slope, n,
       c](TensorImpl& self) {
        const auto& row_ptr = adj->row_ptr();
        const auto& col_idx = adj->col_idx();
        const bool need_scores = NeedsGrad(di) || NeedsGrad(si);
        if (NeedsGrad(di)) di->EnsureGrad();
        if (NeedsGrad(si)) si->EnsureGrad();
        if (NeedsGrad(xi)) xi->EnsureGrad();
        std::vector<float> dalpha;
        for (int64_t v = 0; v < n; ++v) {
          const int64_t begin = row_ptr[static_cast<size_t>(v)];
          const int64_t end = row_ptr[static_cast<size_t>(v) + 1];
          if (begin == end) continue;
          const float* g = self.grad.data() + v * c;
          // dx_u += α_vu g_v; dα_vu = g_v · x_u.
          if (need_scores) {
            dalpha.assign(static_cast<size_t>(end - begin), 0.0f);
          }
          float weighted = 0.0f;  // Σ_w α_w dα_w (for the softmax backward)
          for (int64_t p = begin; p < end; ++p) {
            const int64_t u = col_idx[static_cast<size_t>(p)];
            const float a = alpha[static_cast<size_t>(p)];
            if (NeedsGrad(xi)) {
              float* gx = xi->grad.data() + u * c;
              for (int64_t j = 0; j < c; ++j) gx[j] += a * g[j];
            }
            if (need_scores) {
              const float* xrow = xi->data.data() + u * c;
              float dot = 0.0f;
              for (int64_t j = 0; j < c; ++j) dot += g[j] * xrow[j];
              dalpha[static_cast<size_t>(p - begin)] = dot;
              weighted += a * dot;
            }
          }
          if (!need_scores) continue;
          for (int64_t p = begin; p < end; ++p) {
            const int64_t u = col_idx[static_cast<size_t>(p)];
            const float a = alpha[static_cast<size_t>(p)];
            const float de =
                a * (dalpha[static_cast<size_t>(p - begin)] - weighted);
            const float pre = di->data[static_cast<size_t>(v)] +
                              si->data[static_cast<size_t>(u)];
            const float dpre = de * (pre > 0.0f ? 1.0f : negative_slope);
            if (NeedsGrad(di)) di->grad[static_cast<size_t>(v)] += dpre;
            if (NeedsGrad(si)) si->grad[static_cast<size_t>(u)] += dpre;
          }
        }
      });
}

}  // namespace fairwos::tensor
