// Kernel backend layer (docs/kernels.md): the compute kernels behind the
// autograd-facing ops in tensor/ops.h, factored into one interface so a new
// instruction set is implemented once per kernel family instead of once per
// op. Two implementations ship: the scalar reference backend (the
// bit-identical-at-any-thread-count baseline, docs/parallelism.md) and an
// AVX2/FMA backend selected at runtime by CPUID dispatch.
//
// Contract: every backend must produce bit-identical results to the scalar
// reference at any thread count — the AVX2 backend therefore only
// vectorizes kernels whose per-element operation sequence is preserved
// exactly (per-lane mul-then-add). GemmNT dot products and Reduce would
// reassociate a sum under vectorization, so they have no hook and every
// backend runs the scalar body (see docs/kernels.md and
// tests/kernel_backend_test.cc).
//
// Threading: the public entry points own the ParallelFor chunking (same
// grain discipline ops.cc always used); subclasses override the GemmNN,
// GemmTN and SpMM per-chunk hooks and never see the thread count. The
// elementwise families have no hook: they are memory-bound, the compiler
// vectorizes the one shared implementation, and every backend runs it.
#ifndef FAIRWOS_TENSOR_BACKEND_H_
#define FAIRWOS_TENSOR_BACKEND_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace fairwos::tensor {

/// Elements per chunk for memory-bound elementwise loops (also the fixed
/// partial size for deterministic reductions).
inline constexpr int64_t kElemGrain = 1 << 15;

/// Rows per chunk for row-blocked loops, scaled so a chunk carries roughly
/// 2^16 inner iterations regardless of the row width.
int64_t RowGrain(int64_t row_cost);

/// The elementwise binary arithmetic family (ops Add/Sub/Mul/Div).
enum class EwiseBinaryOp { kAdd, kSub, kMul, kDiv };

/// The elementwise unary family. `p0`/`p1` carry the op's parameters:
/// kAddScalar/kMulScalar use p0 as the scalar, kLeakyRelu p0 as the slope,
/// kPow p0 as the exponent, kClamp [p0, p1] as the bounds.
enum class EwiseUnaryOp {
  kAddScalar,
  kMulScalar,
  kRelu,
  kLeakyRelu,
  kSigmoid,
  kTanh,
  kExp,
  kLog,
  kSqrt,
  kAbs,
  kPow,
  kClamp,
};

enum class ReduceKind { kSum, kSumSquares };

/// Abstract kernel set. All pointers are dense row-major float buffers;
/// `Gemm*` accumulate into `c` (callers zero it when they want a plain
/// product), `Spmm` overwrites `y`, the Ewise entry points write `out` /
/// accumulate into `gx`.
class KernelBackend {
 public:
  virtual ~KernelBackend() = default;

  /// Stable lowercase identifier ("scalar", "avx2") for logs and CI gates.
  virtual const char* name() const = 0;

  /// c[n,m] += a[n,k] · b[k,m]
  virtual void GemmNN(const float* a, const float* b, float* c, int64_t n,
                      int64_t k, int64_t m) const = 0;
  /// c[n,k] += a[n,m] · b[k,m]ᵀ
  virtual void GemmNT(const float* a, const float* b, float* c, int64_t n,
                      int64_t m, int64_t k) const = 0;
  /// c[k,m] += a[n,k]ᵀ · b[n,m]
  virtual void GemmTN(const float* a, const float* b, float* c, int64_t n,
                      int64_t k, int64_t m) const = 0;

  /// y[rows, x_cols] = CSR(row_ptr, col_idx, values) · x  (overwrites y).
  virtual void Spmm(const int64_t* row_ptr, const int64_t* col_idx,
                    const float* values, int64_t rows, const float* x,
                    int64_t x_cols, float* y) const = 0;

  /// out[i] = op(a[i], b[i])
  virtual void EwiseBinary(EwiseBinaryOp op, const float* a, const float* b,
                           float* out, int64_t n) const = 0;
  /// Accumulates d(op)/d(input) into gx: `input` selects the operand (0 = a,
  /// 1 = b); `y`/`gy` are the forward output and its incoming gradient.
  virtual void EwiseBinaryGrad(EwiseBinaryOp op, int input, const float* y,
                               const float* gy, const float* a, const float* b,
                               float* gx, int64_t n) const = 0;

  /// out[i] = op(x[i]; p0, p1)
  virtual void EwiseUnary(EwiseUnaryOp op, float p0, float p1, const float* x,
                          float* out, int64_t n) const = 0;
  /// gx[i] += gy[i] * d(op)/dx evaluated from forward output y and input x.
  virtual void EwiseUnaryGrad(EwiseUnaryOp op, float p0, float p1,
                              const float* y, const float* x, const float* gy,
                              float* gx, int64_t n) const = 0;

  /// Full deterministic reduction of x[0..n): fixed kElemGrain chunks with
  /// double partials combined in chunk order.
  virtual double Reduce(ReduceKind kind, const float* x, int64_t n) const = 0;
};

/// Shared CPU skeleton: implements every public entry point with the
/// repo-standard ParallelFor chunking. The GemmNN, GemmTN and SpMM chunk
/// bodies are protected virtual hooks whose default implementations ARE the
/// scalar reference kernels; vector backends override them only where
/// vectorization preserves bit-identity.
class CpuBackend : public KernelBackend {
 public:
  void GemmNN(const float* a, const float* b, float* c, int64_t n, int64_t k,
              int64_t m) const final;
  void GemmNT(const float* a, const float* b, float* c, int64_t n, int64_t m,
              int64_t k) const final;
  void GemmTN(const float* a, const float* b, float* c, int64_t n, int64_t k,
              int64_t m) const final;
  void Spmm(const int64_t* row_ptr, const int64_t* col_idx,
            const float* values, int64_t rows, const float* x, int64_t x_cols,
            float* y) const final;
  void EwiseBinary(EwiseBinaryOp op, const float* a, const float* b,
                   float* out, int64_t n) const final;
  void EwiseBinaryGrad(EwiseBinaryOp op, int input, const float* y,
                       const float* gy, const float* a, const float* b,
                       float* gx, int64_t n) const final;
  void EwiseUnary(EwiseUnaryOp op, float p0, float p1, const float* x,
                  float* out, int64_t n) const final;
  void EwiseUnaryGrad(EwiseUnaryOp op, float p0, float p1, const float* y,
                      const float* x, const float* gy, float* gx,
                      int64_t n) const final;
  double Reduce(ReduceKind kind, const float* x, int64_t n) const final;

 protected:
  /// Rows [lo, hi) of c for the NN/NT orientations.
  virtual void GemmNNChunk(const float* a, const float* b, float* c,
                           int64_t lo, int64_t hi, int64_t k,
                           int64_t m) const;
  /// Not a hook: a vectorized dot product would reassociate the sum.
  void GemmNTChunk(const float* a, const float* b, float* c, int64_t lo,
                   int64_t hi, int64_t m, int64_t k) const;
  /// Output rows [lo, hi) of c = aᵀ·b, with the full i ∈ [0, n) outer loop
  /// run inside the chunk so each c element keeps the serial accumulation
  /// order.
  virtual void GemmTNChunk(const float* a, const float* b, float* c,
                           int64_t lo, int64_t hi, int64_t n, int64_t k,
                           int64_t m) const;
  /// CSR rows [lo, hi); must overwrite those y rows.
  virtual void SpmmChunk(const int64_t* row_ptr, const int64_t* col_idx,
                         const float* values, int64_t lo, int64_t hi,
                         const float* x, int64_t x_cols, float* y) const;
  /// One kElemGrain-sized partial; the base class combines partials in
  /// chunk order. Not a hook, for the same reason as GemmNTChunk.
  double ReduceChunk(ReduceKind kind, const float* x, int64_t lo,
                     int64_t hi) const;
};

/// The portable reference backend: CpuBackend's default hooks, unmodified.
class ScalarBackend final : public CpuBackend {
 public:
  const char* name() const override { return "scalar"; }
};

/// AVX2/FMA backend (hooks defined in backend_avx2.cc, compiled with
/// -mavx2 -mfma). GemmNN, GemmTN and SpMM are vectorized bit-identically
/// to scalar; everything else runs the shared scalar code.
class Avx2Backend final : public CpuBackend {
 public:
  const char* name() const override { return "avx2"; }

 protected:
  void GemmNNChunk(const float* a, const float* b, float* c, int64_t lo,
                   int64_t hi, int64_t k, int64_t m) const override;
  void GemmTNChunk(const float* a, const float* b, float* c, int64_t lo,
                   int64_t hi, int64_t n, int64_t k, int64_t m) const override;
  void SpmmChunk(const int64_t* row_ptr, const int64_t* col_idx,
                 const float* values, int64_t lo, int64_t hi, const float* x,
                 int64_t x_cols, float* y) const override;
};

// ---------------------------------------------------------------------------
// Dispatch

enum class SimdMode { kAuto, kScalar, kAvx2 };

/// Parses "auto" | "scalar" | "avx2" (the FAIRWOS_SIMD / --simd values).
common::Result<SimdMode> ParseSimdMode(const std::string& text);
const char* SimdModeName(SimdMode mode);

/// The process-wide backend. Initialised on first use from FAIRWOS_SIMD
/// (default auto: AVX2 when the CPU supports avx2+fma, scalar otherwise);
/// an unparseable FAIRWOS_SIMD value is a startup error.
const KernelBackend& ActiveBackend();

/// Re-selects the backend (CLI --simd). Fails with FailedPrecondition when
/// kAvx2 is requested on a host without avx2+fma. Not thread-safe against
/// concurrently running kernels; call during startup/flag parsing only.
common::Status SelectBackend(SimdMode mode);

/// Singletons, for tests and benches that compare backends directly.
const KernelBackend& GetScalarBackend();
/// Null when the host (or build target) lacks AVX2+FMA.
const KernelBackend* GetAvx2BackendOrNull();

/// What `kernel-info` prints.
struct BackendInfo {
  std::string active;          // name() of the dispatched backend
  std::string requested_mode;  // "auto" | "scalar" | "avx2"
  std::string cpu_features;    // CpuFeatureString of the host
  bool avx2_supported = false;
  // Always false: the kernels have no tolerance mode. Kept because the
  // end-to-end bench records it in its environment block.
  bool fast_math = false;
};
BackendInfo ActiveBackendInfo();

}  // namespace fairwos::tensor

#endif  // FAIRWOS_TENSOR_BACKEND_H_
