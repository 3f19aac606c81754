#include "tensor/backend.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "common/cpuid.h"
#include "common/threadpool.h"

namespace fairwos::tensor {
namespace {

// Rows per ParallelFor chunk for SpMM. Adjacency rows are cheap (average
// degree is small), so batch enough of them that chunk overhead stays
// negligible.
constexpr int64_t kSpmmRowGrain = 256;

// Elementwise chunk bodies. Every backend runs these: the loops are
// compiler-vectorized and memory-bound, so hand-written SIMD does not beat
// them, and one implementation makes the family bit-identical across
// backends.

void EwiseBinaryChunk(EwiseBinaryOp op, const float* a, const float* b,
                      float* out, int64_t lo, int64_t hi) {
  switch (op) {
    case EwiseBinaryOp::kAdd:
      for (int64_t i = lo; i < hi; ++i) out[i] = a[i] + b[i];
      break;
    case EwiseBinaryOp::kSub:
      for (int64_t i = lo; i < hi; ++i) out[i] = a[i] - b[i];
      break;
    case EwiseBinaryOp::kMul:
      for (int64_t i = lo; i < hi; ++i) out[i] = a[i] * b[i];
      break;
    case EwiseBinaryOp::kDiv:
      for (int64_t i = lo; i < hi; ++i) out[i] = a[i] / b[i];
      break;
  }
}

void EwiseBinaryGradChunk(EwiseBinaryOp op, int input, const float* y,
                          const float* gy, const float* a, const float* b,
                          float* gx, int64_t lo, int64_t hi) {
  switch (op) {
    case EwiseBinaryOp::kAdd:
      for (int64_t i = lo; i < hi; ++i) gx[i] += gy[i];
      break;
    case EwiseBinaryOp::kSub:
      if (input == 0) {
        for (int64_t i = lo; i < hi; ++i) gx[i] += gy[i];
      } else {
        for (int64_t i = lo; i < hi; ++i) gx[i] += -gy[i];
      }
      break;
    case EwiseBinaryOp::kMul:
      if (input == 0) {
        for (int64_t i = lo; i < hi; ++i) gx[i] += gy[i] * b[i];
      } else {
        for (int64_t i = lo; i < hi; ++i) gx[i] += gy[i] * a[i];
      }
      break;
    case EwiseBinaryOp::kDiv:
      if (input == 0) {
        for (int64_t i = lo; i < hi; ++i) gx[i] += gy[i] / b[i];
      } else {
        // d(a/b)/db = -a/b² = -y/b.
        for (int64_t i = lo; i < hi; ++i) gx[i] += -gy[i] * y[i] / b[i];
      }
      break;
  }
}

void EwiseUnaryChunk(EwiseUnaryOp op, float p0, float p1, const float* x,
                     float* out, int64_t lo, int64_t hi) {
  switch (op) {
    case EwiseUnaryOp::kAddScalar:
      for (int64_t i = lo; i < hi; ++i) out[i] = x[i] + p0;
      break;
    case EwiseUnaryOp::kMulScalar:
      for (int64_t i = lo; i < hi; ++i) out[i] = x[i] * p0;
      break;
    case EwiseUnaryOp::kRelu:
      for (int64_t i = lo; i < hi; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
      break;
    case EwiseUnaryOp::kLeakyRelu:
      for (int64_t i = lo; i < hi; ++i) {
        out[i] = x[i] > 0.0f ? x[i] : p0 * x[i];
      }
      break;
    case EwiseUnaryOp::kSigmoid:
      for (int64_t i = lo; i < hi; ++i) {
        // Stable in both tails.
        if (x[i] >= 0.0f) {
          out[i] = 1.0f / (1.0f + std::exp(-x[i]));
        } else {
          const float e = std::exp(x[i]);
          out[i] = e / (1.0f + e);
        }
      }
      break;
    case EwiseUnaryOp::kTanh:
      for (int64_t i = lo; i < hi; ++i) out[i] = std::tanh(x[i]);
      break;
    case EwiseUnaryOp::kExp:
      for (int64_t i = lo; i < hi; ++i) out[i] = std::exp(x[i]);
      break;
    case EwiseUnaryOp::kLog:
      for (int64_t i = lo; i < hi; ++i) out[i] = std::log(x[i]);
      break;
    case EwiseUnaryOp::kSqrt:
      for (int64_t i = lo; i < hi; ++i) out[i] = std::sqrt(x[i]);
      break;
    case EwiseUnaryOp::kAbs:
      for (int64_t i = lo; i < hi; ++i) out[i] = std::abs(x[i]);
      break;
    case EwiseUnaryOp::kPow:
      for (int64_t i = lo; i < hi; ++i) out[i] = std::pow(x[i], p0);
      break;
    case EwiseUnaryOp::kClamp:
      for (int64_t i = lo; i < hi; ++i) {
        out[i] = std::min(std::max(x[i], p0), p1);
      }
      break;
  }
}

void EwiseUnaryGradChunk(EwiseUnaryOp op, float p0, float p1, const float* y,
                         const float* x, const float* gy, float* gx,
                         int64_t lo, int64_t hi) {
  switch (op) {
    case EwiseUnaryOp::kAddScalar:
      for (int64_t i = lo; i < hi; ++i) gx[i] += gy[i];
      break;
    case EwiseUnaryOp::kMulScalar:
      for (int64_t i = lo; i < hi; ++i) gx[i] += gy[i] * p0;
      break;
    case EwiseUnaryOp::kRelu:
      for (int64_t i = lo; i < hi; ++i) {
        gx[i] += gy[i] * (x[i] > 0.0f ? 1.0f : 0.0f);
      }
      break;
    case EwiseUnaryOp::kLeakyRelu:
      for (int64_t i = lo; i < hi; ++i) {
        gx[i] += gy[i] * (x[i] > 0.0f ? 1.0f : p0);
      }
      break;
    case EwiseUnaryOp::kSigmoid:
      for (int64_t i = lo; i < hi; ++i) gx[i] += gy[i] * (y[i] * (1.0f - y[i]));
      break;
    case EwiseUnaryOp::kTanh:
      for (int64_t i = lo; i < hi; ++i) gx[i] += gy[i] * (1.0f - y[i] * y[i]);
      break;
    case EwiseUnaryOp::kExp:
      for (int64_t i = lo; i < hi; ++i) gx[i] += gy[i] * y[i];
      break;
    case EwiseUnaryOp::kLog:
      for (int64_t i = lo; i < hi; ++i) gx[i] += gy[i] * (1.0f / x[i]);
      break;
    case EwiseUnaryOp::kSqrt:
      for (int64_t i = lo; i < hi; ++i) {
        gx[i] += gy[i] * (0.5f / std::max(y[i], 1e-12f));
      }
      break;
    case EwiseUnaryOp::kAbs:
      for (int64_t i = lo; i < hi; ++i) {
        gx[i] += gy[i] * (x[i] > 0.0f ? 1.0f : (x[i] < 0.0f ? -1.0f : 0.0f));
      }
      break;
    case EwiseUnaryOp::kPow:
      for (int64_t i = lo; i < hi; ++i) {
        gx[i] += gy[i] * (p0 * std::pow(x[i], p0 - 1.0f));
      }
      break;
    case EwiseUnaryOp::kClamp:
      for (int64_t i = lo; i < hi; ++i) {
        gx[i] += gy[i] * ((x[i] >= p0 && x[i] <= p1) ? 1.0f : 0.0f);
      }
      break;
  }
}

}  // namespace

int64_t RowGrain(int64_t row_cost) {
  constexpr int64_t kRowWorkTarget = 1 << 16;
  return std::max<int64_t>(1, kRowWorkTarget / std::max<int64_t>(row_cost, 1));
}

// ---------------------------------------------------------------------------
// CpuBackend: ParallelFor skeletons. Chunk layout depends only on the
// problem size and the fixed grains, never on the thread count
// (docs/parallelism.md).

void CpuBackend::GemmNN(const float* a, const float* b, float* c, int64_t n,
                        int64_t k, int64_t m) const {
  common::ParallelFor(0, n, RowGrain(k * m), [&](int64_t lo, int64_t hi) {
    GemmNNChunk(a, b, c, lo, hi, k, m);
  });
}

void CpuBackend::GemmNT(const float* a, const float* b, float* c, int64_t n,
                        int64_t m, int64_t k) const {
  common::ParallelFor(0, n, RowGrain(m * k), [&](int64_t lo, int64_t hi) {
    GemmNTChunk(a, b, c, lo, hi, m, k);
  });
}

void CpuBackend::GemmTN(const float* a, const float* b, float* c, int64_t n,
                        int64_t k, int64_t m) const {
  common::ParallelFor(0, k, RowGrain(n * m), [&](int64_t lo, int64_t hi) {
    GemmTNChunk(a, b, c, lo, hi, n, k, m);
  });
}

void CpuBackend::Spmm(const int64_t* row_ptr, const int64_t* col_idx,
                      const float* values, int64_t rows, const float* x,
                      int64_t x_cols, float* y) const {
  common::ParallelFor(0, rows, kSpmmRowGrain, [&](int64_t lo, int64_t hi) {
    SpmmChunk(row_ptr, col_idx, values, lo, hi, x, x_cols, y);
  });
}

void CpuBackend::EwiseBinary(EwiseBinaryOp op, const float* a, const float* b,
                             float* out, int64_t n) const {
  common::ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
    EwiseBinaryChunk(op, a, b, out, lo, hi);
  });
}

void CpuBackend::EwiseBinaryGrad(EwiseBinaryOp op, int input, const float* y,
                                 const float* gy, const float* a,
                                 const float* b, float* gx, int64_t n) const {
  common::ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
    EwiseBinaryGradChunk(op, input, y, gy, a, b, gx, lo, hi);
  });
}

void CpuBackend::EwiseUnary(EwiseUnaryOp op, float p0, float p1,
                            const float* x, float* out, int64_t n) const {
  common::ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
    EwiseUnaryChunk(op, p0, p1, x, out, lo, hi);
  });
}

void CpuBackend::EwiseUnaryGrad(EwiseUnaryOp op, float p0, float p1,
                                const float* y, const float* x,
                                const float* gy, float* gx, int64_t n) const {
  common::ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
    EwiseUnaryGradChunk(op, p0, p1, y, x, gy, gx, lo, hi);
  });
}

double CpuBackend::Reduce(ReduceKind kind, const float* x, int64_t n) const {
  const int64_t num_chunks = (n + kElemGrain - 1) / kElemGrain;
  if (num_chunks <= 1) return n > 0 ? ReduceChunk(kind, x, 0, n) : 0.0;
  // Iterate over chunk indices, not elements: even when ParallelFor runs
  // inline (one thread) every partial is still computed per chunk, so the
  // summation association never depends on the thread count.
  std::vector<double> partials(static_cast<size_t>(num_chunks), 0.0);
  common::ParallelFor(0, num_chunks, 1, [&](int64_t clo, int64_t chi) {
    for (int64_t ch = clo; ch < chi; ++ch) {
      const int64_t lo = ch * kElemGrain;
      const int64_t hi = std::min(n, lo + kElemGrain);
      partials[static_cast<size_t>(ch)] = ReduceChunk(kind, x, lo, hi);
    }
  });
  double acc = 0.0;
  for (double p : partials) acc += p;
  return acc;
}

// ---------------------------------------------------------------------------
// Scalar reference chunk bodies (the default hooks). These ARE the
// correctness spec: every other backend is tested against them bit for bit.

void CpuBackend::GemmNNChunk(const float* a, const float* b, float* c,
                             int64_t lo, int64_t hi, int64_t k,
                             int64_t m) const {
  // ikj loop order for locality; the zero-skip both saves work on sparse
  // activations and defines the NaN/signed-zero semantics vector backends
  // must reproduce (0·inf never happens for a skipped av).
  for (int64_t i = lo; i < hi; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * m;
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * m;
      for (int64_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

void CpuBackend::GemmNTChunk(const float* a, const float* b, float* c,
                             int64_t lo, int64_t hi, int64_t m,
                             int64_t k) const {
  for (int64_t i = lo; i < hi; ++i) {
    const float* arow = a + i * m;
    float* crow = c + i * k;
    for (int64_t j = 0; j < k; ++j) {
      const float* brow = b + j * m;
      float acc = 0.0f;
      for (int64_t p = 0; p < m; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

void CpuBackend::GemmTNChunk(const float* a, const float* b, float* c,
                             int64_t lo, int64_t hi, int64_t n, int64_t k,
                             int64_t m) const {
  // i stays the outer loop so every c element accumulates its n
  // contributions in the same order as the serial ikj nest.
  for (int64_t i = 0; i < n; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * m;
    for (int64_t j = lo; j < hi; ++j) {
      const float av = arow[j];
      if (av == 0.0f) continue;
      float* crow = c + j * m;
      for (int64_t p = 0; p < m; ++p) crow[p] += av * brow[p];
    }
  }
}

void CpuBackend::SpmmChunk(const int64_t* row_ptr, const int64_t* col_idx,
                           const float* values, int64_t lo, int64_t hi,
                           const float* x, int64_t x_cols, float* y) const {
  std::fill(y + lo * x_cols, y + hi * x_cols, 0.0f);
  for (int64_t r = lo; r < hi; ++r) {
    float* yrow = y + r * x_cols;
    for (int64_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
      const float v = values[p];
      const float* xrow = x + col_idx[p] * x_cols;
      for (int64_t c = 0; c < x_cols; ++c) yrow[c] += v * xrow[c];
    }
  }
}

double CpuBackend::ReduceChunk(ReduceKind kind, const float* x, int64_t lo,
                               int64_t hi) const {
  double part = 0.0;
  switch (kind) {
    case ReduceKind::kSum:
      for (int64_t i = lo; i < hi; ++i) part += x[i];
      break;
    case ReduceKind::kSumSquares:
      for (int64_t i = lo; i < hi; ++i) {
        part += static_cast<double>(x[i]) * x[i];
      }
      break;
  }
  return part;
}

// ---------------------------------------------------------------------------
// Dispatch

namespace {

std::atomic<const KernelBackend*> g_active{nullptr};
std::mutex g_select_mu;
SimdMode g_requested_mode = SimdMode::kAuto;

void InitFromEnvOnce() {
  static std::once_flag once;
  std::call_once(once, [] {
    SimdMode mode = SimdMode::kAuto;
    if (const char* env = std::getenv("FAIRWOS_SIMD"); env != nullptr) {
      auto parsed = ParseSimdMode(env);
      FW_CHECK(parsed.ok()) << "FAIRWOS_SIMD: " << parsed.status().ToString();
      mode = *parsed;
    }
    const common::Status s = SelectBackend(mode);
    FW_CHECK(s.ok()) << "FAIRWOS_SIMD: " << s.ToString();
  });
}

}  // namespace

common::Result<SimdMode> ParseSimdMode(const std::string& text) {
  if (text == "auto") return SimdMode::kAuto;
  if (text == "scalar") return SimdMode::kScalar;
  if (text == "avx2") return SimdMode::kAvx2;
  return common::Status::InvalidArgument(
      "unknown SIMD mode '" + text + "' (expected auto|scalar|avx2)");
}

const char* SimdModeName(SimdMode mode) {
  switch (mode) {
    case SimdMode::kAuto:
      return "auto";
    case SimdMode::kScalar:
      return "scalar";
    case SimdMode::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const KernelBackend& GetScalarBackend() {
  static const ScalarBackend backend;
  return backend;
}

const KernelBackend* GetAvx2BackendOrNull() {
  if (!common::CpuSupportsAvx2Fma()) return nullptr;
  static const Avx2Backend backend;
  return &backend;
}

common::Status SelectBackend(SimdMode mode) {
  std::lock_guard<std::mutex> lock(g_select_mu);
  const KernelBackend* next = nullptr;
  switch (mode) {
    case SimdMode::kScalar:
      next = &GetScalarBackend();
      break;
    case SimdMode::kAvx2:
      next = GetAvx2BackendOrNull();
      if (next == nullptr) {
        return common::Status::FailedPrecondition(
            "avx2 backend requested but this host lacks avx2+fma (detected: " +
            common::CpuFeatureString(common::DetectCpuFeatures()) + ")");
      }
      break;
    case SimdMode::kAuto:
      next = GetAvx2BackendOrNull();
      if (next == nullptr) next = &GetScalarBackend();
      break;
  }
  g_requested_mode = mode;
  g_active.store(next, std::memory_order_release);
  return common::Status::OK();
}

const KernelBackend& ActiveBackend() {
  const KernelBackend* b = g_active.load(std::memory_order_acquire);
  if (b != nullptr) return *b;
  InitFromEnvOnce();
  return *g_active.load(std::memory_order_acquire);
}

BackendInfo ActiveBackendInfo() {
  BackendInfo info;
  info.active = ActiveBackend().name();
  {
    std::lock_guard<std::mutex> lock(g_select_mu);
    info.requested_mode = SimdModeName(g_requested_mode);
  }
  info.cpu_features = common::CpuFeatureString(common::DetectCpuFeatures());
  info.avx2_supported = common::CpuSupportsAvx2Fma();
  return info;
}

}  // namespace fairwos::tensor
