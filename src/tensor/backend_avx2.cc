// AVX2/FMA kernel hooks for Avx2Backend. This translation unit is compiled
// with -mavx2 -mfma (see src/tensor/CMakeLists.txt); nothing here runs
// unless runtime CPUID dispatch selected the backend, so the rest of the
// binary stays runnable on any x86-64.
//
// Only GEMM, SpMM and Reduce have hooks here; the elementwise families run
// the shared CpuBackend code in every backend (see tensor/backend.h).
//
// Bit-identity discipline (docs/kernels.md): with fast-math OFF every hook
// below performs, per output element, exactly the operation sequence of the
// scalar reference — separate mul-then-add (no FMA fusion) and identical
// zero-skips. Kernels whose vectorization would reassociate a reduction
// (GemmNT dot products, Reduce) delegate to the scalar hook unless
// fast-math is on. Tensor data is always read and written with unaligned
// loadu/storeu, so no hook depends on storage alignment.

#include "tensor/backend.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>

namespace fairwos::tensor {
namespace {

template <bool kFma>
inline __m256 MulAdd(__m256 a, __m256 b, __m256 acc) {
  if constexpr (kFma) {
    return _mm256_fmadd_ps(a, b, acc);
  } else {
    // Separate rounding after the multiply and after the add — the scalar
    // sequence, vectorized lane-wise.
    return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
  }
}

/// yrow[0..m) += av * xrow[0..m)
template <bool kFma>
inline void Axpy(float av, const float* xrow, float* yrow, int64_t m) {
  const __m256 vav = _mm256_set1_ps(av);
  int64_t p = 0;
  for (; p + 8 <= m; p += 8) {
    _mm256_storeu_ps(
        yrow + p, MulAdd<kFma>(vav, _mm256_loadu_ps(xrow + p),
                               _mm256_loadu_ps(yrow + p)));
  }
  for (; p < m; ++p) yrow[p] += av * xrow[p];
}

/// One chunk of GemmNN with the output row register-tiled 32 columns at a
/// time: the j-tile accumulators stay in ymm registers across the whole p
/// loop, which removes the per-p load/store round trip of the naive axpy
/// form while keeping each c[i,j]'s accumulation order exactly serial.
template <bool kFma>
void GemmNNChunkImpl(const float* a, const float* b, float* c, int64_t lo,
                     int64_t hi, int64_t k, int64_t m) {
  for (int64_t i = lo; i < hi; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * m;
    int64_t j = 0;
    for (; j + 32 <= m; j += 32) {
      __m256 acc0 = _mm256_loadu_ps(crow + j);
      __m256 acc1 = _mm256_loadu_ps(crow + j + 8);
      __m256 acc2 = _mm256_loadu_ps(crow + j + 16);
      __m256 acc3 = _mm256_loadu_ps(crow + j + 24);
      for (int64_t p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const __m256 vav = _mm256_set1_ps(av);
        const float* brow = b + p * m + j;
        acc0 = MulAdd<kFma>(vav, _mm256_loadu_ps(brow), acc0);
        acc1 = MulAdd<kFma>(vav, _mm256_loadu_ps(brow + 8), acc1);
        acc2 = MulAdd<kFma>(vav, _mm256_loadu_ps(brow + 16), acc2);
        acc3 = MulAdd<kFma>(vav, _mm256_loadu_ps(brow + 24), acc3);
      }
      _mm256_storeu_ps(crow + j, acc0);
      _mm256_storeu_ps(crow + j + 8, acc1);
      _mm256_storeu_ps(crow + j + 16, acc2);
      _mm256_storeu_ps(crow + j + 24, acc3);
    }
    for (; j + 8 <= m; j += 8) {
      __m256 acc = _mm256_loadu_ps(crow + j);
      for (int64_t p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        acc = MulAdd<kFma>(_mm256_set1_ps(av),
                           _mm256_loadu_ps(b + p * m + j), acc);
      }
      _mm256_storeu_ps(crow + j, acc);
    }
    if (j < m) {
      for (int64_t p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const float* brow = b + p * m;
        for (int64_t jj = j; jj < m; ++jj) crow[jj] += av * brow[jj];
      }
    }
  }
}

template <bool kFma>
void GemmTNChunkImpl(const float* a, const float* b, float* c, int64_t lo,
                     int64_t hi, int64_t n, int64_t k, int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * m;
    for (int64_t j = lo; j < hi; ++j) {
      const float av = arow[j];
      if (av == 0.0f) continue;
      Axpy<kFma>(av, brow, c + j * m, m);
    }
  }
}

/// FMA dot product with a fixed horizontal-sum order — fast-math only.
float DotFma(const float* a, const float* b, int64_t m) {
  __m256 acc = _mm256_setzero_ps();
  int64_t p = 0;
  for (; p + 8 <= m; p += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + p), _mm256_loadu_ps(b + p), acc);
  }
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(acc),
                        _mm256_extractf128_ps(acc, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  float r = _mm_cvtss_f32(s);
  for (; p < m; ++p) r += a[p] * b[p];
  return r;
}

}  // namespace

void Avx2Backend::GemmNNChunk(const float* a, const float* b, float* c,
                              int64_t lo, int64_t hi, int64_t k,
                              int64_t m) const {
  if (FastMathEnabled()) {
    GemmNNChunkImpl<true>(a, b, c, lo, hi, k, m);
  } else {
    GemmNNChunkImpl<false>(a, b, c, lo, hi, k, m);
  }
}

void Avx2Backend::GemmNTChunk(const float* a, const float* b, float* c,
                              int64_t lo, int64_t hi, int64_t m,
                              int64_t k) const {
  if (!FastMathEnabled()) {
    // The inner dot product reassociates under vectorization; stay scalar
    // to keep the backend bit-identical to the reference.
    CpuBackend::GemmNTChunk(a, b, c, lo, hi, m, k);
    return;
  }
  for (int64_t i = lo; i < hi; ++i) {
    const float* arow = a + i * m;
    float* crow = c + i * k;
    for (int64_t j = 0; j < k; ++j) crow[j] += DotFma(arow, b + j * m, m);
  }
}

void Avx2Backend::GemmTNChunk(const float* a, const float* b, float* c,
                              int64_t lo, int64_t hi, int64_t n, int64_t k,
                              int64_t m) const {
  if (FastMathEnabled()) {
    GemmTNChunkImpl<true>(a, b, c, lo, hi, n, k, m);
  } else {
    GemmTNChunkImpl<false>(a, b, c, lo, hi, n, k, m);
  }
}

void Avx2Backend::SpmmChunk(const int64_t* row_ptr, const int64_t* col_idx,
                            const float* values, int64_t lo, int64_t hi,
                            const float* x, int64_t x_cols, float* y) const {
  const bool fm = FastMathEnabled();
  std::fill(y + lo * x_cols, y + hi * x_cols, 0.0f);
  for (int64_t r = lo; r < hi; ++r) {
    float* yrow = y + r * x_cols;
    for (int64_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
      const float* xrow = x + col_idx[p] * x_cols;
      if (fm) {
        Axpy<true>(values[p], xrow, yrow, x_cols);
      } else {
        Axpy<false>(values[p], xrow, yrow, x_cols);
      }
    }
  }
}

double Avx2Backend::ReduceChunk(ReduceKind kind, const float* x, int64_t lo,
                                int64_t hi) const {
  if (!FastMathEnabled()) {
    // Sequential double accumulation is order-sensitive; keep the scalar
    // reference path for bit-identity.
    return CpuBackend::ReduceChunk(kind, x, lo, hi);
  }
  __m256d acc = _mm256_setzero_pd();
  int64_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    acc = kind == ReduceKind::kSum ? _mm256_add_pd(acc, v)
                                   : _mm256_fmadd_pd(v, v, acc);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double part = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
  for (; i < hi; ++i) {
    part += kind == ReduceKind::kSum ? static_cast<double>(x[i])
                                     : static_cast<double>(x[i]) * x[i];
  }
  return part;
}

}  // namespace fairwos::tensor

#else  // !(__AVX2__ && __FMA__)

// Built without AVX2 target support (non-x86 or stripped flags): the hooks
// degrade to the scalar reference bodies. Runtime dispatch never selects
// this backend on such hosts anyway (common::CpuSupportsAvx2Fma is false).
namespace fairwos::tensor {

void Avx2Backend::GemmNNChunk(const float* a, const float* b, float* c,
                              int64_t lo, int64_t hi, int64_t k,
                              int64_t m) const {
  CpuBackend::GemmNNChunk(a, b, c, lo, hi, k, m);
}
void Avx2Backend::GemmNTChunk(const float* a, const float* b, float* c,
                              int64_t lo, int64_t hi, int64_t m,
                              int64_t k) const {
  CpuBackend::GemmNTChunk(a, b, c, lo, hi, m, k);
}
void Avx2Backend::GemmTNChunk(const float* a, const float* b, float* c,
                              int64_t lo, int64_t hi, int64_t n, int64_t k,
                              int64_t m) const {
  CpuBackend::GemmTNChunk(a, b, c, lo, hi, n, k, m);
}
void Avx2Backend::SpmmChunk(const int64_t* row_ptr, const int64_t* col_idx,
                            const float* values, int64_t lo, int64_t hi,
                            const float* x, int64_t x_cols, float* y) const {
  CpuBackend::SpmmChunk(row_ptr, col_idx, values, lo, hi, x, x_cols, y);
}
double Avx2Backend::ReduceChunk(ReduceKind kind, const float* x, int64_t lo,
                                int64_t hi) const {
  return CpuBackend::ReduceChunk(kind, x, lo, hi);
}

}  // namespace fairwos::tensor

#endif  // __AVX2__ && __FMA__
