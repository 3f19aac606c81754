// AVX2/FMA kernel hooks for Avx2Backend. This translation unit is compiled
// with -mavx2 -mfma (see src/tensor/CMakeLists.txt); nothing here runs
// unless runtime CPUID dispatch selected the backend, so the rest of the
// binary stays runnable on any x86-64.
//
// Only GemmNN, GemmTN and SpMM have hooks here; every other kernel runs the
// shared CpuBackend code in every backend (see tensor/backend.h).
//
// Bit-identity discipline (docs/kernels.md): every hook below performs, per
// output element, exactly the operation sequence of the scalar reference —
// separate mul-then-add (no FMA fusion) and identical zero-skips. Tensor
// data is always read and written with unaligned loadu/storeu, so no hook
// depends on storage alignment.

#include "tensor/backend.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>

namespace fairwos::tensor {
namespace {

/// Separate rounding after the multiply and after the add — the scalar
/// sequence, vectorized lane-wise.
inline __m256 MulAdd(__m256 a, __m256 b, __m256 acc) {
  return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
}

/// yrow[0..m) += av * xrow[0..m)
inline void Axpy(float av, const float* xrow, float* yrow, int64_t m) {
  const __m256 vav = _mm256_set1_ps(av);
  int64_t p = 0;
  for (; p + 8 <= m; p += 8) {
    _mm256_storeu_ps(
        yrow + p,
        MulAdd(vav, _mm256_loadu_ps(xrow + p), _mm256_loadu_ps(yrow + p)));
  }
  for (; p < m; ++p) yrow[p] += av * xrow[p];
}

}  // namespace

/// One chunk of GemmNN with the output row register-tiled 32 columns at a
/// time: the j-tile accumulators stay in ymm registers across the whole p
/// loop, which removes the per-p load/store round trip of the naive axpy
/// form while keeping each c[i,j]'s accumulation order exactly serial.
void Avx2Backend::GemmNNChunk(const float* a, const float* b, float* c,
                              int64_t lo, int64_t hi, int64_t k,
                              int64_t m) const {
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
        acc0 = MulAdd(vav, _mm256_loadu_ps(brow), acc0);
        acc1 = MulAdd(vav, _mm256_loadu_ps(brow + 8), acc1);
        acc2 = MulAdd(vav, _mm256_loadu_ps(brow + 16), acc2);
        acc3 = MulAdd(vav, _mm256_loadu_ps(brow + 24), acc3);
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
        acc = MulAdd(_mm256_set1_ps(av), _mm256_loadu_ps(b + p * m + j),
                     acc);
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

void Avx2Backend::GemmTNChunk(const float* a, const float* b, float* c,
                              int64_t lo, int64_t hi, int64_t n, int64_t k,
                              int64_t m) const {
  for (int64_t i = 0; i < n; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * m;
    for (int64_t j = lo; j < hi; ++j) {
      const float av = arow[j];
      if (av == 0.0f) continue;
      Axpy(av, brow, c + j * m, m);
    }
  }
}

void Avx2Backend::SpmmChunk(const int64_t* row_ptr, const int64_t* col_idx,
                            const float* values, int64_t lo, int64_t hi,
                            const float* x, int64_t x_cols, float* y) const {
  std::fill(y + lo * x_cols, y + hi * x_cols, 0.0f);
  for (int64_t r = lo; r < hi; ++r) {
    float* yrow = y + r * x_cols;
    for (int64_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
      const float* xrow = x + col_idx[p] * x_cols;
      Axpy(values[p], xrow, yrow, x_cols);
    }
  }
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

}  // namespace fairwos::tensor

#endif  // __AVX2__ && __FMA__
