// The kernel-backend determinism contract (docs/kernels.md): the scalar
// and AVX2 backends must produce bytewise-identical results for the GEMM
// family, SpMM and Reduce at any thread count, and a row of a GemmNN or
// SpMM product must not depend on which other rows are computed with it.
// The elementwise families run one shared implementation in both backends,
// so they need no pair test. Plus the 64-byte alignment of tensor storage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/cpuid.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "tensor/backend.h"
#include "tensor/tensor.h"

namespace fairwos::tensor {
namespace {

std::vector<float> RandomVec(size_t n, uint64_t seed, bool with_specials) {
  common::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Normal(0.0, 1.0));
  if (with_specials && n >= 8) {
    // Exact zeros and negative zeros exercise the kernels' zero-skip and
    // sign-propagation paths, where a careless SIMD port diverges first.
    v[1] = 0.0f;
    v[5] = -0.0f;
  }
  return v;
}

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Restores the default pool size when a test returns early.
struct ThreadGuard {
  ~ThreadGuard() { common::SetGlobalThreadCount(0); }
};

class BackendPairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    avx2_ = GetAvx2BackendOrNull();
    if (avx2_ == nullptr) {
      GTEST_SKIP() << "host lacks AVX2+FMA; single-backend build";
    }
  }
  const KernelBackend* avx2_ = nullptr;
  ThreadGuard guard_;
};

// --- Bit-identity: scalar vs AVX2, 1 vs 8 threads -------------------------

TEST_F(BackendPairTest, GemmFamilyBitIdentical) {
  const int64_t n = 33, k = 29, m = 41;  // odd sizes exercise SIMD tails
  const auto a = RandomVec(static_cast<size_t>(n * k), 1, true);
  const auto b = RandomVec(static_cast<size_t>(k * m), 2, true);
  for (int threads : {1, 8}) {
    common::SetGlobalThreadCount(threads);
    std::vector<float> c_scalar(static_cast<size_t>(n * m), 0.5f);
    std::vector<float> c_avx2 = c_scalar;
    GetScalarBackend().GemmNN(a.data(), b.data(), c_scalar.data(), n, k, m);
    avx2_->GemmNN(a.data(), b.data(), c_avx2.data(), n, k, m);
    EXPECT_TRUE(BitEqual(c_scalar, c_avx2)) << "GemmNN @" << threads;

    // GemmNT: c[n,m] += a[n,k] · bt[m,k]ᵀ (bt stores the transposed factor).
    const auto bt = RandomVec(static_cast<size_t>(m * k), 20, true);
    std::vector<float> t_scalar(static_cast<size_t>(n * m), 0.25f);
    std::vector<float> t_avx2 = t_scalar;
    GetScalarBackend().GemmNT(a.data(), bt.data(), t_scalar.data(), n, k, m);
    avx2_->GemmNT(a.data(), bt.data(), t_avx2.data(), n, k, m);
    EXPECT_TRUE(BitEqual(t_scalar, t_avx2)) << "GemmNT @" << threads;

    // GemmTN: c[k,m2] += a[n,k]ᵀ · b2[n,m2].
    const int64_t m2 = 23;
    const auto b2 = RandomVec(static_cast<size_t>(n * m2), 21, true);
    std::vector<float> g_scalar(static_cast<size_t>(k * m2), 0.0f);
    std::vector<float> g_avx2 = g_scalar;
    GetScalarBackend().GemmTN(a.data(), b2.data(), g_scalar.data(), n, k, m2);
    avx2_->GemmTN(a.data(), b2.data(), g_avx2.data(), n, k, m2);
    EXPECT_TRUE(BitEqual(g_scalar, g_avx2)) << "GemmTN @" << threads;
  }
}

TEST_F(BackendPairTest, GemmNNIdenticalAcrossThreadCounts) {
  const int64_t n = 64, k = 64, m = 64;
  const auto a = RandomVec(static_cast<size_t>(n * k), 3, true);
  const auto b = RandomVec(static_cast<size_t>(k * m), 4, true);
  common::SetGlobalThreadCount(1);
  std::vector<float> c1(static_cast<size_t>(n * m), 0.0f);
  avx2_->GemmNN(a.data(), b.data(), c1.data(), n, k, m);
  common::SetGlobalThreadCount(8);
  std::vector<float> c8(static_cast<size_t>(n * m), 0.0f);
  avx2_->GemmNN(a.data(), b.data(), c8.data(), n, k, m);
  EXPECT_TRUE(BitEqual(c1, c8));
}

TEST_F(BackendPairTest, SpmmBitIdentical) {
  const int64_t rows = 200, x_cols = 17;
  common::Rng rng(5);
  std::vector<int64_t> row_ptr(static_cast<size_t>(rows) + 1, 0);
  std::vector<int64_t> col_idx;
  for (int64_t r = 0; r < rows; ++r) {
    for (int d = 0; d < 7; ++d) col_idx.push_back(rng.UniformInt(rows));
    row_ptr[static_cast<size_t>(r) + 1] = static_cast<int64_t>(col_idx.size());
  }
  const auto vals = RandomVec(col_idx.size(), 6, true);
  const auto x = RandomVec(static_cast<size_t>(rows * x_cols), 7, true);
  for (int threads : {1, 8}) {
    common::SetGlobalThreadCount(threads);
    std::vector<float> y_scalar(static_cast<size_t>(rows * x_cols));
    std::vector<float> y_avx2(y_scalar.size());
    GetScalarBackend().Spmm(row_ptr.data(), col_idx.data(), vals.data(), rows,
                            x.data(), x_cols, y_scalar.data());
    avx2_->Spmm(row_ptr.data(), col_idx.data(), vals.data(), rows, x.data(),
                x_cols, y_avx2.data());
    EXPECT_TRUE(BitEqual(y_scalar, y_avx2)) << "@" << threads;
  }
}

TEST_F(BackendPairTest, ReduceBitIdenticalAcrossBackendsAndThreads) {
  const int64_t n = 100003;
  const auto a = RandomVec(static_cast<size_t>(n), 13, true);
  for (auto kind : {ReduceKind::kSum, ReduceKind::kSumSquares}) {
    common::SetGlobalThreadCount(1);
    const double s1 = GetScalarBackend().Reduce(kind, a.data(), n);
    const double v1 = avx2_->Reduce(kind, a.data(), n);
    common::SetGlobalThreadCount(8);
    const double s8 = GetScalarBackend().Reduce(kind, a.data(), n);
    const double v8 = avx2_->Reduce(kind, a.data(), n);
    EXPECT_EQ(s1, v1) << static_cast<int>(kind);
    EXPECT_EQ(s1, s8) << static_cast<int>(kind);
    EXPECT_EQ(v1, v8) << static_cast<int>(kind);
  }
}

// --- Row locality ----------------------------------------------------------

// Computing only a gathered subset of rows gives each of those rows the same
// bytes as the full product: the precondition for serving a batch from its
// own rows instead of the whole graph.
TEST_F(BackendPairTest, GatheredRowsMatchFullProductBitwise) {
  const std::vector<int64_t> subset = {49, 0, 7, 8, 21, 3};
  const auto gathered = [&](const std::vector<float>& full, int64_t width) {
    std::vector<float> rows;
    for (int64_t r : subset) {
      rows.insert(rows.end(), full.begin() + r * width,
                  full.begin() + (r + 1) * width);
    }
    return rows;
  };

  const int64_t n = 50, k = 37, m = 41;  // m = 32 + 8 + 1 exercises tails
  const auto a = RandomVec(static_cast<size_t>(n * k), 30, true);
  const auto b = RandomVec(static_cast<size_t>(k * m), 31, true);
  const auto a_sub = gathered(a, k);

  common::Rng rng(32);
  std::vector<int64_t> row_ptr(static_cast<size_t>(n) + 1, 0);
  std::vector<int64_t> col_idx;
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t d = 0; d <= r % 5; ++d) col_idx.push_back(rng.UniformInt(n));
    row_ptr[static_cast<size_t>(r) + 1] = static_cast<int64_t>(col_idx.size());
  }
  const auto vals = RandomVec(col_idx.size(), 33, true);
  std::vector<int64_t> sub_ptr = {0};
  std::vector<int64_t> sub_idx;
  std::vector<float> sub_vals;
  for (int64_t r : subset) {
    for (int64_t p = row_ptr[static_cast<size_t>(r)];
         p < row_ptr[static_cast<size_t>(r) + 1]; ++p) {
      sub_idx.push_back(col_idx[static_cast<size_t>(p)]);
      sub_vals.push_back(vals[static_cast<size_t>(p)]);
    }
    sub_ptr.push_back(static_cast<int64_t>(sub_idx.size()));
  }
  const auto x = RandomVec(static_cast<size_t>(n * m), 34, true);
  const int64_t rows = static_cast<int64_t>(subset.size());

  for (const KernelBackend* backend : {&GetScalarBackend(), avx2_}) {
    for (int threads : {1, 8}) {
      common::SetGlobalThreadCount(threads);
      std::vector<float> c_full(static_cast<size_t>(n * m), 0.0f);
      backend->GemmNN(a.data(), b.data(), c_full.data(), n, k, m);
      std::vector<float> c_sub(static_cast<size_t>(rows * m), 0.0f);
      backend->GemmNN(a_sub.data(), b.data(), c_sub.data(), rows, k, m);
      EXPECT_TRUE(BitEqual(gathered(c_full, m), c_sub))
          << "GemmNN " << backend->name() << " @" << threads;

      std::vector<float> y_full(static_cast<size_t>(n * m));
      backend->Spmm(row_ptr.data(), col_idx.data(), vals.data(), n, x.data(),
                    m, y_full.data());
      std::vector<float> y_sub(static_cast<size_t>(rows * m));
      backend->Spmm(sub_ptr.data(), sub_idx.data(), sub_vals.data(), rows,
                    x.data(), m, y_sub.data());
      EXPECT_TRUE(BitEqual(gathered(y_full, m), y_sub))
          << "Spmm " << backend->name() << " @" << threads;
    }
  }
}

// The weight gradient of a rows-only backward: GemmTN over just the kept
// rows equals GemmTN over all rows whose dropped gradient rows are zero.
// Each c element sums its n contributions serially in row order (either
// backend, any thread count: threads split c, never the sum), from a buffer
// that starts at +0. A dropped row adds a * (±0) = ±0, or fma(a, ±0, acc)
// = acc + (±0) exactly. In round-to-nearest x + (±0) == x for every x but
// -0, and a sum that starts at +0 never becomes -0 (only -0 + -0 is -0),
// so a dropped row never changes a partial sum, whatever its sign of zero.
TEST_F(BackendPairTest, GemmTNOverKeptRowsMatchesZeroedGradientRows) {
  const std::vector<int64_t> kept = {0, 3, 7, 8, 21, 49};  // ascending
  const int64_t n = 50, k = 37, m = 41;
  const auto a = RandomVec(static_cast<size_t>(n * k), 40, true);
  auto g = RandomVec(static_cast<size_t>(n * m), 41, true);
  std::vector<float> a_kept, g_kept;
  size_t next = 0;
  for (int64_t r = 0; r < n; ++r) {
    const auto a_row = a.begin() + r * k;
    const auto g_row = g.begin() + r * m;
    if (next < kept.size() && kept[next] == r) {
      a_kept.insert(a_kept.end(), a_row, a_row + k);
      g_kept.insert(g_kept.end(), g_row, g_row + m);
      ++next;
    } else {
      // Dropped rows carry zero gradients of either sign.
      std::fill(g_row, g_row + m, (r % 2 == 0) ? 0.0f : -0.0f);
    }
  }
  const int64_t rows = static_cast<int64_t>(kept.size());

  for (const KernelBackend* backend : {&GetScalarBackend(), avx2_}) {
    for (int threads : {1, 8}) {
      common::SetGlobalThreadCount(threads);
      std::vector<float> c_full(static_cast<size_t>(k * m), 0.0f);
      backend->GemmTN(a.data(), g.data(), c_full.data(), n, k, m);
      std::vector<float> c_kept(c_full.size(), 0.0f);
      backend->GemmTN(a_kept.data(), g_kept.data(), c_kept.data(), rows, k,
                      m);
      EXPECT_TRUE(BitEqual(c_full, c_kept))
          << "GemmTN " << backend->name() << " @" << threads;
    }
  }
}

// --- Dispatch --------------------------------------------------------------

TEST(DispatchTest, ParseSimdModeRoundTrips) {
  EXPECT_EQ(ParseSimdMode("auto").value(), SimdMode::kAuto);
  EXPECT_EQ(ParseSimdMode("scalar").value(), SimdMode::kScalar);
  EXPECT_EQ(ParseSimdMode("avx2").value(), SimdMode::kAvx2);
  EXPECT_FALSE(ParseSimdMode("neon").ok());
  EXPECT_FALSE(ParseSimdMode("").ok());
}

TEST(DispatchTest, SelectBackendScalarAlwaysWorks) {
  ASSERT_TRUE(SelectBackend(SimdMode::kScalar).ok());
  EXPECT_EQ(ActiveBackendInfo().active, "scalar");
  // Restore auto dispatch for the rest of the binary.
  ASSERT_TRUE(SelectBackend(SimdMode::kAuto).ok());
  if (common::CpuSupportsAvx2Fma()) {
    EXPECT_EQ(ActiveBackendInfo().active, "avx2");
  } else {
    EXPECT_EQ(ActiveBackendInfo().active, "scalar");
  }
}

TEST(DispatchTest, SelectAvx2FailsCleanlyWithoutSupport) {
  if (common::CpuSupportsAvx2Fma()) {
    EXPECT_TRUE(SelectBackend(SimdMode::kAvx2).ok());
    ASSERT_TRUE(SelectBackend(SimdMode::kAuto).ok());
  } else {
    EXPECT_FALSE(SelectBackend(SimdMode::kAvx2).ok());
  }
}

// --- Storage alignment -----------------------------------------------------

TEST(TensorStorageTest, Is64ByteAligned) {
  const auto aligned = [](const float* p) {
    return reinterpret_cast<uintptr_t>(p) % kTensorAlignment == 0;
  };
  for (int64_t n : {int64_t{1}, int64_t{7}, int64_t{16}, int64_t{1000},
                    int64_t{1} << 20}) {
    const FloatBuffer buffer(static_cast<size_t>(n), 1.0f);
    EXPECT_TRUE(aligned(buffer.data())) << "FloatBuffer of " << n;
    EXPECT_TRUE(aligned(Tensor::Zeros({n}).data().data())) << "Zeros " << n;
    const Tensor t = Tensor::FromVector(
        {n}, std::vector<float>(static_cast<size_t>(n), 2.5f));
    EXPECT_TRUE(aligned(t.data().data())) << "FromVector " << n;
    EXPECT_EQ(t.data().back(), 2.5f);
  }
}

}  // namespace
}  // namespace fairwos::tensor
