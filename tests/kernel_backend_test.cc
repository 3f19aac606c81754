// The kernel-backend determinism contract (docs/kernels.md): the scalar
// and AVX2 backends must produce bytewise-identical results for every
// entry point the AVX2 backend overrides (GEMM, SpMM, Reduce), at any
// thread count; the opt-in fast-math kernels must stay within documented
// tolerances of the scalar reference. The elementwise families run one
// shared implementation in both backends, so they need no pair test.
// Plus the 64-byte alignment of tensor storage.
#include <gtest/gtest.h>

#include <cmath>
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

// --- Fast-math tolerance (docs/kernels.md) ---------------------------------

/// RAII toggle so a failing ASSERT cannot leave fast-math on for later
/// tests.
struct FastMathOn {
  FastMathOn() { SetFastMath(true); }
  ~FastMathOn() { SetFastMath(false); }
};

TEST_F(BackendPairTest, FastMathGemmWithinTolerance) {
  const int64_t n = 61, k = 127, m = 35;
  const auto a = RandomVec(static_cast<size_t>(n * k), 14, false);
  const auto b = RandomVec(static_cast<size_t>(k * m), 15, false);
  std::vector<float> ref(static_cast<size_t>(n * m), 0.0f);
  GetScalarBackend().GemmNN(a.data(), b.data(), ref.data(), n, k, m);
  std::vector<float> fast(static_cast<size_t>(n * m), 0.0f);
  {
    FastMathOn fm;
    avx2_->GemmNN(a.data(), b.data(), fast.data(), n, k, m);
  }
  // FMA reassociation changes rounding, not math. The documented tolerance
  // (docs/kernels.md) is the standard accumulated-rounding bound: for a
  // length-k dot product, |fast - exact| <= k·ε·Σ|a·b| with ε = 2^-24, so
  // fast vs scalar differ by at most twice that. Normalizing by Σ|a·b|
  // (not by the result) keeps the bound meaningful under cancellation.
  std::vector<float> abs_a(a.size()), abs_b(b.size());
  for (size_t i = 0; i < a.size(); ++i) abs_a[i] = std::abs(a[i]);
  for (size_t i = 0; i < b.size(); ++i) abs_b[i] = std::abs(b[i]);
  std::vector<float> l1(static_cast<size_t>(n * m), 0.0f);
  GetScalarBackend().GemmNN(abs_a.data(), abs_b.data(), l1.data(), n, k, m);
  const double eps = 1.0 / (1 << 24);
  for (size_t i = 0; i < ref.size(); ++i) {
    const double bound = 2.0 * static_cast<double>(k) * eps * l1[i] + 1e-12;
    EXPECT_LT(std::abs(static_cast<double>(fast[i]) - ref[i]), bound)
        << "element " << i;
  }
}

TEST_F(BackendPairTest, FastMathReduceWithinToleranceAndThreadStable) {
  const int64_t n = 1 << 18;
  const auto a = RandomVec(static_cast<size_t>(n), 16, false);
  const double ref = GetScalarBackend().Reduce(ReduceKind::kSum, a.data(), n);
  FastMathOn fm;
  common::SetGlobalThreadCount(1);
  const double f1 = avx2_->Reduce(ReduceKind::kSum, a.data(), n);
  common::SetGlobalThreadCount(8);
  const double f8 = avx2_->Reduce(ReduceKind::kSum, a.data(), n);
  // The 4-lane double accumulation reassociates relative to scalar, but the
  // chunk structure is still thread-count independent.
  EXPECT_EQ(f1, f8);
  EXPECT_NEAR(f1, ref, 1e-4 * std::max(1.0, std::abs(ref)));
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
