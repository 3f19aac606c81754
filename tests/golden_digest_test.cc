// Golden fit digests: the toy-dataset predictions of four methods at two
// seeds, pinned bit for bit. A change that claims "same bits" (a kernel,
// loop or layout refactor) must leave every value here unchanged; a change
// that moves one on purpose records the new value and says why.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "data/synthetic.h"

namespace fairwos {
namespace {

/// FNV-1a over the hard predictions and the bits of every P(y = 1) — the
/// same digest bench/e2e reports as `prediction_digest`.
uint64_t PredictionDigest(const nn::PredictionResult& r) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (int p : r.pred) mix(static_cast<uint64_t>(p));
  for (float p : r.prob1) mix(std::bit_cast<uint32_t>(p));
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct GoldenFit {
  const char* method;
  uint64_t seed;
  const char* digest;
};

// Names the case in test listings (the default prints pointer bytes).
void PrintTo(const GoldenFit& fit, std::ostream* os) {
  *os << fit.method << " seed " << fit.seed;
}

class GoldenDigestTest : public ::testing::TestWithParam<GoldenFit> {};

TEST_P(GoldenDigestTest, ToyPredictionsAreUnchanged) {
  const GoldenFit& golden = GetParam();
  const data::Dataset ds = data::MakeDataset("toy", {}).value();
  auto method =
      baselines::MakeMethod(golden.method, baselines::MethodOptions{}).value();
  auto fitted = method->Fit(ds, golden.seed);
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  EXPECT_EQ(Hex(PredictionDigest((*fitted)->Predict(ds))), golden.digest)
      << golden.method << " seed " << golden.seed;
}

INSTANTIATE_TEST_SUITE_P(
    ToyFits, GoldenDigestTest,
    ::testing::Values(GoldenFit{"fairwos", 7, "dcf809b38341c759"},
                      GoldenFit{"fairwos", 21, "df5105fb28f04d00"},
                      GoldenFit{"vanilla", 7, "e7a0404d76b57282"},
                      GoldenFit{"vanilla", 21, "de62b9cf3a294f47"},
                      GoldenFit{"perturbcf", 7, "58232d6cc3d99b1c"},
                      GoldenFit{"perturbcf", 21, "097bc6d3655bf949"},
                      GoldenFit{"fairgkd", 7, "318e7b5c03a64188"},
                      GoldenFit{"fairgkd", 21, "24cf0b950471eb74"}),
    [](const auto& info) {
      return std::string(info.param.method) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace fairwos
