// Tests for the dataset augmentation helpers.
#include <gtest/gtest.h>

#include "data/augment.h"
#include "data/synthetic.h"

namespace fairwos {
namespace {

class AugmentTest : public ::testing::Test {
 protected:
  void SetUp() override { ds_ = data::MakeDataset("toy", {}).value(); }
  data::Dataset ds_;
};

TEST_F(AugmentTest, FeatureNoiseChangesValuesNotShape) {
  common::Rng rng(1);
  auto noisy = data::WithFeatureNoise(ds_, 0.5, &rng);
  EXPECT_EQ(noisy.num_attrs(), ds_.num_attrs());
  EXPECT_FALSE(noisy.features.ValueEquals(ds_.features));
  // Zero noise is the identity.
  common::Rng rng2(2);
  EXPECT_TRUE(data::WithFeatureNoise(ds_, 0.0, &rng2)
                  .features.ValueEquals(ds_.features));
  // Original untouched (pure function).
  EXPECT_TRUE(data::ValidateDataset(ds_).ok());
}

TEST_F(AugmentTest, EdgeDropoutBounds) {
  common::Rng rng(3);
  auto kept = data::WithEdgeDropout(ds_, 1.0, &rng);
  EXPECT_EQ(kept.graph.num_edges(), ds_.graph.num_edges());
  auto none = data::WithEdgeDropout(ds_, 0.0, &rng);
  EXPECT_EQ(none.graph.num_edges(), 0);
  auto half = data::WithEdgeDropout(ds_, 0.5, &rng);
  EXPECT_NEAR(static_cast<double>(half.graph.num_edges()),
              0.5 * static_cast<double>(ds_.graph.num_edges()),
              0.15 * static_cast<double>(ds_.graph.num_edges()));
}

TEST_F(AugmentTest, MaskedAttributesZeroWholeColumns) {
  common::Rng rng(5);
  auto masked = data::WithMaskedAttributes(ds_, 0.3, &rng);
  int64_t zero_columns = 0;
  for (int64_t j = 0; j < masked.num_attrs(); ++j) {
    bool all_zero = true;
    for (int64_t i = 0; i < masked.num_nodes(); ++i) {
      all_zero &= masked.features.at(i, j) == 0.0f;
    }
    zero_columns += all_zero;
  }
  EXPECT_EQ(zero_columns, 3);  // round(0.3 * 10)
}

TEST_F(AugmentTest, AugmentedDatasetsStillValidate) {
  common::Rng rng(6);
  EXPECT_TRUE(
      data::ValidateDataset(data::WithFeatureNoise(ds_, 0.1, &rng)).ok());
  EXPECT_TRUE(
      data::ValidateDataset(data::WithEdgeDropout(ds_, 0.8, &rng)).ok());
  EXPECT_TRUE(
      data::ValidateDataset(data::WithMaskedAttributes(ds_, 0.2, &rng)).ok());
}

}  // namespace
}  // namespace fairwos
