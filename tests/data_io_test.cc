// Round-trip tests for dataset persistence (data/io.h).
#include "data/io.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "data/synthetic.h"

namespace fairwos::data {
namespace {

class DataIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // PID-qualified so concurrently running test processes (ctest -j) never
    // remove each other's directory from TearDown.
    dir_ = (std::filesystem::temp_directory_path() /
            ("fw_dataset_io." + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(DataIoTest, RoundTripPreservesEverything) {
  auto ds = MakeDataset("toy", {}).value();
  ASSERT_TRUE(SaveDataset(dir_, ds).ok());
  auto loaded_or = LoadDataset(dir_);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const Dataset& loaded = loaded_or.value();
  EXPECT_EQ(loaded.name, ds.name);
  EXPECT_EQ(loaded.label_name, ds.label_name);
  EXPECT_EQ(loaded.sens_name, ds.sens_name);
  EXPECT_EQ(loaded.labels, ds.labels);
  EXPECT_EQ(loaded.sens, ds.sens);
  EXPECT_EQ(loaded.graph.num_edges(), ds.graph.num_edges());
  EXPECT_EQ(loaded.split.train, ds.split.train);
  EXPECT_EQ(loaded.split.val, ds.split.val);
  EXPECT_EQ(loaded.split.test, ds.split.test);
  ASSERT_EQ(loaded.num_attrs(), ds.num_attrs());
  for (int64_t i = 0; i < ds.num_nodes(); ++i) {
    for (int64_t j = 0; j < ds.num_attrs(); ++j) {
      EXPECT_NEAR(loaded.features.at(i, j), ds.features.at(i, j), 1e-5);
    }
    for (int64_t v : ds.graph.Neighbors(i)) {
      EXPECT_TRUE(loaded.graph.HasEdge(i, v));
    }
  }
}

TEST_F(DataIoTest, LoadedDatasetTrainsIdentically) {
  auto ds = MakeDataset("toy", {}).value();
  ASSERT_TRUE(SaveDataset(dir_, ds).ok());
  auto loaded = LoadDataset(dir_).value();
  EXPECT_TRUE(ValidateDataset(loaded).ok());
}

TEST_F(DataIoTest, MissingDirectoryFails) {
  EXPECT_FALSE(LoadDataset("/nonexistent/fw_nowhere").ok());
}

TEST_F(DataIoTest, CorruptSplitRejected) {
  auto ds = MakeDataset("toy", {}).value();
  ASSERT_TRUE(SaveDataset(dir_, ds).ok());
  {
    std::ofstream out(dir_ + "/split.csv");
    out << "node,part\n0,weekend\n";
  }
  EXPECT_FALSE(LoadDataset(dir_).ok());
}

TEST_F(DataIoTest, EmptyValidationSplitRejected) {
  auto ds = MakeDataset("toy", {}).value();
  ASSERT_TRUE(SaveDataset(dir_, ds).ok());
  {
    // The validation rows become training rows: train and test remain.
    std::ofstream out(dir_ + "/split.csv");
    out << "node,part\n";
    for (int64_t v : ds.split.train) out << v << ",train\n";
    for (int64_t v : ds.split.val) out << v << ",train\n";
    for (int64_t v : ds.split.test) out << v << ",test\n";
  }
  const auto loaded = LoadDataset(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kInvalidArgument);
}

TEST_F(DataIoTest, SaveRejectsInvalidDataset) {
  auto ds = MakeDataset("toy", {}).value();
  ds.labels[0] = 7;
  EXPECT_FALSE(SaveDataset(dir_, ds).ok());
}

}  // namespace
}  // namespace fairwos::data
