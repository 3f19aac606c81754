// Serving subsystem tests (docs/serving.md): the `.fwmodel` artifact codec
// (round-trip bit-identity, corruption rejection including the
// kCheckpointRead fault hook), the Fit/Predict split (the Run shim must be
// behaviour-identical), and the batched inference engine (batched vs
// one-at-a-time determinism at 1 and 8 threads, LRU cache semantics).
#include <algorithm>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/vanilla.h"
#include "common/durable_file.h"
#include "common/fault.h"
#include "common/threadpool.h"
#include "data/synthetic.h"
#include "serve/artifact.h"
#include "serve/engine.h"
#include "serve/lru_cache.h"

namespace fairwos::serve {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

data::Dataset ToyDataset() { return data::MakeDataset("toy", {}).value(); }

/// A real (small) fit through the public method API.
std::unique_ptr<core::FittedModel> FitVanilla(const data::Dataset& ds,
                                              uint64_t seed,
                                              int64_t epochs = 20) {
  nn::GnnConfig gnn;
  gnn.in_features = ds.num_attrs();
  baselines::TrainOptions train;
  train.epochs = epochs;
  baselines::VanillaMethod method(gnn, train);
  auto fitted_or = method.Fit(ds, seed);
  EXPECT_TRUE(fitted_or.ok()) << fitted_or.status().ToString();
  return std::move(fitted_or.value());
}

void ExpectSamePredictions(const nn::PredictionResult& a,
                           const nn::PredictionResult& b) {
  ASSERT_EQ(a.pred.size(), b.pred.size());
  EXPECT_EQ(a.pred, b.pred);
  ASSERT_EQ(a.prob1.size(), b.prob1.size());
  for (size_t i = 0; i < a.prob1.size(); ++i) {
    EXPECT_EQ(a.prob1[i], b.prob1[i]) << "prob1 differs at node " << i;
  }
}

// --- LruCache -------------------------------------------------------------

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  ASSERT_NE(cache.Get(1), nullptr);  // 1 is now most recent
  cache.Put(3, 30);                  // evicts 2
  EXPECT_EQ(cache.Get(2), nullptr);
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), 10);
  ASSERT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, PutRefreshesExistingKey) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(1, 11);  // refresh, not insert: nothing evicted
  cache.Put(3, 30);  // evicts 2 (least recent)
  EXPECT_EQ(cache.Get(2), nullptr);
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), 11);
}

TEST(LruCacheTest, ZeroCapacityDisablesCaching) {
  LruCache<int, int> cache(0);
  cache.Put(1, 10);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

// --- Fit/Predict split ----------------------------------------------------

TEST(FitPredictSplitTest, FitIsDeterministicAcrossInstances) {
  auto ds = ToyDataset();
  nn::GnnConfig gnn;
  gnn.in_features = ds.num_attrs();
  baselines::TrainOptions train;
  train.epochs = 20;
  baselines::VanillaMethod method(gnn, train);

  auto fitted_a = method.Fit(ds, /*seed=*/11);
  ASSERT_TRUE(fitted_a.ok());
  auto fitted_b = FitVanilla(ds, /*seed=*/11);
  ExpectSamePredictions((*fitted_a)->Predict(ds), fitted_b->Predict(ds));
}

TEST(FitPredictSplitTest, PredictIsRepeatable) {
  auto ds = ToyDataset();
  auto fitted = FitVanilla(ds, /*seed=*/3);
  ExpectSamePredictions(fitted->Predict(ds), fitted->Predict(ds));
}

// --- Artifact codec -------------------------------------------------------

TEST(ArtifactTest, RoundTripIsBitIdentical) {
  auto ds = ToyDataset();
  auto fitted = FitVanilla(ds, /*seed=*/5);
  const core::FittedGnnModel* gnn = fitted->AsGnn();
  ASSERT_NE(gnn, nullptr);
  const nn::PredictionResult reference = fitted->Predict(ds);

  const std::string path = TempPath("fw_serving_roundtrip.fwmodel");
  ModelArtifact artifact = MakeArtifact(*gnn, ds);
  EXPECT_EQ(artifact.model_id, "Vanilla\\S:toy:5");
  ASSERT_TRUE(SaveModelArtifact(path, artifact).ok());

  auto loaded_or = LoadModelArtifact(path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  EXPECT_EQ(loaded_or->model_id, artifact.model_id);
  EXPECT_EQ(loaded_or->provenance.method, "Vanilla\\S");
  EXPECT_EQ(loaded_or->provenance.seed, 5u);

  auto restored_or = RestoreFittedModel(loaded_or.value(), ds);
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
  const nn::PredictionResult served = restored_or.value()->Predict(ds);
  ExpectSamePredictions(reference, served);
  // Embeddings too: the restored model is the same network, bit for bit.
  ASSERT_TRUE(served.embeddings.defined());
  EXPECT_EQ(reference.embeddings.data(), served.embeddings.data());
  std::filesystem::remove(path);
}

TEST(ArtifactTest, FrozenInputRoundTrips) {
  // A kFrozen model (the Fairwos/PerturbCF shape) carries its own input
  // matrix; the artifact must preserve it and the pseudo-sens flag.
  auto ds = ToyDataset();
  common::Rng rng(9);
  nn::GnnConfig gnn;
  gnn.in_features = 3;
  nn::GnnClassifier model(gnn, ds.graph, &rng);
  std::vector<float> values(static_cast<size_t>(ds.num_nodes() * 3));
  for (auto& v : values) v = static_cast<float>(rng.Normal());
  tensor::Tensor x0 =
      tensor::Tensor::FromVector({ds.num_nodes(), 3}, std::move(values));
  core::FittedGnnModel fitted(std::move(model),
                              core::FittedGnnModel::InputKind::kFrozen, x0,
                              {"Fairwos", ds.name, 9});
  fitted.set_pseudo_sens(x0);
  const nn::PredictionResult reference = fitted.Predict(ds);

  const std::string path = TempPath("fw_serving_frozen.fwmodel");
  ASSERT_TRUE(SaveModelArtifact(path, MakeArtifact(fitted, ds)).ok());
  auto loaded_or = LoadModelArtifact(path);
  ASSERT_TRUE(loaded_or.ok());
  EXPECT_EQ(loaded_or->input_kind, core::FittedGnnModel::InputKind::kFrozen);
  EXPECT_TRUE(loaded_or->input_is_pseudo_sens);
  auto restored_or = RestoreFittedModel(loaded_or.value(), ds);
  ASSERT_TRUE(restored_or.ok());
  const nn::PredictionResult served = restored_or.value()->Predict(ds);
  ExpectSamePredictions(reference, served);
  ASSERT_TRUE(served.pseudo_sens.defined());
  EXPECT_EQ(reference.pseudo_sens.data(), served.pseudo_sens.data());
  std::filesystem::remove(path);
}

TEST(ArtifactTest, CorruptFileIsRejected) {
  auto ds = ToyDataset();
  auto fitted = FitVanilla(ds, /*seed=*/5, /*epochs=*/5);
  const std::string path = TempPath("fw_serving_corrupt.fwmodel");
  ASSERT_TRUE(SaveModelArtifact(path, MakeArtifact(*fitted->AsGnn(), ds)).ok());

  // A flipped payload bit on disk must fail the CRC.
  ASSERT_TRUE(testing::FaultInjector::FlipByte(path, 40).ok());
  EXPECT_EQ(LoadModelArtifact(path).status().code(),
            common::StatusCode::kIoError);
  ASSERT_TRUE(testing::FaultInjector::FlipByte(path, 40).ok());  // undo

  // A truncated tail must be rejected, not parsed.
  const auto size = std::filesystem::file_size(path);
  ASSERT_TRUE(
      testing::FaultInjector::Truncate(path, static_cast<int64_t>(size) - 7)
          .ok());
  EXPECT_EQ(LoadModelArtifact(path).status().code(),
            common::StatusCode::kIoError);
  std::filesystem::remove(path);
}

TEST(ArtifactTest, CrcHighWordFlipIsIoError) {
  // Bytes 20-23 are the high word of the envelope's zero-extended CRC
  // field: a flip there damages no payload byte but must still reject.
  auto ds = ToyDataset();
  auto fitted = FitVanilla(ds, /*seed=*/5, /*epochs=*/5);
  const std::string path = TempPath("fw_serving_crc_high.fwmodel");
  ASSERT_TRUE(SaveModelArtifact(path, MakeArtifact(*fitted->AsGnn(), ds)).ok());
  for (int64_t offset = 20; offset < 24; ++offset) {
    ASSERT_TRUE(testing::FaultInjector::FlipByte(path, offset).ok());
    EXPECT_EQ(LoadModelArtifact(path).status().code(),
              common::StatusCode::kIoError)
        << "flip at " << offset;
    ASSERT_TRUE(testing::FaultInjector::FlipByte(path, offset).ok());  // undo
  }
  EXPECT_TRUE(LoadModelArtifact(path).ok());
  std::filesystem::remove(path);
}

TEST(ArtifactTest, DirectoryAndForeignFileAreRejected) {
  // A wrong --model path: a directory is IoError before anything is read,
  // and a large non-FWCP file is refused by its header.
  const std::string dir = TempPath("fw_serving_dir.fwmodel");
  std::filesystem::create_directory(dir);
  EXPECT_EQ(LoadModelArtifact(dir).status().code(),
            common::StatusCode::kIoError);
  std::filesystem::remove(dir);
  const std::string path = TempPath("fw_serving_foreign.fwmodel");
  {
    std::ofstream out(path, std::ios::binary);
    out << std::string(1 << 20, 'x');
  }
  EXPECT_EQ(LoadModelArtifact(path).status().code(),
            common::StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(ArtifactTest, ReadPathFaultInjectionIsCaughtByCrc) {
  // kCheckpointRead flips one bit in the buffer after it is read back —
  // simulating disk/bus rot. The artifact loader shares the envelope codec,
  // so the CRC must catch it here too.
  auto ds = ToyDataset();
  auto fitted = FitVanilla(ds, /*seed=*/2, /*epochs=*/5);
  const std::string path = TempPath("fw_serving_readfault.fwmodel");
  ASSERT_TRUE(SaveModelArtifact(path, MakeArtifact(*fitted->AsGnn(), ds)).ok());

  testing::FaultInjector injector(3);
  injector.Arm(testing::FaultSite::kCheckpointRead, 0);
  {
    testing::ScopedFaultInjector scoped(&injector);
    EXPECT_EQ(LoadModelArtifact(path).status().code(),
              common::StatusCode::kIoError);
  }
  EXPECT_EQ(injector.fires(testing::FaultSite::kCheckpointRead), 1);
  // Without the injector the same file loads fine: the fault was injected,
  // not real.
  EXPECT_TRUE(LoadModelArtifact(path).ok());
  std::filesystem::remove(path);
}

TEST(ArtifactTest, WrongVersionIsRejected) {
  // A v3 train-state file is a valid FWCP envelope but not a model
  // artifact; the version check must reject it as InvalidArgument.
  const std::string path = TempPath("fw_serving_wrongver.fwck");
  ASSERT_TRUE(common::WriteCheckpointEnvelope(
                  path, common::kTrainStateCheckpointVersion, "not a model")
                  .ok());
  EXPECT_EQ(LoadModelArtifact(path).status().code(),
            common::StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(ArtifactTest, DriftedDatasetStatsAreRejected) {
  // kDatasetFeatures artifacts record the fit-time column statistics; a
  // serving dataset whose features drifted must be refused (never silently
  // re-normalized).
  auto ds = ToyDataset();
  auto fitted = FitVanilla(ds, /*seed=*/5, /*epochs=*/5);
  ModelArtifact artifact = MakeArtifact(*fitted->AsGnn(), ds);

  data::Dataset drifted = ToyDataset();
  drifted.features = drifted.features.DetachCopy();
  for (int64_t i = 0; i < drifted.num_nodes(); ++i) {
    drifted.features.set(i, 0, drifted.features.at(i, 0) * 3.0f + 1.0f);
  }
  auto restored_or = RestoreFittedModel(artifact, drifted);
  EXPECT_EQ(restored_or.status().code(),
            common::StatusCode::kFailedPrecondition);
  // The pristine dataset still restores.
  EXPECT_TRUE(RestoreFittedModel(artifact, ds).ok());
}

// --- Inference engine -----------------------------------------------------

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = ToyDataset();
    auto fitted = FitVanilla(ds_, /*seed=*/5);
    reference_ = fitted->Predict(ds_);
    // Unique per test: ctest runs each TEST_F as its own process, possibly
    // in parallel, and a shared path would let one test's TearDown delete
    // the artifact another is still loading.
    path_ = TempPath(
        std::string("fw_serving_engine_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".fwmodel");
    ASSERT_TRUE(SaveModelArtifact(path_, MakeArtifact(*fitted->AsGnn(), ds_))
                    .ok());
  }
  void TearDown() override {
    common::SetGlobalThreadCount(0);
    std::filesystem::remove(path_);
  }

  std::unique_ptr<InferenceEngine> MakeEngine(EngineOptions options = {}) {
    auto engine_or = InferenceEngine::Load(path_, ds_, options);
    EXPECT_TRUE(engine_or.ok()) << engine_or.status().ToString();
    return std::move(engine_or.value());
  }

  void ExpectMatchesReference(const NodePrediction& p) {
    EXPECT_EQ(p.label, reference_.pred[static_cast<size_t>(p.node)]);
    EXPECT_EQ(p.prob1, reference_.prob1[static_cast<size_t>(p.node)]);
  }

  data::Dataset ds_;
  nn::PredictionResult reference_;
  std::string path_;
};

TEST_F(EngineTest, BatchedMatchesOneAtATimeAtOneAndEightThreads) {
  std::vector<int64_t> all_nodes(static_cast<size_t>(ds_.num_nodes()));
  for (size_t i = 0; i < all_nodes.size(); ++i) {
    all_nodes[i] = static_cast<int64_t>(i);
  }
  for (int threads : {1, 8}) {
    common::SetGlobalThreadCount(threads);
    // Batched, cache off so every answer comes from a fresh forward.
    EngineOptions no_cache;
    no_cache.cache_capacity = 0;
    auto batched = MakeEngine(no_cache);
    auto batch_or = batched->PredictBatch(all_nodes);
    ASSERT_TRUE(batch_or.ok());
    ASSERT_EQ(batch_or->size(), all_nodes.size());
    for (const NodePrediction& p : batch_or.value()) {
      ExpectMatchesReference(p);
    }
    // One at a time through the micro-batching queue.
    auto serial = MakeEngine(no_cache);
    for (int64_t node = 0; node < ds_.num_nodes(); node += 7) {
      auto p_or = serial->Predict(node);
      ASSERT_TRUE(p_or.ok());
      ExpectMatchesReference(p_or.value());
    }
  }
}

TEST_F(EngineTest, ConcurrentClientsGetBitIdenticalAnswers) {
  common::SetGlobalThreadCount(8);
  auto engine = MakeEngine();
  constexpr int kClients = 8;
  constexpr int kPerClient = 40;
  std::vector<std::vector<NodePrediction>> results(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const int64_t node = (c * 13 + i * 5) % ds_.num_nodes();
        auto p_or = engine->Predict(node);
        ASSERT_TRUE(p_or.ok());
        results[static_cast<size_t>(c)].push_back(p_or.value());
      }
    });
  }
  for (auto& t : clients) t.join();
  for (const auto& client_results : results) {
    for (const NodePrediction& p : client_results) {
      ExpectMatchesReference(p);
    }
  }
  const InferenceEngine::Stats stats = engine->stats();
  EXPECT_EQ(stats.requests, kClients * kPerClient);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, kClients * kPerClient);
  EXPECT_GE(stats.batches, 1);
}

TEST_F(EngineTest, CacheServesRepeatNodes) {
  auto engine = MakeEngine();
  auto first_or = engine->Predict(3);
  ASSERT_TRUE(first_or.ok());
  EXPECT_FALSE(first_or->cache_hit);
  auto second_or = engine->Predict(3);
  ASSERT_TRUE(second_or.ok());
  EXPECT_TRUE(second_or->cache_hit);
  EXPECT_EQ(first_or->label, second_or->label);
  EXPECT_EQ(first_or->prob1, second_or->prob1);
  const InferenceEngine::Stats stats = engine->stats();
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 1);
  EXPECT_EQ(stats.batches, 1);
}

TEST_F(EngineTest, OutOfRangeNodeIsRejected) {
  auto engine = MakeEngine();
  EXPECT_EQ(engine->Predict(-1).status().code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->Predict(ds_.num_nodes()).status().code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->PredictBatch({0, ds_.num_nodes()}).status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, InvalidOptionsAreRejected) {
  EngineOptions bad;
  bad.max_batch_size = 0;
  EXPECT_EQ(InferenceEngine::Load(path_, ds_, bad).status().code(),
            common::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fairwos::serve
