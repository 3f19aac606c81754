// Dynamic-graph mutation tests (docs/serving.md "Dynamic graphs"): the
// DeltaOverlay validation front door (precise Statuses, never partial
// application), epoch-numbered copy-on-write snapshots (old snapshots stay
// bit-stable under mutations, publishes, and compactions), compaction under
// injected kGraphCompaction faults (a failed compaction leaves the previous
// snapshot serving and re-arms), overlay overflow (ResourceExhausted + the
// latched mutation_backlog incident), the serving integration (exact LRU
// invalidation per epoch, snapshot-isolated concurrent mutate+predict,
// post-compaction bit-identity), fault-plan exhaustion telemetry, and the
// drifting temporal script generator. The Mutation*/Temporal* suites run
// under TSan in CI (the serve-chaos job).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/vanilla.h"
#include "common/durable_file.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "data/synthetic.h"
#include "data/temporal.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "graph/mutable_graph.h"
#include "nn/gnn.h"
#include "serve/artifact.h"
#include "serve/engine.h"
#include "tensor/tensor.h"

namespace fairwos::graph {
namespace {

using ::fairwos::common::StatusCode;
using ::fairwos::testing::FaultInjector;
using ::fairwos::testing::FaultSite;
using ::fairwos::testing::ScopedFaultInjector;

/// A path graph 0-1-...-(n-1) with one-column features (the node id), the
/// workhorse topology: hop distances are exact, so invalidation radii have
/// unambiguous expected sets.
std::shared_ptr<const Graph> PathGraph(int64_t n) {
  Graph g(n);
  for (int64_t v = 0; v + 1 < n; ++v) FW_CHECK(g.AddEdge(v, v + 1));
  return std::make_shared<const Graph>(std::move(g));
}

tensor::Tensor PathFeatures(int64_t n) {
  std::vector<float> data(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) {
    data[static_cast<size_t>(v)] = static_cast<float>(v);
  }
  return tensor::Tensor::FromVector({n, 1}, std::move(data));
}

MutableGraph MakePathMutable(int64_t n, MutableGraphOptions options = {}) {
  return MutableGraph(PathGraph(n), PathFeatures(n), options);
}

int CountEvents(const obs::CollectingSink& sink, const std::string& name) {
  int count = 0;
  for (const auto& event : sink.events()) {
    if (event.name() == name) ++count;
  }
  return count;
}

// --- Validation front door ------------------------------------------------

TEST(MutationValidationTest, OutOfRangeEndpointsRejected) {
  MutableGraph g = MakePathMutable(5);
  EXPECT_EQ(g.AddEdge(0, 5).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(g.AddEdge(-1, 2).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(g.RemoveEdge(4, 99).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(g.pending(), 0);
  EXPECT_EQ(g.stats().applied, 0);
}

TEST(MutationValidationTest, SelfLoopsRejectedByPolicy) {
  MutableGraph g = MakePathMutable(5);
  const common::Status status = g.AddEdge(3, 3);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("self-loop"), std::string::npos);
  EXPECT_EQ(g.RemoveEdge(2, 2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.pending(), 0);
}

TEST(MutationValidationTest, FeatureDimMismatchRejected) {
  MutableGraph g = MakePathMutable(5);  // feature width 1
  auto too_wide = g.AddNode({1.0f, 2.0f});
  EXPECT_EQ(too_wide.status().code(), StatusCode::kInvalidArgument);
  auto empty = g.AddNode({});
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.num_nodes(), 5);
  EXPECT_EQ(g.pending(), 0);
}

TEST(MutationValidationTest, DuplicateInsertAndMissingDeleteRejected) {
  MutableGraph g = MakePathMutable(5);
  // (1, 2) is a base edge; inserting it again is FailedPrecondition even
  // though the overlay itself has never seen it.
  EXPECT_EQ(g.AddEdge(1, 2).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(g.AddEdge(2, 1).code(), StatusCode::kFailedPrecondition);
  // (0, 3) does not exist in the merged view: deleting it is NotFound.
  EXPECT_EQ(g.RemoveEdge(0, 3).code(), StatusCode::kNotFound);
  // An overlay-added edge is a duplicate on the second insert too.
  ASSERT_TRUE(g.AddEdge(0, 3).ok());
  EXPECT_EQ(g.AddEdge(3, 0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(g.pending(), 1);
}

TEST(MutationValidationTest, RejectionIsNeverPartial) {
  MutableGraph g = MakePathMutable(6);
  ASSERT_TRUE(g.AddEdge(0, 2).ok());
  const auto before = g.Publish();
  const int64_t edges_before = before->num_edges();

  // Every rejection class in a row: the merged view must be bit-identical
  // to before each one (same edge count, same adjacency).
  EXPECT_FALSE(g.AddEdge(0, 2).ok());   // duplicate
  EXPECT_FALSE(g.AddEdge(5, 6).ok());   // out of range
  EXPECT_FALSE(g.AddEdge(4, 4).ok());   // self-loop
  EXPECT_FALSE(g.RemoveEdge(1, 5).ok());  // missing
  EXPECT_FALSE(g.AddNode({1.0f, 2.0f}).ok());  // wrong width

  const auto after = g.Publish();
  EXPECT_EQ(after.get(), before.get());  // no-op publish: nothing changed
  EXPECT_EQ(after->num_edges(), edges_before);
  EXPECT_EQ(g.stats().applied, 1);
}

TEST(MutationValidationTest, AddNodeAssignsSequentialIdsAndGrowsFeatures) {
  MutableGraph g = MakePathMutable(4);
  auto a = g.AddNode({10.0f});
  auto b = g.AddNode({11.0f});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value(), 4);
  EXPECT_EQ(b.value(), 5);
  ASSERT_TRUE(g.AddEdge(a.value(), 0).ok());
  ASSERT_TRUE(g.AddEdge(b.value(), a.value()).ok());

  const auto snap = g.Publish();
  EXPECT_EQ(snap->num_nodes(), 6);
  EXPECT_TRUE(snap->HasEdge(4, 0));
  EXPECT_TRUE(snap->HasEdge(5, 4));
  const tensor::Tensor features = snap->Features();
  ASSERT_EQ(features.dim(0), 6);
  EXPECT_EQ(features.at(4, 0), 10.0f);
  EXPECT_EQ(features.at(5, 0), 11.0f);
}

// --- Snapshots ------------------------------------------------------------

TEST(MutationSnapshotTest, OldSnapshotsStayBitStable) {
  MutableGraph g = MakePathMutable(8);
  const auto snap0 = g.Current();
  EXPECT_EQ(snap0->epoch(), 0);
  const int64_t edges0 = snap0->num_edges();

  ASSERT_TRUE(g.AddEdge(0, 7).ok());
  ASSERT_TRUE(g.RemoveEdge(3, 4).ok());
  ASSERT_TRUE(g.AddNode({42.0f}).ok());
  const auto snap1 = g.Publish();
  ASSERT_TRUE(g.Compact().ok());

  // The epoch-0 snapshot still reads as the original path graph even
  // though the live graph has mutated, published, and compacted past it.
  EXPECT_EQ(snap0->num_edges(), edges0);
  EXPECT_EQ(snap0->num_nodes(), 8);
  EXPECT_FALSE(snap0->HasEdge(0, 7));
  EXPECT_TRUE(snap0->HasEdge(3, 4));
  EXPECT_EQ(snap0->Features().dim(0), 8);

  // And the published epoch-1 snapshot survives the compaction behind it.
  EXPECT_TRUE(snap1->HasEdge(0, 7));
  EXPECT_FALSE(snap1->HasEdge(3, 4));
  EXPECT_EQ(snap1->num_nodes(), 9);
}

TEST(MutationSnapshotTest, PublishIsNoOpWithoutChanges) {
  MutableGraph g = MakePathMutable(4);
  const auto first = g.Publish();
  EXPECT_EQ(first->epoch(), 0);
  EXPECT_EQ(first.get(), g.Current().get());
  ASSERT_TRUE(g.AddEdge(0, 2).ok());
  const auto second = g.Publish();
  EXPECT_EQ(second->epoch(), 1);
  const auto third = g.Publish();  // nothing new since
  EXPECT_EQ(third.get(), second.get());
  EXPECT_EQ(g.epoch(), 1);
}

TEST(MutationSnapshotTest, AffectedNodesRespectInvalidationRadius) {
  // Path 0-1-2-3-4-5-6-7-8, radius 2. Adding edge {0, 8} seeds {0, 8};
  // expanding two hops over the NEW view (where 0 and 8 are adjacent)
  // reaches {0,1,2,8,7,6} — nodes 3, 4, 5 must not be invalidated.
  MutableGraphOptions options;
  options.invalidation_radius = 2;
  MutableGraph g = MakePathMutable(9, options);
  ASSERT_TRUE(g.AddEdge(0, 8).ok());
  const auto snap = g.Publish();
  EXPECT_EQ(snap->affected_nodes(),
            (std::vector<int64_t>{0, 1, 2, 6, 7, 8}));
}

TEST(MutationSnapshotTest, RemovedEdgeInvalidatesItsOldNeighborhood) {
  // Removing {3, 4} on a path of 9: the new view no longer connects the
  // halves, but the union with the previous epoch's adjacency still walks
  // across the removed edge — both sides' 2-hop neighborhoods invalidate.
  MutableGraphOptions options;
  options.invalidation_radius = 2;
  MutableGraph g = MakePathMutable(9, options);
  ASSERT_TRUE(g.RemoveEdge(3, 4).ok());
  const auto snap = g.Publish();
  EXPECT_EQ(snap->affected_nodes(),
            (std::vector<int64_t>{1, 2, 3, 4, 5, 6}));
}

// --- Overflow and the mutation_backlog incident ---------------------------

TEST(MutationBacklogTest, OverflowShedsWithResourceExhaustedAndLatches) {
  obs::CollectingSink sink;
  obs::SetEventSink(&sink);
  MutableGraphOptions options;
  options.max_pending = 2;
  MutableGraph g = MakePathMutable(10, options);
  ASSERT_TRUE(g.AddEdge(0, 2).ok());
  ASSERT_TRUE(g.AddEdge(0, 3).ok());
  EXPECT_FALSE(g.backlogged());

  // The overlay is full: further mutations shed, and the incident latches
  // on the FIRST shed only — a sustained overflow is one incident.
  EXPECT_EQ(g.AddEdge(0, 4).code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(g.backlogged());
  EXPECT_EQ(g.AddEdge(0, 5).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(g.AddNode({9.0f}).status().code(),
            StatusCode::kResourceExhausted);
  obs::SetEventSink(nullptr);

  const MutableGraph::Stats stats = g.stats();
  EXPECT_EQ(stats.applied, 2);
  EXPECT_EQ(stats.shed, 3);
  EXPECT_TRUE(stats.backlogged);
  EXPECT_EQ(CountEvents(sink, "mutation_backlog"), 1);
}

TEST(MutationBacklogTest, CompactionDrainsTheBacklogAndClearsTheLatch) {
  obs::CollectingSink sink;
  obs::SetEventSink(&sink);
  MutableGraphOptions options;
  options.max_pending = 2;
  MutableGraph g = MakePathMutable(10, options);
  ASSERT_TRUE(g.AddEdge(0, 2).ok());
  ASSERT_TRUE(g.AddEdge(0, 3).ok());
  EXPECT_EQ(g.AddEdge(0, 4).code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(g.backlogged());

  ASSERT_TRUE(g.Compact().ok());
  obs::SetEventSink(nullptr);
  EXPECT_FALSE(g.backlogged());
  EXPECT_EQ(g.pending(), 0);  // folded into the new base
  EXPECT_EQ(CountEvents(sink, "mutation_backlog_cleared"), 1);

  // The shed mutation was NOT silently applied — the caller was told to
  // retry, and now the retry succeeds.
  EXPECT_FALSE(g.Current()->HasEdge(0, 4));
  EXPECT_TRUE(g.AddEdge(0, 4).ok());
  EXPECT_TRUE(g.Current()->HasEdge(0, 2));  // compacted edges survived
}

// --- Compaction under faults ----------------------------------------------

TEST(MutationCompactionTest, FailedCompactionLeavesPreviousSnapshotServing) {
  MutableGraph g = MakePathMutable(12);
  ASSERT_TRUE(g.AddEdge(0, 6).ok());
  const auto published = g.Publish();

  FaultInjector injector(7);
  // First compaction dies at the pre-rebuild probe, the second at the
  // pre-publish probe (after the merged CSR was fully built): neither may
  // swap anything.
  injector.Arm(FaultSite::kGraphCompaction, /*at_visit=*/0);
  {
    ScopedFaultInjector scoped(&injector);
    EXPECT_EQ(g.Compact().code(), StatusCode::kInternal);
    EXPECT_EQ(g.Current().get(), published.get());
    EXPECT_EQ(g.epoch(), published->epoch());
    EXPECT_EQ(g.pending(), 1);  // the overlay kept its mutations

    injector.Arm(FaultSite::kGraphCompaction, /*at_visit=*/2);
    EXPECT_EQ(g.Compact().code(), StatusCode::kInternal);
    EXPECT_EQ(g.Current().get(), published.get());
    EXPECT_EQ(g.pending(), 1);

    // Re-armed: with the fault budget spent, the SAME call site succeeds.
    EXPECT_TRUE(g.Compact().ok());
  }
  EXPECT_EQ(injector.fires(FaultSite::kGraphCompaction), 2);

  const MutableGraph::Stats stats = g.stats();
  EXPECT_EQ(stats.compaction_failures, 2);
  EXPECT_EQ(stats.compactions, 1);
  EXPECT_EQ(stats.pending, 0);
  EXPECT_TRUE(g.Current()->HasEdge(0, 6));
  EXPECT_GT(g.epoch(), published->epoch());
}

TEST(MutationCompactionTest, CompactedViewIsBitIdenticalToFreshCsr) {
  MutableGraph g = MakePathMutable(16);
  ASSERT_TRUE(g.AddEdge(0, 8).ok());
  ASSERT_TRUE(g.RemoveEdge(4, 5).ok());
  ASSERT_TRUE(g.AddNode({99.0f}).ok());
  ASSERT_TRUE(g.AddEdge(16, 2).ok());
  ASSERT_TRUE(g.RemoveEdge(0, 8).ok());  // add-then-remove cancels out
  ASSERT_TRUE(g.Compact().ok());

  const auto snap = g.Current();
  const std::shared_ptr<const Graph> merged = snap->Materialized();

  // Rebuild the same edge set from scratch and compare the actual CSR
  // operator buffers: each row's neighbors are sorted, so identical edge
  // sets must produce identical row_ptr/col_idx/values — bit-for-bit.
  Graph fresh(merged->num_nodes());
  for (int64_t u = 0; u < merged->num_nodes(); ++u) {
    for (int64_t v : merged->Neighbors(u)) {
      if (v > u) FW_CHECK(fresh.AddEdge(u, v));
    }
  }
  ASSERT_EQ(fresh.num_edges(), merged->num_edges());
  const auto lhs = snap->GcnNormalizedAdjacency();
  const auto rhs = fresh.GcnNormalizedAdjacency();
  EXPECT_EQ(lhs->row_ptr(), rhs->row_ptr());
  EXPECT_EQ(lhs->col_idx(), rhs->col_idx());
  EXPECT_EQ(lhs->values(), rhs->values());
  const auto lhs_mean = snap->NeighborMeanAdjacency();
  const auto rhs_mean = fresh.NeighborMeanAdjacency();
  EXPECT_EQ(lhs_mean->col_idx(), rhs_mean->col_idx());
  EXPECT_EQ(lhs_mean->values(), rhs_mean->values());
}

TEST(MutationCompactionTest, MutationsDuringCompactionAreReplayed) {
  // Mutations keep landing while compactions run on another thread: the
  // rebase replay must lose none of them. (Also a TSan exercise of the
  // compact_mu_ / mu_ split.)
  MutableGraph g = MakePathMutable(64);
  for (int64_t i = 0; i < 20; ++i) ASSERT_TRUE(g.AddEdge(i, i + 2).ok());
  g.Publish();

  std::atomic<bool> stop{false};
  std::thread compactor([&] {
    while (!stop.load()) {
      const common::Status status = g.Compact();
      ASSERT_TRUE(status.ok()) << status.ToString();
    }
  });
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(g.AddEdge(i, i + 3).ok());
  }
  stop.store(true);
  compactor.join();

  g.Publish();
  ASSERT_TRUE(g.Compact().ok());
  const auto snap = g.Current();
  for (int64_t i = 0; i < 20; ++i) EXPECT_TRUE(snap->HasEdge(i, i + 2));
  for (int64_t i = 0; i < 30; ++i) EXPECT_TRUE(snap->HasEdge(i, i + 3));
  EXPECT_EQ(snap->num_edges(), 63 + 20 + 30);
}

// --- Fault-plan exhaustion telemetry --------------------------------------

TEST(MutationFaultTest, DeltaApplyFaultLeavesOverlayUntouched) {
  MutableGraph g = MakePathMutable(8);
  FaultInjector injector(7);
  injector.Arm(FaultSite::kGraphDeltaApply, /*at_visit=*/0);
  {
    ScopedFaultInjector scoped(&injector);
    const common::Status status = g.AddEdge(0, 4);
    EXPECT_EQ(status.code(), StatusCode::kInternal);
    EXPECT_EQ(g.pending(), 0);
    EXPECT_FALSE(g.Current()->HasEdge(0, 4));
    // The fault consumed the validated mutation, not the overlay: the
    // caller's retry goes through cleanly.
    EXPECT_TRUE(g.AddEdge(0, 4).ok());
  }
  EXPECT_TRUE(g.Publish()->HasEdge(0, 4));
}

TEST(MutationFaultTest, ExhaustedFaultPlanReportsOnceAndRearms) {
  obs::CollectingSink sink;
  obs::SetEventSink(&sink);
  auto* exhausted_counter =
      obs::MetricsRegistry::Global().GetCounter("fault.exhausted");
  const int64_t counter_before = exhausted_counter->value();

  MutableGraph g = MakePathMutable(8);
  FaultInjector injector(7);
  injector.Arm(FaultSite::kGraphDeltaApply, /*at_visit=*/0, /*count=*/1);
  {
    ScopedFaultInjector scoped(&injector);
    EXPECT_EQ(g.AddEdge(0, 2).code(), StatusCode::kInternal);  // the fire
    EXPECT_EQ(CountEvents(sink, "fault_plan_exhausted"), 0);
    // The first visit past the budget reports exhaustion — exactly once,
    // no matter how many more visits follow.
    EXPECT_TRUE(g.AddEdge(0, 2).ok());
    EXPECT_TRUE(g.AddEdge(0, 3).ok());
    EXPECT_EQ(CountEvents(sink, "fault_plan_exhausted"), 1);
    EXPECT_EQ(exhausted_counter->value(), counter_before + 1);

    // Re-arming resets the report: a fresh plan exhausts afresh.
    injector.Arm(FaultSite::kGraphDeltaApply, /*at_visit=*/0, /*count=*/1);
    EXPECT_EQ(g.AddEdge(0, 4).code(), StatusCode::kInternal);
    EXPECT_TRUE(g.AddEdge(0, 4).ok());
    EXPECT_EQ(CountEvents(sink, "fault_plan_exhausted"), 2);
    EXPECT_EQ(exhausted_counter->value(), counter_before + 2);
  }
  obs::SetEventSink(nullptr);
}

// --- Serving integration --------------------------------------------------

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

data::Dataset ToyDataset() { return data::MakeDataset("toy", {}).value(); }

std::string ExportArtifact(const data::Dataset& ds, uint64_t seed,
                           const std::string& path) {
  nn::GnnConfig gnn;
  gnn.in_features = ds.num_attrs();
  baselines::TrainOptions train;
  train.epochs = 20;
  baselines::VanillaMethod method(gnn, train);
  auto fitted_or = method.Fit(ds, seed);
  EXPECT_TRUE(fitted_or.ok()) << fitted_or.status().ToString();
  const core::FittedGnnModel* model = fitted_or.value()->AsGnn();
  EXPECT_NE(model, nullptr);
  serve::ModelArtifact artifact = serve::MakeArtifact(*model, ds);
  EXPECT_TRUE(serve::SaveModelArtifact(path, artifact).ok());
  return artifact.model_id;
}

std::shared_ptr<MutableGraph> MakeDynamic(const data::Dataset& ds,
                                          MutableGraphOptions options = {}) {
  return std::make_shared<MutableGraph>(
      std::make_shared<const Graph>(ds.graph), ds.features, options);
}

/// Ground truth for a snapshot: the model's eval forward over the
/// materialized CSR and merged features, through the served backbone's
/// exact adjacency operator.
nn::PredictionResult SnapshotTruth(const std::string& artifact_path,
                                   const data::Dataset& ds,
                                   const GraphSnapshot& snap) {
  auto artifact_or = serve::LoadModelArtifact(artifact_path);
  EXPECT_TRUE(artifact_or.ok()) << artifact_or.status().ToString();
  auto model_or = serve::RestoreFittedModel(artifact_or.value(), ds);
  EXPECT_TRUE(model_or.ok()) << model_or.status().ToString();
  const core::FittedGnnModel& model = *model_or.value();
  tensor::NoGradGuard no_grad;
  common::Rng rng(0);
  return nn::PredictFromLogits(model.classifier().ForwardWith(
      nn::AdjacencyForBackbone(model.classifier().encoder().config().backbone,
                               *snap.Materialized()),
      snap.Features(), /*training=*/false, &rng));
}

TEST(MutationServingTest, EpochInvalidationPurgesExactlyAffectedEntries) {
  auto ds = ToyDataset();
  const std::string path = TempPath("mutation_invalidate.fwmodel");
  ExportArtifact(ds, /*seed=*/1, path);

  auto dynamic = MakeDynamic(ds);
  serve::EngineOptions options;
  options.dynamic_graph = dynamic;
  auto engine_or = serve::InferenceEngine::Load(path, ds, options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  serve::InferenceEngine& engine = *engine_or.value();

  // Warm the cache with every node.
  std::vector<int64_t> all_nodes(static_cast<size_t>(ds.num_nodes()));
  std::iota(all_nodes.begin(), all_nodes.end(), 0);
  ASSERT_TRUE(engine.PredictBatch(all_nodes).ok());
  ASSERT_TRUE(engine.Predict(0).value().cache_hit);

  // Mutate between two non-adjacent nodes and publish the epoch.
  int64_t v = -1;
  for (int64_t candidate = 1; candidate < ds.num_nodes(); ++candidate) {
    if (!ds.graph.HasEdge(0, candidate)) {
      v = candidate;
      break;
    }
  }
  ASSERT_GE(v, 1);
  ASSERT_TRUE(dynamic->AddEdge(0, v).ok());
  const auto snap = dynamic->Publish();
  const std::vector<int64_t>& affected = snap->affected_nodes();
  ASSERT_FALSE(affected.empty());
  ASSERT_LT(static_cast<int64_t>(affected.size()), ds.num_nodes())
      << "toy graph too dense for an exactness check";

  // Every affected node had a cached entry, so the purge count must equal
  // the affected count exactly — no over- and no under-invalidation.
  EXPECT_EQ(engine.stats().epoch_invalidations,
            static_cast<int64_t>(affected.size()));
  EXPECT_EQ(engine.stats().graph_epoch, snap->epoch());

  const std::unordered_set<int64_t> hit(affected.begin(), affected.end());
  const nn::PredictionResult truth = SnapshotTruth(path, ds, *snap);
  for (int64_t node = 0; node < ds.num_nodes(); ++node) {
    auto prediction = engine.Predict(node);
    ASSERT_TRUE(prediction.ok()) << prediction.status().ToString();
    EXPECT_EQ(prediction.value().cache_hit, hit.count(node) == 0)
        << "node " << node;
    // Unaffected nodes answer from cache (computed on the OLD snapshot)
    // and must still be bit-correct for the new epoch — that is what the
    // invalidation radius guarantees.
    EXPECT_EQ(prediction.value().label,
              truth.pred[static_cast<size_t>(node)]);
    EXPECT_EQ(prediction.value().prob1,
              truth.prob1[static_cast<size_t>(node)]);
  }
}

TEST(MutationServingTest, AddedNodeBecomesServableAfterPublish) {
  auto ds = ToyDataset();
  const std::string path = TempPath("mutation_addnode.fwmodel");
  ExportArtifact(ds, /*seed=*/1, path);

  auto dynamic = MakeDynamic(ds);
  serve::EngineOptions options;
  options.dynamic_graph = dynamic;
  auto engine_or = serve::InferenceEngine::Load(path, ds, options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  serve::InferenceEngine& engine = *engine_or.value();

  const int64_t base_nodes = ds.num_nodes();
  EXPECT_EQ(engine.num_nodes(), base_nodes);
  EXPECT_EQ(engine.Predict(base_nodes).status().code(),
            StatusCode::kInvalidArgument);

  std::vector<float> row(static_cast<size_t>(ds.num_attrs()));
  for (int64_t c = 0; c < ds.num_attrs(); ++c) {
    row[static_cast<size_t>(c)] = ds.features.at(0, c);
  }
  auto node_or = dynamic->AddNode(std::move(row));
  ASSERT_TRUE(node_or.ok());
  ASSERT_TRUE(dynamic->AddEdge(node_or.value(), 0).ok());

  // Not yet published: the serving surface still ends at the old range.
  EXPECT_EQ(engine.num_nodes(), base_nodes);
  const auto snap = dynamic->Publish();
  EXPECT_EQ(engine.num_nodes(), base_nodes + 1);

  auto prediction = engine.Predict(node_or.value());
  ASSERT_TRUE(prediction.ok()) << prediction.status().ToString();
  const nn::PredictionResult truth = SnapshotTruth(path, ds, *snap);
  EXPECT_EQ(prediction.value().label,
            truth.pred[static_cast<size_t>(node_or.value())]);
  EXPECT_EQ(prediction.value().prob1,
            truth.prob1[static_cast<size_t>(node_or.value())]);
}

TEST(MutationServingTest, ConcurrentMutatePredictIsSnapshotIsolated) {
  auto ds = ToyDataset();
  const std::string path = TempPath("mutation_concurrent.fwmodel");
  ExportArtifact(ds, /*seed=*/1, path);

  auto dynamic = MakeDynamic(ds);
  serve::EngineOptions options;
  options.dynamic_graph = dynamic;
  options.flush_interval_ms = 0.2;
  auto engine_or = serve::InferenceEngine::Load(path, ds, options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  serve::InferenceEngine& engine = *engine_or.value();

  data::TemporalOptions temporal;
  temporal.num_steps = 60;
  auto script_or = data::GenerateTemporalScript(ds, temporal, /*seed=*/11);
  ASSERT_TRUE(script_or.ok()) << script_or.status().ToString();

  // Clients hammer the base node range while the mutator applies the
  // drifting script, publishing and compacting as it goes. Every request
  // must resolve OK — mutations must never tear or starve a forward.
  constexpr int kClients = 3;
  constexpr int kRounds = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        const int64_t node = (c + r * kClients) % ds.num_nodes();
        if (!engine.Predict(node).ok()) ++failures;
      }
    });
  }
  int64_t step = 0;
  for (const GraphMutation& m : script_or.value().events) {
    ASSERT_TRUE(dynamic->Apply(m).ok());
    if (++step % 8 == 0) dynamic->Publish();
    if (step % 24 == 0) {
      ASSERT_TRUE(dynamic->Compact().ok());
    }
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Drained and compacted: the served answers must be bit-identical to a
  // fresh forward over the final from-scratch CSR.
  dynamic->Publish();
  ASSERT_TRUE(dynamic->Compact().ok());
  const auto snap = dynamic->Current();
  const nn::PredictionResult truth = SnapshotTruth(path, ds, *snap);
  std::vector<int64_t> all_nodes(static_cast<size_t>(snap->num_nodes()));
  std::iota(all_nodes.begin(), all_nodes.end(), 0);
  auto replay_or = engine.PredictBatch(all_nodes);
  ASSERT_TRUE(replay_or.ok()) << replay_or.status().ToString();
  for (const serve::NodePrediction& p : replay_or.value()) {
    EXPECT_FALSE(p.degraded);
    EXPECT_EQ(p.label, truth.pred[static_cast<size_t>(p.node)]);
    EXPECT_EQ(p.prob1, truth.prob1[static_cast<size_t>(p.node)]);
  }
}

TEST(MutationServingTest, AuditWindowsStayConsistentAcrossEpochBoundary) {
  auto ds = ToyDataset();
  const std::string path = TempPath("mutation_audit.fwmodel");
  ExportArtifact(ds, /*seed=*/1, path);

  auto dynamic = MakeDynamic(ds);
  serve::EngineOptions options;
  options.dynamic_graph = dynamic;
  options.cache_capacity = 0;  // every request reaches the auditor
  options.audit_table = std::make_shared<const serve::AuditTable>(
      serve::AuditTable::FromDataset(ds));
  options.audit.stride = 1;
  options.audit.min_audited = 1;
  options.audit.delta_sp_threshold_pct = 0.0;  // metrics only, no alerts
  auto engine_or = serve::InferenceEngine::Load(path, ds, options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  serve::InferenceEngine& engine = *engine_or.value();

  constexpr int64_t kPerPhase = 12;
  for (int64_t node = 0; node < kPerPhase; ++node) {
    ASSERT_TRUE(engine.Predict(node).ok());
  }
  const serve::AuditWindowMetrics before = engine.audit_metrics();
  EXPECT_EQ(before.samples, kPerPhase);

  // Publish an epoch mid-stream: the audit window must carry straight
  // across the boundary — no reset, no double-count, full coverage.
  ASSERT_TRUE(dynamic->AddEdge(0, ds.num_nodes() - 1).ok());
  dynamic->Publish();

  for (int64_t node = 0; node < kPerPhase; ++node) {
    ASSERT_TRUE(engine.Predict(node).ok());
  }
  const serve::AuditWindowMetrics after = engine.audit_metrics();
  EXPECT_EQ(after.samples, 2 * kPerPhase);
  EXPECT_EQ(after.group_total[0] + after.group_total[1], 2 * kPerPhase);
  EXPECT_EQ(engine.audit_coverage_pct(), 100.0);
}

// --- Temporal script generator --------------------------------------------

TEST(TemporalScriptTest, DeterministicInTheSeed) {
  auto ds = ToyDataset();
  data::TemporalOptions options;
  options.num_steps = 50;
  auto a = data::GenerateTemporalScript(ds, options, 42);
  auto b = data::GenerateTemporalScript(ds, options, 42);
  auto c = data::GenerateTemporalScript(ds, options, 43);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_EQ(a.value().events.size(), 50u);
  EXPECT_EQ(a.value().step_seeds, b.value().step_seeds);
  EXPECT_EQ(a.value().added_node_groups, b.value().added_node_groups);
  for (size_t i = 0; i < a.value().events.size(); ++i) {
    const auto& x = a.value().events[i];
    const auto& y = b.value().events[i];
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.u, y.u);
    EXPECT_EQ(x.v, y.v);
    EXPECT_EQ(x.features, y.features);
  }
  EXPECT_NE(a.value().step_seeds, c.value().step_seeds);
}

TEST(TemporalScriptTest, SeedStreamIsPrefixStableAcrossHorizons) {
  auto ds = ToyDataset();
  data::TemporalOptions short_run, long_run;
  short_run.num_steps = 30;
  long_run.num_steps = 90;
  auto a = data::GenerateTemporalScript(ds, short_run, 7);
  auto b = data::GenerateTemporalScript(ds, long_run, 7);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(b.value().step_seeds.size(), 90u);
  const std::vector<uint64_t> prefix(b.value().step_seeds.begin(),
                                     b.value().step_seeds.begin() + 30);
  EXPECT_EQ(a.value().step_seeds, prefix);
}

TEST(TemporalScriptTest, ReplaysThroughMutableGraphWithoutRejection) {
  auto ds = ToyDataset();
  data::TemporalOptions options;
  options.num_steps = 120;
  auto script_or = data::GenerateTemporalScript(ds, options, 3);
  ASSERT_TRUE(script_or.ok()) << script_or.status().ToString();
  const data::TemporalScript& script = script_or.value();

  MutableGraphOptions graph_options;
  graph_options.max_pending = options.num_steps + 1;
  MutableGraph g(std::make_shared<const Graph>(ds.graph), ds.features,
                 graph_options);
  int64_t add_nodes = 0;
  for (const GraphMutation& m : script.events) {
    const common::Status status = g.Apply(m);
    ASSERT_TRUE(status.ok()) << status.ToString();
    if (m.kind == MutationKind::kAddNode) ++add_nodes;
  }
  EXPECT_EQ(static_cast<size_t>(add_nodes), script.added_node_groups.size());
  EXPECT_EQ(g.Publish()->num_nodes(), ds.num_nodes() + add_nodes);
  ASSERT_TRUE(g.Compact().ok());
  EXPECT_EQ(g.stats().applied, options.num_steps);
  EXPECT_EQ(g.stats().shed, 0);
}

TEST(TemporalScriptTest, HomophilyAndGroupMixDriftAcrossTheScript) {
  auto ds = ToyDataset();
  data::TemporalOptions options;
  options.num_steps = 400;
  options.add_node_fraction = 0.25;
  options.remove_edge_fraction = 0.1;
  options.homophily_start = 0.95;
  options.homophily_end = 0.05;
  options.group1_fraction_start = 0.1;
  options.group1_fraction_end = 0.9;
  auto script_or = data::GenerateTemporalScript(ds, options, 42);
  ASSERT_TRUE(script_or.ok()) << script_or.status().ToString();
  const data::TemporalScript& script = script_or.value();

  // Walk the script tracking each node's group, splitting inserted edges
  // and arrivals into the first and last thirds of the horizon.
  std::vector<int> groups = ds.sens;
  size_t arrival = 0;
  const size_t third = script.events.size() / 3;
  int64_t same_early = 0, edges_early = 0, same_late = 0, edges_late = 0;
  int64_t group1_early = 0, adds_early = 0, group1_late = 0, adds_late = 0;
  for (size_t i = 0; i < script.events.size(); ++i) {
    const GraphMutation& m = script.events[i];
    if (m.kind == MutationKind::kAddNode) {
      const int group = script.added_node_groups[arrival++];
      groups.push_back(group);
      if (i < third) {
        ++adds_early;
        group1_early += group;
      } else if (i >= 2 * third) {
        ++adds_late;
        group1_late += group;
      }
    } else if (m.kind == MutationKind::kAddEdge) {
      const bool same = groups[static_cast<size_t>(m.u)] ==
                        groups[static_cast<size_t>(m.v)];
      if (i < third) {
        ++edges_early;
        same_early += same ? 1 : 0;
      } else if (i >= 2 * third) {
        ++edges_late;
        same_late += same ? 1 : 0;
      }
    }
  }
  ASSERT_GT(edges_early, 20);
  ASSERT_GT(edges_late, 20);
  ASSERT_GT(adds_early, 5);
  ASSERT_GT(adds_late, 5);
  // Homophily decays: early same-group edge share must clearly exceed the
  // late share (0.95 vs 0.05 targets leave a wide margin at these counts).
  EXPECT_GT(static_cast<double>(same_early) / edges_early,
            static_cast<double>(same_late) / edges_late + 0.3);
  // Group mix shifts toward group 1.
  EXPECT_LT(static_cast<double>(group1_early) / adds_early,
            static_cast<double>(group1_late) / adds_late - 0.3);
}

// --- Incremental operator refresh -----------------------------------------

/// Builds all five adjacency operators of `snap`, which (a) materializes
/// them into the snapshot's cache for the NEXT epoch's refresh to capture
/// and (b) runs the cross-check when the graph was configured with it.
void BuildAllOps(const GraphSnapshot& snap) {
  snap.GcnNormalizedAdjacency();
  snap.PlainAdjacency();
  snap.RowNormalizedAdjacency();
  snap.AdjacencyWithSelfLoops();
  snap.NeighborMeanAdjacency();
}

MutableGraphOptions CrossCheckedRefresh() {
  MutableGraphOptions options;
  options.refresh_cross_check = true;  // FW_CHECKs bit-identity internally
  return options;
}

TEST(MutationRefreshTest, IncrementalRefreshBitIdenticalForAllOperators) {
  MutableGraph g = MakePathMutable(32, CrossCheckedRefresh());
  BuildAllOps(*g.Current());  // epoch 0: from scratch, captured for epoch 1

  ASSERT_TRUE(g.AddEdge(0, 16).ok());
  ASSERT_TRUE(g.RemoveEdge(8, 9).ok());
  auto node = g.AddNode({77.0f});
  ASSERT_TRUE(node.ok());
  ASSERT_TRUE(g.AddEdge(node.value(), 4).ok());
  const auto snap = g.Publish();
  BuildAllOps(*snap);  // cross-check mode FW_CHECKs each against a rebuild
  EXPECT_EQ(snap->ops_incremental(), 5);
  EXPECT_EQ(snap->ops_rebuilt(), 0);

  // Belt and braces on top of the internal cross-check: compare one
  // degree-normalized operator against a from-scratch Graph, buffer for
  // buffer.
  Graph fresh(snap->num_nodes());
  for (int64_t u = 0; u < snap->num_nodes(); ++u) {
    for (int64_t v : snap->Neighbors(u)) {
      if (v > u) FW_CHECK(fresh.AddEdge(u, v));
    }
  }
  const auto lhs = snap->GcnNormalizedAdjacency();
  const auto rhs = fresh.GcnNormalizedAdjacency();
  EXPECT_EQ(lhs->row_ptr(), rhs->row_ptr());
  EXPECT_EQ(lhs->col_idx(), rhs->col_idx());
  EXPECT_EQ(lhs->values(), rhs->values());
}

TEST(MutationRefreshTest, RefreshChainsAcrossManyEpochs) {
  // Each epoch patches the PREVIOUS epoch's patched matrices — errors
  // would compound, so the cross-check runs every epoch of the chain.
  MutableGraph g = MakePathMutable(24, CrossCheckedRefresh());
  BuildAllOps(*g.Current());
  for (int64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(g.AddEdge(i, i + 12).ok());
    if (i % 2 == 0) {
      ASSERT_TRUE(g.RemoveEdge(i, i + 1).ok());
    }
    const auto snap = g.Publish();
    BuildAllOps(*snap);
    EXPECT_EQ(snap->ops_incremental(), 5) << "epoch " << snap->epoch();
  }
}

TEST(MutationRefreshTest, UnbuiltPreviousOperatorsFallBackToRebuild) {
  MutableGraph g = MakePathMutable(16, CrossCheckedRefresh());
  // Epoch 0's operators are never requested, so epoch 1 has nothing to
  // patch and must rebuild from scratch — correct, just not incremental.
  ASSERT_TRUE(g.AddEdge(0, 8).ok());
  const auto snap = g.Publish();
  BuildAllOps(*snap);
  EXPECT_EQ(snap->ops_incremental(), 0);
  EXPECT_EQ(snap->ops_rebuilt(), 5);
}

TEST(MutationRefreshTest, RefreshSurvivesCompaction) {
  // Compaction rebases the overlay onto a fresh CSR; the published
  // snapshot must still patch the pre-compaction operators bit-exactly.
  MutableGraph g = MakePathMutable(20, CrossCheckedRefresh());
  ASSERT_TRUE(g.AddEdge(0, 10).ok());
  const auto before = g.Publish();
  BuildAllOps(*before);
  ASSERT_TRUE(g.AddEdge(5, 15).ok());
  ASSERT_TRUE(g.Compact().ok());
  const auto after = g.Current();
  ASSERT_NE(after.get(), before.get());
  BuildAllOps(*after);
  EXPECT_EQ(after->ops_incremental(), 5);
}

// --- Transactional ApplyBatch ---------------------------------------------

TEST(MutationBatchTest, BatchAppliesAtomicallyWithDependentMutations) {
  MutableGraph g = MakePathMutable(4);
  // The batch adds a node and wires edges to the id it will get — later
  // mutations validate against the state earlier ones produce.
  std::vector<GraphMutation> batch = {
      GraphMutation::AddNode({7.0f}),
      GraphMutation::AddEdge(4, 0),
      GraphMutation::AddEdge(4, 2),
  };
  std::vector<common::Status> statuses;
  ASSERT_TRUE(g.ApplyBatch(batch, &statuses).ok());
  ASSERT_EQ(statuses.size(), 3u);
  for (const auto& s : statuses) EXPECT_TRUE(s.ok());
  EXPECT_EQ(g.stats().applied, 3);
  const auto snap = g.Publish();
  EXPECT_EQ(snap->num_nodes(), 5);
  EXPECT_TRUE(snap->HasEdge(4, 0));
  EXPECT_TRUE(snap->HasEdge(4, 2));
}

TEST(MutationBatchTest, FailingMutationAbortsTheWholeBatch) {
  MutableGraph g = MakePathMutable(6);
  std::vector<GraphMutation> batch = {
      GraphMutation::AddEdge(0, 2),  // valid on its own
      GraphMutation::AddEdge(1, 2),  // duplicate of a base edge
      GraphMutation::AddEdge(0, 3),  // never reached
  };
  std::vector<common::Status> statuses;
  const common::Status status = g.ApplyBatch(batch, &statuses);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);

  // Per-mutation statuses say exactly what happened to each entry.
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_NE(statuses[0].message().find("validated, rolled back"),
            std::string::npos);
  EXPECT_EQ(statuses[1].code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(statuses[2].message().find("not attempted"), std::string::npos);

  // All-or-nothing: mutation #0 validated fine but must NOT have landed.
  EXPECT_EQ(g.pending(), 0);
  EXPECT_EQ(g.stats().applied, 0);
  EXPECT_FALSE(g.Current()->HasEdge(0, 2));
  const auto snap = g.Publish();
  EXPECT_EQ(snap->epoch(), 0);  // no-op publish: nothing changed

  // The batch minus the poison pill goes through afterwards.
  ASSERT_TRUE(g.ApplyBatch({batch[0], batch[2]}).ok());
  EXPECT_EQ(g.pending(), 2);
}

TEST(MutationBatchTest, OverflowInsideBatchShedsAndLatchesBacklog) {
  MutableGraphOptions options;
  options.max_pending = 2;
  MutableGraph g = MakePathMutable(10, options);
  std::vector<GraphMutation> batch = {
      GraphMutation::AddEdge(0, 2),
      GraphMutation::AddEdge(0, 3),
      GraphMutation::AddEdge(0, 4),  // overlay full here
  };
  std::vector<common::Status> statuses;
  EXPECT_EQ(g.ApplyBatch(batch, &statuses).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(statuses[2].code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(g.pending(), 0);  // nothing from the batch landed
  EXPECT_TRUE(g.backlogged());
  EXPECT_EQ(g.stats().shed, 1);
}

TEST(MutationBatchTest, InjectedApplyFaultRejectsTheWholeBatch) {
  MutableGraph g = MakePathMutable(8);
  FaultInjector injector(7);
  // The dry-run applies probe kGraphDeltaApply per mutation; firing on the
  // second mutation must abort the batch with the overlay untouched.
  injector.Arm(FaultSite::kGraphDeltaApply, /*at_visit=*/1);
  {
    ScopedFaultInjector scoped(&injector);
    std::vector<GraphMutation> batch = {GraphMutation::AddEdge(0, 2),
                                        GraphMutation::AddEdge(0, 3)};
    std::vector<common::Status> statuses;
    EXPECT_EQ(g.ApplyBatch(batch, &statuses).code(), StatusCode::kInternal);
    EXPECT_EQ(statuses[1].code(), StatusCode::kInternal);
    EXPECT_EQ(g.pending(), 0);
    // Budget spent: the same batch now lands atomically.
    ASSERT_TRUE(g.ApplyBatch(batch).ok());
  }
  EXPECT_EQ(g.pending(), 2);
  EXPECT_EQ(injector.fires(FaultSite::kGraphDeltaApply), 1);
}

TEST(MutationBatchTest, EmptyBatchIsANoOp) {
  MutableGraph g = MakePathMutable(4);
  std::vector<common::Status> statuses = {common::Status::Internal("stale")};
  EXPECT_TRUE(g.ApplyBatch({}, &statuses).ok());
  EXPECT_TRUE(statuses.empty());
  EXPECT_EQ(g.pending(), 0);
}

// --- Durable mutation log (file level) ------------------------------------

MutationLog::Header PathLogHeader(int64_t n) {
  MutationLog::Header h;
  h.base_seq = 0;
  h.base_nodes = n;
  h.base_edges = n - 1;
  h.feature_dim = 1;
  return h;
}

TEST(MutationLogTest, AppendedRecordsRoundTripThroughReplay) {
  const std::string path = TempPath("mutation_log_roundtrip.fwlog");
  std::filesystem::remove(path);
  auto log_or = MutationLog::Create(path, PathLogHeader(8));
  ASSERT_TRUE(log_or.ok()) << log_or.status().ToString();
  MutationLog& log = *log_or.value();
  ASSERT_TRUE(log.Append(GraphMutation::AddEdge(0, 4)).ok());
  ASSERT_TRUE(log.Append(GraphMutation::RemoveEdge(2, 3)).ok());
  ASSERT_TRUE(log.Append(GraphMutation::AddNode({1.5f})).ok());
  EXPECT_EQ(log.records(), 3);

  auto replay_or = MutationLog::Replay(path);
  ASSERT_TRUE(replay_or.ok()) << replay_or.status().ToString();
  const MutationLog::ReplayResult& replay = replay_or.value();
  EXPECT_EQ(replay.header.base_seq, 0u);
  EXPECT_EQ(replay.header.base_nodes, 8);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[0].kind, MutationKind::kAddEdge);
  EXPECT_EQ(replay.records[0].u, 0);
  EXPECT_EQ(replay.records[0].v, 4);
  EXPECT_EQ(replay.records[1].kind, MutationKind::kRemoveEdge);
  EXPECT_EQ(replay.records[2].kind, MutationKind::kAddNode);
  EXPECT_EQ(replay.records[2].features, std::vector<float>{1.5f});
}

TEST(MutationLogTest, TornTailIsToleratedAndTruncatedOnOpen) {
  const std::string path = TempPath("mutation_log_torn.fwlog");
  std::filesystem::remove(path);
  {
    auto log_or = MutationLog::Create(path, PathLogHeader(8));
    ASSERT_TRUE(log_or.ok());
    ASSERT_TRUE(log_or.value()->Append(GraphMutation::AddEdge(0, 4)).ok());
  }
  // A crash mid-append leaves a partial record at EOF: simulate with a few
  // garbage bytes that parse as an incomplete length prefix + payload.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char garbage[] = {0x40, 0x00, 0x00, 0x00, 0x01, 0x02};
    out.write(garbage, sizeof(garbage));
  }
  auto replay_or = MutationLog::Replay(path);
  ASSERT_TRUE(replay_or.ok()) << replay_or.status().ToString();
  EXPECT_TRUE(replay_or.value().torn_tail);
  ASSERT_EQ(replay_or.value().records.size(), 1u);  // the complete record

  // Open drops the tail; subsequent appends and replays are clean.
  auto open_or = MutationLog::Open(path, replay_or.value());
  ASSERT_TRUE(open_or.ok()) << open_or.status().ToString();
  ASSERT_TRUE(open_or.value()->Append(GraphMutation::AddEdge(0, 5)).ok());
  auto clean_or = MutationLog::Replay(path);
  ASSERT_TRUE(clean_or.ok());
  EXPECT_FALSE(clean_or.value().torn_tail);
  EXPECT_EQ(clean_or.value().records.size(), 2u);
}

TEST(MutationLogTest, CorruptRecordIsRejectedWithPreciseError) {
  const std::string path = TempPath("mutation_log_corrupt.fwlog");
  std::filesystem::remove(path);
  {
    auto log_or = MutationLog::Create(path, PathLogHeader(8));
    ASSERT_TRUE(log_or.ok());
    ASSERT_TRUE(log_or.value()->Append(GraphMutation::AddEdge(0, 4)).ok());
    ASSERT_TRUE(log_or.value()->Append(GraphMutation::AddEdge(0, 5)).ok());
  }
  // Flip one payload byte of the SECOND record (header is 44 bytes, each
  // edge record is 4 + 28 + 4 = 36): a complete-but-corrupt record must
  // fail CRC — never replay garbage, never masquerade as a torn tail.
  ASSERT_TRUE(FaultInjector::FlipByte(path, /*offset=*/44 + 36 + 10).ok());
  auto replay_or = MutationLog::Replay(path);
  ASSERT_FALSE(replay_or.ok());
  EXPECT_EQ(replay_or.status().code(), StatusCode::kIoError);
  EXPECT_NE(replay_or.status().ToString().find("CRC"), std::string::npos);
  EXPECT_NE(replay_or.status().ToString().find("record 1"),
            std::string::npos);
}

TEST(MutationLogTest, CorruptHeaderIsRejected) {
  const std::string path = TempPath("mutation_log_badheader.fwlog");
  std::filesystem::remove(path);
  {
    auto log_or = MutationLog::Create(path, PathLogHeader(8));
    ASSERT_TRUE(log_or.ok());
  }
  ASSERT_TRUE(FaultInjector::FlipByte(path, /*offset=*/12).ok());
  EXPECT_EQ(MutationLog::Replay(path).status().code(), StatusCode::kIoError);
}

TEST(MutationLogTest, ResetStartsTheNextGenerationWithCarriedRecords) {
  const std::string path = TempPath("mutation_log_reset.fwlog");
  std::filesystem::remove(path);
  auto log_or = MutationLog::Create(path, PathLogHeader(8));
  ASSERT_TRUE(log_or.ok());
  MutationLog& log = *log_or.value();
  ASSERT_TRUE(log.Append(GraphMutation::AddEdge(0, 4)).ok());
  ASSERT_TRUE(log.Append(GraphMutation::AddEdge(0, 5)).ok());

  MutationLog::Header next = PathLogHeader(8);
  next.base_seq = 1;
  next.base_edges = 9;  // the compacted base absorbed both edges
  ASSERT_TRUE(log.Reset(next, {GraphMutation::AddEdge(0, 6)}).ok());
  EXPECT_EQ(log.records(), 1);

  auto replay_or = MutationLog::Replay(path);
  ASSERT_TRUE(replay_or.ok());
  EXPECT_EQ(replay_or.value().header.base_seq, 1u);
  ASSERT_EQ(replay_or.value().records.size(), 1u);
  EXPECT_EQ(replay_or.value().records[0].v, 6);

  // The new generation keeps appending in place.
  ASSERT_TRUE(log.Append(GraphMutation::AddEdge(0, 7)).ok());
  EXPECT_EQ(MutationLog::Replay(path).value().records.size(), 2u);
}

TEST(MutationLogTest, AppendFaultLeavesTheFileUntouched) {
  const std::string path = TempPath("mutation_log_appendfault.fwlog");
  std::filesystem::remove(path);
  auto log_or = MutationLog::Create(path, PathLogHeader(8));
  ASSERT_TRUE(log_or.ok());
  MutationLog& log = *log_or.value();
  ASSERT_TRUE(log.Append(GraphMutation::AddEdge(0, 4)).ok());
  const int64_t bytes_before = log.bytes();

  FaultInjector injector(7);
  injector.Arm(FaultSite::kMutationLogAppend, /*at_visit=*/0);
  {
    ScopedFaultInjector scoped(&injector);
    EXPECT_EQ(log.Append(GraphMutation::AddEdge(0, 5)).code(),
              StatusCode::kInternal);
    EXPECT_EQ(log.bytes(), bytes_before);
    EXPECT_EQ(log.records(), 1);
    EXPECT_TRUE(log.Append(GraphMutation::AddEdge(0, 5)).ok());  // retry
  }
  EXPECT_EQ(injector.fires(FaultSite::kMutationLogAppend), 1);
  EXPECT_EQ(static_cast<int64_t>(std::filesystem::file_size(path)),
            log.bytes());
}

// --- Write-ahead logging through MutableGraph -----------------------------

/// One operator's raw CSR buffers plus the merged feature matrix — the
/// bit-identity fingerprint recovery is checked against.
struct GraphDigest {
  std::vector<int64_t> row_ptr;
  std::vector<int64_t> col_idx;
  std::vector<float> values;
  std::vector<float> features;
  int64_t nodes = 0;
  int64_t edges = 0;
};

GraphDigest DigestOf(const GraphSnapshot& snap) {
  GraphDigest d;
  const auto op = snap.GcnNormalizedAdjacency();
  d.row_ptr = op->row_ptr();
  d.col_idx = op->col_idx();
  d.values = op->values();
  d.features.assign(snap.Features().data().begin(),
                    snap.Features().data().end());
  d.nodes = snap.num_nodes();
  d.edges = snap.num_edges();
  return d;
}

void ExpectDigestEq(const GraphDigest& a, const GraphDigest& b) {
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.row_ptr, b.row_ptr);
  EXPECT_EQ(a.col_idx, b.col_idx);
  EXPECT_EQ(a.values, b.values);   // bitwise: operator float products
  EXPECT_EQ(a.features, b.features);
}

std::string FreshLogPath(const std::string& name) {
  const std::string path = TempPath(name);
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".base");
  return path;
}

TEST(MutationDurabilityTest, CrashBeforeCompactionReplaysTheOverlay) {
  const std::string path = FreshLogPath("mutation_wal_replay.fwlog");
  GraphDigest before;
  {
    auto g_or = MutableGraph::Recover(PathGraph(16), PathFeatures(16), path);
    ASSERT_TRUE(g_or.ok()) << g_or.status().ToString();
    MutableGraph& g = *g_or.value();
    ASSERT_TRUE(g.AddEdge(0, 8).ok());
    ASSERT_TRUE(g.RemoveEdge(3, 4).ok());
    ASSERT_TRUE(g.AddNode({77.0f}).ok());
    ASSERT_TRUE(g.AddEdge(16, 2).ok());
    before = DigestOf(*g.Publish());
    EXPECT_EQ(g.stats().log_appends, 4);
    // The graph object is dropped here WITHOUT compacting — the process
    // "crashed" with four acknowledged mutations only the log remembers.
  }
  auto r_or = MutableGraph::Recover(PathGraph(16), PathFeatures(16), path);
  ASSERT_TRUE(r_or.ok()) << r_or.status().ToString();
  MutableGraph& r = *r_or.value();
  EXPECT_EQ(r.stats().replayed, 4);
  ExpectDigestEq(DigestOf(*r.Current()), before);
}

TEST(MutationDurabilityTest, CompactTruncatesTheLogAndWritesABase) {
  const std::string path = FreshLogPath("mutation_wal_compact.fwlog");
  GraphDigest final_state;
  {
    auto g_or = MutableGraph::Recover(PathGraph(12), PathFeatures(12), path);
    ASSERT_TRUE(g_or.ok()) << g_or.status().ToString();
    MutableGraph& g = *g_or.value();
    ASSERT_TRUE(g.AddEdge(0, 6).ok());
    ASSERT_TRUE(g.AddEdge(1, 7).ok());
    ASSERT_TRUE(g.Compact().ok());
    EXPECT_EQ(g.stats().log_resets, 1);
    EXPECT_EQ(g.mutation_log()->records(), 0);  // truncated: all folded
    EXPECT_EQ(g.mutation_log()->header().base_seq, 1u);
    EXPECT_TRUE(std::filesystem::exists(path + ".base"));

    // Post-compaction mutations land in the new generation.
    ASSERT_TRUE(g.AddEdge(2, 8).ok());
    final_state = DigestOf(*g.Publish());
    EXPECT_EQ(g.mutation_log()->records(), 1);
  }
  // Recovery stitches checkpoint + suffix: the compacted edges come from
  // the base file, the post-compaction edge from the generation-1 log.
  auto r_or = MutableGraph::Recover(PathGraph(12), PathFeatures(12), path);
  ASSERT_TRUE(r_or.ok()) << r_or.status().ToString();
  MutableGraph& r = *r_or.value();
  EXPECT_EQ(r.stats().replayed, 1);
  EXPECT_TRUE(r.Current()->HasEdge(0, 6));
  EXPECT_TRUE(r.Current()->HasEdge(1, 7));
  EXPECT_TRUE(r.Current()->HasEdge(2, 8));
  ExpectDigestEq(DigestOf(*r.Current()), final_state);
}

TEST(MutationDurabilityTest, LogAppendFaultRejectsWithNothingChanged) {
  const std::string path = FreshLogPath("mutation_wal_appendfault.fwlog");
  auto g_or = MutableGraph::Recover(PathGraph(8), PathFeatures(8), path);
  ASSERT_TRUE(g_or.ok()) << g_or.status().ToString();
  MutableGraph& g = *g_or.value();

  FaultInjector injector(7);
  injector.Arm(FaultSite::kMutationLogAppend, /*at_visit=*/0);
  {
    ScopedFaultInjector scoped(&injector);
    const common::Status status = g.AddEdge(0, 4);
    EXPECT_EQ(status.code(), StatusCode::kInternal);
    EXPECT_NE(status.message().find("mutation-log"), std::string::npos);
    EXPECT_EQ(g.pending(), 0);
    EXPECT_EQ(g.mutation_log()->records(), 0);
    EXPECT_EQ(g.stats().log_appends, 0);
    EXPECT_TRUE(g.AddEdge(0, 4).ok());  // budget spent: retry goes through
  }
  EXPECT_EQ(g.pending(), 1);
  EXPECT_EQ(g.mutation_log()->records(), 1);
}

TEST(MutationDurabilityTest, ApplyFaultRollsTheLogBack) {
  const std::string path = FreshLogPath("mutation_wal_rollback.fwlog");
  {
    auto g_or = MutableGraph::Recover(PathGraph(8), PathFeatures(8), path);
    ASSERT_TRUE(g_or.ok()) << g_or.status().ToString();
    MutableGraph& g = *g_or.value();
    ASSERT_TRUE(g.AddEdge(0, 4).ok());

    FaultInjector injector(7);
    injector.Arm(FaultSite::kGraphDeltaApply, /*at_visit=*/0);
    {
      ScopedFaultInjector scoped(&injector);
      // The mutation was durably appended, then the overlay apply faulted:
      // the append must be rolled back or a crash would replay a mutation
      // the caller was told failed.
      EXPECT_EQ(g.AddEdge(0, 5).code(), StatusCode::kInternal);
    }
    EXPECT_EQ(g.mutation_log()->records(), 1);
    EXPECT_EQ(g.pending(), 1);
  }
  auto r_or = MutableGraph::Recover(PathGraph(8), PathFeatures(8), path);
  ASSERT_TRUE(r_or.ok()) << r_or.status().ToString();
  EXPECT_TRUE(r_or.value()->Current()->HasEdge(0, 4));
  EXPECT_FALSE(r_or.value()->Current()->HasEdge(0, 5));
}

TEST(MutationDurabilityTest, CorruptLogIsRejectedWhileOldStateKeepsServing) {
  const std::string path = FreshLogPath("mutation_wal_corrupt.fwlog");
  {
    auto g_or = MutableGraph::Recover(PathGraph(8), PathFeatures(8), path);
    ASSERT_TRUE(g_or.ok());
    ASSERT_TRUE(g_or.value()->AddEdge(0, 4).ok());
    ASSERT_TRUE(g_or.value()->AddEdge(0, 5).ok());
  }
  ASSERT_TRUE(FaultInjector::FlipByte(path, /*offset=*/44 + 36 + 10).ok());

  // The server that is already up keeps its snapshot; the RECOVERY path is
  // what must refuse precisely instead of replaying garbage.
  auto serving_or = MutableGraph::Recover(PathGraph(8), PathFeatures(8),
                                          TempPath("mutation_wal_other.fwlog"));
  std::filesystem::remove(TempPath("mutation_wal_other.fwlog"));
  ASSERT_TRUE(serving_or.ok());
  const auto pre_failure = serving_or.value()->Current();

  auto r_or = MutableGraph::Recover(PathGraph(8), PathFeatures(8), path);
  ASSERT_FALSE(r_or.ok());
  EXPECT_EQ(r_or.status().code(), StatusCode::kIoError);
  EXPECT_NE(r_or.status().ToString().find("CRC"), std::string::npos);

  // The failed recovery touched nothing: the old snapshot still answers
  // and a second replay attempt reports the same precise error.
  EXPECT_EQ(serving_or.value()->Current().get(), pre_failure.get());
  EXPECT_EQ(MutableGraph::Recover(PathGraph(8), PathFeatures(8), path)
                .status()
                .code(),
            StatusCode::kIoError);
}

TEST(MutationDurabilityTest, TornTailFromCrashMidAppendIsDropped) {
  const std::string path = FreshLogPath("mutation_wal_torn.fwlog");
  {
    auto g_or = MutableGraph::Recover(PathGraph(8), PathFeatures(8), path);
    ASSERT_TRUE(g_or.ok());
    ASSERT_TRUE(g_or.value()->AddEdge(0, 4).ok());
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char partial[] = {0x24, 0x00, 0x00, 0x00, 0x01};
    out.write(partial, sizeof(partial));
  }
  // The torn record was never acknowledged; recovery keeps the acked edge,
  // drops the tail, and the log is clean for new appends.
  auto r_or = MutableGraph::Recover(PathGraph(8), PathFeatures(8), path);
  ASSERT_TRUE(r_or.ok()) << r_or.status().ToString();
  EXPECT_EQ(r_or.value()->stats().replayed, 1);
  EXPECT_TRUE(r_or.value()->Current()->HasEdge(0, 4));
  ASSERT_TRUE(r_or.value()->AddEdge(0, 5).ok());
  auto replay_or = MutationLog::Replay(path);
  ASSERT_TRUE(replay_or.ok());
  EXPECT_FALSE(replay_or.value().torn_tail);
  EXPECT_EQ(replay_or.value().records.size(), 2u);
}

// --- The graph-base checkpoint (`<log>.base`, FWCP v5) --------------------

std::string FileBytes(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(common::ReadFile(path, &bytes).ok()) << path;
  return bytes;
}

/// A log that has been through one Compact(): `<path>.base` holds the merged
/// base (generation 1) and the log holds one post-compaction record.
std::string CompactedLog(const std::string& name) {
  const std::string path = FreshLogPath(name);
  auto g_or = MutableGraph::Recover(PathGraph(8), PathFeatures(8), path);
  EXPECT_TRUE(g_or.ok()) << g_or.status().ToString();
  MutableGraph& g = *g_or.value();
  EXPECT_TRUE(g.AddEdge(0, 4).ok());
  EXPECT_TRUE(g.AddEdge(1, 5).ok());
  EXPECT_TRUE(g.Compact().ok());
  EXPECT_TRUE(g.AddEdge(2, 6).ok());
  return path;
}

/// Recover must refuse with `code` and a message naming `what`, and leave
/// both files byte-identical.
void ExpectRecoverRefuses(const std::string& path, StatusCode code,
                          const std::string& what) {
  const std::string log_before = FileBytes(path);
  const std::string base_before = FileBytes(path + ".base");
  auto r_or = MutableGraph::Recover(PathGraph(8), PathFeatures(8), path);
  ASSERT_FALSE(r_or.ok());
  EXPECT_EQ(r_or.status().code(), code) << r_or.status().ToString();
  EXPECT_NE(r_or.status().ToString().find(what), std::string::npos)
      << r_or.status().ToString();
  EXPECT_EQ(FileBytes(path), log_before);
  EXPECT_EQ(FileBytes(path + ".base"), base_before);
}

TEST(MutationGraphBaseTest, CompactWritesAnFwcpV5Envelope) {
  const std::string path = CompactedLog("graph_base_v5.fwlog");
  const std::string base = FileBytes(path + ".base");
  ASSERT_GE(base.size(), 24u);
  uint64_t magic_version = 0;
  std::memcpy(&magic_version, base.data(), sizeof(magic_version));
  EXPECT_EQ(magic_version >> 32, 0x46574350u);  // "FWCP"
  EXPECT_EQ(magic_version & 0xFFFFFFFFu, 5u);
  auto ckpt_or = ReadGraphBase(path + ".base");
  ASSERT_TRUE(ckpt_or.ok()) << ckpt_or.status().ToString();
  EXPECT_EQ(ckpt_or.value().seq, 1u);
  EXPECT_EQ(ckpt_or.value().folded, 2);
  EXPECT_TRUE(ckpt_or.value().graph->HasEdge(0, 4));
  EXPECT_TRUE(ckpt_or.value().graph->HasEdge(1, 5));
}

TEST(MutationGraphBaseTest, FlippedPayloadByteIsRejected) {
  const std::string path = CompactedLog("graph_base_flip.fwlog");
  ASSERT_TRUE(FaultInjector::FlipByte(path + ".base", 24 + 10).ok());
  ExpectRecoverRefuses(path, StatusCode::kIoError, "CRC");
}

TEST(MutationGraphBaseTest, TruncatedBaseIsRejected) {
  const std::string path = CompactedLog("graph_base_truncated.fwlog");
  const auto size =
      static_cast<int64_t>(std::filesystem::file_size(path + ".base"));
  ASSERT_TRUE(FaultInjector::Truncate(path + ".base", size - 5).ok());
  ExpectRecoverRefuses(path, StatusCode::kIoError, "size mismatch");
  ASSERT_TRUE(FaultInjector::Truncate(path + ".base", 10).ok());
  ExpectRecoverRefuses(path, StatusCode::kIoError, "truncated");
}

TEST(MutationGraphBaseTest, WrongVersionIsRejected) {
  const std::string path = CompactedLog("graph_base_version.fwlog");
  // Byte 0 is the low byte of the version: 5 ^ 1 = 4, the model artifact's.
  ASSERT_TRUE(FaultInjector::FlipByte(path + ".base", 0, 0x01).ok());
  ExpectRecoverRefuses(path, StatusCode::kInvalidArgument, "version 4");
}

TEST(MutationGraphBaseTest, OldFwgbMagicIsRefused) {
  // The retired graph-base format had the same header layout under its own
  // magic ("FWGB", version 1). It is refused, not read.
  const std::string path = CompactedLog("graph_base_fwgb.fwlog");
  std::string base = FileBytes(path + ".base");
  const uint64_t fwgb = (uint64_t{0x46574742} << 32) | 1;
  std::memcpy(base.data(), &fwgb, sizeof(fwgb));
  {
    std::ofstream out(path + ".base", std::ios::binary | std::ios::trunc);
    out.write(base.data(), static_cast<std::streamsize>(base.size()));
  }
  ExpectRecoverRefuses(path, StatusCode::kInvalidArgument,
                       "not a Fairwos checkpoint");
}

TEST(MutationGraphBaseTest, CrcHighWordFlipIsIoError) {
  const std::string path = CompactedLog("graph_base_crc_high.fwlog");
  for (int64_t offset = 20; offset < 24; ++offset) {
    ASSERT_TRUE(FaultInjector::FlipByte(path + ".base", offset).ok());
    ExpectRecoverRefuses(path, StatusCode::kIoError, "CRC");
    ASSERT_TRUE(FaultInjector::FlipByte(path + ".base", offset).ok());
  }
  EXPECT_TRUE(
      MutableGraph::Recover(PathGraph(8), PathFeatures(8), path).ok());
}

TEST(MutationGraphBaseTest, CheckpointFlipDuringCompactIsCaughtAtRecover) {
  // kCheckpointFlip models a disk that corrupts the base on its way out:
  // Compact() cannot see it, the next Recover must.
  const std::string path = FreshLogPath("graph_base_write_flip.fwlog");
  FaultInjector injector(11);
  injector.Arm(FaultSite::kCheckpointFlip, /*at_visit=*/0);
  {
    auto g_or = MutableGraph::Recover(PathGraph(8), PathFeatures(8), path);
    ASSERT_TRUE(g_or.ok()) << g_or.status().ToString();
    ASSERT_TRUE(g_or.value()->AddEdge(0, 4).ok());
    ScopedFaultInjector scoped(&injector);
    ASSERT_TRUE(g_or.value()->Compact().ok());
  }
  EXPECT_EQ(injector.fires(FaultSite::kCheckpointFlip), 1);
  ExpectRecoverRefuses(path, StatusCode::kIoError, "CRC");
}

TEST(MutationGraphBaseTest, EveryByteFlipIsRejected) {
  // Exhaustive sweep, like the TrainState one: every byte of the base file
  // is authenticated, so every flip must make Recover refuse.
  const std::string path = CompactedLog("graph_base_sweep.fwlog");
  const std::string base_path = path + ".base";
  const std::string log_before = FileBytes(path);
  const auto size = static_cast<int64_t>(std::filesystem::file_size(base_path));
  for (int64_t offset = 0; offset < size; ++offset) {
    ASSERT_TRUE(FaultInjector::FlipByte(base_path, offset, 0x04).ok());
    EXPECT_FALSE(
        MutableGraph::Recover(PathGraph(8), PathFeatures(8), path).ok())
        << "flip at " << offset << " was accepted";
    ASSERT_TRUE(FaultInjector::FlipByte(base_path, offset, 0x04).ok());
  }
  EXPECT_EQ(FileBytes(path), log_before);
}

TEST(MutationGraphBaseTest, DirectoryOrForeignFileIsRefused) {
  // Wrong paths must fail cleanly: a directory where the log or its base
  // should be is IoError, and a foreign file is refused by its header.
  const std::string dir_log = FreshLogPath("graph_base_dir_log.fwlog");
  std::filesystem::create_directory(dir_log);
  auto r_or = MutableGraph::Recover(PathGraph(8), PathFeatures(8), dir_log);
  ASSERT_FALSE(r_or.ok());
  EXPECT_EQ(r_or.status().code(), StatusCode::kIoError)
      << r_or.status().ToString();
  std::filesystem::remove(dir_log);

  const std::string path = CompactedLog("graph_base_dir_base.fwlog");
  const std::string log_before = FileBytes(path);
  std::filesystem::remove(path + ".base");
  std::filesystem::create_directory(path + ".base");
  r_or = MutableGraph::Recover(PathGraph(8), PathFeatures(8), path);
  ASSERT_FALSE(r_or.ok());
  EXPECT_EQ(r_or.status().code(), StatusCode::kIoError)
      << r_or.status().ToString();
  EXPECT_EQ(FileBytes(path), log_before);
  std::filesystem::remove(path + ".base");

  {
    std::ofstream out(path + ".base", std::ios::binary);
    out << std::string(1 << 20, 'x');
  }
  ExpectRecoverRefuses(path, StatusCode::kInvalidArgument,
                       "not a Fairwos checkpoint");
  std::filesystem::remove(path + ".base");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << std::string(1 << 20, 'x');
  }
  const std::string foreign = FileBytes(path);
  r_or = MutableGraph::Recover(PathGraph(8), PathFeatures(8), path);
  ASSERT_FALSE(r_or.ok());
  EXPECT_NE(r_or.status().ToString().find("bad magic"), std::string::npos)
      << r_or.status().ToString();
  EXPECT_EQ(FileBytes(path), foreign);
}

TEST(MutationDurabilityTest, KillAndReplayUnderTemporalScriptIsBitIdentical) {
  // The in-process kill-and-replay chaos drill: run a drifting temporal
  // script with interleaved publishes and compactions, "kill" at an
  // arbitrary point (drop the graph without shutdown), recover, and demand
  // the served view — CSR operators, features, everything — byte for byte.
  auto ds = ToyDataset();
  const std::string path = FreshLogPath("mutation_wal_chaos.fwlog");
  data::TemporalOptions temporal;
  temporal.num_steps = 90;
  auto script_or = data::GenerateTemporalScript(ds, temporal, /*seed=*/5);
  ASSERT_TRUE(script_or.ok());

  MutableGraphOptions options = CrossCheckedRefresh();
  options.max_pending = 256;
  GraphDigest at_kill;
  {
    auto g_or = MutableGraph::Recover(
        std::make_shared<const Graph>(ds.graph), ds.features, path, options);
    ASSERT_TRUE(g_or.ok()) << g_or.status().ToString();
    MutableGraph& g = *g_or.value();
    int64_t step = 0;
    for (const GraphMutation& m : script_or.value().events) {
      ASSERT_TRUE(g.Apply(m).ok());
      if (++step % 7 == 0) BuildAllOps(*g.Publish());
      if (step % 31 == 0) {
        ASSERT_TRUE(g.Compact().ok());
      }
    }
    at_kill = DigestOf(*g.Publish());
    EXPECT_GT(g.stats().log_resets, 0);  // at least one compact-truncate ran
  }
  auto r_or = MutableGraph::Recover(std::make_shared<const Graph>(ds.graph),
                                    ds.features, path, options);
  ASSERT_TRUE(r_or.ok()) << r_or.status().ToString();
  ExpectDigestEq(DigestOf(*r_or.value()->Current()), at_kill);
}

// --- Epoch-notification races ---------------------------------------------

TEST(MutationRaceTest, OutOfOrderEpochDeliveryStillPurgesEveryAffectedSet) {
  // Regression test for the purge-skip race: when epoch N+1's notification
  // reached the engine before epoch N's, the old `epoch <= graph_epoch_`
  // guard dropped N's affected set and its cache entries served stale
  // predictions forever. The production notify path now serializes
  // deliveries, so this test forces the reordering through the test hook.
  auto ds = ToyDataset();
  const std::string path = TempPath("mutation_race_ooo.fwmodel");
  ExportArtifact(ds, /*seed=*/1, path);
  auto dynamic = MakeDynamic(ds);
  serve::EngineOptions options;
  options.dynamic_graph = dynamic;
  auto engine_or = serve::InferenceEngine::Load(path, ds, options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  serve::InferenceEngine& engine = *engine_or.value();

  std::vector<int64_t> all_nodes(static_cast<size_t>(ds.num_nodes()));
  std::iota(all_nodes.begin(), all_nodes.end(), 0);
  ASSERT_TRUE(engine.PredictBatch(all_nodes).ok());
  ASSERT_TRUE(engine.Predict(0).value().cache_hit);
  ASSERT_TRUE(engine.Predict(1).value().cache_hit);

  // Hand-built snapshots with disjoint affected sets, delivered furthest
  // epoch first — exactly the interleaving the race produced.
  auto base = std::make_shared<const Graph>(ds.graph);
  const int64_t fdim = ds.features.dim(1);
  auto epoch2 = std::make_shared<const GraphSnapshot>(
      /*epoch=*/2, DeltaOverlay(base, fdim, 8), ds.features,
      std::vector<int64_t>{0});
  auto epoch1 = std::make_shared<const GraphSnapshot>(
      /*epoch=*/1, DeltaOverlay(base, fdim, 8), ds.features,
      std::vector<int64_t>{1});
  engine.DeliverGraphEpochForTesting(epoch2);
  engine.DeliverGraphEpochForTesting(epoch1);  // pre-fix: silently dropped

  // BOTH affected sets must have been purged, whatever the order.
  EXPECT_FALSE(engine.Predict(0).value().cache_hit);
  EXPECT_FALSE(engine.Predict(1).value().cache_hit);
  EXPECT_EQ(engine.stats().graph_epoch, 2);
  EXPECT_EQ(engine.stats().epoch_invalidations, 2);
}

TEST(MutationRaceTest, ConcurrentPublishersDeliverEpochsInStrictOrder) {
  // Publish() and Compact() race from several threads; listeners must see
  // epochs strictly ascending (the notify mutex orders delivery with the
  // epoch assignment). Run under TSan in CI.
  MutableGraph g = MakePathMutable(64);
  std::mutex seen_mu;
  std::vector<int64_t> seen;
  const int64_t token = g.AddEpochListener(
      [&](const std::shared_ptr<const GraphSnapshot>& snap) {
        std::lock_guard<std::mutex> lock(seen_mu);
        seen.push_back(snap->epoch());
      });

  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const int64_t u = t;          // disjoint endpoints per thread
      const int64_t v = 32 + t;
      for (int r = 0; r < kRounds; ++r) {
        ASSERT_TRUE(g.AddEdge(u, v).ok());
        g.Publish();
        ASSERT_TRUE(g.RemoveEdge(u, v).ok());
        g.Publish();
        if (r % 10 == t) {
          ASSERT_TRUE(g.Compact().ok());
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  g.RemoveEpochListener(token);

  ASSERT_FALSE(seen.empty());
  for (size_t i = 1; i < seen.size(); ++i) {
    ASSERT_GT(seen[i], seen[i - 1])
        << "epoch notifications delivered out of order at index " << i;
  }
}

TEST(MutationRaceTest, ListenerRemovalSynchronizesWithInFlightNotifies) {
  // Teardown race: RemoveEpochListener must not return while a
  // notification round is still invoking the listener, or the caller frees
  // captured state under the callback's feet (use-after-free under a
  // publish storm). TSan verifies the synchronization.
  MutableGraph g = MakePathMutable(32);
  auto state = std::make_unique<std::atomic<int64_t>>(0);
  const int64_t token = g.AddEpochListener(
      [p = state.get()](const std::shared_ptr<const GraphSnapshot>&) {
        p->fetch_add(1, std::memory_order_relaxed);
      });

  std::atomic<bool> stop{false};
  std::thread storm([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      // The overlay fills up without compaction; fold it and keep storming.
      if (!g.AddEdge(0, 16).ok()) {
        ASSERT_TRUE(g.Compact().ok());
        continue;
      }
      g.Publish();
      if (!g.RemoveEdge(0, 16).ok()) {
        ASSERT_TRUE(g.Compact().ok());
        ASSERT_TRUE(g.RemoveEdge(0, 16).ok());
      }
      g.Publish();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  g.RemoveEpochListener(token);
  state.reset();  // pre-fix: the storm's in-flight notify dereferences this
  stop.store(true);
  storm.join();
}

TEST(MutationRaceTest, EngineDestructionUnderPublishStormIsSafe) {
  // The engine's dtor removes its epoch listener and then frees the
  // engine; with the removal barrier this must be safe even while another
  // thread publishes as fast as it can.
  auto ds = ToyDataset();
  const std::string path = TempPath("mutation_race_dtor.fwmodel");
  ExportArtifact(ds, /*seed=*/1, path);
  auto dynamic = MakeDynamic(ds);

  std::atomic<bool> stop{false};
  std::thread storm([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (dynamic->AddEdge(0, 2).ok()) {
        dynamic->Publish();
        ASSERT_TRUE(dynamic->RemoveEdge(0, 2).ok());
        dynamic->Publish();
      } else {
        ASSERT_TRUE(dynamic->Compact().ok());  // overlay full: fold and go on
      }
    }
  });
  for (int i = 0; i < 8; ++i) {
    serve::EngineOptions options;
    options.dynamic_graph = dynamic;
    auto engine_or = serve::InferenceEngine::Load(path, ds, options);
    ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
    ASSERT_TRUE(engine_or.value()->Predict(5).ok());
    engine_or.value().reset();  // dtor races the storm's notifications
  }
  stop.store(true);
  storm.join();
}

TEST(TemporalScriptTest, RejectsMalformedOptions) {
  auto ds = ToyDataset();
  data::TemporalOptions options;
  options.num_steps = 0;
  EXPECT_EQ(data::GenerateTemporalScript(ds, options, 1).status().code(),
            StatusCode::kInvalidArgument);
  options = {};
  options.add_node_fraction = 0.7;
  options.remove_edge_fraction = 0.7;  // sums past 1
  EXPECT_EQ(data::GenerateTemporalScript(ds, options, 1).status().code(),
            StatusCode::kInvalidArgument);
  options = {};
  options.homophily_start = 1.5;
  EXPECT_EQ(data::GenerateTemporalScript(ds, options, 1).status().code(),
            StatusCode::kInvalidArgument);
  options = {};
  options.feature_noise = -0.1;
  EXPECT_EQ(data::GenerateTemporalScript(ds, options, 1).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fairwos::graph
