// Oracle for the graph adjacency operators. The five builders below are a
// test-local copy of the COO builders graph::Graph used before every
// operator was assembled row by row by graph::AppendOperatorRow: each
// builder emits COO entries and lets SparseMatrix::FromCoo sort them. Every
// operator must match its builder bit for bit (row offsets, column indices
// and the float bits of every value) on random graphs, on the benchmark
// graphs, and on dynamic-graph snapshots whose operators were patched after
// mutations.
#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/synthetic.h"
#include "graph/graph.h"
#include "graph/mutable_graph.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace fairwos::graph {
namespace {

using tensor::CooEntry;
using tensor::SparseMatrix;

std::shared_ptr<SparseMatrix> CooGcnNormalized(const Graph& g) {
  const int64_t n = g.num_nodes();
  std::vector<double> inv_sqrt_deg(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) {
    inv_sqrt_deg[static_cast<size_t>(v)] =
        1.0 / std::sqrt(static_cast<double>(g.Degree(v)) + 1.0);
  }
  std::vector<CooEntry> entries;
  for (int64_t u = 0; u < n; ++u) {
    const double du = inv_sqrt_deg[static_cast<size_t>(u)];
    entries.push_back({u, u, static_cast<float>(du * du)});
    for (int64_t v : g.Neighbors(u)) {
      const double dv = inv_sqrt_deg[static_cast<size_t>(v)];
      entries.push_back({u, v, static_cast<float>(du * dv)});
    }
  }
  return SparseMatrix::FromCoo(n, n, std::move(entries));
}

std::shared_ptr<SparseMatrix> CooPlain(const Graph& g) {
  const int64_t n = g.num_nodes();
  std::vector<CooEntry> entries;
  for (int64_t u = 0; u < n; ++u) {
    for (int64_t v : g.Neighbors(u)) entries.push_back({u, v, 1.0f});
  }
  return SparseMatrix::FromCoo(n, n, std::move(entries));
}

std::shared_ptr<SparseMatrix> CooRowNormalized(const Graph& g) {
  const int64_t n = g.num_nodes();
  std::vector<CooEntry> entries;
  for (int64_t u = 0; u < n; ++u) {
    const float inv = 1.0f / static_cast<float>(g.Degree(u) + 1);
    entries.push_back({u, u, inv});
    for (int64_t v : g.Neighbors(u)) entries.push_back({u, v, inv});
  }
  return SparseMatrix::FromCoo(n, n, std::move(entries));
}

std::shared_ptr<SparseMatrix> CooSelfLoops(const Graph& g) {
  const int64_t n = g.num_nodes();
  std::vector<CooEntry> entries;
  for (int64_t u = 0; u < n; ++u) {
    entries.push_back({u, u, 1.0f});
    for (int64_t v : g.Neighbors(u)) entries.push_back({u, v, 1.0f});
  }
  return SparseMatrix::FromCoo(n, n, std::move(entries));
}

std::shared_ptr<SparseMatrix> CooNeighborMean(const Graph& g) {
  const int64_t n = g.num_nodes();
  std::vector<CooEntry> entries;
  for (int64_t u = 0; u < n; ++u) {
    const int64_t deg = g.Degree(u);
    if (deg == 0) continue;
    const float inv = 1.0f / static_cast<float>(deg);
    for (int64_t v : g.Neighbors(u)) entries.push_back({u, v, inv});
  }
  return SparseMatrix::FromCoo(n, n, std::move(entries));
}

std::shared_ptr<SparseMatrix> CooOperator(OperatorKind kind, const Graph& g) {
  switch (kind) {
    case OperatorKind::kGcnNormalized:
      return CooGcnNormalized(g);
    case OperatorKind::kPlain:
      return CooPlain(g);
    case OperatorKind::kRowNormalized:
      return CooRowNormalized(g);
    case OperatorKind::kSelfLoops:
      return CooSelfLoops(g);
    case OperatorKind::kNeighborMean:
      return CooNeighborMean(g);
  }
  return nullptr;
}

constexpr OperatorKind kAllKinds[] = {
    OperatorKind::kGcnNormalized, OperatorKind::kPlain,
    OperatorKind::kRowNormalized, OperatorKind::kSelfLoops,
    OperatorKind::kNeighborMean};
static_assert(std::size(kAllKinds) == kNumOperatorKinds);

void ExpectBitEqual(const SparseMatrix& got, const SparseMatrix& want,
                    const std::string& what) {
  EXPECT_EQ(got.rows(), want.rows()) << what;
  EXPECT_EQ(got.cols(), want.cols()) << what;
  EXPECT_EQ(got.row_ptr(), want.row_ptr()) << what;
  EXPECT_EQ(got.col_idx(), want.col_idx()) << what;
  ASSERT_EQ(got.values().size(), want.values().size()) << what;
  EXPECT_TRUE(got.values().empty() ||
              std::memcmp(got.values().data(), want.values().data(),
                          got.values().size() * sizeof(float)) == 0)
      << what << ": values differ in some bit";
}

void ExpectMatchesOracle(const Graph& g, const std::string& name) {
  for (OperatorKind kind : kAllKinds) {
    ExpectBitEqual(*g.Operator(kind), *CooOperator(kind, g),
                   name + ", kind " + std::to_string(static_cast<int>(kind)));
  }
}

/// `n` nodes: node 0 is a hub wired to about half of the others, random
/// edges connect the rest, every edge is offered twice (and some
/// self-loops once) so AddEdge's rejections are exercised, and the last
/// three nodes stay isolated.
Graph RandomGraph(int64_t n, uint64_t seed) {
  Graph g(n);
  common::Rng rng(seed);
  const int64_t wired = n - 3;
  if (wired < 2) return g;
  for (int64_t v = 1; v < wired; ++v) {
    if (rng.Bernoulli(0.5)) g.AddEdge(0, v);
  }
  for (int64_t i = 0; i < 3 * wired; ++i) {
    const int64_t u = rng.UniformInt(wired);
    const int64_t v = rng.UniformInt(wired);
    g.AddEdge(u, v);
    g.AddEdge(v, u);
  }
  return g;
}

TEST(OperatorOracleTest, RandomGraphsMatchCooBuilders) {
  for (int64_t n : {0, 1, 2, 5, 17, 64, 300}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      ExpectMatchesOracle(RandomGraph(n, seed),
                          "n=" + std::to_string(n) +
                              " seed=" + std::to_string(seed));
    }
  }
}

TEST(OperatorOracleTest, BenchmarkGraphsMatchCooBuilders) {
  const struct {
    const char* name;
    double scale;
  } graphs[] = {{"bail", 12.0}, {"pokec-z", 20.0}, {"pokec-z", 5.0}};
  for (const auto& spec : graphs) {
    data::DatasetOptions options;
    options.scale = spec.scale;
    auto ds = data::MakeDataset(spec.name, options);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    ExpectMatchesOracle(ds->graph, std::string(spec.name) + " x" +
                                       std::to_string(spec.scale));
  }
}

void BuildAllOps(const GraphSnapshot& snap) {
  for (OperatorKind kind : kAllKinds) snap.Operator(kind);
}

void ExpectSnapshotMatchesOracle(const GraphSnapshot& snap) {
  const Graph& merged = *snap.Materialized();
  for (OperatorKind kind : kAllKinds) {
    ExpectBitEqual(*snap.Operator(kind), *CooOperator(kind, merged),
                   "epoch " + std::to_string(snap.epoch()) + ", kind " +
                       std::to_string(static_cast<int>(kind)));
  }
}

TEST(OperatorOracleTest, PatchedSnapshotsMatchCooBuilders) {
  // No cross-check: the patched operators face the oracle on their own.
  const int64_t n = 64;
  auto base = std::make_shared<const Graph>(RandomGraph(n, 9));
  MutableGraph g(base, tensor::Tensor::Zeros({n, 2}));
  BuildAllOps(*g.Current());
  ExpectSnapshotMatchesOracle(*g.Current());

  common::Rng rng(11);
  for (int round = 0; round < 6; ++round) {
    // A new node wired to the hub and to a node that was isolated, an edge
    // between random nodes, and the removal of one existing edge.
    auto node = g.AddNode({1.0f, 2.0f});
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    ASSERT_TRUE(g.AddEdge(*node, 0).ok());
    ASSERT_TRUE(g.AddEdge(*node, n - 1 - round % 3).ok());
    int64_t u = 0, v = 0;
    do {
      u = rng.UniformInt(n);
      v = rng.UniformInt(n);
    } while (u == v || g.Current()->HasEdge(u, v));
    ASSERT_TRUE(g.AddEdge(u, v).ok());
    const std::vector<int64_t> hub = g.Current()->Neighbors(0);
    ASSERT_FALSE(hub.empty());
    ASSERT_TRUE(g.RemoveEdge(0, hub[hub.size() / 2]).ok());

    const auto snap = g.Publish();
    BuildAllOps(*snap);
    EXPECT_EQ(snap->ops_incremental(), kNumOperatorKinds);
    EXPECT_EQ(snap->ops_rebuilt(), 0);
    ExpectSnapshotMatchesOracle(*snap);
  }
}

}  // namespace
}  // namespace fairwos::graph
