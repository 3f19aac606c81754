// Undirected attributed graph used throughout the library. Nodes carry a
// dense feature matrix (held separately, see data::Dataset); the Graph holds
// topology and exposes the normalized adjacency operators GNN layers need.
#ifndef FAIRWOS_GRAPH_GRAPH_H_
#define FAIRWOS_GRAPH_GRAPH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "tensor/sparse.h"

namespace fairwos::graph {

/// The adjacency operators GNN layers aggregate with. D is the degree
/// matrix without self-loops and D̃ = D + I.
enum class OperatorKind {
  kGcnNormalized,  ///< D̃^(-1/2) (A + I) D̃^(-1/2), the GCN operator
  kPlain,          ///< A with unit weights, GIN's sum aggregation
  kRowNormalized,  ///< D̃^(-1) (A + I)
  kSelfLoops,      ///< A + I, the support set GAT attends over
  kNeighborMean,   ///< D^(-1) A, the GraphSAGE mean; isolated rows are empty
};
inline constexpr int kNumOperatorKinds = 5;

/// Appends row `row` of operator `kind` to CSR arrays. `neighbors` are the
/// row's neighbors, sorted ascending, without `row` itself; `degree(v)` is
/// any node's degree without its self-loop. Entries come out in ascending
/// column order. GCN entries are products of inverse-sqrt degrees taken in
/// double and narrowed to float per entry. This is the only place an
/// operator value is computed: Graph::Operator builds every row with it,
/// and graph::GraphSnapshot rebuilds the rows a mutation touched with it.
void AppendOperatorRow(OperatorKind kind, int64_t row,
                       const std::vector<int64_t>& neighbors,
                       const std::function<int64_t(int64_t)>& degree,
                       std::vector<int64_t>* col_idx,
                       std::vector<float>* values);

/// Simple undirected graph with adjacency lists. Self-loops are not stored;
/// GNN normalizations add them explicitly where required.
class Graph {
 public:
  /// An edgeless graph over `num_nodes` nodes.
  explicit Graph(int64_t num_nodes);

  int64_t num_nodes() const { return static_cast<int64_t>(adj_.size()); }

  /// Number of undirected edges.
  int64_t num_edges() const { return num_edges_; }

  /// Adds an undirected edge {u, v}. Duplicate edges and self-loops are
  /// ignored (returns false); returns true when the edge was inserted.
  bool AddEdge(int64_t u, int64_t v);

  /// True when {u, v} is an edge. O(deg(u)) scan — fine for the sparse
  /// graphs we build.
  bool HasEdge(int64_t u, int64_t v) const;

  const std::vector<int64_t>& Neighbors(int64_t v) const;

  int64_t Degree(int64_t v) const {
    return static_cast<int64_t>(Neighbors(v).size());
  }

  /// 2 * num_edges / num_nodes (the paper's Table I statistic).
  double AverageDegree() const;

  /// Nodes within `hops` of `v` (including `v`), BFS order. Exposed for the
  /// ego-subgraph view of counterfactual candidates.
  std::vector<int64_t> KHopNeighborhood(int64_t v, int hops) const;

  /// Fraction of edges whose endpoints share the same value of `groups`
  /// (label homophily when given labels, sensitive homophily when given s).
  double EdgeHomophily(const std::vector<int>& groups) const;

  // --- Operators for GNN layers -------------------------------------------

  /// Operator `kind` over this graph, every row built by AppendOperatorRow.
  std::shared_ptr<tensor::SparseMatrix> Operator(OperatorKind kind) const;

  std::shared_ptr<tensor::SparseMatrix> GcnNormalizedAdjacency() const {
    return Operator(OperatorKind::kGcnNormalized);
  }
  std::shared_ptr<tensor::SparseMatrix> PlainAdjacency() const {
    return Operator(OperatorKind::kPlain);
  }
  std::shared_ptr<tensor::SparseMatrix> RowNormalizedAdjacency() const {
    return Operator(OperatorKind::kRowNormalized);
  }
  std::shared_ptr<tensor::SparseMatrix> AdjacencyWithSelfLoops() const {
    return Operator(OperatorKind::kSelfLoops);
  }
  std::shared_ptr<tensor::SparseMatrix> NeighborMeanAdjacency() const {
    return Operator(OperatorKind::kNeighborMean);
  }

 private:
  std::vector<std::vector<int64_t>> adj_;
  int64_t num_edges_ = 0;
};

/// Reads an undirected edge list from a CSV with two integer columns
/// (optionally with a header). Node count is `num_nodes` when positive,
/// otherwise 1 + max node id seen.
common::Result<Graph> LoadEdgeListCsv(const std::string& path,
                                      bool has_header, int64_t num_nodes);

}  // namespace fairwos::graph

#endif  // FAIRWOS_GRAPH_GRAPH_H_
