#include "graph/graph.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/csv.h"
#include "common/string_util.h"

namespace fairwos::graph {

Graph::Graph(int64_t num_nodes) {
  FW_CHECK_GE(num_nodes, 0);
  adj_.resize(static_cast<size_t>(num_nodes));
}

bool Graph::AddEdge(int64_t u, int64_t v) {
  FW_CHECK_GE(u, 0);
  FW_CHECK_LT(u, num_nodes());
  FW_CHECK_GE(v, 0);
  FW_CHECK_LT(v, num_nodes());
  if (u == v) return false;
  if (HasEdge(u, v)) return false;
  adj_[static_cast<size_t>(u)].push_back(v);
  adj_[static_cast<size_t>(v)].push_back(u);
  ++num_edges_;
  return true;
}

bool Graph::HasEdge(int64_t u, int64_t v) const {
  const auto& nu = Neighbors(u);
  return std::find(nu.begin(), nu.end(), v) != nu.end();
}

const std::vector<int64_t>& Graph::Neighbors(int64_t v) const {
  FW_CHECK_GE(v, 0);
  FW_CHECK_LT(v, num_nodes());
  return adj_[static_cast<size_t>(v)];
}

double Graph::AverageDegree() const {
  if (num_nodes() == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges_) /
         static_cast<double>(num_nodes());
}

std::vector<int64_t> Graph::KHopNeighborhood(int64_t v, int hops) const {
  FW_CHECK_GE(hops, 0);
  std::vector<int64_t> out;
  std::vector<int> dist(static_cast<size_t>(num_nodes()), -1);
  std::deque<int64_t> queue;
  dist[static_cast<size_t>(v)] = 0;
  queue.push_back(v);
  while (!queue.empty()) {
    int64_t u = queue.front();
    queue.pop_front();
    out.push_back(u);
    if (dist[static_cast<size_t>(u)] == hops) continue;
    for (int64_t w : Neighbors(u)) {
      if (dist[static_cast<size_t>(w)] < 0) {
        dist[static_cast<size_t>(w)] = dist[static_cast<size_t>(u)] + 1;
        queue.push_back(w);
      }
    }
  }
  return out;
}

double Graph::EdgeHomophily(const std::vector<int>& groups) const {
  FW_CHECK_EQ(static_cast<int64_t>(groups.size()), num_nodes());
  if (num_edges_ == 0) return 0.0;
  int64_t same = 0;
  for (int64_t u = 0; u < num_nodes(); ++u) {
    for (int64_t v : Neighbors(u)) {
      if (u < v && groups[static_cast<size_t>(u)] ==
                       groups[static_cast<size_t>(v)]) {
        ++same;
      }
    }
  }
  return static_cast<double>(same) / static_cast<double>(num_edges_);
}

void AppendOperatorRow(OperatorKind kind, int64_t row,
                       const std::vector<int64_t>& neighbors,
                       const std::function<int64_t(int64_t)>& degree,
                       std::vector<int64_t>* col_idx,
                       std::vector<float>* values) {
  const int64_t deg = static_cast<int64_t>(neighbors.size());
  // Neighbor entries in column order, with the self-loop entry `diag`
  // slotted in before the first neighbor above `row`.
  auto append_with_diag = [&](auto value_of, float diag) {
    bool placed = false;
    for (int64_t v : neighbors) {
      if (!placed && row < v) {
        col_idx->push_back(row);
        values->push_back(diag);
        placed = true;
      }
      col_idx->push_back(v);
      values->push_back(value_of(v));
    }
    if (!placed) {
      col_idx->push_back(row);
      values->push_back(diag);
    }
  };
  auto append_neighbors = [&](float value) {
    for (int64_t v : neighbors) {
      col_idx->push_back(v);
      values->push_back(value);
    }
  };
  switch (kind) {
    case OperatorKind::kGcnNormalized: {
      const double dr = 1.0 / std::sqrt(static_cast<double>(deg) + 1.0);
      append_with_diag(
          [&](int64_t v) {
            const double dv =
                1.0 / std::sqrt(static_cast<double>(degree(v)) + 1.0);
            return static_cast<float>(dr * dv);
          },
          static_cast<float>(dr * dr));
      break;
    }
    case OperatorKind::kPlain:
      append_neighbors(1.0f);
      break;
    case OperatorKind::kRowNormalized: {
      const float inv = 1.0f / static_cast<float>(deg + 1);
      append_with_diag([&](int64_t) { return inv; }, inv);
      break;
    }
    case OperatorKind::kSelfLoops:
      append_with_diag([](int64_t) { return 1.0f; }, 1.0f);
      break;
    case OperatorKind::kNeighborMean:
      if (deg > 0) append_neighbors(1.0f / static_cast<float>(deg));
      break;
  }
}

std::shared_ptr<tensor::SparseMatrix> Graph::Operator(
    OperatorKind kind) const {
  const int64_t n = num_nodes();
  std::vector<int64_t> row_ptr(static_cast<size_t>(n) + 1, 0);
  std::vector<int64_t> col_idx;
  std::vector<float> values;
  col_idx.reserve(static_cast<size_t>(2 * num_edges_ + n));
  values.reserve(static_cast<size_t>(2 * num_edges_ + n));
  const std::function<int64_t(int64_t)> degree = [this](int64_t v) {
    return Degree(v);
  };
  std::vector<int64_t> neighbors;
  for (int64_t r = 0; r < n; ++r) {
    neighbors = adj_[static_cast<size_t>(r)];
    std::sort(neighbors.begin(), neighbors.end());
    AppendOperatorRow(kind, r, neighbors, degree, &col_idx, &values);
    row_ptr[static_cast<size_t>(r) + 1] = static_cast<int64_t>(col_idx.size());
  }
  return tensor::SparseMatrix::FromCsr(n, n, std::move(row_ptr),
                                       std::move(col_idx), std::move(values));
}

common::Result<Graph> LoadEdgeListCsv(const std::string& path,
                                      bool has_header, int64_t num_nodes) {
  FW_ASSIGN_OR_RETURN(common::CsvTable table,
                      common::ReadCsv(path, has_header));
  std::vector<std::pair<int64_t, int64_t>> edges;
  int64_t max_id = -1;
  for (const auto& row : table.rows) {
    if (row.size() < 2) {
      return common::Status::InvalidArgument(
          "edge list row needs two columns in " + path);
    }
    FW_ASSIGN_OR_RETURN(int64_t u, common::ParseInt(row[0]));
    FW_ASSIGN_OR_RETURN(int64_t v, common::ParseInt(row[1]));
    if (u < 0 || v < 0) {
      return common::Status::InvalidArgument("negative node id in " + path);
    }
    max_id = std::max({max_id, u, v});
    edges.emplace_back(u, v);
  }
  const int64_t n = num_nodes > 0 ? num_nodes : max_id + 1;
  if (max_id >= n) {
    return common::Status::OutOfRange(
        common::StrFormat("node id %lld exceeds num_nodes %lld",
                          static_cast<long long>(max_id),
                          static_cast<long long>(n)));
  }
  Graph g(n);
  for (auto [u, v] : edges) g.AddEdge(u, v);
  return g;
}

}  // namespace fairwos::graph
