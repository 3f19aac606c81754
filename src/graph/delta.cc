#include "graph/delta.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/fault.h"

namespace fairwos::graph {

const char* MutationKindName(MutationKind kind) {
  switch (kind) {
    case MutationKind::kAddNode:
      return "add-node";
    case MutationKind::kAddEdge:
      return "add-edge";
    case MutationKind::kRemoveEdge:
      return "remove-edge";
  }
  return "unknown";
}

GraphMutation GraphMutation::AddNode(std::vector<float> features) {
  GraphMutation m;
  m.kind = MutationKind::kAddNode;
  m.features = std::move(features);
  return m;
}

GraphMutation GraphMutation::AddEdge(int64_t u, int64_t v) {
  GraphMutation m;
  m.kind = MutationKind::kAddEdge;
  m.u = u;
  m.v = v;
  return m;
}

GraphMutation GraphMutation::RemoveEdge(int64_t u, int64_t v) {
  GraphMutation m;
  m.kind = MutationKind::kRemoveEdge;
  m.u = u;
  m.v = v;
  return m;
}

DeltaOverlay::DeltaOverlay(std::shared_ptr<const Graph> base,
                           int64_t feature_dim, int64_t max_pending)
    : base_(std::move(base)),
      feature_dim_(feature_dim),
      max_pending_(max_pending),
      num_edges_(base_->num_edges()) {
  FW_CHECK(base_ != nullptr);
  FW_CHECK_GE(feature_dim_, 0);
  FW_CHECK_GE(max_pending_, 1);
  // EdgeKey packs both endpoints into one uint64.
  FW_CHECK_LT(base_->num_nodes() + max_pending_, int64_t{1} << 31);
}

uint64_t DeltaOverlay::EdgeKey(int64_t u, int64_t v) {
  const uint64_t lo = static_cast<uint64_t>(std::min(u, v));
  const uint64_t hi = static_cast<uint64_t>(std::max(u, v));
  return (lo << 32) | hi;
}

bool DeltaOverlay::HasEdge(int64_t u, int64_t v) const {
  if (u < 0 || v < 0 || u >= num_nodes() || v >= num_nodes()) return false;
  const uint64_t key = EdgeKey(u, v);
  if (added_edges_.count(key) > 0) return true;
  if (u >= base_->num_nodes() || v >= base_->num_nodes()) return false;
  return base_->HasEdge(u, v) && removed_edges_.count(key) == 0;
}

void DeltaOverlay::AppendNeighbors(int64_t v,
                                   std::vector<int64_t>* out) const {
  FW_CHECK_GE(v, 0);
  FW_CHECK_LT(v, num_nodes());
  if (v < base_->num_nodes()) {
    for (int64_t u : base_->Neighbors(v)) {
      if (removed_edges_.count(EdgeKey(u, v)) == 0) out->push_back(u);
    }
  }
  auto it = added_adj_.find(v);
  if (it != added_adj_.end()) {
    out->insert(out->end(), it->second.begin(), it->second.end());
  }
}

int64_t DeltaOverlay::Degree(int64_t v) const {
  FW_CHECK_GE(v, 0);
  FW_CHECK_LT(v, num_nodes());
  int64_t degree = 0;
  if (v < base_->num_nodes()) {
    for (int64_t u : base_->Neighbors(v)) {
      if (removed_edges_.count(EdgeKey(u, v)) == 0) ++degree;
    }
  }
  auto it = added_adj_.find(v);
  if (it != added_adj_.end()) degree += static_cast<int64_t>(it->second.size());
  return degree;
}

common::Status DeltaOverlay::Validate(const GraphMutation& m) const {
  switch (m.kind) {
    case MutationKind::kAddNode:
      if (static_cast<int64_t>(m.features.size()) != feature_dim_) {
        return common::Status::InvalidArgument(
            "add-node feature row has " + std::to_string(m.features.size()) +
            " columns; the graph carries " + std::to_string(feature_dim_));
      }
      break;
    case MutationKind::kAddEdge:
    case MutationKind::kRemoveEdge: {
      const char* name = MutationKindName(m.kind);
      if (m.u < 0 || m.u >= num_nodes() || m.v < 0 || m.v >= num_nodes()) {
        return common::Status::OutOfRange(
            std::string(name) + " {" + std::to_string(m.u) + ", " +
            std::to_string(m.v) + "} has an endpoint outside [0, " +
            std::to_string(num_nodes()) + ")");
      }
      if (m.u == m.v) {
        return common::Status::InvalidArgument(
            std::string(name) + " {" + std::to_string(m.u) + ", " +
            std::to_string(m.v) + "} is a self-loop (policy: rejected)");
      }
      if (m.kind == MutationKind::kAddEdge && HasEdge(m.u, m.v)) {
        return common::Status::FailedPrecondition(
            "edge {" + std::to_string(m.u) + ", " + std::to_string(m.v) +
            "} already exists");
      }
      if (m.kind == MutationKind::kRemoveEdge && !HasEdge(m.u, m.v)) {
        return common::Status::NotFound(
            "edge {" + std::to_string(m.u) + ", " + std::to_string(m.v) +
            "} does not exist");
      }
      break;
    }
  }
  if (full()) {
    return common::Status::ResourceExhausted(
        "delta overlay full (" + std::to_string(max_pending_) +
        " pending mutations); compact before mutating further");
  }
  return common::Status::OK();
}

common::Status DeltaOverlay::Apply(const GraphMutation& m, bool probe_faults) {
  FW_RETURN_IF_ERROR(Validate(m));
  if (auto* fi = testing::ActiveFaultInjector();
      probe_faults && fi != nullptr &&
      fi->ShouldFire(testing::FaultSite::kGraphDeltaApply)) {
    return common::Status::Internal(
        std::string("injected delta-apply fault on ") +
        MutationKindName(m.kind));
  }
  switch (m.kind) {
    case MutationKind::kAddNode:
      added_features_.push_back(m.features);
      break;
    case MutationKind::kAddEdge: {
      const uint64_t key = EdgeKey(m.u, m.v);
      // Re-inserting a deleted base edge resurrects it; anything else is a
      // genuine overlay edge.
      if (removed_edges_.erase(key) == 0) {
        added_edges_.insert(key);
        added_adj_[m.u].push_back(m.v);
        added_adj_[m.v].push_back(m.u);
      }
      ++num_edges_;
      break;
    }
    case MutationKind::kRemoveEdge: {
      const uint64_t key = EdgeKey(m.u, m.v);
      if (added_edges_.erase(key) > 0) {
        auto& at_u = added_adj_[m.u];
        at_u.erase(std::find(at_u.begin(), at_u.end(), m.v));
        auto& at_v = added_adj_[m.v];
        at_v.erase(std::find(at_v.begin(), at_v.end(), m.u));
      } else {
        removed_edges_.insert(key);
      }
      --num_edges_;
      break;
    }
  }
  log_.push_back(m);
  return common::Status::OK();
}

Graph DeltaOverlay::Materialize() const {
  Graph g(num_nodes());
  const int64_t base_nodes = base_->num_nodes();
  for (int64_t u = 0; u < base_nodes; ++u) {
    for (int64_t v : base_->Neighbors(u)) {
      if (v > u && removed_edges_.count(EdgeKey(u, v)) == 0) {
        FW_CHECK(g.AddEdge(u, v));
      }
    }
  }
  // Replay order (not hash order) keeps the materialized adjacency lists
  // deterministic; edges removed again later in the log are skipped.
  for (const GraphMutation& m : log_) {
    if (m.kind == MutationKind::kAddEdge &&
        added_edges_.count(EdgeKey(m.u, m.v)) > 0) {
      g.AddEdge(m.u, m.v);  // false only for a resurrect-then-re-add replay
    }
  }
  FW_CHECK_EQ(g.num_edges(), num_edges_);
  return g;
}

}  // namespace fairwos::graph
