// The bounded, validated mutation overlay behind graph::MutableGraph
// (docs/serving.md "Dynamic graphs"). A DeltaOverlay sits on top of an
// immutable base Graph and records node inserts, edge inserts, and edge
// deletes as a replayable log plus derived index structures, exposing the
// *merged* logical view (base ⊕ overlay) without touching the base.
//
// Validation is the front door: every mutation is checked against the
// merged view before any state changes, so a rejected mutation leaves the
// overlay bit-identical to before — there is never partial application.
// The Status contract is precise so callers can tell the failure classes
// apart:
//   OutOfRange          an endpoint id outside [0, num_nodes())
//   InvalidArgument     self-loop (policy: always rejected, because the
//                       base Graph does not store them either) or a
//                       feature row of the wrong width
//   FailedPrecondition  inserting an edge that already exists in the view
//   NotFound            deleting an edge the view does not have
//   ResourceExhausted   the overlay is full (MutableGraph turns this into
//                       the latched mutation_backlog incident)
//
// Not thread-safe: MutableGraph serializes access under its own mutex.
#ifndef FAIRWOS_GRAPH_DELTA_H_
#define FAIRWOS_GRAPH_DELTA_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace fairwos::graph {

enum class MutationKind : int { kAddNode = 0, kAddEdge = 1, kRemoveEdge = 2 };

const char* MutationKindName(MutationKind kind);

/// One graph mutation. Build via the factory helpers; `u`/`v` are the edge
/// endpoints (unused for kAddNode), `features` the new node's feature row
/// (unused for the edge kinds).
struct GraphMutation {
  MutationKind kind = MutationKind::kAddEdge;
  int64_t u = -1;
  int64_t v = -1;
  std::vector<float> features;

  static GraphMutation AddNode(std::vector<float> features);
  static GraphMutation AddEdge(int64_t u, int64_t v);
  static GraphMutation RemoveEdge(int64_t u, int64_t v);
};

/// Validated, bounded delta overlay over `base` (nodes carry feature rows
/// of width `feature_dim`). The base must outlive the overlay.
class DeltaOverlay {
 public:
  DeltaOverlay(std::shared_ptr<const Graph> base, int64_t feature_dim,
               int64_t max_pending);

  /// Validates `m` against the merged view, then applies it. On any error
  /// the overlay is untouched. `probe_faults=false` skips the
  /// kGraphDeltaApply fault hook — compaction's internal rebase replay uses
  /// it so an armed fault plan cannot break the atomic swap.
  common::Status Apply(const GraphMutation& m, bool probe_faults = true);

  /// Validates `m` against the merged view without applying it (and without
  /// probing any fault site). Apply() revalidates — this exists so callers
  /// with a write-ahead log can check a mutation *before* durably logging
  /// it.
  common::Status Validate(const GraphMutation& m) const;

  // --- Merged (base ⊕ overlay) view --------------------------------------
  int64_t num_nodes() const {
    return base_->num_nodes() + static_cast<int64_t>(added_features_.size());
  }
  int64_t num_edges() const { return num_edges_; }
  bool HasEdge(int64_t u, int64_t v) const;
  int64_t Degree(int64_t v) const;
  /// Appends the merged view's neighbors of `v` to `out` (base order, then
  /// overlay insertion order; deleted edges skipped).
  void AppendNeighbors(int64_t v, std::vector<int64_t>* out) const;

  // --- Overlay introspection ---------------------------------------------
  /// Applied mutations, in application order (the replay log).
  const std::vector<GraphMutation>& log() const { return log_; }
  int64_t size() const { return static_cast<int64_t>(log_.size()); }
  bool full() const { return size() >= max_pending_; }
  int64_t max_pending() const { return max_pending_; }
  int64_t feature_dim() const { return feature_dim_; }
  const std::shared_ptr<const Graph>& base() const { return base_; }
  /// Feature rows of the overlay-added nodes, in node-id order (node id of
  /// row i is base->num_nodes() + i).
  const std::vector<std::vector<float>>& added_features() const {
    return added_features_;
  }

  /// Materializes the merged view as a fresh Graph. Neighbor *sets* (and
  /// therefore every CSR adjacency operator, which sorts each row's
  /// neighbors) are identical to a Graph built from scratch with the same
  /// edges.
  Graph Materialize() const;

 private:
  static uint64_t EdgeKey(int64_t u, int64_t v);

  std::shared_ptr<const Graph> base_;
  int64_t feature_dim_;
  int64_t max_pending_;
  int64_t num_edges_;

  std::vector<GraphMutation> log_;
  std::vector<std::vector<float>> added_features_;
  /// Adjacency of overlay-inserted edges (both directions), insertion order.
  std::unordered_map<int64_t, std::vector<int64_t>> added_adj_;
  std::unordered_set<uint64_t> added_edges_;
  std::unordered_set<uint64_t> removed_edges_;
};

}  // namespace fairwos::graph

#endif  // FAIRWOS_GRAPH_DELTA_H_
