// Dynamic graphs for serving (docs/serving.md "Dynamic graphs"): an
// immutable base CSR plus a bounded, validated delta overlay
// (graph/delta.h), published to readers as epoch-numbered copy-on-write
// snapshots.
//
// Concurrency contract:
//   * Mutations (Apply/ApplyBatch/AddNode/AddEdge/RemoveEdge) and
//     Publish/Compact are serialized under the writer mutex.
//   * Readers call Current() — one brief mutex-protected shared_ptr copy —
//     and then work against the immutable GraphSnapshot with no further
//     MutableGraph locks: the forward path never blocks on a writer. A
//     snapshot stays fully usable (and bit-stable) for as long as anyone
//     holds it, no matter how many mutations, publishes, or compactions
//     happen behind it.
//   * Publish() freezes the current merged view as epoch N+1 and notifies
//     epoch listeners (outside the writer mutex, registry-listener
//     discipline) with the snapshot, whose affected_nodes() lists exactly
//     the node ids whose predictions may differ from epoch N — the serving
//     LRU purges precisely those. Notification order is serialized under a
//     dedicated notify mutex: listeners observe epochs strictly ascending
//     even when Publish races Publish/Compact, so no epoch's affected set
//     can be skipped by an out-of-order delivery. Listeners must not call
//     back into Add/RemoveEpochListener or Publish/Compact.
//   * RemoveEpochListener synchronizes with in-flight notifications: after
//     it returns, the removed listener is not running and will never run
//     again — an engine may destroy itself immediately after removal.
//   * Compact() merges the overlay into a fresh base CSR behind an atomic
//     restore-before-publish swap (the ModelRegistry::Swap discipline): the
//     merged CSR and feature matrix are fully built before anything is
//     unpublished, with the kGraphCompaction fault site probed before and
//     after the rebuild. A failed (or crashed) compaction leaves the
//     previous base, overlay, and snapshot serving untouched and re-arms —
//     the next Compact() simply tries again. Mutations that arrive while a
//     compaction is building are replayed onto the new base before the
//     swap publishes, so none are lost.
//   * Overlay overflow sheds mutations with ResourceExhausted and raises a
//     latched `mutation_backlog` incident (cleared, with a
//     `mutation_backlog_cleared` event, by the compaction that drains the
//     overlay) instead of growing unbounded.
//
// Incremental operator refresh: each published snapshot captures the
// previous epoch's already-built adjacency operators and, on first use,
// patches only the rows the epoch's mutations could have changed (the
// 1-hop expansion of the mutation seeds over the union of the old and new
// adjacency — for the degree-normalized operators that radius also covers
// the degree-scaled entries in the touched *columns*, because every row
// holding such an entry neighbors a mutation endpoint). Patched rows come
// from graph::AppendOperatorRow, the row builder graph::Graph::Operator
// uses for every row, and unpatched rows are copied verbatim, so the result
// is bit-identical to a from-scratch rebuild. An epoch with no previous
// operator to patch builds it from scratch via Materialized().
// MutableGraphOptions::refresh_cross_check additionally rebuilds every
// patched operator from scratch and FW_CHECKs bit-equality (the tests run
// with it on).
//
// Durable mutation log: a graph created via Recover() carries a
// graph::MutationLog. Every accepted mutation is appended (fsync'd) to the
// log *before* it is applied to the overlay, and a successful Compact()
// writes the merged base as a graph-base checkpoint and then truncates the
// log to the mutations it carried over — so a crashed server replays
// exactly the overlay it had not yet compacted, byte-identical. A failed
// log append (kMutationLogAppend) rejects the mutation with Internal and
// leaves both the log and the overlay untouched.
//
// Because the row builder sorts each row's neighbors, every adjacency
// operator built from a snapshot is bit-identical to the same operator
// built from a from-scratch Graph holding the same edge set — which is what
// makes the refresh and post-compaction bit-identity guarantees testable
// end to end.
#ifndef FAIRWOS_GRAPH_MUTABLE_GRAPH_H_
#define FAIRWOS_GRAPH_MUTABLE_GRAPH_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "graph/mutation_log.h"
#include "tensor/tensor.h"

namespace fairwos::graph {

/// One immutable published epoch: the merged graph view plus its feature
/// matrix. Cheap to hold; the materialized Graph, the feature matrix, and
/// the per-backbone adjacency operators are built lazily on first use and
/// cached (thread-safe), so an epoch that only absorbs mutations never pays
/// for views nobody reads.
class GraphSnapshot {
 public:
  /// One slot per OperatorKind.
  using Operators = std::array<std::shared_ptr<const tensor::SparseMatrix>,
                               kNumOperatorKinds>;

  /// What an epoch inherits from its predecessor for incremental operator
  /// refresh: the operators the previous snapshot had already built, its
  /// row count, and the sorted row ids this epoch must rebuild (everything
  /// else is copied verbatim). Populated by MutableGraph at publish time;
  /// an empty Refresh (no prev_ops) falls back to from-scratch builds.
  struct Refresh {
    Operators prev_ops{};
    int64_t prev_num_nodes = 0;
    std::vector<int64_t> patch_rows;  // sorted, unique
    bool cross_check = false;  // also rebuild + FW_CHECK bit-identity
  };

  GraphSnapshot(int64_t epoch, DeltaOverlay overlay,
                tensor::Tensor base_features, std::vector<int64_t> affected);
  GraphSnapshot(int64_t epoch, DeltaOverlay overlay,
                tensor::Tensor base_features, std::vector<int64_t> affected,
                Refresh refresh);

  int64_t epoch() const { return epoch_; }
  int64_t num_nodes() const { return overlay_.num_nodes(); }
  int64_t num_edges() const { return overlay_.num_edges(); }
  bool HasEdge(int64_t u, int64_t v) const { return overlay_.HasEdge(u, v); }
  int64_t Degree(int64_t v) const { return overlay_.Degree(v); }
  std::vector<int64_t> Neighbors(int64_t v) const;

  /// Node ids whose predictions may differ from the previous epoch's
  /// (mutation endpoints expanded to the configured invalidation radius
  /// over the union of the old and new adjacency). Sorted, unique. Empty
  /// for the initial epoch.
  const std::vector<int64_t>& affected_nodes() const { return affected_; }

  /// The merged view as a from-scratch-equivalent Graph.
  std::shared_ptr<const Graph> Materialized() const;

  /// [num_nodes, F] feature matrix: the base matrix with the overlay's
  /// added rows appended. Returns the base tensor itself (no copy) when no
  /// nodes were added.
  tensor::Tensor Features() const;

  /// Operator `kind` of the merged view, mirroring graph::Graph::Operator
  /// bit for bit. Built once per snapshot and cached: the previous epoch's
  /// operator with the refresh's patch rows rebuilt, or from scratch when
  /// there is none.
  std::shared_ptr<const tensor::SparseMatrix> Operator(
      OperatorKind kind) const;

  std::shared_ptr<const tensor::SparseMatrix> GcnNormalizedAdjacency() const {
    return Operator(OperatorKind::kGcnNormalized);
  }
  std::shared_ptr<const tensor::SparseMatrix> PlainAdjacency() const {
    return Operator(OperatorKind::kPlain);
  }
  std::shared_ptr<const tensor::SparseMatrix> RowNormalizedAdjacency() const {
    return Operator(OperatorKind::kRowNormalized);
  }
  std::shared_ptr<const tensor::SparseMatrix> AdjacencyWithSelfLoops() const {
    return Operator(OperatorKind::kSelfLoops);
  }
  std::shared_ptr<const tensor::SparseMatrix> NeighborMeanAdjacency() const {
    return Operator(OperatorKind::kNeighborMean);
  }

  /// The operators this snapshot has built so far (null where not yet
  /// requested) — the next epoch's Refresh captures these at publish time.
  Operators BuiltOps() const;

  /// How many of this snapshot's operators were built by patching the
  /// previous epoch's matrices vs from scratch (tests and benches assert
  /// the refresh path actually ran).
  int64_t ops_incremental() const;
  int64_t ops_rebuilt() const;

 private:
  /// Requires cache_mu_.
  const std::shared_ptr<const Graph>& MaterializedLocked() const;

  /// `prev` with the rows in patch_rows (plus any row past the previous
  /// epoch's node count) rebuilt from the merged view by AppendOperatorRow;
  /// every other row is copied verbatim.
  std::shared_ptr<const tensor::SparseMatrix> Patched(
      OperatorKind kind, const tensor::SparseMatrix& prev) const;

  const int64_t epoch_;
  const DeltaOverlay overlay_;  // frozen at publish
  const tensor::Tensor base_features_;
  const std::vector<int64_t> affected_;
  const Refresh refresh_;

  mutable std::mutex cache_mu_;
  mutable std::shared_ptr<const Graph> materialized_;
  mutable tensor::Tensor features_;
  mutable bool features_built_ = false;
  mutable Operators ops_{};
  mutable int64_t ops_incremental_ = 0;
  mutable int64_t ops_rebuilt_ = 0;
};

struct MutableGraphOptions {
  /// Overlay bound: mutations beyond this (since the last compaction) are
  /// shed with ResourceExhausted until a compaction drains the backlog.
  int64_t max_pending = 1024;
  /// Hop radius of affected_nodes() around each mutation endpoint. Must be
  /// >= the deepest served GNN's num_layers for cached predictions of
  /// unaffected nodes to stay bit-correct across the epoch (one operator
  /// application propagates a changed degree exactly one hop).
  int64_t invalidation_radius = 2;
  /// Debug/test mode: every incrementally refreshed operator is also
  /// rebuilt from scratch and FW_CHECKed bit-equal.
  bool refresh_cross_check = false;
};

/// Thread-safe dynamic graph: see the file comment for the full contract.
class MutableGraph {
 public:
  /// `base_features` must have base->num_nodes() rows; its column count
  /// fixes the feature width every added node must match.
  MutableGraph(std::shared_ptr<const Graph> base,
               tensor::Tensor base_features, MutableGraphOptions options = {});

  /// Opens (or creates) the durable mutation log at `log_path` and
  /// reconstructs the pre-crash state: if a graph-base checkpoint
  /// (`log_path + ".base"`, written by Compact) exists it replaces `base`,
  /// and every logged-but-uncompacted mutation is replayed into the
  /// overlay and published. The returned graph appends every subsequent
  /// accepted mutation to the log before applying it. Errors (corrupt log
  /// or checkpoint, generation mismatch, replay failure) leave every file
  /// untouched so the caller can keep serving its previous state.
  static common::Result<std::unique_ptr<MutableGraph>> Recover(
      std::shared_ptr<const Graph> base, tensor::Tensor base_features,
      const std::string& log_path, MutableGraphOptions options = {});

  // --- Mutation front door (validated; never partial) ---------------------
  common::Status Apply(const GraphMutation& m);
  /// Returns the new node's id.
  common::Result<int64_t> AddNode(std::vector<float> features);
  common::Status AddEdge(int64_t u, int64_t v);
  common::Status RemoveEdge(int64_t u, int64_t v);

  /// Transactional multi-mutation apply: the whole batch is validated (in
  /// order, against the merged view as the batch itself transforms it)
  /// before any state changes — either every mutation lands, atomically
  /// with one durable log append, or none do. `statuses`, when non-null,
  /// receives one Status per mutation: all OK on success; on failure the
  /// first failing mutation carries its precise error and every other
  /// entry is FailedPrecondition naming the aborting index. The returned
  /// Status is OK or the first failure.
  common::Status ApplyBatch(const std::vector<GraphMutation>& batch,
                            std::vector<common::Status>* statuses = nullptr);

  // --- Publication --------------------------------------------------------
  /// The currently published snapshot (never null; epoch 0 is published at
  /// construction).
  std::shared_ptr<const GraphSnapshot> Current() const;

  /// Freezes all applied mutations as a new epoch and notifies listeners.
  /// Returns the published snapshot; a no-op (same snapshot, same epoch)
  /// when nothing changed since the last publish.
  std::shared_ptr<const GraphSnapshot> Publish();

  /// Merges the overlay into a fresh base CSR and publishes the result
  /// (compaction implies a Publish of any still-unpublished mutations).
  /// On failure — including an injected kGraphCompaction fault — nothing
  /// is swapped: the previous snapshot keeps serving, the overlay keeps
  /// its mutations, and a later Compact() retries from scratch. With a
  /// mutation log attached, a successful compaction also writes the merged
  /// base as a durable graph-base checkpoint and truncates the log to the
  /// carried-over suffix.
  common::Status Compact();

  int64_t epoch() const;
  /// Mutations in the overlay (applied since the last compaction).
  int64_t pending() const;
  /// Whether the mutation_backlog incident is currently latched.
  bool backlogged() const;
  int64_t num_nodes() const { return Current()->num_nodes(); }

  /// The attached durable log, or nullptr. The pointer is stable for the
  /// graph's lifetime; its counters are only safe to read quiesced.
  const MutationLog* mutation_log() const { return log_.get(); }

  struct Stats {
    int64_t epoch = 0;
    int64_t pending = 0;
    int64_t applied = 0;  // mutations accepted (lifetime, incl. replayed)
    int64_t shed = 0;     // mutations shed with ResourceExhausted
    int64_t compactions = 0;
    int64_t compaction_failures = 0;
    bool backlogged = false;
    int64_t log_appends = 0;   // durable appends acknowledged
    int64_t log_records = 0;   // records in the current log generation
    int64_t log_resets = 0;    // compact-truncations of the log
    int64_t replayed = 0;      // mutations replayed by Recover()
  };
  Stats stats() const;

  /// Runs after each publish, outside the writer mutex, with the new
  /// snapshot (same discipline as ModelRegistry's invalidation listeners).
  /// Deliveries are serialized and strictly epoch-ordered. A listener must
  /// not call back into this MutableGraph.
  using EpochListener =
      std::function<void(const std::shared_ptr<const GraphSnapshot>&)>;
  int64_t AddEpochListener(EpochListener listener);
  /// After this returns the listener is guaranteed not to be running and
  /// will never run again (in-flight notification rounds are waited out).
  void RemoveEpochListener(int64_t token);

 private:
  /// Shared mutation path: validate → (log append) → overlay apply, plus
  /// counters, backlog latching, and telemetry. `node_out`, when non-null,
  /// receives the id a kAddNode mutation would create.
  common::Status ApplyInternal(const GraphMutation& m, int64_t* node_out);

  /// Builds and publishes the next epoch from the current overlay state.
  /// Requires mu_; returns the snapshot (listeners are notified by the
  /// caller, outside the mutex).
  std::shared_ptr<const GraphSnapshot> PublishLocked();

  /// Seed node ids of the log entries in [from, to) (edge endpoints and
  /// added-node ids). Requires mu_.
  std::vector<int64_t> SeedsLocked(int64_t from, int64_t to) const;

  /// Expands `seeds` by `radius` hops over the union of the current
  /// overlay view and the previously published snapshot's view. Requires
  /// mu_.
  std::vector<int64_t> AffectedLocked(const std::vector<int64_t>& seeds,
                                      int64_t radius) const;

  /// The Refresh the next snapshot inherits from published_. Requires mu_;
  /// `seeds` are the unpublished mutations' seed nodes.
  GraphSnapshot::Refresh RefreshLocked(
      const std::vector<int64_t>& seeds) const;

  void NotifyListeners(const std::shared_ptr<const GraphSnapshot>& snapshot);

  const MutableGraphOptions options_;
  const int64_t feature_dim_;

  mutable std::mutex mu_;
  std::shared_ptr<const Graph> base_;
  tensor::Tensor base_features_;
  std::unique_ptr<DeltaOverlay> overlay_;
  std::shared_ptr<const GraphSnapshot> published_;
  int64_t published_log_size_ = 0;  // log prefix included in published_
  int64_t epoch_ = 0;
  bool backlogged_ = false;
  int64_t applied_ = 0;
  int64_t shed_ = 0;
  int64_t compactions_ = 0;
  int64_t compaction_failures_ = 0;
  int64_t log_appends_ = 0;
  int64_t log_resets_ = 0;
  int64_t replayed_ = 0;
  std::vector<std::pair<int64_t, EpochListener>> listeners_;
  int64_t next_listener_token_ = 1;

  /// Serializes listener notification (and orders it by epoch): Publish
  /// and Compact acquire notify_mu_ BEFORE mu_ and hold it across the
  /// listener calls; RemoveEpochListener erases under mu_ alone, then
  /// acquires notify_mu_ once as a barrier against in-flight rounds.
  std::mutex notify_mu_;

  std::mutex compact_mu_;  // serializes compactions (mutations continue)

  /// Durable write-ahead log (Recover() only). File I/O on log_ happens
  /// under mu_ (appends, resets) or compact_mu_ (the base checkpoint).
  std::unique_ptr<MutationLog> log_;
  /// Records of the current log generation already folded into the
  /// on-disk graph-base checkpoint (non-zero only after recovering from a
  /// crash that hit between base write and log reset).
  int64_t log_folded_ = 0;
  /// Set (under mu_) when a compaction's log Reset failed: the in-memory
  /// graph keeps serving but mutations are no longer logged until restart.
  bool log_detached_ = false;

  obs::Counter* applied_counter_;
  obs::Counter* shed_counter_;
  obs::Counter* compactions_counter_;
  obs::Counter* compaction_failures_counter_;
  obs::Counter* log_appends_counter_;
  obs::Counter* log_resets_counter_;
  obs::Gauge* epoch_gauge_;
  obs::Gauge* pending_gauge_;
  obs::Gauge* backlog_gauge_;
  obs::Histogram* compaction_ms_hist_;
};

}  // namespace fairwos::graph

#endif  // FAIRWOS_GRAPH_MUTABLE_GRAPH_H_
