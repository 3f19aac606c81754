#include "graph/mutable_graph.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <unordered_set>

#include "common/check.h"
#include "common/fault.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "tensor/sparse.h"

namespace fairwos::graph {

GraphSnapshot::GraphSnapshot(int64_t epoch, DeltaOverlay overlay,
                             tensor::Tensor base_features,
                             std::vector<int64_t> affected)
    : GraphSnapshot(epoch, std::move(overlay), std::move(base_features),
                    std::move(affected), Refresh()) {}

GraphSnapshot::GraphSnapshot(int64_t epoch, DeltaOverlay overlay,
                             tensor::Tensor base_features,
                             std::vector<int64_t> affected, Refresh refresh)
    : epoch_(epoch),
      overlay_(std::move(overlay)),
      base_features_(std::move(base_features)),
      affected_(std::move(affected)),
      refresh_(std::move(refresh)) {}

std::vector<int64_t> GraphSnapshot::Neighbors(int64_t v) const {
  std::vector<int64_t> out;
  overlay_.AppendNeighbors(v, &out);
  return out;
}

std::shared_ptr<const Graph> GraphSnapshot::Materialized() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return MaterializedLocked();
}

const std::shared_ptr<const Graph>& GraphSnapshot::MaterializedLocked() const {
  if (materialized_ == nullptr) {
    materialized_ = std::make_shared<const Graph>(overlay_.Materialize());
  }
  return materialized_;
}

tensor::Tensor GraphSnapshot::Features() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (!features_built_) {
    const auto& added = overlay_.added_features();
    if (added.empty()) {
      features_ = base_features_;  // copy-on-write: no added rows, no copy
    } else {
      const int64_t cols = overlay_.feature_dim();
      std::vector<float> data(base_features_.data().begin(),
                              base_features_.data().end());
      data.reserve(data.size() + added.size() * static_cast<size_t>(cols));
      for (const auto& row : added) {
        data.insert(data.end(), row.begin(), row.end());
      }
      features_ =
          tensor::Tensor::FromVector({num_nodes(), cols}, std::move(data));
    }
    features_built_ = true;
  }
  return features_;
}

std::shared_ptr<const tensor::SparseMatrix> GraphSnapshot::Patched(
    OperatorKind kind, const tensor::SparseMatrix& prev) const {
  const int64_t n = overlay_.num_nodes();
  const std::vector<int64_t>& patch = refresh_.patch_rows;
  std::vector<int64_t> row_ptr(static_cast<size_t>(n) + 1, 0);
  std::vector<int64_t> cols;
  std::vector<float> vals;
  // Most epochs touch a handful of rows; prev's nnz is a tight lower bound.
  cols.reserve(static_cast<size_t>(prev.nnz()) + 64);
  vals.reserve(static_cast<size_t>(prev.nnz()) + 64);
  const std::function<int64_t(int64_t)> degree = [this](int64_t v) {
    return overlay_.Degree(v);
  };
  std::vector<int64_t> neighbors;
  size_t pi = 0;
  for (int64_t r = 0; r < n; ++r) {
    while (pi < patch.size() && patch[pi] < r) ++pi;
    if ((pi < patch.size() && patch[pi] == r) ||
        r >= refresh_.prev_num_nodes) {
      neighbors.clear();
      overlay_.AppendNeighbors(r, &neighbors);
      std::sort(neighbors.begin(), neighbors.end());
      AppendOperatorRow(kind, r, neighbors, degree, &cols, &vals);
    } else {
      // The patch set covers every row whose entries could have changed
      // (see the file comment in mutable_graph.h): copy the rest verbatim.
      const auto& pp = prev.row_ptr();
      const size_t lo = static_cast<size_t>(pp[static_cast<size_t>(r)]);
      const size_t hi = static_cast<size_t>(pp[static_cast<size_t>(r) + 1]);
      cols.insert(cols.end(), prev.col_idx().begin() + lo,
                  prev.col_idx().begin() + hi);
      vals.insert(vals.end(), prev.values().begin() + lo,
                  prev.values().begin() + hi);
    }
    row_ptr[static_cast<size_t>(r) + 1] = static_cast<int64_t>(cols.size());
  }
  return tensor::SparseMatrix::FromCsr(n, n, std::move(row_ptr),
                                       std::move(cols), std::move(vals));
}

std::shared_ptr<const tensor::SparseMatrix> GraphSnapshot::Operator(
    OperatorKind kind) const {
  const size_t k = static_cast<size_t>(kind);
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (ops_[k] != nullptr) return ops_[k];
  const tensor::SparseMatrix* prev = refresh_.prev_ops[k].get();
  if (prev == nullptr) {
    ops_[k] = MaterializedLocked()->Operator(kind);
    ++ops_rebuilt_;
    obs::MetricsRegistry::Global().GetCounter("graph.ops.rebuilt")->Increment();
    return ops_[k];
  }
  auto patched = Patched(kind, *prev);
  if (refresh_.cross_check) {
    const auto full = MaterializedLocked()->Operator(kind);
    FW_CHECK(patched->row_ptr() == full->row_ptr() &&
             patched->col_idx() == full->col_idx() &&
             (patched->values().empty() ||
              std::memcmp(patched->values().data(), full->values().data(),
                          patched->values().size() * sizeof(float)) == 0))
        << "incremental refresh diverged from rebuild, kind="
        << static_cast<int>(kind);
  }
  ops_[k] = std::move(patched);
  ++ops_incremental_;
  obs::MetricsRegistry::Global()
      .GetCounter("graph.ops.incremental")
      ->Increment();
  return ops_[k];
}

GraphSnapshot::Operators GraphSnapshot::BuiltOps() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return ops_;
}

int64_t GraphSnapshot::ops_incremental() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return ops_incremental_;
}

int64_t GraphSnapshot::ops_rebuilt() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return ops_rebuilt_;
}

MutableGraph::MutableGraph(std::shared_ptr<const Graph> base,
                           tensor::Tensor base_features,
                           MutableGraphOptions options)
    : options_(options),
      feature_dim_(base_features.rank() == 2 ? base_features.dim(1) : 0),
      base_(std::move(base)),
      base_features_(std::move(base_features)) {
  FW_CHECK(base_ != nullptr);
  FW_CHECK_GE(options_.max_pending, 1);
  FW_CHECK_GE(options_.invalidation_radius, 0);
  FW_CHECK_EQ(base_features_.rank(), 2);
  FW_CHECK_EQ(base_features_.dim(0), base_->num_nodes())
      << "base feature matrix must have one row per node";
  auto& registry = obs::MetricsRegistry::Global();
  applied_counter_ = registry.GetCounter("graph.mutations.applied");
  shed_counter_ = registry.GetCounter("graph.mutations.shed");
  compactions_counter_ = registry.GetCounter("graph.compactions");
  compaction_failures_counter_ =
      registry.GetCounter("graph.compactions.failed");
  log_appends_counter_ = registry.GetCounter("graph.mutation_log.appends");
  log_resets_counter_ = registry.GetCounter("graph.mutation_log.resets");
  epoch_gauge_ = registry.GetGauge("graph.epoch");
  pending_gauge_ = registry.GetGauge("graph.pending_mutations");
  backlog_gauge_ = registry.GetGauge("graph.backlog");
  compaction_ms_hist_ = registry.GetHistogram("graph.compaction_ms");

  overlay_ = std::make_unique<DeltaOverlay>(base_, feature_dim_,
                                            options_.max_pending);
  std::lock_guard<std::mutex> lock(mu_);
  published_ = std::make_shared<const GraphSnapshot>(
      /*epoch=*/0, *overlay_, base_features_, std::vector<int64_t>{});
  epoch_gauge_->Set(0.0);
}

common::Result<std::unique_ptr<MutableGraph>> MutableGraph::Recover(
    std::shared_ptr<const Graph> base, tensor::Tensor base_features,
    const std::string& log_path, MutableGraphOptions options) {
  namespace fs = std::filesystem;
  const std::string base_path = log_path + ".base";

  std::shared_ptr<const Graph> start_base = std::move(base);
  tensor::Tensor start_features = std::move(base_features);
  const int64_t feature_dim =
      start_features.rank() == 2 ? start_features.dim(1) : 0;

  bool have_ckpt = false;
  uint64_t ckpt_seq = 0;
  int64_t ckpt_folded = 0;
  std::error_code ec;
  if (fs::exists(base_path, ec)) {
    FW_ASSIGN_OR_RETURN(GraphBaseCheckpoint ckpt, ReadGraphBase(base_path));
    if (ckpt.features.rank() != 2 || ckpt.features.dim(1) != feature_dim) {
      return common::Status::InvalidArgument(
          "graph-base checkpoint feature width does not match the caller's "
          "feature matrix: " + base_path);
    }
    start_base = ckpt.graph;
    start_features = ckpt.features;
    have_ckpt = true;
    ckpt_seq = ckpt.seq;
    ckpt_folded = ckpt.folded;
  }

  std::unique_ptr<MutationLog> log;
  std::vector<GraphMutation> replay;
  int64_t replay_from = 0;
  int64_t folded = 0;
  bool torn_tail = false;
  if (fs::exists(log_path, ec)) {
    FW_ASSIGN_OR_RETURN(MutationLog::ReplayResult rep,
                        MutationLog::Replay(log_path));
    torn_tail = rep.torn_tail;
    const uint64_t gen = rep.header.base_seq;
    if (!have_ckpt) {
      if (gen != 0) {
        return common::Status::FailedPrecondition(
            "mutation log is generation " + std::to_string(gen) +
            " but no graph-base checkpoint exists at " + base_path);
      }
      replay_from = 0;
    } else if (ckpt_seq == gen) {
      // The checkpoint IS this generation's base: replay everything.
      replay_from = 0;
    } else if (ckpt_seq == gen + 1) {
      // Compaction wrote the new base but crashed before truncating the
      // log: the first `folded` records are already inside the base.
      if (ckpt_folded < 0 ||
          ckpt_folded > static_cast<int64_t>(rep.records.size())) {
        return common::Status::FailedPrecondition(
            "graph-base checkpoint claims to fold " +
            std::to_string(ckpt_folded) + " records but the log holds " +
            std::to_string(rep.records.size()));
      }
      replay_from = ckpt_folded;
      folded = ckpt_folded;
    } else {
      return common::Status::FailedPrecondition(
          "graph-base checkpoint seq " + std::to_string(ckpt_seq) +
          " does not match mutation log generation " + std::to_string(gen));
    }
    if (!have_ckpt || ckpt_seq == gen) {
      // In these cases the log header describes exactly start_base. (When
      // ckpt_seq == gen + 1 the header describes the superseded base the
      // checkpoint replaced, so there is nothing left to compare against.)
      if (rep.header.base_nodes != start_base->num_nodes() ||
          rep.header.base_edges != start_base->num_edges() ||
          rep.header.feature_dim != feature_dim) {
        return common::Status::FailedPrecondition(
            "mutation log header does not match the recovery base: " +
            log_path);
      }
    }
    const int64_t to_replay =
        static_cast<int64_t>(rep.records.size()) - replay_from;
    if (to_replay > options.max_pending) {
      return common::Status::FailedPrecondition(
          "mutation log holds " + std::to_string(to_replay) +
          " uncompacted mutations but max_pending is " +
          std::to_string(options.max_pending) +
          "; raise max_pending to recover");
    }
    replay.assign(rep.records.begin() + replay_from, rep.records.end());
    FW_ASSIGN_OR_RETURN(log, MutationLog::Open(log_path, rep));
  } else {
    MutationLog::Header h;
    h.base_seq = have_ckpt ? ckpt_seq : 0;
    h.base_nodes = start_base->num_nodes();
    h.base_edges = start_base->num_edges();
    h.feature_dim = feature_dim;
    FW_ASSIGN_OR_RETURN(log, MutationLog::Create(log_path, h));
    folded = 0;
  }

  auto g = std::make_unique<MutableGraph>(start_base, start_features, options);
  for (size_t i = 0; i < replay.size(); ++i) {
    std::lock_guard<std::mutex> lock(g->mu_);
    const common::Status st =
        g->overlay_->Apply(replay[i], /*probe_faults=*/false);
    if (!st.ok()) {
      return common::Status::IoError(
          "mutation log replay failed at record " +
          std::to_string(replay_from + static_cast<int64_t>(i)) + ": " +
          st.ToString());
    }
    ++g->applied_;
    ++g->replayed_;
  }
  if (!replay.empty()) g->Publish();
  g->log_ = std::move(log);
  g->log_folded_ = folded;
  if (obs::TelemetryEnabled()) {
    obs::EmitEvent(
        obs::Event("mutation_log_recovered")
            .Set("generation",
                 static_cast<int64_t>(g->log_->header().base_seq))
            .Set("replayed", static_cast<int64_t>(replay.size()))
            .Set("folded", folded)
            .Set("torn_tail", torn_tail ? 1 : 0)
            .Set("from_checkpoint", have_ckpt ? 1 : 0));
  }
  return g;
}

common::Status MutableGraph::ApplyInternal(const GraphMutation& m,
                                           int64_t* node_out) {
  bool latch_backlog = false;
  int64_t pending_now = 0;
  int64_t shed_now = 0;
  common::Status status;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (node_out != nullptr) *node_out = overlay_->num_nodes();
    if (log_ != nullptr && !log_detached_) {
      // Write-ahead discipline: validate (no fault probe), durably log,
      // then apply. A failed log append rejects the mutation with the
      // overlay and the file both untouched. Apply() after a successful
      // append can only fail via an injected kGraphDeltaApply fault
      // (real applies are pre-validated) — the log is rolled back so it
      // never carries a mutation the overlay refused.
      status = overlay_->Validate(m);
      if (status.ok()) {
        status = log_->Append(m);
        if (status.ok()) {
          ++log_appends_;
          log_appends_counter_->Increment();
          status = overlay_->Apply(m);
          if (!status.ok()) {
            const common::Status rb = log_->RollbackLastAppend();
            if (!rb.ok() && obs::TelemetryEnabled()) {
              obs::EmitEvent(obs::Event("mutation_log_rollback_failed")
                                 .Set("error", rb.ToString()));
            }
          }
        }
      }
    } else {
      status = overlay_->Apply(m);
    }
    if (status.ok()) {
      ++applied_;
      applied_counter_->Increment();
      pending_gauge_->Set(static_cast<double>(overlay_->size()));
    } else if (status.code() == common::StatusCode::kResourceExhausted) {
      ++shed_;
      shed_counter_->Increment();
      if (!backlogged_) {
        backlogged_ = true;
        latch_backlog = true;
        backlog_gauge_->Set(1.0);
      }
      pending_now = overlay_->size();
      shed_now = shed_;
    }
  }
  if (latch_backlog && obs::TelemetryEnabled()) {
    obs::EmitEvent(obs::Event("mutation_backlog")
                       .Set("pending", pending_now)
                       .Set("shed", shed_now)
                       .Set("max_pending", options_.max_pending));
  }
  return status;
}

common::Status MutableGraph::Apply(const GraphMutation& m) {
  return ApplyInternal(m, nullptr);
}

common::Result<int64_t> MutableGraph::AddNode(std::vector<float> features) {
  int64_t node = -1;
  const common::Status status =
      ApplyInternal(GraphMutation::AddNode(std::move(features)), &node);
  if (!status.ok()) return status;
  return node;
}

common::Status MutableGraph::AddEdge(int64_t u, int64_t v) {
  return Apply(GraphMutation::AddEdge(u, v));
}

common::Status MutableGraph::RemoveEdge(int64_t u, int64_t v) {
  return Apply(GraphMutation::RemoveEdge(u, v));
}

common::Status MutableGraph::ApplyBatch(
    const std::vector<GraphMutation>& batch,
    std::vector<common::Status>* statuses) {
  if (statuses != nullptr) {
    statuses->assign(batch.size(), common::Status::OK());
  }
  if (batch.empty()) return common::Status::OK();

  bool latch_backlog = false;
  int64_t pending_now = 0;
  int64_t shed_now = 0;
  common::Status first_error;
  size_t failed_at = batch.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Dry-run the whole batch on a scratch copy of the overlay: later
    // mutations validate against the state earlier ones produce (a batch
    // may add a node and then wire edges to it), and any failure aborts
    // with the live overlay untouched.
    auto scratch = std::make_unique<DeltaOverlay>(*overlay_);
    for (size_t i = 0; i < batch.size(); ++i) {
      const common::Status st = scratch->Apply(batch[i]);
      if (!st.ok()) {
        first_error = st;
        failed_at = i;
        break;
      }
    }
    if (failed_at < batch.size()) {
      if (statuses != nullptr) {
        const std::string aborted =
            "batch aborted by mutation #" + std::to_string(failed_at);
        for (size_t i = 0; i < batch.size(); ++i) {
          if (i == failed_at) {
            (*statuses)[i] = first_error;
          } else {
            (*statuses)[i] = common::Status::FailedPrecondition(
                (i < failed_at ? "validated, rolled back: " : "not attempted: ") +
                aborted);
          }
        }
      }
      if (first_error.code() == common::StatusCode::kResourceExhausted) {
        ++shed_;
        shed_counter_->Increment();
        if (!backlogged_) {
          backlogged_ = true;
          latch_backlog = true;
          backlog_gauge_->Set(1.0);
        }
        pending_now = overlay_->size();
        shed_now = shed_;
      }
    } else {
      if (log_ != nullptr && !log_detached_) {
        first_error = log_->AppendBatch(batch);
      }
      if (first_error.ok()) {
        overlay_ = std::move(scratch);
        applied_ += static_cast<int64_t>(batch.size());
        applied_counter_->Increment(static_cast<int64_t>(batch.size()));
        if (log_ != nullptr && !log_detached_) {
          log_appends_ += static_cast<int64_t>(batch.size());
          log_appends_counter_->Increment(static_cast<int64_t>(batch.size()));
        }
        pending_gauge_->Set(static_cast<double>(overlay_->size()));
      } else {
        // Durable append refused (kMutationLogAppend): the whole batch is
        // rejected; log and overlay are both untouched.
        failed_at = 0;
        if (statuses != nullptr) {
          for (auto& s : *statuses) s = first_error;
        }
      }
    }
  }
  if (latch_backlog && obs::TelemetryEnabled()) {
    obs::EmitEvent(obs::Event("mutation_backlog")
                       .Set("pending", pending_now)
                       .Set("shed", shed_now)
                       .Set("max_pending", options_.max_pending));
  }
  if (obs::TelemetryEnabled()) {
    obs::EmitEvent(obs::Event("mutation_batch")
                       .Set("size", static_cast<int64_t>(batch.size()))
                       .Set("applied", failed_at == batch.size() ? 1 : 0));
  }
  if (failed_at == batch.size()) return common::Status::OK();
  return first_error;
}

std::shared_ptr<const GraphSnapshot> MutableGraph::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_;
}

std::vector<int64_t> MutableGraph::SeedsLocked(int64_t from,
                                               int64_t to) const {
  const auto& log = overlay_->log();
  int64_t next_added_id = overlay_->base()->num_nodes();
  for (int64_t i = 0; i < from; ++i) {
    if (log[i].kind == MutationKind::kAddNode) ++next_added_id;
  }
  std::vector<int64_t> seeds;
  for (int64_t i = from; i < to; ++i) {
    const GraphMutation& m = log[i];
    if (m.kind == MutationKind::kAddNode) {
      seeds.push_back(next_added_id++);
    } else {
      seeds.push_back(m.u);
      seeds.push_back(m.v);
    }
  }
  return seeds;
}

std::vector<int64_t> MutableGraph::AffectedLocked(
    const std::vector<int64_t>& seeds, int64_t radius) const {
  std::unordered_set<int64_t> seen(seeds.begin(), seeds.end());
  std::vector<int64_t> frontier(seen.begin(), seen.end());
  for (int64_t hop = 0; hop < radius; ++hop) {
    std::vector<int64_t> next;
    for (int64_t v : frontier) {
      std::vector<int64_t> neighbors;
      if (v >= 0 && v < overlay_->num_nodes()) {
        overlay_->AppendNeighbors(v, &neighbors);
      }
      // Union with the previous epoch's view, so nodes that *lost* an edge
      // (and their neighborhoods) are still invalidated.
      if (published_ != nullptr && v >= 0 && v < published_->num_nodes()) {
        const std::vector<int64_t> old = published_->Neighbors(v);
        neighbors.insert(neighbors.end(), old.begin(), old.end());
      }
      for (int64_t u : neighbors) {
        if (seen.insert(u).second) next.push_back(u);
      }
    }
    frontier = std::move(next);
  }
  std::vector<int64_t> affected(seen.begin(), seen.end());
  std::sort(affected.begin(), affected.end());
  return affected;
}

GraphSnapshot::Refresh MutableGraph::RefreshLocked(
    const std::vector<int64_t>& seeds) const {
  GraphSnapshot::Refresh refresh;
  refresh.prev_ops = published_->BuiltOps();
  refresh.prev_num_nodes = published_->num_nodes();
  // 1 hop suffices for bit-identity of every backbone operator: an entry
  // (u, v) changes only if u's adjacency changed (u is a seed) or a degree
  // feeding it changed — and degrees change only at seeds, whose operator
  // entries all live in rows adjacent to them.
  refresh.patch_rows = AffectedLocked(seeds, 1);
  refresh.cross_check = options_.refresh_cross_check;
  return refresh;
}

std::shared_ptr<const GraphSnapshot> MutableGraph::PublishLocked() {
  const std::vector<int64_t> seeds =
      SeedsLocked(published_log_size_, overlay_->size());
  std::vector<int64_t> affected =
      AffectedLocked(seeds, options_.invalidation_radius);
  GraphSnapshot::Refresh refresh = RefreshLocked(seeds);
  ++epoch_;
  auto snapshot = std::make_shared<const GraphSnapshot>(
      epoch_, *overlay_, base_features_, std::move(affected),
      std::move(refresh));
  published_ = snapshot;
  published_log_size_ = overlay_->size();
  epoch_gauge_->Set(static_cast<double>(epoch_));
  return snapshot;
}

void MutableGraph::NotifyListeners(
    const std::shared_ptr<const GraphSnapshot>& snapshot) {
  std::vector<EpochListener> listeners;
  {
    std::lock_guard<std::mutex> lock(mu_);
    listeners.reserve(listeners_.size());
    for (const auto& [token, listener] : listeners_) {
      listeners.push_back(listener);
    }
  }
  for (const auto& listener : listeners) listener(snapshot);
}

std::shared_ptr<const GraphSnapshot> MutableGraph::Publish() {
  std::shared_ptr<const GraphSnapshot> snapshot;
  {
    // notify_mu_ is taken BEFORE mu_ and held across the listener calls:
    // concurrent publishes deliver their epochs to listeners in strictly
    // ascending order, so a later epoch can never overtake an earlier
    // one's notification (which would let a cache skip the earlier
    // epoch's invalidations).
    std::lock_guard<std::mutex> notify_lock(notify_mu_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (overlay_->size() == published_log_size_) return published_;
      snapshot = PublishLocked();
    }
    NotifyListeners(snapshot);
  }
  if (obs::TelemetryEnabled()) {
    obs::EmitEvent(
        obs::Event("graph_epoch")
            .Set("epoch", snapshot->epoch())
            .Set("nodes", snapshot->num_nodes())
            .Set("edges", snapshot->num_edges())
            .Set("affected",
                 static_cast<int64_t>(snapshot->affected_nodes().size())));
  }
  return snapshot;
}

common::Status MutableGraph::Compact() {
  std::lock_guard<std::mutex> compact_lock(compact_mu_);
  common::Stopwatch watch;

  std::unique_ptr<DeltaOverlay> frozen;
  tensor::Tensor frozen_features;
  int64_t merged_count = 0;
  bool log_attached = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (overlay_->size() == 0) return common::Status::OK();
    merged_count = overlay_->size();
    frozen = std::make_unique<DeltaOverlay>(*overlay_);
    frozen_features = base_features_;
    log_attached = log_ != nullptr && !log_detached_;
  }

  auto fail = [&](const char* stage, common::Status st) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++compaction_failures_;
    }
    compaction_failures_counter_->Increment();
    if (obs::TelemetryEnabled()) {
      obs::EmitEvent(obs::Event("compaction_failed")
                         .Set("stage", stage)
                         .Set("pending", merged_count)
                         .Set("error", st.ToString()));
    }
    return st;
  };
  auto injected = [](const char* stage) {
    return common::Status::Internal(
        std::string("injected compaction fault (") + stage +
        "); previous snapshot keeps serving");
  };

  // Restore-before-publish: the merged CSR and feature matrix are built in
  // full before the swap below; a fault (or crash) at either probe leaves
  // every published structure untouched.
  auto* fi = testing::ActiveFaultInjector();
  if (fi != nullptr && fi->ShouldFire(testing::FaultSite::kGraphCompaction)) {
    return fail("pre-rebuild", injected("pre-rebuild"));
  }
  auto new_base = std::make_shared<const Graph>(frozen->Materialize());
  tensor::Tensor new_features;
  if (frozen->added_features().empty()) {
    new_features = frozen_features;
  } else {
    std::vector<float> data(frozen_features.data().begin(),
                            frozen_features.data().end());
    for (const auto& row : frozen->added_features()) {
      data.insert(data.end(), row.begin(), row.end());
    }
    new_features = tensor::Tensor::FromVector(
        {new_base->num_nodes(), feature_dim_}, std::move(data));
  }
  if (fi != nullptr && fi->ShouldFire(testing::FaultSite::kGraphCompaction)) {
    return fail("pre-publish", injected("pre-publish"));
  }

  // Durable half of the compact lifecycle, still before anything is
  // published: write the merged base as a graph-base checkpoint whose seq
  // supersedes the current log generation. A crash after this write but
  // before the log Reset below recovers via the checkpoint's `folded`
  // offset (Recover documents the case analysis). On write failure
  // nothing has been swapped — the previous base, overlay, and log keep
  // serving and a later Compact() retries.
  if (log_attached) {
    GraphBaseCheckpoint ckpt;
    ckpt.seq = log_->header().base_seq + 1;
    ckpt.folded = log_folded_ + merged_count;
    ckpt.graph = new_base;
    ckpt.features = new_features;
    const common::Status st = WriteGraphBase(log_->path() + ".base", ckpt);
    if (!st.ok()) return fail("base-checkpoint", st);
  }

  std::shared_ptr<const GraphSnapshot> snapshot;
  bool clear_backlog = false;
  int64_t carried_over = 0;
  bool detached_now = false;
  common::Status reset_status;
  {
    std::lock_guard<std::mutex> notify_lock(notify_mu_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Seeds of everything this publish makes visible, in pre-rebase
      // coordinates (the folded log still exists here).
      const std::vector<int64_t> seeds =
          SeedsLocked(published_log_size_, overlay_->size());
      std::vector<int64_t> affected =
          AffectedLocked(seeds, options_.invalidation_radius);
      GraphSnapshot::Refresh refresh = RefreshLocked(seeds);

      // Mutations that arrived while the merge was building are replayed
      // onto the new base — the suffix revalidates against exactly the
      // state it was originally accepted under, so every replay must
      // succeed.
      auto fresh = std::make_unique<DeltaOverlay>(new_base, feature_dim_,
                                                  options_.max_pending);
      const auto& log = overlay_->log();
      for (size_t i = static_cast<size_t>(merged_count); i < log.size();
           ++i) {
        const common::Status st =
            fresh->Apply(log[i], /*probe_faults=*/false);
        FW_CHECK(st.ok()) << "compaction rebase replay failed: "
                          << st.ToString();
      }
      base_ = new_base;
      base_features_ = new_features;
      overlay_ = std::move(fresh);
      published_log_size_ = 0;
      ++compactions_;
      ++epoch_;
      snapshot = std::make_shared<const GraphSnapshot>(
          epoch_, *overlay_, base_features_, std::move(affected),
          std::move(refresh));
      published_ = snapshot;
      published_log_size_ = overlay_->size();
      carried_over = overlay_->size();
      epoch_gauge_->Set(static_cast<double>(epoch_));
      pending_gauge_->Set(static_cast<double>(overlay_->size()));
      if (backlogged_ && !overlay_->full()) {
        backlogged_ = false;
        clear_backlog = true;
        backlog_gauge_->Set(0.0);
      }
      if (log_attached) {
        // Truncate the log to the carried-over suffix: the new generation
        // replays against the checkpoint written above.
        MutationLog::Header h;
        h.base_seq = log_->header().base_seq + 1;
        h.base_nodes = new_base->num_nodes();
        h.base_edges = new_base->num_edges();
        h.feature_dim = feature_dim_;
        reset_status = log_->Reset(h, overlay_->log());
        if (reset_status.ok()) {
          log_folded_ = 0;
          ++log_resets_;
          log_resets_counter_->Increment();
        } else {
          // The swap is already published and the checkpoint is durable,
          // so in-memory serving is correct — but the log can no longer be
          // trusted to extend it. Detach: later mutations are not logged
          // (crash durability is degraded until restart) and the incident
          // below says so.
          log_detached_ = true;
          detached_now = true;
        }
      }
    }
    NotifyListeners(snapshot);
  }

  const double duration_ms = watch.Millis();
  compactions_counter_->Increment();
  compaction_ms_hist_->Observe(duration_ms);
  if (obs::TelemetryEnabled()) {
    obs::EmitEvent(
        obs::Event("compaction")
            .Set("epoch", snapshot->epoch())
            .Set("merged", merged_count)
            .Set("carried_over", carried_over)
            .Set("duration_ms", duration_ms));
    if (clear_backlog) {
      obs::EmitEvent(obs::Event("mutation_backlog_cleared")
                         .Set("epoch", snapshot->epoch()));
    }
    if (detached_now) {
      obs::EmitEvent(obs::Event("mutation_log_detached")
                         .Set("epoch", snapshot->epoch())
                         .Set("error", reset_status.ToString()));
    }
  }
  return common::Status::OK();
}

int64_t MutableGraph::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

int64_t MutableGraph::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overlay_->size();
}

bool MutableGraph::backlogged() const {
  std::lock_guard<std::mutex> lock(mu_);
  return backlogged_;
}

MutableGraph::Stats MutableGraph::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.epoch = epoch_;
  s.pending = overlay_->size();
  s.applied = applied_;
  s.shed = shed_;
  s.compactions = compactions_;
  s.compaction_failures = compaction_failures_;
  s.backlogged = backlogged_;
  s.log_appends = log_appends_;
  s.log_records = log_ != nullptr ? log_->records() : 0;
  s.log_resets = log_resets_;
  s.replayed = replayed_;
  return s;
}

int64_t MutableGraph::AddEpochListener(EpochListener listener) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t token = next_listener_token_++;
  listeners_.emplace_back(token, std::move(listener));
  return token;
}

void MutableGraph::RemoveEpochListener(int64_t token) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = listeners_.begin(); it != listeners_.end(); ++it) {
      if (it->first == token) {
        listeners_.erase(it);
        break;
      }
    }
  }
  // A notification round that copied the listener list before the erase
  // above may still be invoking the removed listener. Taking notify_mu_
  // once (and releasing it immediately) waits that round out: after this
  // returns, the listener is not running and will never run again, so the
  // caller may destroy the state it captures.
  std::lock_guard<std::mutex> barrier(notify_mu_);
}

}  // namespace fairwos::graph
