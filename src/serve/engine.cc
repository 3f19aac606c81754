#include "serve/engine.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "nn/gnn.h"
#include "tensor/ops.h"

namespace fairwos::serve {
namespace {

/// Batch sizes are small integers; the default latency edges would lump
/// them all into the first bucket.
std::vector<double> BatchSizeBuckets() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256};
}

common::Status ValidateOptions(const EngineOptions& options) {
  if (options.max_batch_size < 1) {
    return common::Status::InvalidArgument("max_batch_size must be >= 1");
  }
  if (options.flush_interval_ms < 0.0) {
    return common::Status::InvalidArgument("flush_interval_ms must be >= 0");
  }
  if (options.cache_capacity < 0) {
    return common::Status::InvalidArgument("cache_capacity must be >= 0");
  }
  if (options.max_queue < 1) {
    return common::Status::InvalidArgument("max_queue must be >= 1");
  }
  if (options.per_model_quota < 0) {
    return common::Status::InvalidArgument("per_model_quota must be >= 0");
  }
  if (options.default_deadline_ms < 0.0) {
    return common::Status::InvalidArgument("default_deadline_ms must be >= 0");
  }
  if (options.leader_timeout_ms <= 0.0) {
    return common::Status::InvalidArgument("leader_timeout_ms must be > 0");
  }
  if (options.forward_retries < 0) {
    return common::Status::InvalidArgument("forward_retries must be >= 0");
  }
  return common::Status::OK();
}

std::shared_ptr<ModelRegistry> SingleModelRegistry(
    std::unique_ptr<core::FittedGnnModel> model, const std::string& model_id,
    const data::Dataset& ds) {
  auto registry = std::make_shared<ModelRegistry>(ds);
  const common::Status status = registry->Install(model_id, std::move(model));
  FW_CHECK(status.ok()) << status.ToString();
  return registry;
}

}  // namespace

common::Result<std::unique_ptr<InferenceEngine>> InferenceEngine::Load(
    const std::string& artifact_path, const data::Dataset& ds,
    EngineOptions options) {
  FW_RETURN_IF_ERROR(ValidateOptions(options));
  auto registry = std::make_shared<ModelRegistry>(ds);
  FW_ASSIGN_OR_RETURN(std::string model_id, registry->Load(artifact_path));
  auto engine = std::make_unique<InferenceEngine>(std::move(registry), options);
  engine->default_model_id_ = std::move(model_id);
  return engine;
}

InferenceEngine::InferenceEngine(std::unique_ptr<core::FittedGnnModel> model,
                                 std::string model_id, const data::Dataset& ds,
                                 EngineOptions options)
    : InferenceEngine(SingleModelRegistry(std::move(model), model_id, ds),
                      options) {
  default_model_id_ = std::move(model_id);
}

InferenceEngine::InferenceEngine(std::shared_ptr<ModelRegistry> registry,
                                 EngineOptions options)
    : registry_(std::move(registry)),
      num_nodes_(registry_->dataset().num_nodes()),
      options_(options),
      cache_(
          static_cast<size_t>(std::max<int64_t>(0, options.cache_capacity))) {
  const common::Status status = ValidateOptions(options_);
  FW_CHECK(status.ok()) << status.ToString();
  InitMetrics();
  if (options_.audit_table != nullptr) {
    auditor_ = std::make_unique<FairnessAuditor>(options_.audit_table,
                                                 options_.audit);
  }
  listener_token_ = registry_->AddInvalidationListener(
      [this](const std::string& model_id, int64_t new_generation) {
        OnInvalidation(model_id, new_generation);
      });
  if (options_.dynamic_graph != nullptr) {
    graph_epoch_ = options_.dynamic_graph->Current()->epoch();
    graph_listener_token_ = options_.dynamic_graph->AddEpochListener(
        [this](const std::shared_ptr<const graph::GraphSnapshot>& snap) {
          OnGraphEpoch(snap);
        });
  }
}

InferenceEngine::~InferenceEngine() {
  registry_->RemoveListener(listener_token_);
  if (options_.dynamic_graph != nullptr) {
    options_.dynamic_graph->RemoveEpochListener(graph_listener_token_);
  }
}

int64_t InferenceEngine::num_nodes() const {
  return options_.dynamic_graph != nullptr
             ? options_.dynamic_graph->Current()->num_nodes()
             : num_nodes_;
}

void InferenceEngine::InitMetrics() {
  auto& registry = obs::MetricsRegistry::Global();
  requests_counter_ = registry.GetCounter("serve.requests");
  batches_counter_ = registry.GetCounter("serve.batches");
  hits_counter_ = registry.GetCounter("serve.cache.hits");
  misses_counter_ = registry.GetCounter("serve.cache.misses");
  accepted_counter_ = registry.GetCounter("serve.admission.accepted");
  shed_queue_counter_ = registry.GetCounter("serve.admission.shed_queue");
  shed_quota_counter_ = registry.GetCounter("serve.admission.shed_quota");
  deadline_counter_ = registry.GetCounter("serve.admission.deadline_exceeded");
  degraded_counter_ = registry.GetCounter("serve.degraded");
  promotions_counter_ = registry.GetCounter("serve.leader_promotions");
  invalidations_counter_ = registry.GetCounter("serve.cache.invalidations");
  insert_dropped_counter_ = registry.GetCounter("serve.cache.insert_dropped");
  forward_retries_counter_ = registry.GetCounter("serve.forward.retries");
  drift_alerts_counter_ = registry.GetCounter("serve.drift.alerts");
  queue_depth_gauge_ = registry.GetGauge("serve.queue_depth");
  drift_max_z_gauge_ = registry.GetGauge("serve.drift.max_z");
  drift_samples_gauge_ = registry.GetGauge("serve.drift.samples");
  batch_size_hist_ =
      registry.GetHistogram("serve.batch_size", BatchSizeBuckets());
  latency_hist_ = registry.GetHistogram("serve.request_latency_ms");
  latency_window_ = registry.GetWindowed("serve.window.latency_ms");
  queue_wait_window_ = registry.GetWindowed("serve.window.queue_wait_ms");
  batch_size_window_ = registry.GetWindowed("serve.window.batch_size");
}

NodePrediction InferenceEngine::RowPrediction(const nn::PredictionResult& full,
                                              int64_t node) {
  NodePrediction p;
  p.node = node;
  p.label = full.pred[static_cast<size_t>(node)];
  p.prob1 = full.prob1[static_cast<size_t>(node)];
  return p;
}

void InferenceEngine::EmitRequestTelemetry(const std::string& model_id,
                                           const NodePrediction& p,
                                           double latency_ms) const {
  if (!obs::TelemetryEnabled()) return;
  obs::EmitEvent(obs::Event("serve_request")
                     .Set("model", model_id)
                     .Set("node", p.node)
                     .Set("label", p.label)
                     .Set("prob1", static_cast<double>(p.prob1))
                     .Set("cache_hit", p.cache_hit ? 1 : 0)
                     .Set("degraded", p.degraded ? 1 : 0)
                     .Set("latency_ms", latency_ms));
}

void InferenceEngine::EmitRejectTelemetry(const std::string& model_id,
                                          int64_t node,
                                          const char* reason) const {
  if (!obs::TelemetryEnabled()) return;
  obs::EmitEvent(obs::Event("serve_rejected")
                     .Set("model", model_id)
                     .Set("node", node)
                     .Set("reason", reason));
}

void InferenceEngine::OnInvalidation(const std::string& model_id,
                                     int64_t /*new_generation*/) {
  // The registry guarantees this runs outside its own mutex, so taking the
  // engine mutex here cannot deadlock against engine->registry calls.
  std::lock_guard<std::mutex> lock(mu_);
  const size_t erased = cache_.EraseIf(
      [&](const std::pair<std::string, int64_t>& key) {
        return key.first == model_id;
      });
  if (erased > 0) {
    invalidations_counter_->Increment(static_cast<int64_t>(erased));
    cache_invalidations_.fetch_add(static_cast<int64_t>(erased),
                                   std::memory_order_relaxed);
  }
  // Per-model serving state belongs to the retired generation: the drift
  // baseline and the degraded-mode fallback both restart with the new model.
  drift_.erase(model_id);
  last_good_.erase(model_id);
}

void InferenceEngine::OnGraphEpoch(
    const std::shared_ptr<const graph::GraphSnapshot>& snap) {
  // MutableGraph notifies outside its writer mutex (same discipline as the
  // registry), so taking the engine mutex here cannot deadlock.
  size_t erased = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Purge EVERY delivered snapshot's affected set, even when the epoch
    // looks stale or duplicated. The old `epoch <= graph_epoch_` early-out
    // had a staleness hole: if epoch N+1's notification overtook epoch N's,
    // N's affected set was never purged and entries cached under N-1 kept
    // serving stale predictions. Purging twice is merely redundant work,
    // and cache inserts are epoch-gated (group->graph_epoch must match),
    // so the union of all delivered affected sets closes the hole for any
    // delivery order.
    graph_epoch_ = std::max(graph_epoch_, snap->epoch());
    const std::vector<int64_t>& affected = snap->affected_nodes();
    if (!affected.empty()) {
      const std::unordered_set<int64_t> hit(affected.begin(), affected.end());
      erased = cache_.EraseIf(
          [&](const std::pair<std::string, int64_t>& key) {
            return hit.count(key.second) > 0;
          });
    }
    if (erased > 0) {
      invalidations_counter_->Increment(static_cast<int64_t>(erased));
      cache_invalidations_.fetch_add(static_cast<int64_t>(erased),
                                     std::memory_order_relaxed);
      epoch_invalidations_.fetch_add(static_cast<int64_t>(erased),
                                     std::memory_order_relaxed);
    }
  }
  if (obs::TelemetryEnabled()) {
    obs::EmitEvent(obs::Event("cache_epoch_invalidation")
                       .Set("epoch", snap->epoch())
                       .Set("affected", static_cast<int64_t>(
                                            snap->affected_nodes().size()))
                       .Set("purged", static_cast<int64_t>(erased)));
  }
}

void InferenceEngine::ObserveDriftLocked(const ModelRegistry::Entry& entry,
                                         int64_t node) {
  if (!options_.drift_monitor || entry.input_mean.empty()) return;
  const int64_t cols = static_cast<int64_t>(entry.input_mean.size());
  if (cols * num_nodes_ != static_cast<int64_t>(entry.input.data().size())) {
    return;  // stats do not describe the served matrix; nothing to audit
  }
  if (node >= num_nodes_) return;  // dynamically added node: no fit-time row
  DriftState& state = drift_[entry.model_id];
  if (state.monitor == nullptr || state.generation != entry.generation) {
    state.monitor = std::make_unique<DriftMonitor>(
        entry.input_mean, entry.input_std, options_.drift);
    state.generation = entry.generation;
  }
  state.monitor->ObserveRow(entry.input.data().data() + node * cols);
  drift_samples_gauge_->Set(static_cast<double>(state.monitor->samples()));
  drift_max_z_gauge_->Set(state.monitor->MaxZ());
  int64_t column = -1;
  double z = 0.0;
  if (state.monitor->CheckAlert(&column, &z)) {
    drift_alerts_counter_->Increment();
    drift_alerts_.fetch_add(1, std::memory_order_relaxed);
    if (obs::TelemetryEnabled()) {
      obs::EmitEvent(obs::Event("drift_alert")
                         .Set("model", entry.model_id)
                         .Set("column", column)
                         .Set("z", z)
                         .Set("samples", state.monitor->samples())
                         .Set("observed_mean", state.monitor->observed_mean(column))
                         .Set("expected_mean", state.monitor->fit_mean(column))
                         .Set("expected_std", state.monitor->fit_std(column)));
    }
  }
}

void InferenceEngine::ObserveAuditLocked(const std::string& model_id,
                                         const NodePrediction& p) {
  if (auditor_ == nullptr) return;
  auditor_->Observe(p.node, p.label);
  AuditWindowMetrics m;
  if (auditor_->CheckAlert(&m)) {
    fairness_alerts_.fetch_add(1, std::memory_order_relaxed);
    audit_alert_state_ = true;
    if (obs::TelemetryEnabled()) {
      obs::EmitEvent(obs::Event("fairness_alert")
                         .Set("model", model_id)
                         .Set("delta_sp_pct", m.delta_sp_pct)
                         .Set("delta_eo_pct", m.delta_eo_pct)
                         .Set("di", m.di)
                         .Set("window_samples", m.samples)
                         .Set("group0", m.group_total[0])
                         .Set("group1", m.group_total[1]));
    }
  } else if (audit_alert_state_ && !auditor_->alert_active()) {
    // The window recovered below threshold: the latch re-armed.
    audit_alert_state_ = false;
    if (obs::TelemetryEnabled()) {
      obs::EmitEvent(obs::Event("fairness_alert_cleared")
                         .Set("model", model_id)
                         .Set("delta_sp_pct", auditor_->Current().delta_sp_pct)
                         .Set("window_samples", auditor_->Current().samples));
    }
  }
}

InferenceEngine::GroupExecution InferenceEngine::ExecuteGroup(
    const std::string& model_id,
    std::vector<std::shared_ptr<PendingRequest>> reqs) {
  GroupExecution group;
  group.model_id = model_id;
  group.reqs = std::move(reqs);

  // Re-snapshot: the model may have been swapped (fine — serve the new
  // generation) or unloaded (fail the requests) while they sat queued.
  const std::shared_ptr<const ModelRegistry::Entry> entry =
      registry_->Get(model_id);
  if (entry == nullptr) {
    group.status = common::Status::NotFound("model '" + model_id +
                                            "' was unloaded while queued");
    return group;
  }
  group.generation = entry->generation;

  // Dynamic graphs: capture ONE immutable snapshot up front — every request
  // in the group is answered from the same epoch (adjacency and features),
  // no matter what mutations or compactions land mid-forward.
  std::shared_ptr<const graph::GraphSnapshot> snap;
  std::shared_ptr<const tensor::SparseMatrix> snap_adj;
  tensor::Tensor snap_input;
  if (options_.dynamic_graph != nullptr) {
    snap = options_.dynamic_graph->Current();
    group.graph_epoch = snap->epoch();
    if (entry->model->input_kind() ==
        core::FittedGnnModel::InputKind::kFrozen) {
      // A frozen input matrix has exactly the fit-time node rows: servable
      // over a mutated edge set, but not once the node set grew.
      if (entry->input.dim(0) != snap->num_nodes()) {
        group.status = common::Status::FailedPrecondition(
            "model '" + model_id + "' carries a frozen input matrix of " +
            std::to_string(entry->input.dim(0)) +
            " rows; the dynamic graph now has " +
            std::to_string(snap->num_nodes()) + " nodes");
        return group;
      }
      snap_input = entry->input;
    } else {
      snap_input = snap->Features();
    }
    snap_adj = snap->Operator(nn::OperatorForBackbone(
        entry->model->classifier().encoder().config().backbone));
  }

  const int64_t attempts = 1 + options_.forward_retries;
  for (int64_t attempt = 0; attempt < attempts; ++attempt) {
    if (auto* fi = testing::ActiveFaultInjector();
        fi != nullptr &&
        fi->ShouldFire(testing::FaultSite::kServeBatchForward)) {
      group.forward_faulted = true;
      group.status = common::Status::Internal(
          "batch forward for model '" + model_id + "' faulted " +
          std::to_string(attempt + 1) + " time(s)");
      if (attempt + 1 < attempts) forward_retries_counter_->Increment();
      continue;
    }
    FW_TRACE_SPAN("serve/batch");
    // The transductive forward computes every node at once; each request
    // just reads its row. This is the same RNG-free eval pass as
    // FittedGnnModel::Predict, so results are bit-identical to it.
    tensor::NoGradGuard no_grad;
    common::Rng rng(0);
    group.full =
        std::make_shared<const nn::PredictionResult>(nn::PredictFromLogits(
            snap != nullptr
                ? entry->model->classifier().ForwardWith(
                      snap_adj, snap_input, /*training=*/false, &rng)
                : entry->model->classifier().Forward(entry->input,
                                                     /*training=*/false,
                                                     &rng)));
    group.forward_faulted = false;
    group.status = common::Status::OK();
    batches_counter_->Increment();
    batches_.fetch_add(1, std::memory_order_relaxed);
    batch_size_hist_->Observe(static_cast<double>(group.reqs.size()));
    batch_size_window_->Observe(static_cast<double>(group.reqs.size()));
    break;
  }
  return group;
}

void InferenceEngine::PublishGroupLocked(GroupExecution* group) {
  if (group->full != nullptr) {
    // Cache (and remember as last-good) only when the generation that
    // computed this result is still the published one — a swap that landed
    // mid-forward must not be shadowed by the retiring model's answers.
    // Same guard for the graph epoch: a forward that read an older snapshot
    // must not re-populate entries the newer epoch already purged (its
    // answers are still served — snapshot isolation — just not remembered).
    const bool generation_current =
        registry_->generation(group->model_id) == group->generation;
    const bool epoch_current = options_.dynamic_graph == nullptr ||
                               group->graph_epoch == graph_epoch_;
    const bool cacheable = generation_current && epoch_current;
    if (cacheable) {
      last_good_[group->model_id] = LastGood{group->full, group->generation};
    }
    auto* fi = testing::ActiveFaultInjector();
    for (auto& req : group->reqs) {
      req->result = RowPrediction(*group->full, req->node);
      req->status = common::Status::OK();
      req->done = true;
      if (cacheable) {
        if (fi != nullptr &&
            fi->ShouldFire(testing::FaultSite::kServeCacheInsert)) {
          // The answer is still served; it just is not remembered.
          insert_dropped_counter_->Increment();
        } else {
          cache_.Put({group->model_id, req->node},
                     CachedValue{req->result, group->generation});
        }
      }
    }
    return;
  }

  if (group->forward_faulted) {
    // Retries exhausted: degrade to the last known good full-graph result
    // for this same generation rather than failing the requests.
    auto it = last_good_.find(group->model_id);
    if (it != last_good_.end() &&
        it->second.generation == group->generation &&
        // A last-good result from before an AddNode epoch has no rows for
        // the new nodes; rather than answer part of the group stale and
        // part not, fail the whole group over to the error path.
        std::all_of(group->reqs.begin(), group->reqs.end(),
                    [&](const std::shared_ptr<PendingRequest>& req) {
                      return req->node <
                             static_cast<int64_t>(it->second.full->pred.size());
                    })) {
      for (auto& req : group->reqs) {
        req->result = RowPrediction(*it->second.full, req->node);
        req->result.degraded = true;
        req->status = common::Status::OK();
        req->done = true;
      }
      const auto served = static_cast<int64_t>(group->reqs.size());
      degraded_counter_->Increment(served);
      degraded_.fetch_add(served, std::memory_order_relaxed);
      if (obs::TelemetryEnabled()) {
        obs::EmitEvent(obs::Event("degraded_serve")
                           .Set("model", group->model_id)
                           .Set("requests", served)
                           .Set("error", group->status.message()));
      }
      return;
    }
  }

  for (auto& req : group->reqs) {
    req->status = group->status;
    req->done = true;
  }
}

void InferenceEngine::AbandonLocked(
    const std::shared_ptr<PendingRequest>& req) {
  if (!req->queued) return;
  auto it = std::find(pending_.begin(), pending_.end(), req);
  if (it != pending_.end()) pending_.erase(it);
  req->queued = false;
  auto quota_it = pending_per_model_.find(req->model_id);
  if (quota_it != pending_per_model_.end() && --quota_it->second <= 0) {
    pending_per_model_.erase(quota_it);
  }
  queue_depth_gauge_->Set(static_cast<double>(pending_.size()));
}

void InferenceEngine::RunAsLeader(
    std::unique_lock<std::mutex>& lock,
    const std::shared_ptr<PendingRequest>& self) {
  // Give followers a chance to join the batch, bounded by the flush
  // interval; a full queue flushes immediately.
  if (static_cast<int64_t>(pending_.size()) < options_.max_batch_size &&
      options_.flush_interval_ms > 0.0) {
    batch_ready_.wait_for(
        lock,
        std::chrono::duration<double, std::milli>(options_.flush_interval_ms),
        [&] {
          return static_cast<int64_t>(pending_.size()) >=
                 options_.max_batch_size;
        });
  }
  std::vector<std::shared_ptr<PendingRequest>> batch;
  batch.swap(pending_);
  const Clock::time_point captured_at = Clock::now();
  for (auto& req : batch) {
    req->queued = false;
    queue_wait_window_->Observe(
        std::chrono::duration<double, std::milli>(captured_at - req->enqueued)
            .count());
    auto it = pending_per_model_.find(req->model_id);
    if (it != pending_per_model_.end() && --it->second <= 0) {
      pending_per_model_.erase(it);
    }
  }
  queue_depth_gauge_->Set(0.0);

  // Test hook: simulate this leader dying mid-batch. The captured requests
  // are left undone and unqueued and leader_active_ stays set — exactly the
  // wreckage a crashed thread leaves. Only the leader's own request resolves
  // (with an error), so its caller can observe the crash; every follower
  // must recover via timeout self-promotion.
  int64_t crashes = crash_next_leader_.load(std::memory_order_relaxed);
  while (crashes > 0 && !crash_next_leader_.compare_exchange_weak(
                            crashes, crashes - 1, std::memory_order_relaxed)) {
  }
  if (crashes > 0) {
    self->status = common::Status::Internal(
        "injected leader crash: batch captured but never published");
    self->done = true;
    return;
  }

  // Group by model id (deterministic order) and run one forward per model
  // outside the lock, so followers can keep queueing the next batch.
  std::map<std::string, std::vector<std::shared_ptr<PendingRequest>>>
      by_model;
  for (auto& req : batch) by_model[req->model_id].push_back(std::move(req));

  lock.unlock();
  std::vector<GroupExecution> groups;
  groups.reserve(by_model.size());
  for (auto& [model_id, reqs] : by_model) {
    groups.push_back(ExecuteGroup(model_id, std::move(reqs)));
  }
  lock.lock();

  for (auto& group : groups) PublishGroupLocked(&group);
  leader_active_ = false;
  done_.notify_all();
}

common::Result<NodePrediction> InferenceEngine::Predict(int64_t node) {
  if (default_model_id_.empty()) {
    return common::Status::FailedPrecondition(
        "engine serves a multi-model registry: Predict must name a model");
  }
  return Predict(default_model_id_, node);
}

common::Result<NodePrediction> InferenceEngine::Predict(
    const std::string& model_id, int64_t node,
    const common::Deadline* deadline_in) {
  common::Stopwatch watch;
  const int64_t servable_nodes = num_nodes();
  if (node < 0 || node >= servable_nodes) {
    return common::Status::InvalidArgument(
        "node " + std::to_string(node) + " out of range [0, " +
        std::to_string(servable_nodes) + ")");
  }
  const std::shared_ptr<const ModelRegistry::Entry> snapshot =
      registry_->Get(model_id);
  if (snapshot == nullptr) {
    return common::Status::NotFound("model '" + model_id +
                                    "' is not registered");
  }
  common::Deadline deadline =
      deadline_in != nullptr ? *deadline_in
      : options_.default_deadline_ms > 0.0
          ? common::Deadline::After(options_.default_deadline_ms / 1000.0)
          : common::Deadline::Never();

  requests_counter_->Increment();
  requests_.fetch_add(1, std::memory_order_relaxed);

  std::unique_lock<std::mutex> lock(mu_);
  ObserveDriftLocked(*snapshot, node);

  if (const CachedValue* cached = cache_.Get({model_id, node});
      cached != nullptr && cached->generation == snapshot->generation) {
    NodePrediction result = cached->prediction;
    result.cache_hit = true;
    hits_counter_->Increment();
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    ObserveAuditLocked(model_id, result);
    lock.unlock();
    const double latency_ms = watch.Millis();
    latency_hist_->Observe(latency_ms);
    latency_window_->Observe(latency_ms);
    EmitRequestTelemetry(model_id, result, latency_ms);
    return result;
  }
  misses_counter_->Increment();
  cache_misses_.fetch_add(1, std::memory_order_relaxed);

  // --- Admission control: shed rather than queue unbounded work. ---------
  if (deadline.Expired()) {
    deadline_counter_->Increment();
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    EmitRejectTelemetry(model_id, node, "deadline");
    return common::Status::DeadlineExceeded("request deadline expired: " +
                                            std::string(common::StopReasonName(deadline.reason())));
  }
  if (static_cast<int64_t>(pending_.size()) >= options_.max_queue) {
    shed_queue_counter_->Increment();
    shed_queue_.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    EmitRejectTelemetry(model_id, node, "queue_full");
    return common::Status::ResourceExhausted(
        "admission queue full (" + std::to_string(options_.max_queue) +
        " pending requests)");
  }
  if (options_.per_model_quota > 0) {
    auto it = pending_per_model_.find(model_id);
    if (it != pending_per_model_.end() &&
        it->second >= options_.per_model_quota) {
      shed_quota_counter_->Increment();
      shed_quota_.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      EmitRejectTelemetry(model_id, node, "quota");
      return common::Status::ResourceExhausted(
          "per-model quota full for '" + model_id + "' (" +
          std::to_string(options_.per_model_quota) + " pending requests)");
    }
  }
  accepted_counter_->Increment();

  auto req = std::make_shared<PendingRequest>();
  req->model_id = model_id;
  req->node = node;
  req->queued = true;
  req->enqueued = Clock::now();
  pending_.push_back(req);
  ++pending_per_model_[model_id];
  queue_depth_gauge_->Set(static_cast<double>(pending_.size()));

  const auto leader_timeout =
      std::chrono::duration<double, std::milli>(options_.leader_timeout_ms);
  while (!req->done) {
    if (deadline.Expired()) {
      // Deadlines govern waiting only: a request already captured into an
      // executing batch keeps its slot (the answer is simply dropped), but
      // one still queued is withdrawn so the batch never computes it.
      AbandonLocked(req);
      deadline_counter_->Increment();
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      EmitRejectTelemetry(model_id, node, "deadline");
      return common::Status::DeadlineExceeded("request deadline expired: " +
                                              std::string(common::StopReasonName(deadline.reason())));
    }
    if (!leader_active_) {
      leader_active_ = true;
      leader_since_ = Clock::now();
      if (!req->queued) {  // recovered from a dead leader's captured batch
        req->queued = true;
        pending_.push_back(req);
        ++pending_per_model_[req->model_id];
      }
      RunAsLeader(lock, req);
      continue;
    }
    if (static_cast<int64_t>(pending_.size()) >= options_.max_batch_size) {
      batch_ready_.notify_one();
    }
    // Followers never wait unbounded: the wait is clipped to half the
    // leader timeout (so a dead leader is noticed promptly) and to the
    // request deadline.
    double wait_ms = options_.leader_timeout_ms / 2.0;
    const double remaining_s = deadline.RemainingSeconds();
    if (remaining_s * 1000.0 < wait_ms) {
      wait_ms = std::max(0.1, remaining_s * 1000.0);
    }
    done_.wait_for(lock, std::chrono::duration<double, std::milli>(wait_ms),
                   [&] { return req->done || !leader_active_; });
    if (req->done) break;
    if (leader_active_ && Clock::now() - leader_since_ >= leader_timeout) {
      // The leader has made no progress for a full timeout: presume it
      // dead and promote ourselves. If it captured our request before
      // dying, re-queue it — duplicate execution is harmless because the
      // forward is deterministic.
      promotions_counter_->Increment();
      leader_promotions_.fetch_add(1, std::memory_order_relaxed);
      if (!req->queued) {
        req->queued = true;
        pending_.push_back(req);
        ++pending_per_model_[req->model_id];
        queue_depth_gauge_->Set(static_cast<double>(pending_.size()));
      }
      leader_since_ = Clock::now();
      RunAsLeader(lock, req);
    }
  }
  if (!req->status.ok()) {
    common::Status status = req->status;
    lock.unlock();
    return status;
  }
  NodePrediction result = req->result;
  ObserveAuditLocked(model_id, result);
  lock.unlock();

  const double latency_ms = watch.Millis();
  latency_hist_->Observe(latency_ms);
  latency_window_->Observe(latency_ms);
  EmitRequestTelemetry(model_id, result, latency_ms);
  return result;
}

common::Result<std::vector<NodePrediction>> InferenceEngine::PredictBatch(
    const std::vector<int64_t>& nodes) {
  if (default_model_id_.empty()) {
    return common::Status::FailedPrecondition(
        "engine serves a multi-model registry: PredictBatch must name a "
        "model");
  }
  return PredictBatch(default_model_id_, nodes);
}

common::Result<std::vector<NodePrediction>> InferenceEngine::PredictBatch(
    const std::string& model_id, const std::vector<int64_t>& nodes) {
  const int64_t servable_nodes = num_nodes();
  for (int64_t node : nodes) {
    if (node < 0 || node >= servable_nodes) {
      return common::Status::InvalidArgument(
          "node " + std::to_string(node) + " out of range [0, " +
          std::to_string(servable_nodes) + ")");
    }
  }
  std::vector<NodePrediction> results;
  results.reserve(nodes.size());
  const size_t chunk = static_cast<size_t>(options_.max_batch_size);
  for (size_t begin = 0; begin < nodes.size(); begin += chunk) {
    common::Stopwatch watch;
    const size_t end = std::min(nodes.size(), begin + chunk);
    const std::shared_ptr<const ModelRegistry::Entry> snapshot =
        registry_->Get(model_id);
    if (snapshot == nullptr) {
      return common::Status::NotFound("model '" + model_id +
                                      "' is not registered");
    }
    std::vector<std::shared_ptr<PendingRequest>> misses;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (size_t i = begin; i < end; ++i) {
        requests_counter_->Increment();
        requests_.fetch_add(1, std::memory_order_relaxed);
        ObserveDriftLocked(*snapshot, nodes[i]);
        const CachedValue* cached = cache_.Get({model_id, nodes[i]});
        if (cached != nullptr &&
            cached->generation == snapshot->generation) {
          NodePrediction hit = cached->prediction;
          hit.cache_hit = true;
          hits_counter_->Increment();
          cache_hits_.fetch_add(1, std::memory_order_relaxed);
          ObserveAuditLocked(model_id, hit);
          results.push_back(hit);
        } else {
          misses_counter_->Increment();
          cache_misses_.fetch_add(1, std::memory_order_relaxed);
          auto req = std::make_shared<PendingRequest>();
          req->model_id = model_id;
          req->node = nodes[i];
          misses.push_back(std::move(req));
          results.emplace_back();  // placeholder, filled below
          results.back().node = nodes[i];
        }
      }
    }
    if (!misses.empty()) {
      // PredictBatch bypasses the admission queue — the caller already owns
      // its concurrency — but shares the forward/publish path, so it gets
      // the same retries, degraded fallback, and generation-checked cache.
      GroupExecution group = ExecuteGroup(model_id, misses);
      std::unique_lock<std::mutex> lock(mu_);
      PublishGroupLocked(&group);
      size_t next_miss = 0;
      for (size_t i = begin; i < end; ++i) {
        NodePrediction& slot = results[i];
        if (slot.cache_hit) continue;
        const std::shared_ptr<PendingRequest>& req = misses[next_miss++];
        if (!req->status.ok()) return req->status;
        slot = req->result;
        ObserveAuditLocked(model_id, slot);
      }
    }
    const double latency_ms = watch.Millis();
    for (size_t i = begin; i < end; ++i) {
      latency_hist_->Observe(latency_ms);
      latency_window_->Observe(latency_ms);
      EmitRequestTelemetry(model_id, results[i], latency_ms);
    }
  }
  return results;
}

InferenceEngine::Stats InferenceEngine::stats() const {
  Stats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.shed_queue = shed_queue_.load(std::memory_order_relaxed);
  s.shed_quota = shed_quota_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.leader_promotions = leader_promotions_.load(std::memory_order_relaxed);
  s.cache_invalidations =
      cache_invalidations_.load(std::memory_order_relaxed);
  s.epoch_invalidations =
      epoch_invalidations_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.graph_epoch = graph_epoch_;
  }
  s.drift_alerts = drift_alerts_.load(std::memory_order_relaxed);
  s.fairness_alerts = fairness_alerts_.load(std::memory_order_relaxed);
  return s;
}

AuditWindowMetrics InferenceEngine::audit_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (auditor_ == nullptr) return AuditWindowMetrics{};
  return auditor_->Current();
}

bool InferenceEngine::audit_alert_active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return auditor_ != nullptr && auditor_->alert_active();
}

double InferenceEngine::audit_coverage_pct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return auditor_ != nullptr ? auditor_->CoveragePct() : 0.0;
}

}  // namespace fairwos::serve
