#include "core/train_loop.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "tensor/ops.h"

namespace fairwos::core {

common::Result<CheckpointSession> OpenCheckpoints(
    const nn::CheckpointOptions& options, std::initializer_list<int64_t> phases,
    const char* owner) {
  CheckpointSession session;
  if (!options.enabled()) return session;
  session.rotation =
      std::make_unique<nn::CheckpointRotation>(options.dir, options.keep);
  if (!options.resume) return session;
  obs::MetricsRegistry::Global().GetCounter("resume.attempts")->Increment();
  common::Result<nn::TrainState> loaded = session.rotation->LoadLatestValid();
  // NotFound: an empty checkpoint directory means a fresh start.
  if (loaded.status().code() == common::StatusCode::kNotFound) return session;
  FW_RETURN_IF_ERROR(loaded.status());
  const int64_t phase = loaded.value().phase;
  if (std::find(phases.begin(), phases.end(), phase) == phases.end()) {
    return common::Status::FailedPrecondition(
        "checkpoint phase " + std::to_string(phase) + " is not a " + owner +
        " phase");
  }
  obs::MetricsRegistry::Global().GetCounter("resume.success")->Increment();
  obs::EmitEvent(obs::Event("resume")
                     .Set("path", session.rotation->last_loaded_path())
                     .Set("phase", phase)
                     .Set("epoch", loaded.value().epoch));
  session.resume = std::move(loaded).value();
  return session;
}

common::Status StopAtDeadline(const char* phase, int64_t epoch,
                              const common::Deadline& deadline,
                              bool checkpointed, const std::string& message) {
  obs::MetricsRegistry::Global()
      .GetCounter("resume.deadline_exceeded")
      ->Increment();
  obs::EmitEvent(obs::Event("deadline_exceeded")
                     .Set("phase", phase)
                     .Set("epoch", epoch)
                     .Set("reason", common::StopReasonName(deadline.reason()))
                     .Set("checkpointed", static_cast<int64_t>(checkpointed)));
  return common::Status::DeadlineExceeded(message);
}

common::Status RunEpochs(const EpochLoop& loop, const nn::Module& model,
                         nn::Optimizer* opt, common::Rng* rng,
                         TrainDiagnostics* diag) {
  FW_CHECK(loop.deadline != nullptr);
  *diag = TrainDiagnostics{};
  int64_t start_epoch = 0;
  int64_t restored_retries = 0;
  if (loop.resume != nullptr) {
    FW_CHECK_EQ(loop.resume->phase, loop.phase.id);
    // Every section is validated against the live module before
    // RestoreParameters (which FW_CHECK-aborts on mismatch) sees it, so a
    // checkpoint from a different config surfaces as a Status.
    FW_ASSIGN_OR_RETURN(restored_retries, loop.unpack(*loop.resume));
    FW_RETURN_IF_ERROR(nn::CheckParamsCompatible(
        model.parameters(), loop.resume->params, "parameters"));
    nn::RestoreParameters(model, loop.resume->params);
    FW_RETURN_IF_ERROR(opt->ImportState(loop.resume->optimizer));
    start_epoch = loop.resume->epoch;
    diag->resumed = true;
    diag->resume_epoch = start_epoch;
  }
  // Constructed after any restore so its rollback target is the restored
  // parameters — exactly what the interrupted run's healer held committed.
  nn::SelfHealing healer(loop.recovery, model, opt, loop.phase.label);
  if (loop.resume != nullptr) {
    healer.RestoreRetries(restored_retries);
    rng->LoadState(loop.resume->rng);
  }
  const auto save = [&](int64_t next_epoch) {
    nn::TrainState st;
    st.phase = loop.phase.id;
    st.epoch = next_epoch;
    st.rng = rng->SaveState();
    st.optimizer = opt->ExportState();
    st.params = nn::SnapshotParameters(model);
    loop.pack(healer.retries(), &st);
    return loop.rotation->Save(st);
  };
  obs::WindowedHistogram* epoch_window =
      obs::MetricsRegistry::Global().GetWindowed("train.window.epoch_ms");
  obs::WindowedHistogram* grad_window =
      obs::MetricsRegistry::Global().GetWindowed("train.window.grad_norm");
  common::Status status = common::Status::OK();
  for (int64_t epoch = start_epoch; epoch < loop.epochs && status.ok();
       ++epoch) {
    if (loop.deadline->Expired()) {
      const bool checkpointed = loop.rotation != nullptr;
      if (checkpointed) status = save(epoch);
      if (status.ok()) {
        status = StopAtDeadline(loop.phase.name, epoch, *loop.deadline,
                                checkpointed,
                                std::string(loop.phase.label) +
                                    " interrupted at epoch " +
                                    std::to_string(epoch));
      }
      break;
    }
    FW_TRACE_SPAN(loop.phase.span);
    common::Stopwatch epoch_watch;
    if (loop.epochs_run != nullptr) ++*loop.epochs_run;
    opt->ZeroGrad();
    obs::Event event("epoch");
    event.Set("phase", loop.phase.name).Set("epoch", epoch);
    const double loss = loop.step(&event);
    // Gradient norms cost a full parameter sweep — only pay it when a
    // telemetry sink is attached.
    const double grad_norm = obs::TelemetryEnabled()
                                 ? nn::GlobalGradNorm(model.parameters())
                                 : 0.0;
    if (!healer.GuardedStep(loss)) {
      if (!healer.Recover()) {
        diag->aborted = true;  // the model holds the last-good parameters
        break;
      }
      continue;  // retry from the rolled-back parameters in the next epoch
    }
    healer.Commit();
    const bool stop = loop.after_commit(&event);
    epoch_window->Observe(epoch_watch.Millis());
    if (obs::TelemetryEnabled()) {
      grad_window->Observe(grad_norm);
      event.Set("grad_norm", grad_norm)
          .Set("lr", static_cast<double>(opt->lr()));
      obs::EmitEvent(event);
    }
    if (stop) break;
    if (loop.rotation != nullptr && loop.checkpoint_every > 0 &&
        (epoch + 1) % loop.checkpoint_every == 0) {
      status = save(epoch + 1);
    }
  }
  diag->retries = healer.retries();
  return status;
}

common::Status TrainClassifierPhase(
    ClassifierPhase* phase, const TrainOptions& options,
    const common::Deadline& deadline, const CheckpointSession& session,
    const data::Dataset& ds, const nn::PropagatedInput& input,
    const PenaltyFn& penalty, nn::GnnClassifier* model, common::Rng* rng,
    int64_t* epochs_run, TrainDiagnostics* diag) {
  FW_CHECK(model != nullptr);
  nn::Adam opt(model->parameters(), options.lr, 0.9f, 0.999f, 1e-8f,
               options.weight_decay);
  opt.set_max_grad_norm(options.max_grad_norm);
  auto best_snapshot = nn::SnapshotParameters(*model);
  double best_val_loss = std::numeric_limits<double>::infinity();
  int64_t since_best = 0;
  *epochs_run = 0;
  EpochLoop loop;
  loop.phase = phase->phase;
  loop.epochs = options.epochs;
  loop.deadline = &deadline;
  loop.recovery = options.recovery;
  loop.rotation = session.rotation.get();
  loop.checkpoint_every = options.checkpoint.every;
  loop.resume = session.resume ? &*session.resume : nullptr;
  loop.epochs_run = epochs_run;
  loop.step = [&](obs::Event* event) {
    tensor::Tensor h = model->Embed(input, /*training=*/true, rng);
    tensor::Tensor logits = model->Logits(h);
    tensor::Tensor ce =
        tensor::SoftmaxCrossEntropy(logits, ds.labels, ds.split.train);
    tensor::Tensor loss = ce;
    if (penalty) {
      tensor::Tensor extra = penalty(h, logits);
      if (extra.defined()) loss = tensor::Add(loss, extra);
    }
    loss.Backward();
    const double loss_total = loss.item();
    if (!phase->penalty_fields) {
      event->Set("loss_cls", ce.item());
    } else {
      event->Set("loss_total", loss_total)
          .Set("loss_cls", ce.item())
          .Set("loss_penalty", loss_total - ce.item());
    }
    return loss_total;
  };
  loop.after_commit = [&](obs::Event* event) {
    // Early stopping on validation *loss*: accuracy on small validation
    // splits is too coarsely quantised to be a stopping signal.
    const double val_loss = ValidationLoss(*model, input, ds, rng);
    event->Set("val_loss", val_loss);
    if (val_loss < best_val_loss) {
      best_val_loss = val_loss;
      best_snapshot = nn::SnapshotParameters(*model);
      since_best = 0;
      return false;
    }
    return options.patience > 0 && ++since_best >= options.patience;
  };
  loop.pack = [&](int64_t retries, nn::TrainState* st) {
    for (const tensor::Tensor& blob : phase->lead_blobs) {
      st->blobs.emplace_back(blob.data().begin(), blob.data().end());
    }
    st->blobs.insert(st->blobs.end(), best_snapshot.begin(),
                     best_snapshot.end());
    st->scalars = phase->extra_scalars;
    st->scalars.insert(st->scalars.begin(), best_val_loss);
    st->counters = phase->extra_counters;
    st->counters.insert(st->counters.begin(),
                        {since_best, *epochs_run, retries});
  };
  loop.unpack = [&](const nn::TrainState& st) -> common::Result<int64_t> {
    const size_t lead = phase->lead_blobs.size();
    if (st.blobs.size() != lead + model->parameters().size() ||
        st.scalars.size() != 1 + phase->extra_scalars.size() ||
        st.counters.size() != 3 + phase->extra_counters.size()) {
      return common::Status::FailedPrecondition(
          std::string(phase->phase.label) +
          " checkpoint has unexpected section sizes");
    }
    std::vector<std::vector<float>> saved_best(st.blobs.begin() + lead,
                                               st.blobs.end());
    FW_RETURN_IF_ERROR(nn::CheckParamsCompatible(
        model->parameters(), saved_best, "best-validation snapshot"));
    best_snapshot = std::move(saved_best);
    best_val_loss = st.scalars[0];
    phase->extra_scalars.assign(st.scalars.begin() + 1, st.scalars.end());
    since_best = st.counters[0];
    *epochs_run = st.counters[1];
    phase->extra_counters.assign(st.counters.begin() + 3, st.counters.end());
    return st.counters[2];
  };
  const common::Status status = RunEpochs(loop, *model, &opt, rng, diag);
  // Budget spent or not, the best-validation parameters are kept.
  if (status.ok()) nn::RestoreParameters(*model, best_snapshot);
  return status;
}

nn::PropagatedInput PropagateInput(const nn::GnnClassifier& model,
                                   const tensor::Tensor& x) {
  tensor::NoGradGuard no_grad;
  return model.encoder().Propagate(x);
}

nn::PredictionResult EvaluateAll(const nn::GnnClassifier& model,
                                 const nn::PropagatedInput& input,
                                 common::Rng* rng) {
  tensor::NoGradGuard no_grad;
  return nn::PredictFromLogits(model.Forward(input, /*training=*/false, rng));
}

double ValidationLoss(const nn::GnnClassifier& model,
                      const nn::PropagatedInput& input,
                      const data::Dataset& ds, common::Rng* rng) {
  tensor::NoGradGuard no_grad;
  tensor::Tensor logits = model.Forward(input, /*training=*/false, rng);
  return tensor::SoftmaxCrossEntropy(logits, ds.labels, ds.split.val).item();
}

}  // namespace fairwos::core
