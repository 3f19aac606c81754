// fairwos_cli — the command-line entry point for the library.
//
//   fairwos_cli list
//       Prints the available datasets, methods, and backbones.
//
//   fairwos_cli generate --dataset bail [--scale 20] [--seed 42] --out DIR
//       Generates a synthetic benchmark and saves it as CSVs (data/io.h).
//
//   fairwos_cli train --dataset bail | --data-dir DIR
//                     [--method fairwos] [--backbone gcn] [--alpha A]
//                     [--epochs 300] [--trials 1] [--seed 42]
//       Trains a method and prints test metrics (mean ± std over trials).
//
//   fairwos_cli audit --dataset bail | --data-dir DIR
//                     [--backbone gcn] [--trials 3] [--seed 42]
//       Runs every method in the registry and prints the comparison table.
//
//   fairwos_cli trace-report --in trace.json [--telemetry run.jsonl]
//       Summarises a Chrome-trace file written by --trace-out (span counts
//       and wall time per span name) and, optionally, a JSONL telemetry
//       stream written by --telemetry-out. Fails on malformed input, so it
//       doubles as the validator in CI.
//
//   fairwos_cli export --dataset bail | --data-dir DIR --out model.fwmodel
//                      [--method fairwos] [--backbone gcn] [--epochs 300]
//                      [--seed 42] [--model-id ID]
//       Fits one method and freezes the result as a `.fwmodel` artifact
//       (docs/serving.md): architecture config, trained parameters, and the
//       dataset's normalization statistics, in the same CRC-protected FWCP
//       envelope as training checkpoints.
//
//   fairwos_cli serve-bench --model model.fwmodel
//                           --dataset bail | --data-dir DIR
//                           [--requests 1000] [--clients 4] [--max-batch 32]
//                           [--flush-interval-ms 1.0] [--cache-capacity 1024]
//                           [--hot-fraction 0.8] [--bench-seed 1]
//                           [--overload true] [--max-queue N] [--quota N]
//                           [--deadline-ms MS] [--leader-timeout-ms MS]
//                           [--skew 4.0]
//                           [--verify true] [--json-out BENCH_serve.json]
//       Replays a synthetic request stream against the batched inference
//       engine and reports throughput, latency percentiles, and request
//       outcomes (served / shed / deadline-exceeded / degraded). --overload
//       switches to a stress profile: 16 clients, a heavy-tailed node mix,
//       an 8-deep admission queue, and 50 ms deadlines, measuring p99 and
//       shed rate under saturation. --verify bit-compares every non-degraded
//       served prediction against an in-process FittedModel::Predict over
//       the same artifact.
//
//   fairwos_cli serve-bench --audit true ... [--audit-window 128]
//                           [--audit-stride 32] [--audit-threshold-sp 25]
//                           [--audit-fraction 1.0] [--shift-at 0.5]
//                           [--snapshot-out ops.jsonl] [--snapshot-every 100]
//       Streaming-fairness-auditor drill (docs/serving.md): replays a
//       deterministic single-client stream whose group-conditional positive
//       rates are balanced (windowed dSP exactly 0), then flips group 1 to
//       all-negative at --shift-at. The bench asserts the auditor's latched
//       fairness_alert fires after the shift and within one audit window,
//       and records the detection lag in the --json-out report.
//       --snapshot-out additionally appends periodic ops snapshots
//       (serve/snapshot.h) every --snapshot-every requests.
//
//   fairwos_cli serve-bench --mutate true ... [--mutation-steps 300]
//                           [--publish-every 8] [--compact-every 64]
//                           [--max-pending 1024] [--invalidation-radius 2]
//                           [--fault-compactions 3] [--fault-deltas 2]
//                           [--mutation-log graph.fwlog]
//                           [--snapshot-out ops.jsonl]
//                           [--json-out BENCH_mutation.json]
//       Dynamic-graph chaos profile (docs/serving.md "Dynamic graphs"):
//       client threads serve a pre-drawn stream while a mutator replays a
//       drifting temporal script through graph::MutableGraph, publishing
//       epochs and compacting under injected kGraphCompaction /
//       kGraphDeltaApply faults. Every request must resolve, and after a
//       clean final compaction the served answers must be bit-identical to
//       a fresh forward over the from-scratch CSR (the bench exits
//       non-zero otherwise). Needs a dataset-feature model (e.g.
//       --method vanilla): frozen-input models cannot serve added nodes.
//       --snapshot-out appends one ops snapshot per published epoch, with
//       the mutation.*/compaction.* fields ops-report cross-checks.
//       --mutation-log attaches the durable write-ahead log (recovering
//       whatever an earlier run left in it first); the report then carries
//       refresh.* operator-patch counts and log.* append/truncate totals.
//
//   fairwos_cli mutation-replay --log graph.fwlog [--dataset toy]
//                               [--steps 200] [--publish-every 8]
//                               [--compact-every 64] [--kill-at N]
//                               [--recover true] [--digest-out FILE]
//       Kill-and-replay chaos drill (docs/serving.md "Dynamic graphs"):
//       replays a deterministic temporal script through a write-ahead-
//       logged MutableGraph. --kill-at N writes a digest of the state
//       after the Nth mutation, then dies via _Exit(137) with no shutdown
//       — the fsync'd log is all that survives. --recover replays the log
//       (base checkpoint + suffix) and writes the recovered digest; the
//       serve-chaos CI job asserts the two digest files are byte-equal.
//
//   fairwos_cli ops-report --in ops.jsonl
//       Validates and summarises an ops-snapshot JSONL stream written by
//       serve-bench --snapshot-out (or serve::OpsSnapshotter): sequence
//       integrity, request/batch totals, sliding-window latency quantiles,
//       and fairness-audit state. Fails on malformed input, so it doubles
//       as the validator in CI.
//
// Parallelism flags accepted by train and audit (docs/parallelism.md):
//   --threads N           total worker concurrency for parallel kernels and
//                         trial execution (default: the FAIRWOS_THREADS
//                         environment variable, else the hardware thread
//                         count). Results are bit-identical for any N.
//
// Observability flags accepted by train and audit (docs/observability.md):
//   --trace-out FILE      write a Chrome-trace JSON of all spans
//   --profile-out FILE    write the aggregated hierarchical text profile
//   --metrics-out FILE    write the metrics registry (.csv => CSV,
//                         .prom => Prometheus text exposition, else JSON)
//   --telemetry-out FILE  stream per-epoch training events as JSONL
//   --log-level LEVEL     debug|info|warning|error (default: info, or the
//                         FAIRWOS_LOG_LEVEL environment variable)
//
// Crash-resume flags accepted by train (docs/resume.md):
//   --checkpoint-dir DIR  rotating full-training-state checkpoints in DIR
//   --checkpoint-every N  save every N epochs (default 10; <= 0 saves only
//                         the graceful final checkpoint on interruption)
//   --keep-checkpoints N  rotation depth (default 3)
//   --resume              restart from the newest valid checkpoint in DIR
//   --max-wall-clock S    stop cleanly after S seconds at the next epoch
//                         boundary; exit code 3 signals "resumable"
//   --deadline-after-checks N
//                         deterministic test hook: expire the deadline after
//                         N polls instead of after wall-clock time
// SIGINT/SIGTERM are handled cooperatively: the run stops at the next epoch
// boundary, writes a final checkpoint when enabled, and exits with code 3.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.h"
#include "common/cli.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/telemetry.h"
#include "common/threadpool.h"
#include "common/trace.h"
#include "data/io.h"
#include "data/synthetic.h"
#include "data/temporal.h"
#include "eval/harness.h"
#include "graph/mutable_graph.h"
#include "eval/table.h"
#include "nn/checkpoint.h"
#include "obs/prometheus.h"
#include "obs/quantiles.h"
#include "serve/artifact.h"
#include "tensor/backend.h"
#include "serve/audit.h"
#include "serve/engine.h"
#include "serve/snapshot.h"

namespace fairwos::cli {
namespace {

int Fail(const common::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: fairwos_cli "
      "<list|generate|train|audit|trace-report|export|serve-bench|"
      "mutation-replay|ops-report|kernel-info> [flags]\n"
      "run with a subcommand to see its flags in the header of\n"
      "tools/fairwos_cli.cc\n");
  return 2;
}

/// Installs the requested observability sinks for the duration of a
/// subcommand and writes the export files on destruction.
class ObsSession {
 public:
  static common::Result<std::unique_ptr<ObsSession>> FromFlags(
      const common::CliFlags& flags) {
    auto session = std::unique_ptr<ObsSession>(new ObsSession());
    session->trace_out_ = flags.GetString("trace-out", "");
    session->profile_out_ = flags.GetString("profile-out", "");
    session->metrics_out_ = flags.GetString("metrics-out", "");
    if (!session->trace_out_.empty() || !session->profile_out_.empty()) {
      obs::TraceRecorder::Global().Enable();
    }
    const std::string telemetry_out = flags.GetString("telemetry-out", "");
    if (!telemetry_out.empty()) {
      FW_ASSIGN_OR_RETURN(session->telemetry_,
                          obs::JsonlFileSink::Open(telemetry_out));
      obs::SetEventSink(session->telemetry_.get());
    }
    return session;
  }

  ~ObsSession() {
    obs::SetEventSink(nullptr);
    const obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    if (!trace_out_.empty()) {
      Report(recorder.WriteChromeTrace(trace_out_), trace_out_);
    }
    if (!profile_out_.empty()) {
      Report(recorder.WriteTextProfile(profile_out_), profile_out_);
    }
    if (!metrics_out_.empty()) {
      const auto& registry = obs::MetricsRegistry::Global();
      const bool csv = metrics_out_.size() > 4 &&
                       metrics_out_.rfind(".csv") == metrics_out_.size() - 4;
      const bool prom = metrics_out_.size() > 5 &&
                        metrics_out_.rfind(".prom") == metrics_out_.size() - 5;
      Report(prom  ? obs::WritePrometheusText(metrics_out_, registry)
             : csv ? registry.WriteCsv(metrics_out_)
                   : registry.WriteJson(metrics_out_),
             metrics_out_);
    }
  }

 private:
  ObsSession() = default;

  static void Report(const common::Status& status, const std::string& path) {
    if (status.ok()) {
      std::fprintf(stderr, "wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    }
  }

  std::string trace_out_;
  std::string profile_out_;
  std::string metrics_out_;
  std::unique_ptr<obs::JsonlFileSink> telemetry_;
};

/// Sizes the global thread pool from --threads; without the flag the pool
/// keeps its default (FAIRWOS_THREADS or the hardware thread count).
void ApplyThreadsFlag(const common::CliFlags& flags) {
  const int64_t threads = flags.GetInt("threads", 0);
  if (threads > 0) common::SetGlobalThreadCount(static_cast<int>(threads));
}

/// Selects the compute backend from --simd (scalar|avx2|auto; default keeps
/// the FAIRWOS_SIMD / CPUID choice).
common::Status ApplySimdFlags(const common::CliFlags& flags) {
  if (!flags.Has("simd")) return common::Status::OK();
  FW_ASSIGN_OR_RETURN(tensor::SimdMode mode,
                      tensor::ParseSimdMode(flags.GetString("simd", "auto")));
  return tensor::SelectBackend(mode);
}

void PrintFailureReasons(const eval::AggregateMetrics& agg) {
  for (const std::string& reason : agg.failure_reasons) {
    std::printf("  failed %s\n", reason.c_str());
  }
}

common::Result<data::Dataset> ResolveDataset(const common::CliFlags& flags) {
  const std::string data_dir = flags.GetString("data-dir", "");
  if (!data_dir.empty()) return data::LoadDataset(data_dir);
  const std::string name = flags.GetString("dataset", "");
  if (name.empty()) {
    return common::Status::InvalidArgument(
        "pass --dataset <name> or --data-dir <dir>");
  }
  data::DatasetOptions options;
  options.scale = flags.GetDouble("scale", 20.0);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  return data::MakeDataset(name, options);
}

common::Result<baselines::MethodOptions> ResolveMethodOptions(
    const common::CliFlags& flags, const std::string& dataset_name) {
  baselines::MethodOptions options;
  FW_ASSIGN_OR_RETURN(options.backbone,
                      nn::ParseBackbone(flags.GetString("backbone", "gcn")));
  options.train.epochs = flags.GetInt("epochs", options.train.epochs);
  options.fairwos.alpha = flags.GetDouble(
      "alpha", baselines::RecommendedAlpha(dataset_name, options.backbone));
  options.fairwos.finetune_lr =
      baselines::RecommendedFinetuneLr(options.backbone);
  options.fairwos.counterfactual.top_k =
      flags.GetInt("k", options.fairwos.counterfactual.top_k);
  return options;
}

int List() {
  std::printf("datasets: toy");
  for (const auto& name : data::BenchmarkNames()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\nmethods:");
  for (const auto& name : baselines::KnownMethodNames()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\nbackbones: gcn gin sage gat\n");
  return 0;
}

int Generate(const common::CliFlags& flags) {
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    return Fail(common::Status::InvalidArgument("--out <dir> is required"));
  }
  auto ds_or = ResolveDataset(flags);
  if (!ds_or.ok()) return Fail(ds_or.status());
  common::Status status = data::SaveDataset(out, ds_or.value());
  if (!status.ok()) return Fail(status);
  std::printf("wrote %s: %lld nodes, %lld attrs, %lld edges\n", out.c_str(),
              static_cast<long long>(ds_or->num_nodes()),
              static_cast<long long>(ds_or->num_attrs()),
              static_cast<long long>(ds_or->graph.num_edges()));
  return 0;
}

/// --checkpoint-dir / --checkpoint-every / --keep-checkpoints / --resume.
common::Result<nn::CheckpointOptions> ResolveCheckpointOptions(
    const common::CliFlags& flags) {
  nn::CheckpointOptions ckpt;
  ckpt.dir = flags.GetString("checkpoint-dir", "");
  ckpt.every = flags.GetInt("checkpoint-every", 10);
  ckpt.keep = flags.GetInt("keep-checkpoints", 3);
  ckpt.resume = flags.GetBool("resume", false);
  if (ckpt.keep < 1) {
    return common::Status::InvalidArgument(
        "--keep-checkpoints must be >= 1, got " + std::to_string(ckpt.keep));
  }
  return ckpt;
}

/// --deadline-after-checks (deterministic test hook) wins over
/// --max-wall-clock; with neither, the deadline never fires on its own but
/// SIGINT/SIGTERM still stop the run cooperatively.
common::Deadline ResolveDeadline(const common::CliFlags& flags) {
  const int64_t checks = flags.GetInt("deadline-after-checks", -1);
  if (checks >= 0) return common::Deadline::AfterChecks(checks);
  const double wall = flags.GetDouble("max-wall-clock", 0.0);
  if (wall > 0.0) return common::Deadline::After(wall);
  return common::Deadline::Never();
}

/// The shared flag surface of every model-running subcommand (train, audit,
/// export, serve-bench), resolved in one place: --threads sizes the pool,
/// the --*-out flags open the observability session, and the checkpoint /
/// deadline flags are parsed for whichever subcommand consumes them.
struct RunOptions {
  std::unique_ptr<ObsSession> obs;
  nn::CheckpointOptions checkpoint;
  common::Deadline deadline = common::Deadline::Never();

  static common::Result<RunOptions> FromFlags(const common::CliFlags& flags) {
    ApplyThreadsFlag(flags);
    FW_RETURN_IF_ERROR(ApplySimdFlags(flags));
    RunOptions run;
    FW_ASSIGN_OR_RETURN(run.obs, ObsSession::FromFlags(flags));
    FW_ASSIGN_OR_RETURN(run.checkpoint, ResolveCheckpointOptions(flags));
    run.deadline = ResolveDeadline(flags);
    return run;
  }

  /// Stamps the checkpoint/deadline settings into a method configuration.
  /// Each copy of an AfterChecks deadline counts its own polls; with a
  /// single method per invocation only the method's copy matters.
  void Configure(baselines::MethodOptions* options) const {
    options->train.checkpoint = checkpoint;
    options->train.deadline = deadline;
    options->fairwos.checkpoint = checkpoint;
    options->fairwos.deadline = deadline;
  }
};

int Train(const common::CliFlags& flags) {
  auto run_or = RunOptions::FromFlags(flags);
  if (!run_or.ok()) return Fail(run_or.status());
  const RunOptions& run = run_or.value();
  auto ds_or = ResolveDataset(flags);
  if (!ds_or.ok()) return Fail(ds_or.status());
  const data::Dataset& ds = ds_or.value();
  auto options_or = ResolveMethodOptions(flags, ds.name);
  if (!options_or.ok()) return Fail(options_or.status());
  const nn::CheckpointOptions& ckpt = run.checkpoint;
  const common::Deadline& deadline = run.deadline;
  common::InstallSignalHandlers();
  baselines::MethodOptions options = options_or.value();
  run.Configure(&options);
  const std::string method_name = flags.GetString("method", "fairwos");
  auto method_or = baselines::MakeMethod(method_name, options);
  if (!method_or.ok()) return Fail(method_or.status());
  const int64_t trials = flags.GetInt("trials", 1);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  if (ckpt.enabled() && trials > 1) {
    std::fprintf(stderr,
                 "warning: --checkpoint-dir shares one directory across all "
                 "trials; checkpointing and --resume are only well-defined "
                 "with --trials 1\n");
  }
  auto agg_or =
      eval::RunRepeated(method_or.value().get(), ds, trials, seed, &deadline);
  if (!agg_or.ok()) {
    if (agg_or.status().code() == common::StatusCode::kDeadlineExceeded) {
      std::fprintf(stderr, "deadline exceeded: %s\n",
                   agg_or.status().ToString().c_str());
      if (ckpt.enabled()) {
        std::fprintf(stderr,
                     "resume with: --checkpoint-dir %s --resume true\n",
                     ckpt.dir.c_str());
      }
      return 3;  // distinct from generic failure: the run is resumable
    }
    return Fail(agg_or.status());
  }
  const auto& agg = agg_or.value();
  std::printf(
      "%s on %s (%lld trial(s)):\n"
      "  ACC  %s\n  F1   %s\n  AUC  %s\n  dSP  %s\n  dEO  %s\n  time "
      "%.2fs\n",
      method_or.value()->name().c_str(), ds.name.c_str(),
      static_cast<long long>(trials),
      common::FormatMeanStd(agg.acc.mean, agg.acc.stddev).c_str(),
      common::FormatMeanStd(agg.f1.mean, agg.f1.stddev).c_str(),
      common::FormatMeanStd(agg.auc.mean, agg.auc.stddev).c_str(),
      common::FormatMeanStd(agg.dsp.mean, agg.dsp.stddev).c_str(),
      common::FormatMeanStd(agg.deo.mean, agg.deo.stddev).c_str(),
      agg.seconds.mean);
  if (agg.failed_trials > 0) {
    std::printf("  %lld/%lld trial(s) failed:\n",
                static_cast<long long>(agg.failed_trials),
                static_cast<long long>(trials));
    PrintFailureReasons(agg);
  }
  if (agg.skipped_trials > 0) {
    std::printf("  %lld/%lld trial(s) skipped (deadline)\n",
                static_cast<long long>(agg.skipped_trials),
                static_cast<long long>(trials));
  }
  return 0;
}

int Audit(const common::CliFlags& flags) {
  auto run_or = RunOptions::FromFlags(flags);
  if (!run_or.ok()) return Fail(run_or.status());
  auto ds_or = ResolveDataset(flags);
  if (!ds_or.ok()) return Fail(ds_or.status());
  const data::Dataset& ds = ds_or.value();
  auto options_or = ResolveMethodOptions(flags, ds.name);
  if (!options_or.ok()) return Fail(options_or.status());
  const int64_t trials = flags.GetInt("trials", 3);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  eval::TablePrinter table(
      {"method", "ACC %", "dSP %", "dEO %", "sec"});
  for (const auto& name : baselines::KnownMethodNames()) {
    auto method_or = baselines::MakeMethod(name, options_or.value());
    if (!method_or.ok()) return Fail(method_or.status());
    auto agg_or = eval::RunRepeated(method_or.value().get(), ds, trials, seed);
    if (!agg_or.ok()) return Fail(agg_or.status());
    const auto& agg = agg_or.value();
    table.AddRow({method_or.value()->name(),
                  common::FormatMeanStd(agg.acc.mean, agg.acc.stddev),
                  common::FormatMeanStd(agg.dsp.mean, agg.dsp.stddev),
                  common::FormatMeanStd(agg.deo.mean, agg.deo.stddev),
                  common::StrFormat("%.2f", agg.seconds.mean)});
    PrintFailureReasons(agg);
  }
  std::printf("%s", table.Render().c_str());
  return 0;
}

int Export(const common::CliFlags& flags) {
  auto run_or = RunOptions::FromFlags(flags);
  if (!run_or.ok()) return Fail(run_or.status());
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    return Fail(common::Status::InvalidArgument(
        "--out <model.fwmodel> is required"));
  }
  auto ds_or = ResolveDataset(flags);
  if (!ds_or.ok()) return Fail(ds_or.status());
  const data::Dataset& ds = ds_or.value();
  auto options_or = ResolveMethodOptions(flags, ds.name);
  if (!options_or.ok()) return Fail(options_or.status());
  baselines::MethodOptions options = options_or.value();
  run_or.value().Configure(&options);
  const std::string method_name = flags.GetString("method", "fairwos");
  auto method_or = baselines::MakeMethod(method_name, options);
  if (!method_or.ok()) return Fail(method_or.status());
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  auto fitted_or = method_or.value()->Fit(ds, seed);
  if (!fitted_or.ok()) return Fail(fitted_or.status());
  const core::FittedGnnModel* gnn = fitted_or.value()->AsGnn();
  if (gnn == nullptr) {
    return Fail(common::Status::FailedPrecondition(
        method_or.value()->name() +
        " does not produce an exportable GNN model"));
  }
  serve::ModelArtifact artifact =
      serve::MakeArtifact(*gnn, ds, flags.GetString("model-id", ""));
  common::Status status = serve::SaveModelArtifact(out, artifact);
  if (!status.ok()) return Fail(status);
  int64_t total_floats = 0;
  for (const auto& p : artifact.params) {
    total_floats += static_cast<int64_t>(p.size());
  }
  std::printf("wrote %s: model %s, %zu parameter tensors (%lld floats), "
              "trained in %.2fs\n",
              out.c_str(), artifact.model_id.c_str(), artifact.params.size(),
              static_cast<long long>(total_floats),
              fitted_or.value()->train_seconds());
  return 0;
}

/// serve-bench --audit: a deterministic fairness-auditor drill. The stream
/// is drawn from (group, predicted-label) node pools so the windowed ΔSP
/// is exactly 0 at every pre-shift stride checkpoint (both groups 50%
/// predicted-positive), then a planted bias shift flips group 1 to
/// all-negative draws and ΔSP ramps at 50·m/window percent after m
/// post-shift audited samples. The bench asserts the latched
/// fairness_alert fires strictly after the shift and within one audit
/// window (+ one stride of checkpoint slack), so it is self-validating
/// under ctest/CI.
int AuditBench(const common::CliFlags& flags, const data::Dataset& ds,
               const std::string& model_path, serve::InferenceEngine& engine,
               const serve::AuditTable& table,
               const serve::AuditOptions& audit) {
  const int64_t requests = flags.GetInt("requests", 600);
  const double audit_fraction = flags.GetDouble("audit-fraction", 1.0);
  const double shift_at = flags.GetDouble("shift-at", 0.5);
  if (requests < 8) {
    return Fail(common::Status::InvalidArgument(
        "--audit needs --requests >= 8"));
  }
  if (shift_at <= 0.0 || shift_at >= 1.0) {
    return Fail(
        common::Status::InvalidArgument("--shift-at must be in (0, 1)"));
  }

  // The pattern needs each node's served label up front; the engine's
  // non-degraded answers are bit-identical to this in-process Predict.
  auto artifact_or = serve::LoadModelArtifact(model_path);
  if (!artifact_or.ok()) return Fail(artifact_or.status());
  auto model_or = serve::RestoreFittedModel(artifact_or.value(), ds);
  if (!model_or.ok()) return Fail(model_or.status());
  const nn::PredictionResult full = model_or.value()->Predict(ds);

  // (group, predicted label) pools over the audited nodes; background
  // traffic (when --audit-fraction < 1) comes from the unaudited rest.
  std::vector<int64_t> pool[2][2];
  std::vector<int64_t> unaudited;
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    if (table.Find(v) != nullptr) {
      pool[ds.sens[static_cast<size_t>(v)]][full.pred[static_cast<size_t>(v)]]
          .push_back(v);
    } else {
      unaudited.push_back(v);
    }
  }
  for (int s = 0; s < 2; ++s) {
    for (int p = 0; p < 2; ++p) {
      if (pool[s][p].empty()) {
        return Fail(common::Status::FailedPrecondition(common::StrFormat(
            "audit bench needs an audited node with sens=%d predicted=%d; "
            "train the exported model longer or raise --audit-fraction",
            s, p)));
      }
    }
  }

  // The shift lands on a full 4-draw cycle so every pre-shift stride
  // checkpoint sees both groups exactly balanced.
  const int64_t shift_pattern =
      std::max<int64_t>(4, (static_cast<int64_t>(
                                shift_at * static_cast<double>(requests)) /
                            4) *
                               4);
  if (shift_pattern < audit.window) {
    std::fprintf(stderr,
                 "warning: only %lld audited draws before the shift but the "
                 "audit window holds %lld; raise --requests or lower "
                 "--audit-window for a full-window baseline\n",
                 static_cast<long long>(shift_pattern),
                 static_cast<long long>(audit.window));
  }

  std::unique_ptr<serve::OpsSnapshotter> snapshotter;
  const std::string snapshot_out = flags.GetString("snapshot-out", "");
  const int64_t snapshot_every = flags.GetInt("snapshot-every", 100);
  if (!snapshot_out.empty()) {
    if (snapshot_every < 1) {
      return Fail(
          common::Status::InvalidArgument("--snapshot-every must be >= 1"));
    }
    auto snap_or = serve::OpsSnapshotter::Open(snapshot_out, &engine);
    if (!snap_or.ok()) return Fail(snap_or.status());
    snapshotter = std::move(snap_or.value());
  }

  // Single sequential client: the detection index is then a pure function
  // of --bench-seed, not of thread scheduling.
  common::Rng rng(static_cast<uint64_t>(flags.GetInt("bench-seed", 1)));
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(requests));
  int64_t pattern_drawn = 0;
  int64_t shift_request = -1;
  int64_t first_alert_request = -1;
  int64_t first_alert_pattern = -1;
  common::Stopwatch wall;
  for (int64_t i = 0; i < requests; ++i) {
    int64_t node;
    const bool background = audit_fraction < 1.0 && !unaudited.empty() &&
                            rng.Bernoulli(1.0 - audit_fraction);
    if (background) {
      node = unaudited[static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(unaudited.size())))];
    } else {
      const bool post_shift = pattern_drawn >= shift_pattern;
      if (post_shift && shift_request < 0) shift_request = i;
      const int64_t cyc = pattern_drawn % 4;
      const int s = cyc < 2 ? 0 : 1;
      // Pre-shift both groups alternate positive/negative; post-shift
      // group 1 only draws predicted-negative nodes.
      const int p = (post_shift && s == 1) ? 0 : (cyc % 2 == 0 ? 1 : 0);
      const std::vector<int64_t>& candidates = pool[s][p];
      node = candidates[static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(candidates.size())))];
      ++pattern_drawn;
    }
    common::Stopwatch request_watch;
    auto prediction = engine.Predict(node);
    if (!prediction.ok()) return Fail(prediction.status());
    latencies.push_back(request_watch.Millis());
    if (prediction->label != full.pred[static_cast<size_t>(node)]) {
      return Fail(common::Status::Internal(
          "served prediction for node " + std::to_string(node) +
          " diverges from in-process Predict; the planted-shift pattern "
          "is invalid"));
    }
    if (first_alert_request < 0 && engine.stats().fairness_alerts > 0) {
      first_alert_request = i;
      first_alert_pattern = pattern_drawn;
    }
    if (snapshotter != nullptr && (i + 1) % snapshot_every == 0) {
      common::Status status = snapshotter->SnapshotNow();
      if (!status.ok()) return Fail(status);
    }
  }
  const double wall_seconds = wall.Seconds();
  if (snapshotter != nullptr) {
    common::Status status = snapshotter->SnapshotNow();
    if (!status.ok()) return Fail(status);
    std::fprintf(stderr, "wrote %s (%lld snapshots)\n", snapshot_out.c_str(),
                 static_cast<long long>(snapshotter->snapshots_written()));
  }

  const serve::InferenceEngine::Stats stats = engine.stats();
  const serve::AuditWindowMetrics window = engine.audit_metrics();
  const bool detected = first_alert_request >= 0;
  const bool after_shift = detected && first_alert_pattern > shift_pattern;
  const int64_t detect_lag =
      detected ? first_alert_pattern - shift_pattern : -1;
  const bool within_window =
      detected && detect_lag <= audit.window + audit.stride;
  const double coverage_pct =
      100.0 * static_cast<double>(pattern_drawn) /
      static_cast<double>(requests);
  const obs::ExactQuantiles quantiles(std::move(latencies));

  std::printf(
      "audit bench: %lld requests (%lld audited, %.1f%% coverage) against "
      "%s in %.3fs\n"
      "  bias shift planted at audited sample %lld (request %lld)\n"
      "  fairness_alert %s%s\n"
      "  window dSP %.4f  dEO %.4f  DI %.4f  (%lld samples)\n"
      "  latency ms p50 %.4f  p90 %.4f  p99 %.4f  mean %.4f\n",
      static_cast<long long>(requests), static_cast<long long>(pattern_drawn),
      coverage_pct, engine.model_id().c_str(), wall_seconds,
      static_cast<long long>(shift_pattern),
      static_cast<long long>(shift_request),
      detected ? common::StrFormat(
                     "raised at audited sample %lld (request %lld), lag %lld",
                     static_cast<long long>(first_alert_pattern),
                     static_cast<long long>(first_alert_request),
                     static_cast<long long>(detect_lag))
                     .c_str()
               : "NOT raised",
      detected && after_shift && within_window
          ? "  [within one window]"
          : detected ? "  [OUT OF BOUNDS]" : "",
      window.delta_sp_pct, window.delta_eo_pct, window.di,
      static_cast<long long>(window.samples), quantiles.Quantile(50),
      quantiles.Quantile(90), quantiles.Quantile(99), quantiles.Mean());

  const std::string json_out = flags.GetString("json-out", "");
  if (!json_out.empty()) {
    std::ofstream json_file(json_out);
    if (!json_file) {
      return Fail(common::Status::IoError("cannot open " + json_out));
    }
    json_file << common::StrFormat(
        "{\"model\":\"%s\",\"dataset\":\"%s\",\"mode\":\"audit\","
        "\"requests\":%lld,\"wall_seconds\":%.6f,"
        "\"latency_ms\":{\"p50\":%.6f,\"p90\":%.6f,\"p99\":%.6f,"
        "\"mean\":%.6f},\"audit\":{\"window\":%lld,\"stride\":%lld,"
        "\"threshold_sp\":%.3f,\"fraction\":%.3f,\"audited\":%lld,"
        "\"coverage_pct\":%.3f,\"shift_audited\":%lld,\"shift_request\":%lld,"
        "\"first_alert_audited\":%lld,\"first_alert_request\":%lld,"
        "\"detect_lag_audited\":%lld,\"detected\":%s,"
        "\"alert_after_shift\":%s,\"detected_within_window\":%s,"
        "\"fairness_alerts\":%lld,\"delta_sp_final\":%.6f,"
        "\"delta_eo_final\":%.6f,\"di_final\":%.6f,\"window_samples\":%lld,"
        "\"snapshots\":%lld}}\n",
        engine.model_id().c_str(), ds.name.c_str(),
        static_cast<long long>(requests), wall_seconds,
        quantiles.Quantile(50), quantiles.Quantile(90),
        quantiles.Quantile(99), quantiles.Mean(),
        static_cast<long long>(audit.window),
        static_cast<long long>(audit.stride), audit.delta_sp_threshold_pct,
        audit_fraction, static_cast<long long>(pattern_drawn), coverage_pct,
        static_cast<long long>(shift_pattern),
        static_cast<long long>(shift_request),
        static_cast<long long>(first_alert_pattern),
        static_cast<long long>(first_alert_request),
        static_cast<long long>(detect_lag), detected ? "true" : "false",
        after_shift ? "true" : "false", within_window ? "true" : "false",
        static_cast<long long>(stats.fairness_alerts),
        window.delta_sp_pct, window.delta_eo_pct, window.di,
        static_cast<long long>(window.samples),
        static_cast<long long>(
            snapshotter != nullptr ? snapshotter->snapshots_written() : 0));
    std::fprintf(stderr, "wrote %s\n", json_out.c_str());
  }

  if (!detected) {
    return Fail(common::Status::Internal(
        "planted bias shift was never detected: fairness_alert did not "
        "fire"));
  }
  if (!after_shift) {
    return Fail(common::Status::Internal(
        "fairness_alert fired before the planted shift (false positive)"));
  }
  if (!within_window) {
    return Fail(common::Status::Internal(common::StrFormat(
        "fairness_alert lag %lld audited samples exceeds one window + "
        "stride (%lld)",
        static_cast<long long>(detect_lag),
        static_cast<long long>(audit.window + audit.stride))));
  }
  return 0;
}

/// serve-bench --mutate: interleaved mutation + inference traffic over a
/// dynamic graph, with compaction (and optionally delta-apply) faults
/// injected mid-run. Client threads replay a pre-drawn node stream while a
/// mutator thread replays a drifting temporal script (data/temporal.h),
/// publishing epochs and compacting on a fixed cadence. Every inference
/// request must resolve (served, shed, or deadline-expired — never hang or
/// error); a failed compaction must leave the previous snapshot serving.
/// After traffic drains, the faults are disarmed, a final compaction must
/// succeed, and the bench replays every node through the engine and
/// bit-compares against a forward over a freshly materialized CSR — the
/// post-compaction bit-identity verdict written to --json-out.
int MutateBench(const common::CliFlags& flags, const data::Dataset& ds,
                const std::string& model_path,
                serve::EngineOptions engine_options) {
  const int64_t requests = flags.GetInt("requests", 2000);
  const int64_t clients = flags.GetInt("clients", 4);
  const int64_t steps = flags.GetInt("mutation-steps", 300);
  const int64_t publish_every = flags.GetInt("publish-every", 8);
  const int64_t compact_every = flags.GetInt("compact-every", 64);
  const int64_t max_pending = flags.GetInt("max-pending", 1024);
  const int64_t radius = flags.GetInt("invalidation-radius", 2);
  // Fault budget: how many compaction / delta-apply probes fire (count-
  // limited so the run recovers and the exhaustion telemetry of
  // docs/robustness.md is exercised too). 0 disables that site.
  const int64_t fault_compactions = flags.GetInt("fault-compactions", 3);
  const int64_t fault_deltas = flags.GetInt("fault-deltas", 2);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("bench-seed", 1));
  if (requests < 1 || clients < 1 || steps < 1 || publish_every < 1 ||
      compact_every < 1 || max_pending < 1 || radius < 0 ||
      fault_compactions < 0 || fault_deltas < 0) {
    return Fail(common::Status::InvalidArgument(
        "--mutate profile flags must be positive (faults and radius >= 0)"));
  }

  graph::MutableGraphOptions graph_options;
  graph_options.max_pending = max_pending;
  graph_options.invalidation_radius = radius;
  auto base_graph = std::make_shared<const graph::Graph>(ds.graph);
  // --mutation-log attaches the durable write-ahead log: every applied
  // mutation is fsync'd before it lands in the overlay, compactions
  // truncate the log behind a base checkpoint, and a rerun with the same
  // path replays whatever a crash left acknowledged.
  const std::string mutation_log = flags.GetString("mutation-log", "");
  std::shared_ptr<graph::MutableGraph> mutable_graph;
  int64_t recovered_mutations = 0;
  if (!mutation_log.empty()) {
    auto recovered_or = graph::MutableGraph::Recover(
        base_graph, ds.features, mutation_log, graph_options);
    if (!recovered_or.ok()) return Fail(recovered_or.status());
    mutable_graph = std::move(recovered_or.value());
    recovered_mutations = mutable_graph->stats().replayed;
  } else {
    mutable_graph = std::make_shared<graph::MutableGraph>(
        base_graph, ds.features, graph_options);
  }
  engine_options.dynamic_graph = mutable_graph;

  auto engine_or = serve::InferenceEngine::Load(model_path, ds, engine_options);
  if (!engine_or.ok()) return Fail(engine_or.status());
  serve::InferenceEngine& engine = *engine_or.value();

  // --snapshot-out streams one ops snapshot per publish (plus one at each
  // end of the run), so the mutation.*/compaction.* fields land in a
  // sequence `fairwos_cli ops-report` can cross-check.
  std::unique_ptr<serve::OpsSnapshotter> snapshotter;
  const std::string snapshot_out = flags.GetString("snapshot-out", "");
  if (!snapshot_out.empty()) {
    auto snap_or = serve::OpsSnapshotter::Open(snapshot_out, &engine);
    if (!snap_or.ok()) return Fail(snap_or.status());
    snapshotter = std::move(snap_or.value());
    (void)snapshotter->SnapshotNow();
  }

  // The verify pass needs the model restored against the ORIGINAL dataset
  // (artifact stats describe the fit-time matrix); it must read the mutated
  // features from the dataset, so frozen-input models cannot take AddNode.
  auto artifact_or = serve::LoadModelArtifact(model_path);
  if (!artifact_or.ok()) return Fail(artifact_or.status());
  auto model_or = serve::RestoreFittedModel(artifact_or.value(), ds);
  if (!model_or.ok()) return Fail(model_or.status());
  const core::FittedGnnModel& model = *model_or.value();

  data::TemporalOptions temporal;
  temporal.num_steps = steps;
  auto script_or = data::GenerateTemporalScript(ds, temporal, seed);
  if (!script_or.ok()) return Fail(script_or.status());
  const data::TemporalScript& script = script_or.value();
  if (!script.added_node_groups.empty() &&
      model.input_kind() == core::FittedGnnModel::InputKind::kFrozen) {
    return Fail(common::Status::FailedPrecondition(
        "the mutate profile adds nodes, which a frozen-input model cannot "
        "serve; export a dataset-feature model (e.g. --method vanilla)"));
  }

  // Pre-drawn inference stream over the base node ids (always servable, no
  // matter how far the mutator has advanced).
  common::Rng rng(seed + 1);
  std::vector<int64_t> stream(static_cast<size_t>(requests));
  const int64_t hot_nodes = std::min<int64_t>(64, ds.num_nodes());
  const double hot_fraction = flags.GetDouble("hot-fraction", 0.8);
  for (auto& node : stream) {
    node = rng.Bernoulli(hot_fraction) ? rng.UniformInt(hot_nodes)
                                       : rng.UniformInt(ds.num_nodes());
  }

  testing::FaultInjector injector(seed);
  if (fault_compactions > 0) {
    injector.Arm(testing::FaultSite::kGraphCompaction, /*at_visit=*/0,
                 /*count=*/fault_compactions, /*every=*/2);
  }
  if (fault_deltas > 0) {
    injector.Arm(testing::FaultSite::kGraphDeltaApply, /*at_visit=*/5,
                 /*count=*/fault_deltas, /*every=*/7);
  }

  enum class Outcome : uint8_t { kNone = 0, kOk, kShed, kDeadline };
  std::vector<serve::NodePrediction> results(stream.size());
  std::vector<Outcome> outcomes(stream.size(), Outcome::kNone);
  std::vector<double> latencies(stream.size(), 0.0);
  std::atomic<bool> failed{false};
  std::atomic<bool> mutator_failed{false};
  int64_t mutations_applied = 0, mutations_shed = 0, mutations_faulted = 0;
  int64_t publishes = 0, compact_attempts = 0, compact_failures = 0;
  std::vector<double> compact_pause_ms;  // successful compactions only
  common::Stopwatch wall;
  double mutator_seconds = 0.0;
  {
    testing::ScopedFaultInjector scoped(&injector);
    std::thread mutator([&] {
      common::Stopwatch mutator_watch;
      for (size_t i = 0; i < script.events.size(); ++i) {
        const common::Status status = mutable_graph->Apply(script.events[i]);
        if (status.ok()) {
          ++mutations_applied;
        } else if (status.code() == common::StatusCode::kResourceExhausted) {
          ++mutations_shed;  // overlay full: the latched backlog incident
        } else if (status.code() == common::StatusCode::kInternal) {
          ++mutations_faulted;  // injected delta-apply fault, overlay intact
        } else {
          std::fprintf(stderr, "mutation %zu rejected: %s\n", i,
                       status.ToString().c_str());
          mutator_failed.store(true);
          return;
        }
        if ((i + 1) % static_cast<size_t>(publish_every) == 0) {
          mutable_graph->Publish();
          ++publishes;
          if (snapshotter != nullptr) (void)snapshotter->SnapshotNow();
        }
        if ((i + 1) % static_cast<size_t>(compact_every) == 0) {
          common::Stopwatch compact_watch;
          ++compact_attempts;
          const common::Status compacted = mutable_graph->Compact();
          if (compacted.ok()) {
            compact_pause_ms.push_back(compact_watch.Millis());
          } else {
            ++compact_failures;  // injected: previous snapshot keeps serving
          }
        }
      }
      mutable_graph->Publish();
      ++publishes;
      mutator_seconds = mutator_watch.Seconds();
    });
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(clients));
    for (int64_t c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        const int64_t begin = c * requests / clients;
        const int64_t end = (c + 1) * requests / clients;
        for (int64_t i = begin; i < end; ++i) {
          common::Stopwatch request_watch;
          auto prediction = engine.Predict(stream[static_cast<size_t>(i)]);
          if (prediction.ok()) {
            latencies[static_cast<size_t>(i)] = request_watch.Millis();
            results[static_cast<size_t>(i)] = prediction.value();
            outcomes[static_cast<size_t>(i)] = Outcome::kOk;
          } else if (prediction.status().code() ==
                     common::StatusCode::kResourceExhausted) {
            outcomes[static_cast<size_t>(i)] = Outcome::kShed;
          } else if (prediction.status().code() ==
                     common::StatusCode::kDeadlineExceeded) {
            outcomes[static_cast<size_t>(i)] = Outcome::kDeadline;
          } else {
            std::fprintf(stderr, "request %lld failed: %s\n",
                         static_cast<long long>(i),
                         prediction.status().ToString().c_str());
            failed.store(true);
            return;
          }
        }
      });
    }
    for (auto& worker : workers) worker.join();
    mutator.join();
  }
  const double wall_seconds = wall.Seconds();
  if (failed.load()) {
    return Fail(common::Status::Internal(
        "a mutate-bench inference request failed (did not resolve)"));
  }
  if (mutator_failed.load()) {
    return Fail(common::Status::Internal(
        "the mutator rejected a scripted mutation that must be valid"));
  }
  int64_t served = 0, shed = 0, deadline_exceeded = 0, degraded = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    switch (outcomes[i]) {
      case Outcome::kOk:
        ++served;
        if (results[i].degraded) ++degraded;
        break;
      case Outcome::kShed:
        ++shed;
        break;
      case Outcome::kDeadline:
        ++deadline_exceeded;
        break;
      case Outcome::kNone:
        return Fail(common::Status::Internal(
            "request " + std::to_string(i) + " never resolved"));
    }
  }
  if (fault_compactions > 0 &&
      injector.fires(testing::FaultSite::kGraphCompaction) == 0) {
    return Fail(common::Status::Internal(
        "the armed compaction faults never fired: the chaos profile did "
        "not exercise compaction (raise --mutation-steps or lower "
        "--compact-every)"));
  }

  // Faults are now disarmed: the final compaction must succeed, and the
  // compacted graph must serve bit-identically to a fresh-built CSR.
  mutable_graph->Publish();
  const common::Status final_compact = mutable_graph->Compact();
  if (!final_compact.ok()) {
    return Fail(common::Status::Internal(
        "the clean final compaction failed: " + final_compact.ToString()));
  }
  const std::shared_ptr<const graph::GraphSnapshot> snapshot =
      mutable_graph->Current();
  const graph::MutableGraph::Stats graph_stats = mutable_graph->stats();
  if (snapshotter != nullptr) {
    const common::Status last = snapshotter->SnapshotNow();
    if (!last.ok()) return Fail(last);
  }

  // Ground truth: one forward over the from-scratch CSR + merged features,
  // through the exact operators the backbone serves with.
  bool bit_identical = true;
  int64_t verified_nodes = 0;
  {
    const std::shared_ptr<const graph::Graph> fresh = snapshot->Materialized();
    const tensor::Tensor fresh_features = snapshot->Features();
    tensor::NoGradGuard no_grad;
    common::Rng forward_rng(0);
    const nn::PredictionResult truth = nn::PredictFromLogits(
        model.classifier().ForwardWith(
            nn::AdjacencyForBackbone(
                model.classifier().encoder().config().backbone, *fresh),
            fresh_features, /*training=*/false, &forward_rng));
    std::vector<int64_t> all_nodes(
        static_cast<size_t>(snapshot->num_nodes()));
    std::iota(all_nodes.begin(), all_nodes.end(), 0);
    auto replay_or = engine.PredictBatch(all_nodes);
    if (!replay_or.ok()) return Fail(replay_or.status());
    for (const serve::NodePrediction& p : replay_or.value()) {
      ++verified_nodes;
      if (p.degraded ||
          p.label != truth.pred[static_cast<size_t>(p.node)] ||
          p.prob1 != truth.prob1[static_cast<size_t>(p.node)]) {
        bit_identical = false;
        std::fprintf(stderr,
                     "bit-identity violation at node %lld (degraded=%d)\n",
                     static_cast<long long>(p.node), p.degraded ? 1 : 0);
      }
    }
  }

  std::vector<double> served_latencies;
  served_latencies.reserve(static_cast<size_t>(served));
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i] == Outcome::kOk) served_latencies.push_back(latencies[i]);
  }
  const obs::ExactQuantiles latency_q(std::move(served_latencies));
  const obs::ExactQuantiles pause_q{std::vector<double>(compact_pause_ms)};
  const double mutation_throughput =
      static_cast<double>(mutations_applied) /
      std::max(mutator_seconds, 1e-9);
  const serve::InferenceEngine::Stats stats = engine.stats();

  std::printf(
      "mutate bench: %lld/%lld requests served (%lld clients) against %s "
      "in %.3fs\n"
      "  shed %lld  deadline-exceeded %lld  degraded %lld\n"
      "  mutations %lld applied, %lld shed, %lld faulted  "
      "(%.1f mutations/s)\n"
      "  epochs %lld  publishes %lld  compactions %lld ok / %lld failed "
      "(+1 final)\n"
      "  compaction pause ms p50 %.4f  p99 %.4f\n"
      "  cache invalidations: %lld epoch-driven of %lld total\n"
      "  operator refresh: %lld incremental, %lld rebuilt\n"
      "  mutation log: %lld appends, %lld truncations, %lld replayed\n"
      "  latency ms p50 %.4f  p99 %.4f\n"
      "  post-compaction bit-identity: %s (%lld nodes)\n",
      static_cast<long long>(served), static_cast<long long>(requests),
      static_cast<long long>(clients), engine.model_id().c_str(),
      wall_seconds, static_cast<long long>(shed),
      static_cast<long long>(deadline_exceeded),
      static_cast<long long>(degraded),
      static_cast<long long>(mutations_applied),
      static_cast<long long>(mutations_shed),
      static_cast<long long>(mutations_faulted), mutation_throughput,
      static_cast<long long>(graph_stats.epoch),
      static_cast<long long>(publishes),
      static_cast<long long>(compact_attempts - compact_failures),
      static_cast<long long>(compact_failures), pause_q.Quantile(50),
      pause_q.Quantile(99), static_cast<long long>(stats.epoch_invalidations),
      static_cast<long long>(stats.cache_invalidations),
      static_cast<long long>(obs::MetricsRegistry::Global()
                                 .GetCounter("graph.ops.incremental")
                                 ->value()),
      static_cast<long long>(obs::MetricsRegistry::Global()
                                 .GetCounter("graph.ops.rebuilt")
                                 ->value()),
      static_cast<long long>(graph_stats.log_appends),
      static_cast<long long>(graph_stats.log_resets),
      static_cast<long long>(recovered_mutations), latency_q.Quantile(50),
      latency_q.Quantile(99), bit_identical ? "PASS" : "FAIL",
      static_cast<long long>(verified_nodes));

  const std::string json_out =
      flags.GetString("json-out", "BENCH_mutation.json");
  if (!json_out.empty()) {
    std::ofstream json_file(json_out);
    if (!json_file) {
      return Fail(common::Status::IoError("cannot open " + json_out));
    }
    json_file << common::StrFormat(
        "{\"model\":\"%s\",\"dataset\":\"%s\",\"mode\":\"mutate\","
        "\"requests\":%lld,\"served\":%lld,\"shed\":%lld,"
        "\"deadline_exceeded\":%lld,\"degraded\":%lld,\"clients\":%lld,"
        "\"wall_seconds\":%.6f,"
        "\"latency_ms\":{\"p50\":%.6f,\"p99\":%.6f},"
        "\"mutation\":{\"steps\":%lld,\"applied\":%lld,\"shed\":%lld,"
        "\"faulted\":%lld,\"throughput_mps\":%.3f,\"epochs\":%lld,"
        "\"publishes\":%lld,\"backlogged\":%s},"
        "\"compaction\":{\"attempts\":%lld,\"failures\":%lld,"
        "\"injected_faults\":%lld,\"pause_ms\":{\"p50\":%.6f,\"p99\":%.6f}},"
        "\"cache_invalidations\":{\"epoch\":%lld,\"total\":%lld},"
        "\"refresh\":{\"ops_incremental\":%lld,\"ops_rebuilt\":%lld},"
        "\"log\":{\"enabled\":%s,\"appends\":%lld,\"truncations\":%lld,"
        "\"replayed\":%lld,\"pending_records\":%lld},"
        "\"fault_exhausted_reports\":%lld,"
        "\"verified_nodes\":%lld,\"bit_identical\":%s}\n",
        engine.model_id().c_str(), ds.name.c_str(),
        static_cast<long long>(requests), static_cast<long long>(served),
        static_cast<long long>(shed),
        static_cast<long long>(deadline_exceeded),
        static_cast<long long>(degraded), static_cast<long long>(clients),
        wall_seconds, latency_q.Quantile(50), latency_q.Quantile(99),
        static_cast<long long>(steps),
        static_cast<long long>(mutations_applied),
        static_cast<long long>(mutations_shed),
        static_cast<long long>(mutations_faulted), mutation_throughput,
        static_cast<long long>(graph_stats.epoch),
        static_cast<long long>(publishes),
        graph_stats.backlogged ? "true" : "false",
        static_cast<long long>(compact_attempts),
        static_cast<long long>(compact_failures),
        static_cast<long long>(
            injector.fires(testing::FaultSite::kGraphCompaction)),
        pause_q.Quantile(50), pause_q.Quantile(99),
        static_cast<long long>(stats.epoch_invalidations),
        static_cast<long long>(stats.cache_invalidations),
        static_cast<long long>(obs::MetricsRegistry::Global()
                                   .GetCounter("graph.ops.incremental")
                                   ->value()),
        static_cast<long long>(obs::MetricsRegistry::Global()
                                   .GetCounter("graph.ops.rebuilt")
                                   ->value()),
        mutation_log.empty() ? "false" : "true",
        static_cast<long long>(graph_stats.log_appends),
        static_cast<long long>(graph_stats.log_resets),
        static_cast<long long>(recovered_mutations),
        static_cast<long long>(graph_stats.log_records),
        static_cast<long long>(obs::MetricsRegistry::Global()
                                   .GetCounter("fault.exhausted")
                                   ->value()),
        static_cast<long long>(verified_nodes),
        bit_identical ? "true" : "false");
    std::fprintf(stderr, "wrote %s\n", json_out.c_str());
  }

  if (!bit_identical) {
    return Fail(common::Status::Internal(
        "post-compaction serving diverges from the fresh-built CSR"));
  }
  return 0;
}

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Order-independent fingerprint of everything a snapshot serves from:
/// node/edge counts, the sorted adjacency of every node, the merged
/// feature matrix, and the raw CSR buffers of all five backbone operators.
/// Two runs that digest equal are byte-identical as far as serving can
/// tell — the comparison the kill-and-replay drill gates on.
uint64_t SnapshotDigest(const graph::GraphSnapshot& snap) {
  uint64_t hash = 1469598103934665603ull;
  const int64_t nodes = snap.num_nodes();
  const int64_t edges = snap.num_edges();
  hash = Fnv1a(&nodes, sizeof(nodes), hash);
  hash = Fnv1a(&edges, sizeof(edges), hash);
  for (int64_t u = 0; u < nodes; ++u) {
    std::vector<int64_t> neighbors = snap.Neighbors(u);
    std::sort(neighbors.begin(), neighbors.end());
    hash = Fnv1a(neighbors.data(), neighbors.size() * sizeof(int64_t), hash);
  }
  const tensor::Tensor features = snap.Features();
  hash = Fnv1a(features.data().data(), features.data().size() * sizeof(float),
               hash);
  const std::shared_ptr<const tensor::SparseMatrix> ops[] = {
      snap.GcnNormalizedAdjacency(),    snap.PlainAdjacency(),
      snap.RowNormalizedAdjacency(),    snap.AdjacencyWithSelfLoops(),
      snap.NeighborMeanAdjacency()};
  for (const auto& op : ops) {
    hash = Fnv1a(op->row_ptr().data(), op->row_ptr().size() * sizeof(int64_t),
                 hash);
    hash = Fnv1a(op->col_idx().data(), op->col_idx().size() * sizeof(int64_t),
                 hash);
    hash = Fnv1a(op->values().data(), op->values().size() * sizeof(float),
                 hash);
  }
  return hash;
}

int WriteDigest(const std::string& path,
                const graph::GraphSnapshot& snap) {
  const uint64_t digest = SnapshotDigest(snap);
  std::printf("digest %016llx (epoch %lld, %lld nodes, %lld edges)\n",
              static_cast<unsigned long long>(digest),
              static_cast<long long>(snap.epoch()),
              static_cast<long long>(snap.num_nodes()),
              static_cast<long long>(snap.num_edges()));
  if (path.empty()) return 0;
  std::ofstream out(path);
  if (!out) return Fail(common::Status::IoError("cannot open " + path));
  out << common::StrFormat("nodes %lld\nedges %lld\ndigest %016llx\n",
                           static_cast<long long>(snap.num_nodes()),
                           static_cast<long long>(snap.num_edges()),
                           static_cast<unsigned long long>(digest));
  out.flush();
  if (!out) return Fail(common::Status::IoError("short write to " + path));
  return 0;
}

/// mutation-replay: the kill-and-replay chaos drill behind the serve-chaos
/// CI job. A run without --recover replays a deterministic temporal script
/// through a write-ahead-logged MutableGraph, publishing and compacting on
/// a cadence; --kill-at N writes the state digest after the Nth applied
/// mutation and dies with std::_Exit(137) — no destructors, no final
/// compaction, exactly what kill -9 leaves behind (the log's fsync'd
/// envelope is the only survivor). A later run with --recover replays the
/// log (base checkpoint + suffix) and writes the recovered digest; the two
/// digest files must be byte-identical. Operators are built on every
/// published epoch, so the pre-kill digest covers incrementally refreshed
/// matrices while the recovered side rebuilds from scratch — the digest
/// equality is an end-to-end bit-identity check of the refresh path too.
int MutationReplay(const common::CliFlags& flags) {
  const std::string log_path = flags.GetString("log", "");
  if (log_path.empty()) {
    return Fail(
        common::Status::InvalidArgument("--log <path.fwlog> is required"));
  }
  const int64_t steps = flags.GetInt("steps", 200);
  const int64_t publish_every = flags.GetInt("publish-every", 8);
  const int64_t compact_every = flags.GetInt("compact-every", 64);
  const int64_t max_pending = flags.GetInt("max-pending", 4096);
  const int64_t kill_at = flags.GetInt("kill-at", -1);
  const bool recover = flags.GetBool("recover", false);
  const std::string digest_out = flags.GetString("digest-out", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("bench-seed", 1));
  if (steps < 1 || publish_every < 1 || compact_every < 1 ||
      max_pending < steps) {
    return Fail(common::Status::InvalidArgument(
        "--steps/--publish-every/--compact-every must be positive and "
        "--max-pending >= --steps (the script must never shed)"));
  }

  auto ds_or = ResolveDataset(flags);
  if (!ds_or.ok()) return Fail(ds_or.status());
  const data::Dataset& ds = ds_or.value();
  graph::MutableGraphOptions options;
  options.max_pending = max_pending;
  auto graph_or = graph::MutableGraph::Recover(
      std::make_shared<const graph::Graph>(ds.graph), ds.features, log_path,
      options);
  if (!graph_or.ok()) return Fail(graph_or.status());
  graph::MutableGraph& g = *graph_or.value();

  if (recover) {
    std::printf("recovered %lld mutations from %s\n",
                static_cast<long long>(g.stats().replayed), log_path.c_str());
    return WriteDigest(digest_out, *g.Current());
  }

  data::TemporalOptions temporal;
  temporal.num_steps = steps;
  auto script_or = data::GenerateTemporalScript(ds, temporal, seed);
  if (!script_or.ok()) return Fail(script_or.status());
  int64_t applied = 0;
  for (const graph::GraphMutation& m : script_or.value().events) {
    const common::Status status = g.Apply(m);
    if (!status.ok()) {
      return Fail(common::Status::Internal(
          "scripted mutation " + std::to_string(applied) +
          " rejected: " + status.ToString()));
    }
    ++applied;
    if (applied % publish_every == 0) {
      const auto snap = g.Publish();
      snap->GcnNormalizedAdjacency();  // exercise the incremental refresh
    }
    if (kill_at >= 0 && applied == kill_at) {
      g.Publish();
      const int rc = WriteDigest(digest_out, *g.Current());
      if (rc != 0) return rc;
      std::fprintf(stderr,
                   "killed after %lld mutations (exit 137, no shutdown)\n",
                   static_cast<long long>(applied));
      std::fflush(nullptr);
      std::_Exit(137);  // kill -9 semantics: the fsync'd log is all that survives
    }
    if (applied % compact_every == 0) {
      const common::Status compacted = g.Compact();
      if (!compacted.ok()) return Fail(compacted);
    }
  }
  g.Publish();
  std::printf("applied %lld mutations (%lld logged, %lld log truncations)\n",
              static_cast<long long>(applied),
              static_cast<long long>(g.stats().log_appends),
              static_cast<long long>(g.stats().log_resets));
  return WriteDigest(digest_out, *g.Current());
}

int ServeBench(const common::CliFlags& flags) {
  auto run_or = RunOptions::FromFlags(flags);
  if (!run_or.ok()) return Fail(run_or.status());
  const std::string model_path = flags.GetString("model", "");
  if (model_path.empty()) {
    return Fail(common::Status::InvalidArgument(
        "--model <model.fwmodel> is required"));
  }
  auto ds_or = ResolveDataset(flags);
  if (!ds_or.ok()) return Fail(ds_or.status());
  const data::Dataset& ds = ds_or.value();

  // --overload flips the defaults into a stress profile: many clients, a
  // tight admission queue, and per-request deadlines, so the bench measures
  // load-shedding behavior instead of steady-state latency. Every explicit
  // flag still wins over the profile's defaults.
  const bool overload = flags.GetBool("overload", false);

  serve::EngineOptions engine_options;
  engine_options.max_batch_size = flags.GetInt("max-batch", 32);
  engine_options.flush_interval_ms = flags.GetDouble("flush-interval-ms", 1.0);
  engine_options.cache_capacity =
      flags.GetInt("cache-capacity", overload ? 64 : 1024);
  engine_options.max_queue = flags.GetInt("max-queue", overload ? 8 : 1024);
  engine_options.per_model_quota = flags.GetInt("quota", 0);
  engine_options.default_deadline_ms =
      flags.GetDouble("deadline-ms", overload ? 50.0 : 0.0);
  engine_options.leader_timeout_ms =
      flags.GetDouble("leader-timeout-ms", 200.0);

  // --mutate: dynamic-graph chaos profile (MutateBench above) — the engine
  // is rebuilt there with a MutableGraph attached.
  if (flags.GetBool("mutate", false)) {
    return MutateBench(flags, ds, model_path, engine_options);
  }

  // --audit: attach a fairness auditor and switch to the planted-shift
  // drill (AuditBench above) instead of the load/latency profiles.
  const bool audit = flags.GetBool("audit", false);
  std::shared_ptr<const serve::AuditTable> audit_table;
  if (audit) {
    engine_options.audit.window = flags.GetInt("audit-window", 128);
    engine_options.audit.stride = flags.GetInt("audit-stride", 32);
    engine_options.audit.min_audited =
        std::min(engine_options.audit.window, engine_options.audit.stride);
    engine_options.audit.delta_sp_threshold_pct =
        flags.GetDouble("audit-threshold-sp", 25.0);
    const double fraction = flags.GetDouble("audit-fraction", 1.0);
    if (fraction <= 0.0 || fraction > 1.0) {
      return Fail(common::Status::InvalidArgument(
          "--audit-fraction must be in (0, 1]"));
    }
    const uint64_t seed = static_cast<uint64_t>(flags.GetInt("bench-seed", 1));
    audit_table = std::make_shared<const serve::AuditTable>(
        fraction >= 1.0
            ? serve::AuditTable::FromDataset(ds)
            : serve::AuditTable::SampleFromDataset(ds, fraction, seed));
    engine_options.audit_table = audit_table;
  }

  auto engine_or = serve::InferenceEngine::Load(model_path, ds, engine_options);
  if (!engine_or.ok()) return Fail(engine_or.status());
  serve::InferenceEngine& engine = *engine_or.value();
  if (audit) {
    return AuditBench(flags, ds, model_path, engine, *audit_table,
                      engine_options.audit);
  }

  const int64_t requests = flags.GetInt("requests", overload ? 2000 : 1000);
  const int64_t clients = flags.GetInt("clients", overload ? 16 : 4);
  const double hot_fraction = flags.GetDouble("hot-fraction", 0.8);
  const double skew = flags.GetDouble("skew", 4.0);
  if (requests < 1 || clients < 1) {
    return Fail(common::Status::InvalidArgument(
        "--requests and --clients must be >= 1"));
  }
  if (hot_fraction < 0.0 || hot_fraction > 1.0) {
    return Fail(common::Status::InvalidArgument(
        "--hot-fraction must be in [0, 1]"));
  }
  if (skew < 1.0) {
    return Fail(common::Status::InvalidArgument("--skew must be >= 1"));
  }

  // Pre-drawn request stream, deterministic in --bench-seed and independent
  // of client count. Steady state: a small hot working set (exercises the
  // LRU) mixed with uniform cold traffic (exercises batching). Overload: a
  // heavy-tailed power-law mix — a few very hot nodes plus a long cold tail
  // that defeats the (shrunken) cache and keeps the queue saturated.
  common::Rng rng(static_cast<uint64_t>(flags.GetInt("bench-seed", 1)));
  const int64_t hot_nodes = std::min<int64_t>(64, engine.num_nodes());
  std::vector<int64_t> stream(static_cast<size_t>(requests));
  for (auto& node : stream) {
    if (overload) {
      const double u = rng.Uniform();
      node = std::min<int64_t>(
          engine.num_nodes() - 1,
          static_cast<int64_t>(static_cast<double>(engine.num_nodes()) *
                               std::pow(u, skew)));
    } else {
      node = rng.Bernoulli(hot_fraction) ? rng.UniformInt(hot_nodes)
                                         : rng.UniformInt(engine.num_nodes());
    }
  }

  // Per-request outcome: answered, shed at admission, or deadline-expired.
  // Anything else is a bench failure — no request may hang or error out.
  enum class Outcome : uint8_t { kNone = 0, kOk, kShed, kDeadline };
  std::vector<serve::NodePrediction> results(stream.size());
  std::vector<double> latencies(stream.size(), 0.0);
  std::vector<Outcome> outcomes(stream.size(), Outcome::kNone);
  std::atomic<bool> failed{false};
  common::Stopwatch wall;
  {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(clients));
    for (int64_t c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        const int64_t begin = c * requests / clients;
        const int64_t end = (c + 1) * requests / clients;
        for (int64_t i = begin; i < end; ++i) {
          common::Stopwatch request_watch;
          auto prediction = engine.Predict(stream[static_cast<size_t>(i)]);
          if (prediction.ok()) {
            latencies[static_cast<size_t>(i)] = request_watch.Millis();
            results[static_cast<size_t>(i)] = prediction.value();
            outcomes[static_cast<size_t>(i)] = Outcome::kOk;
          } else if (prediction.status().code() ==
                     common::StatusCode::kResourceExhausted) {
            outcomes[static_cast<size_t>(i)] = Outcome::kShed;
          } else if (prediction.status().code() ==
                     common::StatusCode::kDeadlineExceeded) {
            outcomes[static_cast<size_t>(i)] = Outcome::kDeadline;
          } else {
            failed.store(true);
            return;
          }
        }
      });
    }
    for (auto& worker : workers) worker.join();
  }
  const double wall_seconds = wall.Seconds();
  if (failed.load()) {
    return Fail(common::Status::Internal("a serve-bench request failed"));
  }

  int64_t served = 0, shed = 0, deadline_exceeded = 0, degraded = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    switch (outcomes[i]) {
      case Outcome::kOk:
        ++served;
        if (results[i].degraded) ++degraded;
        break;
      case Outcome::kShed:
        ++shed;
        break;
      case Outcome::kDeadline:
        ++deadline_exceeded;
        break;
      case Outcome::kNone:
        return Fail(common::Status::Internal(
            "request " + std::to_string(i) + " never resolved"));
    }
  }

  // --verify: every non-degraded served prediction must be bit-identical
  // to an in-process FittedModel::Predict over the same artifact.
  const bool verify = flags.GetBool("verify", false);
  if (verify) {
    auto artifact_or = serve::LoadModelArtifact(model_path);
    if (!artifact_or.ok()) return Fail(artifact_or.status());
    auto model_or = serve::RestoreFittedModel(artifact_or.value(), ds);
    if (!model_or.ok()) return Fail(model_or.status());
    const nn::PredictionResult full = model_or.value()->Predict(ds);
    for (size_t i = 0; i < stream.size(); ++i) {
      if (outcomes[i] != Outcome::kOk || results[i].degraded) continue;
      const size_t node = static_cast<size_t>(stream[i]);
      if (results[i].label != full.pred[node] ||
          results[i].prob1 != full.prob1[node]) {
        return Fail(common::Status::Internal(
            "served prediction for node " + std::to_string(stream[i]) +
            " diverges from in-process Predict"));
      }
    }
  }

  std::vector<double> served_latencies;
  served_latencies.reserve(static_cast<size_t>(served));
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i] == Outcome::kOk) served_latencies.push_back(latencies[i]);
  }
  const obs::ExactQuantiles quantiles(std::move(served_latencies));
  const auto percentile = [&quantiles](double p) {
    return quantiles.Quantile(p);
  };
  const double mean_ms = quantiles.Mean();
  const double throughput =
      static_cast<double>(requests) / std::max(wall_seconds, 1e-9);
  const double shed_rate =
      static_cast<double>(shed) / static_cast<double>(requests);
  const serve::InferenceEngine::Stats stats = engine.stats();

  std::printf(
      "served %lld/%lld requests (%lld clients) against %s in %.3fs\n"
      "  throughput %.1f req/s  shed %lld (%.1f%%)  deadline-exceeded %lld  "
      "degraded %lld\n"
      "  latency ms p50 %.4f  p90 %.4f  p99 %.4f  mean %.4f\n"
      "  batches %lld  cache hits %lld  misses %lld%s\n",
      static_cast<long long>(served), static_cast<long long>(requests),
      static_cast<long long>(clients), engine.model_id().c_str(), wall_seconds,
      throughput, static_cast<long long>(shed), 100.0 * shed_rate,
      static_cast<long long>(deadline_exceeded),
      static_cast<long long>(degraded), percentile(50), percentile(90),
      percentile(99), mean_ms, static_cast<long long>(stats.batches),
      static_cast<long long>(stats.cache_hits),
      static_cast<long long>(stats.cache_misses),
      verify ? "  (verified bit-identical)" : "");

  const std::string json_out = flags.GetString("json-out", "");
  if (!json_out.empty()) {
    std::ofstream json_file(json_out);
    if (!json_file) {
      return Fail(common::Status::IoError("cannot open " + json_out));
    }
    json_file << common::StrFormat(
        "{\"model\":\"%s\",\"dataset\":\"%s\",\"requests\":%lld,"
        "\"served\":%lld,\"clients\":%lld,\"overload\":%s,"
        "\"wall_seconds\":%.6f,\"throughput_rps\":%.3f,"
        "\"latency_ms\":{\"p50\":%.6f,\"p90\":%.6f,\"p99\":%.6f,"
        "\"mean\":%.6f},\"batches\":%lld,\"cache_hits\":%lld,"
        "\"cache_misses\":%lld,\"shed\":%lld,\"shed_rate\":%.6f,"
        "\"deadline_exceeded\":%lld,\"degraded\":%lld,\"verified\":%s}\n",
        engine.model_id().c_str(), ds.name.c_str(),
        static_cast<long long>(requests), static_cast<long long>(served),
        static_cast<long long>(clients), overload ? "true" : "false",
        wall_seconds, throughput, percentile(50), percentile(90),
        percentile(99), mean_ms, static_cast<long long>(stats.batches),
        static_cast<long long>(stats.cache_hits),
        static_cast<long long>(stats.cache_misses),
        static_cast<long long>(shed), shed_rate,
        static_cast<long long>(deadline_exceeded),
        static_cast<long long>(degraded), verify ? "true" : "false");
    std::fprintf(stderr, "wrote %s\n", json_out.c_str());
  }
  return 0;
}

/// Pulls the value of a `"key":"string"` or `"key":number` field out of one
/// JSON object line. Tolerant of field order; returns false when absent.
bool ExtractJsonString(const std::string& line, const std::string& key,
                       std::string* out) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const size_t begin = pos + needle.size();
  size_t end = begin;
  while (end < line.size() && line[end] != '"') {
    end += line[end] == '\\' ? 2 : 1;  // skip escaped characters
  }
  if (end >= line.size()) return false;
  *out = line.substr(begin, end - begin);
  return true;
}

bool ExtractJsonNumber(const std::string& line, const std::string& key,
                       double* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  size_t end = pos + needle.size();
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  auto parsed = common::ParseDouble(
      line.substr(pos + needle.size(), end - (pos + needle.size())));
  if (!parsed.ok()) return false;
  *out = parsed.value();
  return true;
}

/// Summarises a --trace-out file (and optionally a --telemetry-out stream):
/// span counts and wall time per name, event counts per event name. Returns
/// an error on malformed input so ctest can use it as a validator.
int TraceReport(const common::CliFlags& flags) {
  const std::string in = flags.GetString("in", "");
  if (in.empty()) {
    return Fail(common::Status::InvalidArgument("--in <trace.json> is required"));
  }
  std::ifstream trace_file(in);
  if (!trace_file) {
    return Fail(common::Status::IoError("cannot open " + in));
  }
  struct SpanAgg {
    int64_t count = 0;
    double total_ms = 0.0;
  };
  std::map<std::string, SpanAgg> spans;
  std::string line;
  bool saw_header = false;
  while (std::getline(trace_file, line)) {
    if (line.find("\"traceEvents\"") != std::string::npos) saw_header = true;
    std::string name;
    if (!ExtractJsonString(line, "name", &name)) continue;
    double dur_us = 0.0;
    if (!ExtractJsonNumber(line, "dur", &dur_us)) {
      return Fail(common::Status::InvalidArgument(
          in + ": span '" + name + "' has no \"dur\" field"));
    }
    SpanAgg& agg = spans[name];
    ++agg.count;
    agg.total_ms += dur_us / 1e3;
  }
  if (!saw_header) {
    return Fail(common::Status::InvalidArgument(
        in + " is not a fairwos Chrome-trace file (no \"traceEvents\" key)"));
  }
  if (spans.empty()) {
    return Fail(common::Status::InvalidArgument(in + " contains no spans"));
  }
  eval::TablePrinter span_table({"span", "count", "total ms", "mean ms"});
  for (const auto& [name, agg] : spans) {
    span_table.AddRow({name, std::to_string(agg.count),
                       common::StrFormat("%.3f", agg.total_ms),
                       common::StrFormat("%.6f", agg.total_ms /
                                                     static_cast<double>(
                                                         agg.count))});
  }
  std::printf("%s", span_table.Render().c_str());

  const std::string telemetry = flags.GetString("telemetry", "");
  if (!telemetry.empty()) {
    std::ifstream events_file(telemetry);
    if (!events_file) {
      return Fail(common::Status::IoError("cannot open " + telemetry));
    }
    std::map<std::string, int64_t> events;
    int64_t line_no = 0;
    while (std::getline(events_file, line)) {
      ++line_no;
      if (line.empty()) continue;
      std::string name;
      if (line.front() != '{' || line.back() != '}' ||
          !ExtractJsonString(line, "event", &name)) {
        return Fail(common::Status::InvalidArgument(
            telemetry + ":" + std::to_string(line_no) +
            ": not a JSONL telemetry event"));
      }
      ++events[name];
    }
    if (events.empty()) {
      return Fail(
          common::Status::InvalidArgument(telemetry + " contains no events"));
    }
    eval::TablePrinter event_table({"event", "count"});
    for (const auto& [name, count] : events) {
      event_table.AddRow({name, std::to_string(count)});
    }
    std::printf("\n%s", event_table.Render().c_str());
  }
  return 0;
}

/// Validates and summarises an ops-snapshot JSONL stream written by
/// serve::OpsSnapshotter (e.g. via serve-bench --snapshot-out). Every line
/// must be a {"event":"ops_snapshot",...} object with a contiguous seq
/// starting at 0; malformed streams fail, so ctest/CI can use this as the
/// snapshot validator.
int OpsReport(const common::CliFlags& flags) {
  const std::string in = flags.GetString("in", "");
  if (in.empty()) {
    return Fail(
        common::Status::InvalidArgument("--in <ops.jsonl> is required"));
  }
  std::ifstream file(in);
  if (!file) return Fail(common::Status::IoError("cannot open " + in));

  int64_t line_no = 0;
  int64_t snapshots = 0;
  int64_t alert_snapshots = 0;
  double last_seq = -1.0;
  double last_uptime = 0.0, last_requests = 0.0, last_batches = 0.0;
  double last_degraded = 0.0, last_drift = 0.0, last_fairness = 0.0;
  double last_delta_sp = 0.0, max_delta_sp = 0.0;
  double last_coverage = 0.0;
  bool saw_audit = false;
  double last_p50 = 0.0, last_p99 = 0.0;
  bool saw_latency_window = false;
  bool saw_mutation = false;
  double last_epoch = 0.0, last_pending = 0.0, last_applied = 0.0;
  double last_shed = 0.0, last_backlog = 0.0;
  double last_compactions = 0.0, last_compaction_failed = 0.0;
  std::string line;
  while (std::getline(file, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::string where = in + ":" + std::to_string(line_no);
    std::string event;
    if (line.front() != '{' || line.back() != '}' ||
        !ExtractJsonString(line, "event", &event)) {
      return Fail(common::Status::InvalidArgument(
          where + ": not a JSONL snapshot object"));
    }
    if (event != "ops_snapshot") {
      return Fail(common::Status::InvalidArgument(
          where + ": unexpected event '" + event + "'"));
    }
    double seq = 0.0;
    if (!ExtractJsonNumber(line, "seq", &seq)) {
      return Fail(
          common::Status::InvalidArgument(where + ": missing \"seq\""));
    }
    if (seq != last_seq + 1.0) {
      return Fail(common::Status::InvalidArgument(common::StrFormat(
          "%s: non-contiguous seq %.0f after %.0f (truncated or interleaved "
          "stream)",
          where.c_str(), seq, last_seq)));
    }
    last_seq = seq;
    ++snapshots;
    if (!ExtractJsonNumber(line, "uptime_ms", &last_uptime) ||
        !ExtractJsonNumber(line, "requests", &last_requests)) {
      return Fail(common::Status::InvalidArgument(
          where + ": missing \"uptime_ms\" or \"requests\""));
    }
    ExtractJsonNumber(line, "batches", &last_batches);
    ExtractJsonNumber(line, "degraded", &last_degraded);
    ExtractJsonNumber(line, "drift_alerts", &last_drift);
    ExtractJsonNumber(line, "fairness_alerts", &last_fairness);
    double value = 0.0;
    if (ExtractJsonNumber(line, "serve.audit.delta_sp", &value)) {
      saw_audit = true;
      last_delta_sp = value;
      max_delta_sp = std::max(max_delta_sp, value);
      ExtractJsonNumber(line, "serve.audit.coverage_pct", &last_coverage);
    }
    if (ExtractJsonNumber(line, "fairness_alert", &value) && value > 0.0) {
      ++alert_snapshots;
    }
    if (ExtractJsonNumber(line, "serve.window.latency_ms.p50", &last_p50)) {
      saw_latency_window = true;
      ExtractJsonNumber(line, "serve.window.latency_ms.p99", &last_p99);
    }
    // Dynamic-graph fields travel as one group: once a stream carries
    // mutation.epoch, every snapshot from then on must carry the whole set
    // (the sampler writes them together; a gap means a torn or doctored
    // stream), and the monotone counters must never run backwards.
    double epoch = 0.0;
    const bool has_mutation = ExtractJsonNumber(line, "mutation.epoch", &epoch);
    if (saw_mutation && !has_mutation) {
      return Fail(common::Status::InvalidArgument(common::StrFormat(
          "%s: snapshot seq %.0f dropped \"mutation.epoch\" present earlier "
          "in the stream",
          where.c_str(), seq)));
    }
    if (has_mutation) {
      double pending = 0.0, applied = 0.0, shed = 0.0, backlog = 0.0;
      double compactions = 0.0, compaction_failed = 0.0;
      const struct {
        const char* key;
        double* out;
      } required[] = {
          {"mutation.pending", &pending},
          {"mutation.applied", &applied},
          {"mutation.shed", &shed},
          {"mutation.backlog", &backlog},
          {"compaction.count", &compactions},
          {"compaction.failed", &compaction_failed},
      };
      for (const auto& field : required) {
        if (!ExtractJsonNumber(line, field.key, field.out)) {
          return Fail(common::Status::InvalidArgument(common::StrFormat(
              "%s: snapshot seq %.0f has \"mutation.epoch\" but is missing "
              "\"%s\"",
              where.c_str(), seq, field.key)));
        }
      }
      if (saw_mutation) {
        const struct {
          const char* key;
          double prev;
          double now;
        } monotone[] = {
            {"mutation.epoch", last_epoch, epoch},
            {"mutation.applied", last_applied, applied},
            {"mutation.shed", last_shed, shed},
            {"compaction.count", last_compactions, compactions},
            {"compaction.failed", last_compaction_failed, compaction_failed},
        };
        for (const auto& field : monotone) {
          if (field.now < field.prev) {
            return Fail(common::Status::InvalidArgument(common::StrFormat(
                "%s: snapshot seq %.0f: \"%s\" went backwards (%.0f after "
                "%.0f)",
                where.c_str(), seq, field.key, field.now, field.prev)));
          }
        }
      }
      saw_mutation = true;
      last_epoch = epoch;
      last_pending = pending;
      last_applied = applied;
      last_shed = shed;
      last_backlog = backlog;
      last_compactions = compactions;
      last_compaction_failed = compaction_failed;
    }
  }
  if (snapshots == 0) {
    return Fail(
        common::Status::InvalidArgument(in + " contains no snapshots"));
  }

  std::printf(
      "ops report: %lld snapshot(s), seq 0..%lld, uptime %.1f ms\n"
      "  requests %.0f  batches %.0f  degraded %.0f  drift alerts %.0f\n",
      static_cast<long long>(snapshots), static_cast<long long>(last_seq),
      last_uptime, last_requests, last_batches, last_degraded, last_drift);
  if (saw_latency_window) {
    std::printf("  window latency ms (last snapshot): p50 %.4f  p99 %.4f\n",
                last_p50, last_p99);
  }
  if (saw_audit) {
    std::printf(
        "  audit dSP %% last %.4f  max %.4f  coverage %.1f%%\n"
        "  fairness alerts %.0f  alert snapshots %lld/%lld\n",
        last_delta_sp, max_delta_sp, last_coverage, last_fairness,
        static_cast<long long>(alert_snapshots),
        static_cast<long long>(snapshots));
  } else {
    std::printf("  (no fairness audit in this stream)\n");
  }
  if (saw_mutation) {
    std::printf(
        "  graph epoch %.0f  pending %.0f  applied %.0f  shed %.0f  "
        "backlog %s\n"
        "  compactions %.0f (failed %.0f)\n",
        last_epoch, last_pending, last_applied, last_shed,
        last_backlog > 0.0 ? "LATCHED" : "clear", last_compactions,
        last_compaction_failed);
  }
  return 0;
}

/// `kernel-info`: which compute backend dispatch selected and why — CPU
/// features and requested mode. With --json the same facts print as a
/// single machine-readable object.
int KernelInfo(const common::CliFlags& flags) {
  if (common::Status status = ApplySimdFlags(flags); !status.ok()) {
    return Fail(status);
  }
  const tensor::BackendInfo info = tensor::ActiveBackendInfo();
  if (flags.GetBool("json", false)) {
    std::printf(
        "{\"backend\":\"%s\",\"requested\":\"%s\",\"cpu_features\":\"%s\","
        "\"avx2_supported\":%s}\n",
        info.active.c_str(), info.requested_mode.c_str(),
        info.cpu_features.c_str(), info.avx2_supported ? "true" : "false");
    return 0;
  }
  std::printf("backend:           %s\n", info.active.c_str());
  std::printf("requested mode:    %s\n", info.requested_mode.c_str());
  std::printf("cpu features:      %s\n", info.cpu_features.c_str());
  std::printf("avx2+fma capable:  %s\n", info.avx2_supported ? "yes" : "no");
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  auto flags_or = common::CliFlags::Parse(argc - 1, argv + 1);
  if (!flags_or.ok()) return Fail(flags_or.status());
  const std::string log_level = flags_or.value().GetString("log-level", "");
  if (!log_level.empty()) {
    auto level_or = common::ParseLogLevel(log_level);
    if (!level_or.ok()) return Fail(level_or.status());
    common::SetLogLevel(level_or.value());
  }
  if (command == "list") return List();
  if (command == "generate") return Generate(flags_or.value());
  if (command == "train") return Train(flags_or.value());
  if (command == "audit") return Audit(flags_or.value());
  if (command == "trace-report") return TraceReport(flags_or.value());
  if (command == "export") return Export(flags_or.value());
  if (command == "serve-bench") return ServeBench(flags_or.value());
  if (command == "mutation-replay") return MutationReplay(flags_or.value());
  if (command == "ops-report") return OpsReport(flags_or.value());
  if (command == "kernel-info") return KernelInfo(flags_or.value());
  return Usage();
}

}  // namespace
}  // namespace fairwos::cli

int main(int argc, char** argv) { return fairwos::cli::Main(argc, argv); }
