// Shared plumbing for the table/figure bench binaries: flag parsing into
// harness options, the paper-shaped row formatting, and the observability
// session (trace/metrics/telemetry sinks + the shared Stopwatch-based
// wall-clock summary every bench prints on exit).
#ifndef FAIRWOS_BENCH_BENCH_COMMON_H_
#define FAIRWOS_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>

#include "baselines/registry.h"
#include "common/cli.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/telemetry.h"
#include "common/threadpool.h"
#include "common/trace.h"
#include "data/synthetic.h"
#include "eval/harness.h"
#include "eval/table.h"
#include "obs/prometheus.h"

namespace fairwos::bench {

/// Knobs every bench accepts; reproduce at paper scale with --scale 1.
struct BenchOptions {
  double scale = 20.0;     // node-count divisor for the synthetic datasets
  int64_t trials = 3;      // paper: 10 repetitions
  int64_t epochs = 300;    // pre-training epochs (paper: 1000, GPU)
  uint64_t seed = 42;
  std::string backbone = "gcn";
  int64_t threads = 0;     // 0 = keep the pool default (docs/parallelism.md)
};

inline BenchOptions ParseBenchOptions(const common::CliFlags& flags) {
  BenchOptions out;
  out.scale = flags.GetDouble("scale", out.scale);
  out.trials = flags.GetInt("trials", out.trials);
  out.epochs = flags.GetInt("epochs", out.epochs);
  out.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  out.backbone = flags.GetString("backbone", out.backbone);
  out.threads = flags.GetInt("threads", out.threads);
  if (out.threads > 0) {
    common::SetGlobalThreadCount(static_cast<int>(out.threads));
  }
  return out;
}

/// Builds MethodOptions from bench options for one backbone. When a
/// dataset name is given, Fairwos uses the per-dataset α from the
/// validation grid search (paper §V-A4); pass "" for the global default.
inline baselines::MethodOptions MakeMethodOptions(
    const BenchOptions& bench, nn::Backbone backbone,
    const std::string& dataset_name = "") {
  baselines::MethodOptions options;
  options.backbone = backbone;
  options.train.epochs = bench.epochs;
  if (!dataset_name.empty()) {
    options.fairwos.alpha = baselines::RecommendedAlpha(dataset_name, backbone);
  }
  options.fairwos.finetune_lr = baselines::RecommendedFinetuneLr(backbone);
  return options;
}

/// "12.34 ± 0.56" cells for the three paper metrics.
inline std::string AccCell(const eval::AggregateMetrics& m) {
  return common::FormatMeanStd(m.acc.mean, m.acc.stddev);
}
inline std::string DspCell(const eval::AggregateMetrics& m) {
  return common::FormatMeanStd(m.dsp.mean, m.dsp.stddev);
}
inline std::string DeoCell(const eval::AggregateMetrics& m) {
  return common::FormatMeanStd(m.deo.mean, m.deo.stddev);
}

/// "3/3" (succeeded/attempted) cell for partial-failure visibility.
inline std::string TrialsCell(const eval::AggregateMetrics& m) {
  return common::StrFormat("%lld/%lld", static_cast<long long>(m.trials),
                           static_cast<long long>(m.trials + m.failed_trials));
}

/// Prints why trials failed (AggregateMetrics::failure_reasons), if any.
inline void PrintFailureReasons(const std::string& method_name,
                                const eval::AggregateMetrics& m) {
  for (const std::string& reason : m.failure_reasons) {
    std::printf("  ! %s %s\n", method_name.c_str(), reason.c_str());
  }
}

/// Observability session shared by the bench mains: parses --trace-out,
/// --profile-out, --metrics-out, --telemetry-out, and --log-level, installs
/// the sinks, and writes the export files (plus a Stopwatch wall-clock
/// summary) when destroyed at the end of the run.
class ObsSession {
 public:
  explicit ObsSession(const common::CliFlags& flags)
      : trace_out_(flags.GetString("trace-out", "")),
        profile_out_(flags.GetString("profile-out", "")),
        metrics_out_(flags.GetString("metrics-out", "")) {
    const std::string level = flags.GetString("log-level", "");
    if (!level.empty()) {
      common::SetLogLevel(DieOnErrorStatus(common::ParseLogLevel(level)));
    }
    if (!trace_out_.empty() || !profile_out_.empty()) {
      obs::TraceRecorder::Global().Enable();
    }
    const std::string telemetry_out = flags.GetString("telemetry-out", "");
    if (!telemetry_out.empty()) {
      telemetry_ = DieOnErrorStatus(obs::JsonlFileSink::Open(telemetry_out));
      obs::SetEventSink(telemetry_.get());
    }
  }

  ~ObsSession() {
    obs::SetEventSink(nullptr);
    const obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    if (!trace_out_.empty()) {
      ReportStatus(recorder.WriteChromeTrace(trace_out_), trace_out_);
    }
    if (!profile_out_.empty()) {
      ReportStatus(recorder.WriteTextProfile(profile_out_), profile_out_);
    }
    if (!metrics_out_.empty()) {
      ReportStatus(obs::WriteMetricsFile(metrics_out_), metrics_out_);
    }
    std::printf("[bench] total wall time %.1f ms\n", watch_.Millis());
  }

 private:
  template <typename T>
  static T DieOnErrorStatus(common::Result<T> result) {
    if (!result.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", result.status().ToString().c_str());
      std::abort();
    }
    return std::move(result).value();
  }

  static void ReportStatus(const common::Status& status,
                           const std::string& path) {
    if (status.ok()) {
      std::printf("[bench] wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "[bench] %s\n", status.ToString().c_str());
    }
  }

  std::string trace_out_;
  std::string profile_out_;
  std::string metrics_out_;
  std::unique_ptr<obs::JsonlFileSink> telemetry_;
  common::Stopwatch watch_;
};

/// Prints a status line and aborts on error — bench binaries fail fast.
template <typename T>
T DieOnError(common::Result<T> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

}  // namespace fairwos::bench

#endif  // FAIRWOS_BENCH_BENCH_COMMON_H_
