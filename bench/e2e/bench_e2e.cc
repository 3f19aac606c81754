// End-to-end benchmark: four workloads that time training (FitFairwos +
// Predict) and serving (InferenceEngine under open- and closed-loop load,
// with and without a mutating graph), and a traced mode that splits the
// same work by layer. README.md in this directory explains the workloads
// and every metric.
//
//   bench_e2e --workload train-exact|train-pokec|serve-cold|serve-churn|all
//             [--seed 42] [--seconds 10] [--trace 0|1]
//             [--json-out FILE] [--trace-out FILE] [--commit SHA] [--smoke]
//
// Every metric is printed by name with its unit. The last line of stdout is
// one JSON object {"correct", "attempted", "failed", "metrics"}; the exit
// code is non-zero when a correctness gate fails.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <stop_token>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../bench_common.h"
#include "common/string_util.h"
#include "core/counterfactual.h"
#include "core/encoder.h"
#include "core/fairwos.h"
#include "data/temporal.h"
#include "fairness/metrics.h"
#include "graph/mutable_graph.h"
#include "serve/artifact.h"
#include "serve/engine.h"
#include "tensor/backend.h"
#include "tensor/ops.h"

namespace fairwos::bench_e2e {
namespace {

using Clock = std::chrono::steady_clock;
using bench::DieOnError;

constexpr int kOpenLoopSenders = 4;
constexpr int kClosedLoopCallers = 4;
constexpr int64_t kHotSetSize = 64;
constexpr double kMutationsPerSecond = 50.0;
constexpr int64_t kPublishEvery = 8;
constexpr int64_t kCompactEvery = 256;
constexpr int64_t kGraphProbeSteps = 256;
constexpr int kProbeCalls = 10;

/// One benchmark workload. Every workload trains and serves: the train-*
/// workloads time the fit and serve their model only in the traced run; the
/// serve-* workloads fit a short model during set-up and time serving.
struct Workload {
  std::string name;
  std::string dataset;
  double scale = 1.0;
  bool serving = false;  // the timed phase is serving, not the fit
  int64_t encoder_epochs = 0;
  int64_t pretrain_epochs = 0;
  int64_t finetune_epochs = 0;
  bool exact_search = false;  // Eq. 12 over every node, not 512 x 1024
  double rate_rps = 0.0;      // open-loop Poisson arrival rate
  double hot_fraction = 0.0;  // share of requests for a 64-node hot set
  bool churn = false;         // a mutator thread edits the graph
  int setup_reps = 1;         // set-ups per run; setup_s is their median
  int threads = 1;            // kernel pool size
};

/// The train-* schedule (encoder 50 / pre-train 200 / fine-tune 15 epochs,
/// 15 being the paper's fine-tune count) keeps one fit near two seconds, so
/// a run holds several reps. Training runs on one pool thread and serving
/// on four: README.md gives the measured run-to-run spreads behind both
/// choices and behind the arrival rates.
std::vector<Workload> Workloads(bool smoke) {
  std::vector<Workload> out = {
      {"train-exact", "bail", 12.0, false, 50, 200, 15, true, 200.0, 0.0,
       false, 5, 1},
      {"train-pokec", "pokec-z", 20.0, false, 50, 200, 15, false, 200.0, 0.0,
       false, 5, 1},
      {"serve-cold", "pokec-z", 5.0, true, 10, 20, 2, false, 250.0, 0.0,
       false, 3, 4},
      {"serve-churn", "pokec-z", 5.0, true, 10, 20, 2, false, 300.0, 0.8,
       true, 3, 4},
  };
  if (smoke) {
    for (Workload& w : out) {
      w.dataset = "toy";
      w.scale = 1.0;
      w.encoder_epochs = 5;
      w.pretrain_epochs = 10;
      w.finetune_epochs = 2;
      w.setup_reps = 1;
    }
  }
  return out;
}

// --- Metric tables ----------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Reported by the untraced run (--trace 0) of every workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"p50_ms", "ms"},
    {"p90_ms", "ms"},
    {"throughput_per_s", "1/s"},
};

/// Reported by the traced run (--trace 1) of every workload.
constexpr MetricSpec kPerLayer[] = {
    {"cf.search_ms", "ms"},
    {"cf.pairs", "count"},
    {"cf.pairs_per_us", "1/us"},
    {"cf.full_slot_ratio", "ratio"},
    {"phase.fit_ms", "ms"},
    {"phase.encoder_ms", "ms"},
    {"phase.pretrain_ms", "ms"},
    {"phase.finetune_ms", "ms"},
    {"phase.cf_search_ms", "ms"},
    {"phase.finetune_other_ms", "ms"},
    {"phase.cf_share", "ratio"},
    {"phase.encoder_epochs", "count"},
    {"phase.pretrain_epochs", "count"},
    {"phase.finetune_epochs", "count"},
    {"gnn.forward_ms", "ms"},
    {"gnn.forward_calls", "count"},
    {"optim.step_ms", "ms"},
    {"autograd.backward_ms", "ms"},
    {"kernel.gemm_ms", "ms"},
    {"kernel.gemm_gflops", "GFLOP/s"},
    {"kernel.spmm_ms", "ms"},
    {"kernel.spmm_gbs", "GB/s"},
    {"arena.bytes_reserved", "bytes"},
    {"arena.oversize_allocs", "count"},
    {"mem.peak_rss_mb", "MB"},
    {"pool.parallel_for_calls", "count"},
    {"pool.chunks", "count"},
    {"serve.forward_ms", "ms"},
    {"serve.batches", "count"},
    {"serve.batch_size_mean", "count"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.batch_ms", "ms"},
    {"serve.epoch_invalidations", "count"},
    {"graph.apply_us_p50", "us"},
    {"graph.apply_us_p99", "us"},
    {"graph.publish_ms_p50", "ms"},
    {"graph.publish_ms_p99", "ms"},
    {"graph.compact_ms", "ms"},
    {"graph.ops_incremental", "count"},
    {"graph.ops_rebuilt", "count"},
    {"data.generate_ms", "ms"},
    {"loadgen.sent", "count"},
    {"loadgen.late_p99_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

// --- Small helpers ----------------------------------------------------------

/// Ordered JSON object writer for the result files.
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    return Raw(key, std::isfinite(v) ? common::StrFormat("%.10g", v) : "null");
  }
  Json& Int(const std::string& key, int64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  Json& Str(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  Json& Obj(const std::string& key, const Json& v) {
    return Raw(key, v.Render());
  }
  Json& Nums(const std::string& key, const std::vector<double>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      out += common::StrFormat("%s%.10g", i == 0 ? "" : ", ", v[i]);
    }
    return Raw(key, out + "]");
  }
  Json& Strs(const std::string& key, const std::vector<std::string>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      out += (i == 0 ? "" : ", ") + Quote(v[i]);
    }
    return Raw(key, out + "]");
  }
  Json& Raw(const std::string& key, const std::string& rendered) {
    fields_.emplace_back(key, rendered);
    return *this;
  }
  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      out += (i == 0 ? "" : ", ") + Quote(fields_[i].first) + ": " +
             fields_[i].second;
    }
    return out + "}";
  }

 private:
  static std::string Quote(const std::string& s) {
    return "\"" + common::JsonEscape(s) + "\"";
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return obs::QuantileFromSorted(v, 50.0);
}

double Percentile(std::vector<double> v, double pct) {
  std::sort(v.begin(), v.end());
  return obs::QuantileFromSorted(v, pct);
}

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double MillisSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

void CheckOk(const common::Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", status.ToString().c_str());
    std::exit(2);
  }
}

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

/// FNV-1a over the hard predictions and the bits of every P(y = 1).
uint64_t PredictionDigest(const nn::PredictionResult& r) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (int p : r.pred) mix(static_cast<uint64_t>(p));
  for (float p : r.prob1) mix(std::bit_cast<uint32_t>(p));
  return h;
}

/// One workload run: the contract metrics, pass/fail counts, and the detail
/// block written by --json-out.
class Result {
 public:
  Result(std::string workload, bool traced)
      : workload_(std::move(workload)), traced_(traced) {}

  /// Records a metric; its unit comes from the mode's metric table.
  void Set(const std::string& name, double value) {
    for (const MetricSpec& spec : Specs()) {
      if (name == spec.name) {
        values_[name] = value;
        return;
      }
    }
    FW_CHECK(false) << "metric " << name << " is not in the "
                    << (traced_ ? "per-layer" : "end-to-end") << " table";
  }

  void Fail(const std::string& why) {
    correct_ = false;
    failures_.push_back(why);
    std::fprintf(stderr, "[bench_e2e] %s: GATE FAILED: %s\n",
                 workload_.c_str(), why.c_str());
  }

  void Count(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  Json& details() { return details_; }
  const std::string& workload() const { return workload_; }
  bool correct() const { return correct_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  /// Fails the run when any metric of the table is missing or not finite.
  void CheckComplete() {
    for (const MetricSpec& spec : Specs()) {
      auto it = values_.find(spec.name);
      if (it == values_.end()) {
        Fail(std::string("metric ") + spec.name + " was not measured");
      } else if (!std::isfinite(it->second)) {
        Fail(std::string("metric ") + spec.name + " is not finite");
      }
    }
    if (attempted_ < 1) Fail("nothing was attempted");
  }

  void PrintMetrics() const {
    for (const MetricSpec& spec : Specs()) {
      auto it = values_.find(spec.name);
      std::printf("  %-26s %16.6f %s\n", spec.name,
                  it == values_.end() ? std::nan("") : it->second, spec.unit);
    }
  }

  /// Adds {"<prefix><name>": {"value", "unit"}} for every measured metric.
  void AppendMetrics(const std::string& prefix, Json* out) const {
    for (const MetricSpec& spec : Specs()) {
      auto it = values_.find(spec.name);
      if (it == values_.end()) continue;
      out->Obj(prefix + spec.name,
               Json().Num("value", it->second).Str("unit", spec.unit));
    }
  }

  Json MetricsJson() const {
    Json metrics;
    AppendMetrics("", &metrics);
    return metrics;
  }

  /// The contract line: {"correct", "attempted", "failed", "metrics"}.
  std::string ContractLine() const {
    return Json()
        .Bool("correct", correct_)
        .Int("attempted", attempted_)
        .Int("failed", failed_)
        .Obj("metrics", MetricsJson())
        .Render();
  }

  Json FullJson(const Json& env) const {
    return Json()
        .Obj("env", env)
        .Str("workload", workload_)
        .Int("trace", traced_ ? 1 : 0)
        .Bool("correct", correct_)
        .Int("attempted", attempted_)
        .Int("failed", failed_)
        .Strs("failures", failures_)
        .Obj("metrics", MetricsJson())
        .Obj("details", details_);
  }

 private:
  std::vector<MetricSpec> Specs() const {
    return traced_ ? std::vector<MetricSpec>(std::begin(kPerLayer),
                                             std::end(kPerLayer))
                   : std::vector<MetricSpec>(std::begin(kEndToEnd),
                                             std::end(kEndToEnd));
  }

  std::string workload_;
  bool traced_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::map<std::string, double> values_;
  std::vector<std::string> failures_;
  Json details_;
};

// --- Set-up -----------------------------------------------------------------

/// The Table II GCN configuration, with early stopping off so that every
/// fit does the same number of epochs whatever the seed's dataset.
core::FairwosConfig MakeConfig(const Workload& w) {
  bench::BenchOptions options;
  options.epochs = w.pretrain_epochs;
  const baselines::MethodOptions method =
      bench::MakeMethodOptions(options, nn::Backbone::kGcn, w.dataset);
  core::FairwosConfig config = method.fairwos;
  config.gnn.backbone = method.backbone;
  config.pretrain_epochs = method.train.epochs;
  config.pretrain_patience = 0;
  config.lr = method.train.lr;
  config.weight_decay = method.train.weight_decay;
  config.encoder.epochs = w.encoder_epochs;
  config.encoder.patience = 0;
  config.finetune_epochs = w.finetune_epochs;
  if (w.exact_search) {
    config.counterfactual.sample_nodes = 0;
    config.counterfactual.candidate_pool = 0;
  }
  return config;
}

/// Inputs and serving state of one workload. The engine is declared last so
/// it is destroyed before the dataset and graph it reads.
struct Prepared {
  data::Dataset ds;
  core::FairwosConfig config;
  double generate_ms = 0.0;
  std::unique_ptr<core::FittedGnnModel> model;
  nn::PredictionResult reference;  // model->Predict(ds): the served truth
  std::vector<int64_t> hot_nodes;
  data::TemporalScript script;                 // serve-churn only
  std::shared_ptr<graph::MutableGraph> graph;  // serve-churn only
  std::unique_ptr<serve::InferenceEngine> engine;
};

std::unique_ptr<Prepared> PrepareData(const Workload& w, uint64_t seed) {
  auto p = std::make_unique<Prepared>();
  common::Stopwatch watch;
  {
    FW_TRACE_SPAN("bench/make_dataset");
    p->ds = DieOnError(data::MakeDataset(w.dataset, {w.scale, seed}));
  }
  p->generate_ms = watch.Millis();
  p->config = MakeConfig(w);
  return p;
}

struct FitRun {
  std::unique_ptr<core::FittedGnnModel> model;
  core::FairwosStats stats;
  double fit_ms = 0.0;  // FitFairwos alone
  double rep_ms = 0.0;  // FitFairwos + Predict
  uint64_t digest = 0;
  double acc = 0.0, dsp = 0.0, deo = 0.0;  // test split, percent
};

common::Result<FitRun> FitOnce(const Prepared& p, uint64_t seed) {
  FitRun run;
  common::Stopwatch watch;
  common::Result<std::unique_ptr<core::FittedGnnModel>> fitted = [&] {
    FW_TRACE_SPAN("bench/fit");
    return core::FitFairwos(p.config, p.ds, seed, &run.stats);
  }();
  run.fit_ms = watch.Millis();
  FW_RETURN_IF_ERROR(fitted.status());
  run.model = std::move(fitted).value();
  const nn::PredictionResult pred = [&] {
    FW_TRACE_SPAN("bench/predict");
    return run.model->Predict(p.ds);
  }();
  run.rep_ms = watch.Millis();
  run.digest = PredictionDigest(pred);
  const auto& test = p.ds.split.test;
  run.acc = fairness::AccuracyPct(pred.pred, p.ds.labels, test);
  run.dsp = fairness::StatisticalParityGapPct(pred.pred, p.ds.sens, test);
  run.deo = fairness::EqualOpportunityGapPct(pred.pred, p.ds.labels,
                                             p.ds.sens, test);
  return run;
}

/// Exports `model` as a .fwmodel, loads it into an engine (with a mutable
/// graph for serve-churn) and keeps the in-process answers as the truth.
void PrepareServing(Prepared* p, std::unique_ptr<core::FittedGnnModel> model,
                    const Workload& w, uint64_t seed, double seconds,
                    const std::filesystem::path& work_dir) {
  FW_TRACE_SPAN("bench/prepare_serving");
  p->reference = model->Predict(p->ds);
  const std::string path =
      (work_dir / ("bench_e2e_" + w.name + "_" + std::to_string(getpid()) +
                   ".fwmodel"))
          .string();
  CheckOk(serve::SaveModelArtifact(path, serve::MakeArtifact(*model, p->ds)));
  serve::EngineOptions options;
  if (w.churn) {
    data::TemporalOptions temporal;
    // Edge churn only: the frozen-input model cannot serve added nodes.
    temporal.add_node_fraction = 0.0;
    // Longer than the mutator can replay in one run, so it never runs dry.
    temporal.num_steps =
        static_cast<int64_t>(std::ceil(kMutationsPerSecond * seconds * 1.5));
    p->script = DieOnError(data::GenerateTemporalScript(p->ds, temporal, seed));
    p->graph = std::make_shared<graph::MutableGraph>(
        std::make_shared<const graph::Graph>(p->ds.graph), p->ds.features);
    options.dynamic_graph = p->graph;
  }
  auto engine = serve::InferenceEngine::Load(path, p->ds, options);
  std::filesystem::remove(path);
  p->engine = DieOnError(std::move(engine));
  p->model = std::move(model);
  common::Rng rng(seed);
  p->hot_nodes = rng.SampleWithoutReplacement(
      p->ds.num_nodes(), std::min(kHotSetSize, p->ds.num_nodes()));
}

// --- Load generation --------------------------------------------------------

enum class Outcome : uint8_t { kNone, kServed, kShed, kDeadline, kError };

/// Requests of one load phase, classified.
struct LoadStats {
  int64_t sent = 0, served = 0, shed = 0, deadline = 0, errors = 0;
  int64_t unresolved = 0, mismatched = 0, degraded = 0;
  std::vector<double> latency_ms;  // served requests
  std::vector<double> late_ms;     // open loop: send time - due time
  double seconds = 0.0;

  int64_t failed() const { return shed + deadline + errors + unresolved; }
};

int64_t PickNode(common::Rng& rng, const Prepared& p, double hot_fraction) {
  if (hot_fraction > 0.0 && rng.Bernoulli(hot_fraction)) {
    return p.hot_nodes[static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(p.hot_nodes.size())))];
  }
  return rng.UniformInt(p.ds.num_nodes());
}

/// Classifies one answer; with `verify`, a served answer must bit-equal the
/// in-process prediction.
Outcome Classify(const common::Result<serve::NodePrediction>& answer,
                 const Prepared& p, bool verify, bool* mismatched,
                 bool* degraded) {
  if (!answer.ok()) {
    switch (answer.status().code()) {
      case common::StatusCode::kResourceExhausted:
        return Outcome::kShed;
      case common::StatusCode::kDeadlineExceeded:
        return Outcome::kDeadline;
      default:
        return Outcome::kError;
    }
  }
  const serve::NodePrediction& a = answer.value();
  *degraded = a.degraded;
  if (verify) {
    const size_t v = static_cast<size_t>(a.node);
    *mismatched = a.label != p.reference.pred[v] ||
                  std::bit_cast<uint32_t>(a.prob1) !=
                      std::bit_cast<uint32_t>(p.reference.prob1[v]);
  }
  return Outcome::kServed;
}

void Tally(Outcome o, bool mismatched, bool degraded, LoadStats* s) {
  ++s->sent;
  switch (o) {
    case Outcome::kNone:
      ++s->unresolved;
      break;
    case Outcome::kServed:
      ++s->served;
      break;
    case Outcome::kShed:
      ++s->shed;
      break;
    case Outcome::kDeadline:
      ++s->deadline;
      break;
    case Outcome::kError:
      ++s->errors;
      break;
  }
  if (mismatched) ++s->mismatched;
  if (degraded) ++s->degraded;
}

/// Open loop: Poisson arrivals at w.rate_rps for `seconds`, dealt
/// round-robin to kOpenLoopSenders threads that each send at the due time and
/// block for the answer. Latency counts from the due time, so a stalled
/// sender's backlog shows in later requests.
LoadStats RunOpenLoop(Prepared& p, const Workload& w, double seconds,
                      uint64_t seed, bool verify) {
  FW_TRACE_SPAN("bench/open_loop");
  common::Rng rng(seed);
  std::vector<double> due_ms;
  std::vector<int64_t> nodes;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.Uniform()) / w.rate_rps * 1e3;
    if (t >= seconds * 1e3) break;
    due_ms.push_back(t);
    nodes.push_back(PickNode(rng, p, w.hot_fraction));
  }
  const size_t n = due_ms.size();
  std::vector<Outcome> outcome(n, Outcome::kNone);
  std::vector<double> latency(n, 0.0), late(n, 0.0);
  std::vector<uint8_t> mismatched(n, 0), degraded(n, 0);
  const Clock::time_point start = Clock::now();
  std::vector<std::jthread> senders;
  for (int s = 0; s < kOpenLoopSenders; ++s) {
    senders.emplace_back([&, s] {
      for (size_t i = static_cast<size_t>(s); i < n;
           i += static_cast<size_t>(kOpenLoopSenders)) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(due_ms[i]));
        std::this_thread::sleep_until(due);
        late[i] = MillisSince(due, Clock::now());
        const auto answer = p.engine->Predict(nodes[i]);
        latency[i] = MillisSince(due, Clock::now());
        bool bad = false, stale = false;
        outcome[i] = Classify(answer, p, verify, &bad, &stale);
        mismatched[i] = bad;
        degraded[i] = stale;
      }
    });
  }
  for (std::jthread& t : senders) t.join();
  LoadStats stats;
  stats.seconds = MillisSince(start, Clock::now()) / 1e3;
  stats.late_ms = late;
  for (size_t i = 0; i < n; ++i) {
    Tally(outcome[i], mismatched[i] != 0, degraded[i] != 0, &stats);
    if (outcome[i] == Outcome::kServed) stats.latency_ms.push_back(latency[i]);
  }
  return stats;
}

/// Closed loop: kClosedLoopCallers threads each send their next request as
/// soon as the previous one is answered, for `seconds`.
LoadStats RunClosedLoop(Prepared& p, const Workload& w, double seconds,
                        uint64_t seed, bool verify) {
  FW_TRACE_SPAN("bench/closed_loop");
  std::vector<LoadStats> per_caller(kClosedLoopCallers);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::jthread> callers;
  for (int c = 0; c < kClosedLoopCallers; ++c) {
    callers.emplace_back([&, c] {
      common::Rng rng(seed + static_cast<uint64_t>(c));
      LoadStats& mine = per_caller[static_cast<size_t>(c)];
      while (Clock::now() < end) {
        const int64_t node = PickNode(rng, p, w.hot_fraction);
        const Clock::time_point t0 = Clock::now();
        const auto answer = p.engine->Predict(node);
        const double ms = MillisSince(t0, Clock::now());
        bool bad = false, stale = false;
        const Outcome o = Classify(answer, p, verify, &bad, &stale);
        Tally(o, bad, stale, &mine);
        if (o == Outcome::kServed) mine.latency_ms.push_back(ms);
      }
    });
  }
  for (std::jthread& t : callers) t.join();
  LoadStats stats;
  stats.seconds = MillisSince(start, Clock::now()) / 1e3;
  for (const LoadStats& s : per_caller) {
    stats.sent += s.sent;
    stats.served += s.served;
    stats.shed += s.shed;
    stats.deadline += s.deadline;
    stats.errors += s.errors;
    stats.mismatched += s.mismatched;
    stats.degraded += s.degraded;
    stats.latency_ms.insert(stats.latency_ms.end(), s.latency_ms.begin(),
                            s.latency_ms.end());
  }
  return stats;
}

/// Fails `r` unless every request of the phase resolved and every served
/// answer was fresh (and, when verified, bit-equal to the truth).
void GateLoad(const char* phase, const LoadStats& s, Result* r) {
  r->Count(s.sent, s.failed());
  if (s.unresolved > 0) {
    r->Fail(std::string(phase) + ": " + std::to_string(s.unresolved) +
            " requests never resolved");
  }
  if (s.errors > 0) {
    r->Fail(std::string(phase) + ": " + std::to_string(s.errors) +
            " requests failed");
  }
  if (s.mismatched > 0) {
    r->Fail(std::string(phase) + ": " + std::to_string(s.mismatched) +
            " answers differ from the in-process Predict");
  }
  if (s.degraded > 0) {
    r->Fail(std::string(phase) + ": " + std::to_string(s.degraded) +
            " degraded answers with no fault armed");
  }
}

Json LoadJson(const LoadStats& s) {
  Json j;
  j.Int("sent", s.sent)
      .Int("served", s.served)
      .Int("shed", s.shed)
      .Int("deadline_exceeded", s.deadline)
      .Int("errors", s.errors)
      .Num("seconds", s.seconds);
  if (!s.latency_ms.empty()) {
    j.Num("latency_p50_ms", Percentile(s.latency_ms, 50))
        .Num("latency_p90_ms", Percentile(s.latency_ms, 90))
        .Num("latency_p99_ms", Percentile(s.latency_ms, 99));
  }
  if (!s.late_ms.empty()) j.Num("late_p99_ms", Percentile(s.late_ms, 99));
  return j;
}

// --- Graph mutation ---------------------------------------------------------

struct GraphStats {
  std::vector<double> apply_us, publish_ms, compact_ms;
  int64_t applied = 0, rejected = 0;  // mutations + compactions not OK
  int64_t ops_incremental = 0, ops_rebuilt = 0;
};

/// Replays `script` into `g` at `rate` mutations per second (0 = unpaced),
/// publishing every kPublishEvery and compacting every kCompactEvery, until
/// the script ends or `stop` is requested. With `touch`, each new epoch's GCN
/// operator is built at once, as a serving forward would build it.
void ReplayMutations(std::stop_token stop, graph::MutableGraph* g,
                     const std::vector<graph::GraphMutation>& script,
                     double rate, bool touch, GraphStats* out) {
  std::shared_ptr<const graph::GraphSnapshot> last;
  const auto retire = [&](std::shared_ptr<const graph::GraphSnapshot> next) {
    if (last != nullptr) {
      out->ops_incremental += last->ops_incremental();
      out->ops_rebuilt += last->ops_rebuilt();
    }
    last = std::move(next);
    if (touch && last != nullptr) last->GcnNormalizedAdjacency();
  };
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < script.size(); ++i) {
    if (stop.stop_requested()) break;
    if (rate > 0.0) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(i) / rate)));
    }
    common::Stopwatch watch;
    common::Status status;
    {
      FW_TRACE_SPAN("bench/graph_apply");
      status = g->Apply(script[i]);
    }
    out->apply_us.push_back(watch.Millis() * 1e3);
    ++(status.ok() ? out->applied : out->rejected);
    if ((i + 1) % kPublishEvery == 0) {
      watch.Reset();
      std::shared_ptr<const graph::GraphSnapshot> snap;
      {
        FW_TRACE_SPAN("bench/graph_publish");
        snap = g->Publish();
      }
      out->publish_ms.push_back(watch.Millis());
      retire(std::move(snap));
    }
    if ((i + 1) % kCompactEvery == 0) {
      watch.Reset();
      common::Status compacted;
      {
        FW_TRACE_SPAN("bench/graph_compact");
        compacted = g->Compact();
      }
      out->compact_ms.push_back(watch.Millis());
      if (!compacted.ok()) ++out->rejected;
      retire(g->Current());
    }
  }
  retire(nullptr);
}

/// serve-churn's closing gate: after a final Publish + Compact, a
/// PredictBatch over every node must bit-equal a fresh forward over the
/// final snapshot's operator.
void GateFinalGraph(Prepared& p, GraphStats* graph_stats, Result* r) {
  p.graph->Publish();
  common::Stopwatch watch;
  const common::Status compacted = p.graph->Compact();
  graph_stats->compact_ms.push_back(watch.Millis());
  if (!compacted.ok()) {
    r->Fail("final compaction failed: " + compacted.ToString());
    return;
  }
  if (graph_stats->rejected > 0) {
    r->Fail(std::to_string(graph_stats->rejected) +
            " scripted mutations or compactions were rejected");
  }
  const std::shared_ptr<const graph::GraphSnapshot> snap = p.graph->Current();
  nn::PredictionResult truth;
  {
    tensor::NoGradGuard no_grad;
    common::Rng rng(0);
    const nn::GnnClassifier& classifier = p.model->classifier();
    truth = nn::PredictFromLogits(classifier.ForwardWith(
        nn::AdjacencyForBackbone(classifier.encoder().config().backbone,
                                 *snap->Materialized()),
        p.model->ResolveInput(p.ds), /*training=*/false, &rng));
  }
  std::vector<int64_t> all(static_cast<size_t>(snap->num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  auto served = p.engine->PredictBatch(all);
  if (!served.ok()) {
    r->Fail("final PredictBatch failed: " + served.status().ToString());
    return;
  }
  int64_t differ = 0;
  for (const serve::NodePrediction& a : served.value()) {
    const size_t v = static_cast<size_t>(a.node);
    differ += a.degraded || a.label != truth.pred[v] ||
              std::bit_cast<uint32_t>(a.prob1) !=
                  std::bit_cast<uint32_t>(truth.prob1[v]);
  }
  if (differ > 0) {
    r->Fail(std::to_string(differ) +
            " nodes differ from a fresh forward over the final snapshot");
  }
}

// --- Traced-run analysis ----------------------------------------------------

struct SpanTotal {
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  // total minus same-thread children
};

std::map<std::string, SpanTotal> SummarizeSpans(
    std::vector<obs::TraceEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.start_us != b.start_us) {
                       return a.start_us < b.start_us;
                     }
                     return a.depth < b.depth;
                   });
  std::map<std::string, SpanTotal> out;
  std::vector<const obs::TraceEvent*> stack;
  for (const obs::TraceEvent& e : events) {
    while (!stack.empty() &&
           (stack.back()->tid != e.tid || stack.back()->depth >= e.depth)) {
      stack.pop_back();
    }
    SpanTotal& t = out[e.name];
    ++t.count;
    t.total_ms += static_cast<double>(e.duration_us) / 1e3;
    t.self_ms += static_cast<double>(e.duration_us) / 1e3;
    if (!stack.empty()) {
      out[stack.back()->name].self_ms -=
          static_cast<double>(e.duration_us) / 1e3;
    }
    stack.push_back(&e);
  }
  return out;
}

Json SpansJson(const std::map<std::string, SpanTotal>& spans) {
  Json j;
  for (const auto& [name, t] : spans) {
    j.Obj(name, Json()
                    .Int("count", t.count)
                    .Num("total_ms", t.total_ms)
                    .Num("self_ms", t.self_ms));
  }
  return j;
}

/// Events recorded since `from` (an earlier TraceRecorder size).
std::vector<obs::TraceEvent> EventsSince(size_t from) {
  std::vector<obs::TraceEvent> all = obs::TraceRecorder::Global().snapshot();
  return std::vector<obs::TraceEvent>(
      all.begin() + static_cast<int64_t>(std::min(from, all.size())),
      all.end());
}

/// A traced FitOnce: records the fit's phase, nn, arena and pool metrics.
FitRun TracedFit(const Prepared& p, uint64_t seed, Result* r) {
  const size_t first_event = obs::TraceRecorder::Global().size();
  const int64_t parallel_fors_before = CounterValue("pool.parallel_fors");
  const int64_t chunks_before = CounterValue("pool.chunks");
  const int64_t oversize_before = CounterValue("arena.oversize_allocs");
  FitRun fit = DieOnError(FitOnce(p, seed));
  const auto spans = SummarizeSpans(EventsSince(first_event));
  const auto total = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_ms;
  };
  const auto count = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const double cf_ms = total("fairwos/counterfactual_search");
  r->Set("phase.fit_ms", fit.fit_ms);
  r->Set("phase.encoder_ms", total("fairwos/encoder_pretrain"));
  r->Set("phase.pretrain_ms", total("fairwos/classifier_pretrain"));
  r->Set("phase.finetune_ms", total("fairwos/finetune"));
  r->Set("phase.cf_search_ms", cf_ms);
  r->Set("phase.finetune_other_ms", total("fairwos/finetune") - cf_ms);
  r->Set("phase.cf_share", cf_ms / fit.fit_ms);
  r->Set("phase.encoder_epochs", count("encoder/pretrain_epoch"));
  r->Set("phase.pretrain_epochs", count("fairwos/pretrain_epoch"));
  r->Set("phase.finetune_epochs", count("fairwos/finetune_epoch"));
  r->Set("gnn.forward_ms", total("gcn_conv/forward"));
  r->Set("gnn.forward_calls", count("gcn_conv/forward"));
  r->Set("optim.step_ms", total("optimizer/step"));
  r->Set("arena.bytes_reserved", obs::MetricsRegistry::Global()
                                     .GetGauge("arena.bytes_reserved")
                                     ->value());
  r->Set("arena.oversize_allocs", static_cast<double>(
                                      CounterValue("arena.oversize_allocs") -
                                      oversize_before));
  r->Set("pool.parallel_for_calls",
         static_cast<double>(CounterValue("pool.parallel_fors") -
                             parallel_fors_before));
  r->Set("pool.chunks",
         static_cast<double>(CounterValue("pool.chunks") - chunks_before));
  r->details().Obj("fit_spans", SpansJson(spans));
  return fit;
}

/// Serving metrics of one traced open + closed loop phase.
void SetServeMetrics(const Prepared& p, const LoadStats& open,
                     const serve::InferenceEngine::Stats& before,
                     double queue_wait_p99_ms, size_t first_event, Result* r) {
  const serve::InferenceEngine::Stats after = p.engine->stats();
  const auto spans = SummarizeSpans(EventsSince(first_event));
  const int64_t batches = after.batches - before.batches;
  const int64_t requests = after.requests - before.requests;
  auto batch = spans.find("serve/batch");
  r->Set("serve.batches", static_cast<double>(batches));
  r->Set("serve.batch_size_mean",
         static_cast<double>(after.cache_misses - before.cache_misses) /
             static_cast<double>(std::max<int64_t>(batches, 1)));
  r->Set("serve.cache_hit_ratio",
         static_cast<double>(after.cache_hits - before.cache_hits) /
             static_cast<double>(std::max<int64_t>(requests, 1)));
  r->Set("serve.queue_wait_p99_ms", queue_wait_p99_ms);
  r->Set("serve.batch_ms", batch == spans.end() || batch->second.count == 0
                               ? 0.0
                               : batch->second.total_ms /
                                     static_cast<double>(batch->second.count));
  r->Set("serve.epoch_invalidations",
         static_cast<double>(after.epoch_invalidations));
  r->Set("loadgen.sent", static_cast<double>(open.sent));
  r->Set("loadgen.late_p99_ms",
         open.late_ms.empty() ? 0.0 : Percentile(open.late_ms, 99));
  r->details().Obj("serve_spans", SpansJson(spans));
}

void SetGraphMetrics(const GraphStats& g, Result* r) {
  const auto pct = [](const std::vector<double>& v, double q) {
    return v.empty() ? 0.0 : Percentile(v, q);
  };
  r->Set("graph.apply_us_p50", pct(g.apply_us, 50));
  r->Set("graph.apply_us_p99", pct(g.apply_us, 99));
  r->Set("graph.publish_ms_p50", pct(g.publish_ms, 50));
  r->Set("graph.publish_ms_p99", pct(g.publish_ms, 99));
  r->Set("graph.compact_ms", pct(g.compact_ms, 50));
  r->Set("graph.ops_incremental", static_cast<double>(g.ops_incremental));
  r->Set("graph.ops_rebuilt", static_cast<double>(g.ops_rebuilt));
  r->details().Obj("graph", Json()
                                .Int("applied", g.applied)
                                .Int("rejected", g.rejected)
                                .Int("publishes", static_cast<int64_t>(
                                                      g.publish_ms.size()))
                                .Int("compactions", static_cast<int64_t>(
                                                        g.compact_ms.size())));
}

/// Graph-layer probe for workloads without a mutator: replays an edge-only
/// script unpaced into a fresh MutableGraph over the workload's graph.
GraphStats ProbeGraph(const Prepared& p, uint64_t seed) {
  FW_TRACE_SPAN("bench/probe_graph");
  data::TemporalOptions temporal;
  temporal.add_node_fraction = 0.0;
  temporal.num_steps = kGraphProbeSteps;
  const data::TemporalScript script =
      DieOnError(data::GenerateTemporalScript(p.ds, temporal, seed));
  graph::MutableGraph g(std::make_shared<const graph::Graph>(p.ds.graph),
                        p.ds.features);
  GraphStats stats;
  ReplayMutations(std::stop_token(), &g, script.events, /*rate=*/0.0,
                  /*touch=*/true, &stats);
  return stats;
}

/// p50 wall time of `kProbeCalls` calls of `fn`, in milliseconds.
template <typename Fn>
double TimeCalls(const char* span, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < kProbeCalls; ++i) {
    obs::ScopedSpan scoped(span);
    common::Stopwatch watch;
    fn();
    ms.push_back(watch.Millis());
  }
  return Median(ms);
}

/// Bench-timed calls into single layers on the workload's own shapes.
void ProbeLayers(const Prepared& p, uint64_t seed, Result* r) {
  const core::FittedGnnModel& model = *p.model;
  const tensor::Tensor& x0 = model.frozen_input();

  // core/counterfactual: the search on the fitted model's embeddings.
  std::vector<int> pseudo_labels = p.reference.pred;
  for (int64_t v : p.ds.split.train) {
    pseudo_labels[static_cast<size_t>(v)] = p.ds.labels[static_cast<size_t>(v)];
  }
  const auto bins = core::MedianBins(x0);
  core::CounterfactualSet cf;
  const double cf_ms = TimeCalls("bench/probe_cf_search", [&] {
    common::Rng rng(seed);
    cf = core::FindCounterfactuals(p.reference.embeddings, bins, pseudo_labels,
                                   p.config.counterfactual, &rng);
  });
  int64_t pairs = 0, full = 0, slots = 0;
  for (const auto& attr : cf.matches) {
    for (const auto& slot : attr) {
      const int64_t found = static_cast<int64_t>(slot.size());
      pairs += found;
      full += found == p.config.counterfactual.top_k;
      ++slots;
    }
  }
  r->Set("cf.search_ms", cf_ms);
  r->Set("cf.pairs", static_cast<double>(pairs));
  r->Set("cf.pairs_per_us", static_cast<double>(pairs) / (cf_ms * 1e3));
  r->Set("cf.full_slot_ratio",
         static_cast<double>(full) /
             static_cast<double>(std::max<int64_t>(slots, 1)));

  // nn: backward of one classifier training step on X⁰.
  {
    common::Rng rng(seed);
    nn::GnnClassifier classifier(model.classifier().encoder().config(),
                                 p.ds.graph, &rng);
    std::vector<double> ms;
    for (int i = 0; i < kProbeCalls; ++i) {
      classifier.ZeroGrad();
      tensor::Tensor loss = tensor::SoftmaxCrossEntropy(
          classifier.Forward(x0, /*training=*/true, &rng), p.ds.labels,
          p.ds.split.train);
      FW_TRACE_SPAN("bench/probe_backward");
      common::Stopwatch watch;
      loss.Backward();
      ms.push_back(watch.Millis());
    }
    r->Set("autograd.backward_ms", Median(ms));
  }

  // tensor: the encoder layer's GEMM [N, F]·[F, 16] and SpMM Â·X.
  {
    tensor::NoGradGuard no_grad;
    common::Rng rng(seed);
    const tensor::Tensor& x = p.ds.features;
    const double n = static_cast<double>(x.dim(0));
    const double f = static_cast<double>(x.dim(1));
    const int64_t out_cols = p.config.encoder.out_dim;
    const tensor::Tensor w = tensor::Tensor::RandNormal({x.dim(1), out_cols},
                                                        1.0f, &rng);
    const double gemm_ms = TimeCalls("bench/probe_gemm", [&] {
      tensor::MatMul(x, w);
    });
    r->Set("kernel.gemm_ms", gemm_ms);
    r->Set("kernel.gemm_gflops",
           2.0 * n * f * static_cast<double>(out_cols) / (gemm_ms * 1e6));
    const std::shared_ptr<const tensor::SparseMatrix> adj =
        p.ds.graph.GcnNormalizedAdjacency();
    const double spmm_ms = TimeCalls("bench/probe_spmm", [&] {
      tensor::SpMM(adj, x);
    });
    // Bytes computed from the shapes: CSR arrays once, one X row read per
    // nonzero, Y written once.
    const double nnz = static_cast<double>(adj->nnz());
    const double bytes = (n + 1.0) * 8.0 + nnz * 12.0 + nnz * f * 4.0 +
                         n * f * 4.0;
    r->Set("kernel.spmm_ms", spmm_ms);
    r->Set("kernel.spmm_gbs", bytes / (spmm_ms * 1e6));
  }

  // serve: the full-graph forward every cache miss pays.
  r->Set("serve.forward_ms", TimeCalls("bench/probe_predict", [&] {
           model.Predict(p.ds);
         }));
}

// --- Workload runs ----------------------------------------------------------

struct Args {
  uint64_t seed = 42;
  double seconds = 10.0;
  bool smoke = false;
  std::filesystem::path work_dir;
};

Json FitJson(const FitRun& fit) {
  return Json()
      .Str("prediction_digest",
           common::StrFormat("%016llx",
                             static_cast<unsigned long long>(fit.digest)))
      .Num("test_acc_pct", fit.acc)
      .Num("test_dsp_pct", fit.dsp)
      .Num("test_deo_pct", fit.deo)
      .Int("pretrain_epochs_run", fit.stats.pretrain_epochs_run)
      .Int("finetune_epochs_run", fit.stats.finetune_epochs_run)
      .Int("retries", fit.stats.pretrain_retries + fit.stats.finetune_retries)
      .Bool("finetune_degraded", fit.stats.finetune_degraded);
}

/// Same seed, same bits: a rep that differs from the first fails the run.
void GateSameFit(const FitRun& first, const FitRun& fit, const char* what,
                 Result* r) {
  if (fit.digest != first.digest || fit.acc != first.acc ||
      fit.dsp != first.dsp || fit.deo != first.deo) {
    r->Fail(std::string(what) +
            " differs from the first fit of the same seed (digest or "
            "ACC/dSP/dEO)");
  }
}

Json DatasetJson(const Prepared& p) {
  return Json()
      .Str("name", p.ds.name)
      .Int("nodes", p.ds.num_nodes())
      .Int("attrs", p.ds.num_attrs())
      .Int("edges", p.ds.graph.num_edges());
}

/// train-*: set-up is dataset generation; then FitFairwos + Predict reps of
/// one seed until `seconds` would be exceeded (at least three).
Result RunTrainTimed(const Workload& w, const Args& a) {
  Result r(w.name, /*traced=*/false);
  std::vector<double> setup_s;
  std::unique_ptr<Prepared> p;
  for (int i = 0; i < w.setup_reps; ++i) {
    p.reset();
    common::Stopwatch watch;
    p = PrepareData(w, a.seed);
    setup_s.push_back(watch.Seconds());
  }
  const size_t min_reps = a.smoke ? 1 : 3;
  std::vector<double> rep_ms;
  FitRun first;
  common::Stopwatch window;
  for (;;) {
    common::Result<FitRun> fit = FitOnce(*p, a.seed);
    r.Count(1, fit.ok() ? 0 : 1);
    if (!fit.ok()) {
      r.Fail("fit failed: " + fit.status().ToString());
      break;
    }
    rep_ms.push_back(fit.value().rep_ms);
    if (rep_ms.size() == 1) {
      first = std::move(fit).value();
    } else {
      GateSameFit(first, fit.value(), "a repeated fit", &r);
    }
    if (rep_ms.size() >= min_reps &&
        window.Seconds() + rep_ms.back() / 1e3 > a.seconds) {
      break;
    }
  }
  if (rep_ms.empty()) return r;
  r.Set("setup_s", Median(setup_s));
  r.Set("p50_ms", Median(rep_ms));
  r.Set("p90_ms", Percentile(rep_ms, 90));
  r.Set("throughput_per_s", static_cast<double>(rep_ms.size()) /
                                (Sum(rep_ms) / 1e3));
  r.details()
      .Obj("dataset", DatasetJson(*p))
      .Nums("setup_s", setup_s)
      .Nums("rep_ms", rep_ms)
      .Obj("fit", FitJson(first));
  return r;
}

/// serve-*: set-up generates the dataset, fits the short model, exports it
/// and loads an engine; then an open loop (70% of `seconds`) and a closed
/// loop (30%), with the mutator running throughout on serve-churn.
Result RunServeTimed(const Workload& w, const Args& a) {
  Result r(w.name, /*traced=*/false);
  std::vector<double> setup_s;
  std::unique_ptr<Prepared> p;
  for (int i = 0; i < w.setup_reps; ++i) {
    p.reset();
    common::Stopwatch watch;
    p = PrepareData(w, a.seed);
    FitRun fit = DieOnError(FitOnce(*p, a.seed));
    PrepareServing(p.get(), std::move(fit.model), w, a.seed, a.seconds,
                   a.work_dir);
    setup_s.push_back(watch.Seconds());
  }
  const bool verify = !w.churn;
  GraphStats graph_stats;
  std::jthread mutator;
  if (w.churn) {
    mutator = std::jthread([&](std::stop_token stop) {
      ReplayMutations(stop, p->graph.get(), p->script.events,
                      kMutationsPerSecond, /*touch=*/false, &graph_stats);
    });
  }
  const LoadStats open =
      RunOpenLoop(*p, w, 0.7 * a.seconds, a.seed + 1, verify);
  const LoadStats closed =
      RunClosedLoop(*p, w, 0.3 * a.seconds, a.seed + 2, verify);
  if (mutator.joinable()) {
    mutator.request_stop();
    mutator.join();
    GateFinalGraph(*p, &graph_stats, &r);
  }
  GateLoad("open loop", open, &r);
  GateLoad("closed loop", closed, &r);
  if (open.latency_ms.empty() || closed.served == 0) {
    r.Fail("no request was served");
    return r;
  }
  const serve::InferenceEngine::Stats stats = p->engine->stats();
  r.Set("setup_s", Median(setup_s));
  r.Set("p50_ms", Percentile(open.latency_ms, 50));
  r.Set("p90_ms", Percentile(open.latency_ms, 90));
  r.Set("throughput_per_s",
        static_cast<double>(closed.served) / closed.seconds);
  r.details()
      .Obj("dataset", DatasetJson(*p))
      .Nums("setup_s", setup_s)
      .Obj("open_loop", LoadJson(open))
      .Obj("closed_loop", LoadJson(closed))
      .Num("cache_hit_ratio", static_cast<double>(stats.cache_hits) /
                                  static_cast<double>(std::max<int64_t>(
                                      stats.requests, 1)))
      .Int("mutations_applied", graph_stats.applied);
  return r;
}

/// The traced run of any workload: one traced fit (train-*: the timed fit,
/// beside an untraced one for the overhead; serve-*: the set-up fit), a
/// traced serve phase (serve-*: open loop for half of `seconds`; train-*: a
/// one-second probe of the model just fit), the graph layer, and the
/// single-layer probes.
Result RunTraced(const Workload& w, const Args& a) {
  Result r(w.name, /*traced=*/true);
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable();
  std::unique_ptr<Prepared> p = PrepareData(w, a.seed);
  r.Set("data.generate_ms", p->generate_ms);

  FitRun fit;
  double overhead_pct = 0.0;
  if (!w.serving) {
    recorder.Disable();
    FitRun untraced = DieOnError(FitOnce(*p, a.seed));
    recorder.Enable();
    fit = TracedFit(*p, a.seed, &r);
    GateSameFit(untraced, fit, "the traced fit", &r);
    overhead_pct = (fit.rep_ms / untraced.rep_ms - 1.0) * 100.0;
    r.Count(2, 0);
  } else {
    fit = TracedFit(*p, a.seed, &r);
    r.Count(1, 0);
  }
  r.details().Obj("fit", FitJson(fit));
  PrepareServing(p.get(), std::move(fit.model), w, a.seed, a.seconds,
                 a.work_dir);

  const bool verify = !w.churn;
  const double closed_s = a.smoke ? 0.25 : 1.0;
  LoadStats untraced_closed;
  if (w.serving) {
    recorder.Disable();
    untraced_closed = RunClosedLoop(*p, w, closed_s, a.seed + 3, verify);
    GateLoad("untraced closed loop", untraced_closed, &r);
    recorder.Enable();
  }
  obs::WindowedHistogram* queue_wait =
      obs::MetricsRegistry::Global().GetWindowed("serve.window.queue_wait_ms");
  queue_wait->Reset();
  const serve::InferenceEngine::Stats before = p->engine->stats();
  const size_t first_serve_event = recorder.size();
  GraphStats graph_stats;
  std::jthread mutator;
  if (w.churn) {
    mutator = std::jthread([&](std::stop_token stop) {
      ReplayMutations(stop, p->graph.get(), p->script.events,
                      kMutationsPerSecond, /*touch=*/false, &graph_stats);
    });
  }
  const double open_s = w.serving ? 0.5 * a.seconds : 1.0;
  const LoadStats open = RunOpenLoop(*p, w, open_s, a.seed + 1, verify);
  const double queue_wait_p99 = queue_wait->TakeSnapshot().p99;
  const LoadStats closed = RunClosedLoop(*p, w, closed_s, a.seed + 2, verify);
  if (mutator.joinable()) {
    mutator.request_stop();
    mutator.join();
  }
  SetServeMetrics(*p, open, before, queue_wait_p99, first_serve_event, &r);
  GateLoad("open loop", open, &r);
  GateLoad("closed loop", closed, &r);
  if (w.serving) {
    overhead_pct = (untraced_closed.served / untraced_closed.seconds /
                        (closed.served / closed.seconds) -
                    1.0) *
                   100.0;
  }
  r.Set("trace.overhead_pct", overhead_pct);

  if (w.churn) {
    GateFinalGraph(*p, &graph_stats, &r);
  } else {
    graph_stats = ProbeGraph(*p, a.seed);
    if (graph_stats.rejected > 0) {
      r.Fail("the graph probe's scripted mutations were rejected");
    }
  }
  SetGraphMetrics(graph_stats, &r);
  ProbeLayers(*p, a.seed, &r);
  recorder.Disable();
  r.Set("mem.peak_rss_mb", PeakRssMb());
  r.details()
      .Obj("dataset", DatasetJson(*p))
      .Obj("open_loop", LoadJson(open))
      .Obj("closed_loop", LoadJson(closed));
  return r;
}

Json EnvJson(const std::string& commit, const Args& a) {
  const tensor::BackendInfo info = tensor::ActiveBackendInfo();
  return Json()
      .Str("commit", commit)
      .Int("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Int("pool_threads", common::GlobalThreadCount())
      .Str("simd_backend", info.active)
      .Str("cpu_features", info.cpu_features)
      .Bool("fast_math", info.fast_math)
      .Int("seed", static_cast<int64_t>(a.seed))
      .Num("seconds", a.seconds)
      .Bool("smoke", a.smoke);
}

int Main(int argc, char** argv) {
  const common::CliFlags flags =
      DieOnError(common::CliFlags::Parse(argc, argv));
  Args a;
  a.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  a.seconds = flags.GetDouble("seconds", 10.0);
  a.smoke = flags.GetBool("smoke", false);
  a.work_dir = std::filesystem::absolute(argv[0]).parent_path();
  const std::string workload = flags.GetString("workload", "all");
  const std::string commit = flags.GetString("commit", "unknown");
  const std::string json_out = flags.GetString("json-out", "");
  const std::string trace_out = flags.GetString("trace-out", "");
  if (a.seconds <= 0.0) {
    std::fprintf(stderr, "FATAL: --seconds must be positive\n");
    return 2;
  }
  // --smoke runs both modes; otherwise --trace picks one.
  std::vector<bool> modes;
  if (a.smoke && !flags.Has("trace")) {
    modes = {false, true};
  } else {
    const int64_t trace = flags.GetInt("trace", 0);
    if (trace != 0 && trace != 1) {
      std::fprintf(stderr, "FATAL: --trace must be 0 or 1\n");
      return 2;
    }
    modes = {trace == 1};
  }
  std::vector<Workload> selected;
  for (const Workload& w : Workloads(a.smoke)) {
    if (workload == "all" || workload == w.name) selected.push_back(w);
  }
  if (selected.empty()) {
    std::fprintf(stderr,
                 "FATAL: unknown --workload %s (train-exact, train-pokec, "
                 "serve-cold, serve-churn, all)\n",
                 workload.c_str());
    return 2;
  }
  if (std::find(modes.begin(), modes.end(), true) != modes.end()) {
    // With tracing on, the span strings the recorder keeps interleave with
    // the serving forward's large temporaries in glibc's per-thread arenas,
    // and the default allocator grew a traced serve phase by ~250 MB/s
    // (3.4 GB in 10 s). One arena keeps the traced run near 340 MB.
    mallopt(M_ARENA_MAX, 1);
  }
  std::vector<Result> results;
  std::vector<Json> envs;  // one per result: the pool size is per workload
  for (const Workload& w : selected) {
    common::SetGlobalThreadCount(w.threads);
    for (bool traced : modes) {
      envs.push_back(EnvJson(commit, a));
      std::printf("[bench_e2e] %s\n", envs.back().Render().c_str());
      std::printf("[bench_e2e] workload %s (%s, seed %llu)\n", w.name.c_str(),
                  traced ? "traced" : "timed",
                  static_cast<unsigned long long>(a.seed));
      std::fflush(stdout);
      Result r = traced            ? RunTraced(w, a)
                 : w.serving       ? RunServeTimed(w, a)
                                   : RunTrainTimed(w, a);
      r.CheckComplete();
      r.PrintMetrics();
      std::printf("  correct=%s attempted=%lld failed=%lld\n",
                  r.correct() ? "true" : "false",
                  static_cast<long long>(r.attempted()),
                  static_cast<long long>(r.failed()));
      results.push_back(std::move(r));
    }
  }
  if (!trace_out.empty()) {
    CheckOk(obs::TraceRecorder::Global().WriteChromeTrace(trace_out));
  }
  if (!json_out.empty()) {
    std::string body;
    if (results.size() == 1) {
      body = results[0].FullJson(envs[0]).Render();
    } else {
      body = "{\"runs\": [";
      for (size_t i = 0; i < results.size(); ++i) {
        body += (i == 0 ? "" : ", ") + results[i].FullJson(envs[i]).Render();
      }
      body += "]}";
    }
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr || std::fputs((body + "\n").c_str(), f) < 0 ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "FATAL: cannot write %s\n", json_out.c_str());
      return 2;
    }
  }
  bool correct = true;
  for (const Result& r : results) correct = correct && r.correct();
  if (results.size() == 1) {
    std::printf("%s\n", results[0].ContractLine().c_str());
  } else {
    // Several runs: one line per run above, then a combined line whose
    // metric names are "<workload>/<metric>".
    Json metrics;
    int64_t attempted = 0, failed = 0;
    for (const Result& r : results) {
      std::printf("%s\n", r.ContractLine().c_str());
      r.AppendMetrics(r.workload() + "/", &metrics);
      attempted += r.attempted();
      failed += r.failed();
    }
    std::printf("%s\n", Json()
                            .Bool("correct", correct)
                            .Int("attempted", attempted)
                            .Int("failed", failed)
                            .Obj("metrics", metrics)
                            .Render()
                            .c_str());
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fairwos::bench_e2e

int main(int argc, char** argv) {
  return fairwos::bench_e2e::Main(argc, argv);
}
