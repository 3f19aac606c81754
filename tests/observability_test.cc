// Tests for the fairwos::obs observability stack (docs/observability.md):
// scoped-span tracing (nesting, Chrome-trace export, text profile, the
// disabled-path contract), the metrics registry (counters, gauges,
// histogram bucketing, JSON/CSV export, in-place Reset), structured
// telemetry (Event JSON, JSONL sink, collecting sink, the global sink
// hook), leveled logging (parsing, env override, filtering, thread-safe
// emission), and the harness-level failure-reason plumbing.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "baselines/train_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/fairwos.h"
#include "data/synthetic.h"
#include "eval/harness.h"

namespace fairwos {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------- tracing --

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::TraceRecorder::Global().Clear();
    obs::TraceRecorder::Global().Enable();
  }
  void TearDown() override {
    obs::TraceRecorder::Global().Disable();
    obs::TraceRecorder::Global().Clear();
  }
};

TEST_F(TraceTest, RecordsNestedSpansWithDepthAndPath) {
  {
    FW_TRACE_SPAN("outer");
    {
      FW_TRACE_SPAN("middle");
      { FW_TRACE_SPAN("inner"); }
    }
  }
  auto events = obs::TraceRecorder::Global().snapshot();
  ASSERT_EQ(events.size(), 3u);  // innermost finishes (and records) first
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 2);
  EXPECT_EQ(events[0].path, "outer>middle>inner");
  EXPECT_EQ(events[1].name, "middle");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[1].path, "outer>middle");
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_EQ(events[2].depth, 0);
  EXPECT_EQ(events[2].path, "outer");
  // A parent's span covers its children.
  EXPECT_LE(events[2].start_us, events[0].start_us);
  EXPECT_GE(events[2].start_us + events[2].duration_us,
            events[0].start_us + events[0].duration_us);
}

TEST_F(TraceTest, DisabledRecorderRecordsNothing) {
  obs::TraceRecorder::Global().Disable();
  {
    FW_TRACE_SPAN("ghost");
    { FW_TRACE_SPAN("ghost_child"); }
  }
  EXPECT_EQ(obs::TraceRecorder::Global().size(), 0u);
}

TEST_F(TraceTest, SpanOpenedWhileDisabledIsNotRecordedOnEnable) {
  obs::TraceRecorder::Global().Disable();
  {
    FW_TRACE_SPAN("started_disabled");
    obs::TraceRecorder::Global().Enable();
    // The enclosing span saw a disabled recorder at construction; only
    // spans opened from here on are recorded.
    { FW_TRACE_SPAN("started_enabled"); }
  }
  auto events = obs::TraceRecorder::Global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "started_enabled");
  EXPECT_EQ(events[0].depth, 0);
}

TEST_F(TraceTest, ChromeTraceJsonShape) {
  {
    FW_TRACE_SPAN("alpha");
    { FW_TRACE_SPAN("beta"); }
  }
  const std::string json = obs::TraceRecorder::Global().ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"alpha>beta\""), std::string::npos);
  // One event object per line so line-oriented tools can scan it.
  EXPECT_GE(std::count(json.begin(), json.end(), '\n'), 3);
}

TEST_F(TraceTest, TextProfileAggregatesRepeatedSpans) {
  for (int i = 0; i < 3; ++i) {
    FW_TRACE_SPAN("repeat");
  }
  const std::string profile = obs::TraceRecorder::Global().ToTextProfile();
  EXPECT_NE(profile.find("repeat"), std::string::npos);
  // The aggregated call count appears as a column.
  EXPECT_NE(profile.find("3"), std::string::npos);
}

TEST_F(TraceTest, WriteChromeTraceRoundTrips) {
  { FW_TRACE_SPAN("to_disk"); }
  const std::string path = TempPath("fairwos_trace_test.json");
  ASSERT_TRUE(obs::TraceRecorder::Global().WriteChromeTrace(path).ok());
  const std::string contents = ReadAll(path);
  EXPECT_NE(contents.find("\"to_disk\""), std::string::npos);
  fs::remove(path);
}

TEST_F(TraceTest, ClearDropsEventsButKeepsEnabled) {
  { FW_TRACE_SPAN("gone"); }
  EXPECT_EQ(obs::TraceRecorder::Global().size(), 1u);
  obs::TraceRecorder::Global().Clear();
  EXPECT_EQ(obs::TraceRecorder::Global().size(), 0u);
  EXPECT_TRUE(obs::TraceRecorder::Global().enabled());
}

TEST_F(TraceTest, SpansFromMultipleThreadsGetDistinctTids) {
  std::thread t([] { FW_TRACE_SPAN("worker"); });
  t.join();
  { FW_TRACE_SPAN("main"); }
  auto events = obs::TraceRecorder::Global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
  // Each thread has its own stack: both spans are roots.
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].depth, 0);
}

// ---------------------------------------------------------------- metrics --

TEST(MetricsTest, CounterIncrementsAndResets) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("test.counter");
  EXPECT_EQ(c->value(), 0);
  c->Increment();
  c->Increment(4);
  EXPECT_EQ(c->value(), 5);
  // Same name -> same pointer.
  EXPECT_EQ(registry.GetCounter("test.counter"), c);
  registry.Reset();
  EXPECT_EQ(c->value(), 0);  // pointer survived the reset
}

TEST(MetricsTest, GaugeHoldsLastValue) {
  obs::MetricsRegistry registry;
  obs::Gauge* g = registry.GetGauge("test.gauge");
  g->Set(1.5);
  g->Set(-2.25);
  EXPECT_DOUBLE_EQ(g->value(), -2.25);
}

TEST(MetricsTest, HistogramBucketsOnInclusiveUpperBounds) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("test.hist", {1.0, 10.0});
  h->Observe(0.5);   // <= 1      -> bucket 0
  h->Observe(1.0);   // == 1      -> bucket 0 (inclusive edge)
  h->Observe(5.0);   // <= 10     -> bucket 1
  h->Observe(50.0);  // overflow  -> bucket 2
  EXPECT_EQ(h->count(), 4);
  EXPECT_DOUBLE_EQ(h->sum(), 56.5);
  std::vector<int64_t> expected = {2, 1, 1};
  EXPECT_EQ(h->bucket_counts(), expected);
  h->Reset();
  EXPECT_EQ(h->count(), 0);
  EXPECT_EQ(h->bucket_counts(), (std::vector<int64_t>{0, 0, 0}));
}

TEST(MetricsTest, JsonExportContainsAllFamilies) {
  obs::MetricsRegistry registry;
  registry.GetCounter("c.one")->Increment(7);
  registry.GetGauge("g.one")->Set(0.5);
  registry.GetHistogram("h.one", {1.0})->Observe(2.0);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c.one\":7"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"g.one\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"h.one\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(MetricsTest, CsvExportHasOneRowPerScalar) {
  obs::MetricsRegistry registry;
  registry.GetCounter("c")->Increment(3);
  registry.GetHistogram("h", {2.0})->Observe(1.0);
  const std::string csv = registry.ToCsv();
  EXPECT_NE(csv.find("counter,c,value,3"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h,count,1"), std::string::npos);
  EXPECT_NE(csv.find("le_inf"), std::string::npos);
}

TEST(MetricsTest, GlobalRegistryIsProcessWide) {
  obs::Counter* a = obs::MetricsRegistry::Global().GetCounter("global.same");
  obs::Counter* b = obs::MetricsRegistry::Global().GetCounter("global.same");
  EXPECT_EQ(a, b);
}

TEST(MetricsTest, DefaultLatencyBucketsAreSorted) {
  auto bounds = obs::DefaultLatencyBucketsMs();
  ASSERT_FALSE(bounds.empty());
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

// -------------------------------------------------------------- telemetry --

TEST(TelemetryTest, EventToJsonPreservesOrderAndTypes) {
  obs::Event e("epoch");
  e.Set("epoch", 3).Set("loss", 0.5).Set("phase", "finetune");
  const std::string json = e.ToJson();
  EXPECT_EQ(json.find("{\"event\":\"epoch\""), 0u);
  EXPECT_NE(json.find("\"epoch\":3"), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"finetune\""), std::string::npos);
  // Insertion order is preserved.
  EXPECT_LT(json.find("\"epoch\":3"), json.find("\"loss\""));
  EXPECT_LT(json.find("\"loss\""), json.find("\"phase\""));
}

TEST(TelemetryTest, EventJsonEscapesStrings) {
  obs::Event e("note");
  e.Set("msg", "line1\n\"quoted\"\\");
  const std::string json = e.ToJson();
  EXPECT_NE(json.find("line1\\n\\\"quoted\\\"\\\\"), std::string::npos);
}

TEST(TelemetryTest, EventAccessors) {
  obs::Event e("x");
  e.Set("phase", "pretrain").Set("loss", 1.25).Set("epoch", 7);
  EXPECT_EQ(e.GetString("phase"), "pretrain");
  EXPECT_DOUBLE_EQ(e.GetDouble("loss"), 1.25);
  EXPECT_DOUBLE_EQ(e.GetDouble("epoch"), 7.0);
  EXPECT_EQ(e.GetString("absent"), "");
  EXPECT_DOUBLE_EQ(e.GetDouble("absent", -1.0), -1.0);
}

TEST(TelemetryTest, EmitWithoutSinkIsNoOp) {
  obs::SetEventSink(nullptr);
  EXPECT_FALSE(obs::TelemetryEnabled());
  obs::EmitEvent(obs::Event("ignored"));  // must not crash
}

TEST(TelemetryTest, CollectingSinkReceivesEvents) {
  obs::CollectingSink sink;
  obs::SetEventSink(&sink);
  EXPECT_TRUE(obs::TelemetryEnabled());
  obs::EmitEvent(obs::Event("one"));
  obs::EmitEvent(obs::Event("two"));
  obs::SetEventSink(nullptr);
  obs::EmitEvent(obs::Event("after_detach"));
  auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name(), "one");
  EXPECT_EQ(events[1].name(), "two");
}

TEST(TelemetryTest, JsonlFileSinkWritesOneObjectPerLine) {
  const std::string path = TempPath("fairwos_telemetry_test.jsonl");
  auto sink_or = obs::JsonlFileSink::Open(path);
  ASSERT_TRUE(sink_or.ok());
  auto sink = std::move(sink_or).value();
  sink->Emit(obs::Event("a").Set("v", 1));
  sink->Emit(obs::Event("b").Set("v", 2.5));
  EXPECT_EQ(sink->events_written(), 2);
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"event\":"), std::string::npos);
  }
  EXPECT_EQ(lines, 2);
  fs::remove(path);
}

TEST(TelemetryTest, JsonlFileSinkRejectsBadPath) {
  auto sink_or = obs::JsonlFileSink::Open("/nonexistent-dir/x/y.jsonl");
  EXPECT_FALSE(sink_or.ok());
}

// ---------------------------------------------------------------- logging --

TEST(LoggingTest, ParseLogLevelAcceptsAllNamesCaseInsensitive) {
  using common::LogLevel;
  EXPECT_EQ(common::ParseLogLevel("debug").value(), LogLevel::kDebug);
  EXPECT_EQ(common::ParseLogLevel("INFO").value(), LogLevel::kInfo);
  EXPECT_EQ(common::ParseLogLevel("Warning").value(), LogLevel::kWarning);
  EXPECT_EQ(common::ParseLogLevel("warn").value(), LogLevel::kWarning);
  EXPECT_EQ(common::ParseLogLevel("error").value(), LogLevel::kError);
  EXPECT_FALSE(common::ParseLogLevel("loud").ok());
  EXPECT_FALSE(common::ParseLogLevel("").ok());
}

TEST(LoggingTest, LogLevelNameRoundTrips) {
  using common::LogLevel;
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo,
                         LogLevel::kWarning, LogLevel::kError}) {
    EXPECT_EQ(common::ParseLogLevel(common::LogLevelName(level)).value(),
              level);
  }
}

TEST(LoggingTest, MessagesBelowLevelAreDropped) {
  std::string captured;
  common::SetLogCaptureForTest(&captured);
  common::SetLogLevel(common::LogLevel::kWarning);
  FW_LOG(Info) << "invisible";
  FW_LOG(Warning) << "visible warning";
  FW_LOG(Error) << "visible error";
  common::SetLogCaptureForTest(nullptr);
  common::SetLogLevel(common::LogLevel::kInfo);
  EXPECT_EQ(captured.find("invisible"), std::string::npos);
  EXPECT_NE(captured.find("visible warning"), std::string::npos);
  EXPECT_NE(captured.find("visible error"), std::string::npos);
}

TEST(LoggingTest, EnvVariableOverridesLevel) {
  ASSERT_EQ(setenv("FAIRWOS_LOG_LEVEL", "error", /*overwrite=*/1), 0);
  common::InitLogLevelFromEnv();
  EXPECT_EQ(common::GetLogLevel(), common::LogLevel::kError);
  // Malformed values leave the level untouched.
  ASSERT_EQ(setenv("FAIRWOS_LOG_LEVEL", "shouting", 1), 0);
  common::InitLogLevelFromEnv();
  EXPECT_EQ(common::GetLogLevel(), common::LogLevel::kError);
  ASSERT_EQ(unsetenv("FAIRWOS_LOG_LEVEL"), 0);
  common::SetLogLevel(common::LogLevel::kInfo);
}

TEST(LoggingTest, ConcurrentLogLinesNeverInterleave) {
  std::string captured;
  common::SetLogCaptureForTest(&captured);
  common::SetLogLevel(common::LogLevel::kInfo);
  constexpr int kThreads = 4;
  constexpr int kLines = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        FW_LOG(Info) << "thread-" << t << "-line-" << i << "-end";
      }
    });
  }
  for (auto& t : threads) t.join();
  common::SetLogCaptureForTest(nullptr);
  // Every emitted line must be intact: "thread-T-line-I-end" with no
  // fragments of other lines spliced in.
  std::istringstream in(captured);
  std::string line;
  int intact = 0;
  while (std::getline(in, line)) {
    EXPECT_NE(line.find("thread-"), std::string::npos) << line;
    EXPECT_EQ(line.find("thread-", line.find("thread-") + 1),
              std::string::npos)
        << "interleaved line: " << line;
    EXPECT_EQ(line.rfind("-end"), line.size() - 4) << line;
    ++intact;
  }
  EXPECT_EQ(intact, kThreads * kLines);
}

// ------------------------------------------------------ harness telemetry --

/// Fails the 1st and 3rd of four trials with a distinctive message.
/// Failures are keyed on the trial seed — reproducing RunRepeated's
/// pre-drawn stream for base_seed 0 — not on call order, so the double is
/// unaffected by trials running in parallel.
class FlakyMethod : public core::FairMethod {
 public:
  FlakyMethod() {
    common::Rng seed_stream(/*base_seed=*/0);
    for (int t = 0; t < 4; ++t) {
      const uint64_t seed = seed_stream.NextU64();
      if (t % 2 == 0) failing_seeds_.push_back(seed);
    }
  }

  std::string name() const override { return "Flaky"; }

  common::Result<std::unique_ptr<core::FittedModel>> Fit(
      const data::Dataset& ds, uint64_t seed) override {
    if (std::find(failing_seeds_.begin(), failing_seeds_.end(), seed) !=
        failing_seeds_.end()) {
      return common::Status::Internal("loss diverged");
    }
    core::MethodOutput out;
    out.pred.assign(static_cast<size_t>(ds.num_nodes()), 0);
    out.prob1.assign(static_cast<size_t>(ds.num_nodes()), 0.5f);
    return std::unique_ptr<core::FittedModel>(
        new core::PrecomputedModel(name(), std::move(out)));
  }

 private:
  std::vector<uint64_t> failing_seeds_;
};

TEST(HarnessTelemetryTest, RunRepeatedRecordsFailureReasons) {
  auto ds = data::MakeDataset("toy", {}).value();
  FlakyMethod method;
  // Trials 1 and 3 fail, 2 and 4 succeed.
  auto agg = eval::RunRepeated(&method, ds, /*trials=*/4, /*base_seed=*/0);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg.value().trials, 2);
  EXPECT_EQ(agg.value().failed_trials, 2);
  ASSERT_EQ(agg.value().failure_reasons.size(), 2u);
  EXPECT_NE(agg.value().failure_reasons[0].find("loss diverged"),
            std::string::npos);
  EXPECT_NE(agg.value().failure_reasons[0].find("trial"), std::string::npos);
}

TEST(HarnessTelemetryTest, RunRepeatedEmitsTrialEvents) {
  auto ds = data::MakeDataset("toy", {}).value();
  FlakyMethod method;
  obs::CollectingSink sink;
  obs::SetEventSink(&sink);
  auto agg = eval::RunRepeated(&method, ds, /*trials=*/4, /*base_seed=*/0);
  obs::SetEventSink(nullptr);
  ASSERT_TRUE(agg.ok());
  int done = 0, failed = 0;
  for (const auto& e : sink.events()) {
    if (e.name() == "trial_done") ++done;
    if (e.name() == "trial_failed") {
      ++failed;
      EXPECT_EQ(e.GetString("method"), "Flaky");
      EXPECT_NE(e.GetString("reason").find("loss diverged"),
                std::string::npos);
    }
  }
  EXPECT_EQ(done, 2);
  EXPECT_EQ(failed, 2);
}

/// The keys of an event's JSON object, "event" included.
std::set<std::string> EventKeys(const obs::Event& event) {
  std::set<std::string> keys;
  const std::string json = event.ToJson();
  size_t pos = 0;
  while ((pos = json.find('"', pos)) != std::string::npos) {
    const size_t end = json.find('"', pos + 1);
    if (end == std::string::npos) break;
    if (json.compare(end + 1, 1, ":") == 0) {
      keys.insert(json.substr(pos + 1, end - pos - 1));
    }
    pos = end + 1;
  }
  return keys;
}

TEST(HarnessTelemetryTest, TrainingEmitsEpochEventsAndSpans) {
  auto ds = data::MakeDataset("toy", {}).value();
  baselines::MethodOptions options;
  options.train.epochs = 5;
  options.train.patience = 0;
  auto method = baselines::MakeMethod("vanilla", options).value();
  core::FairwosConfig config;
  config.encoder.epochs = 3;
  config.pretrain_epochs = 4;
  config.pretrain_patience = 0;
  config.finetune_epochs = 3;
  config.gnn.hidden = 8;

  obs::CollectingSink sink;
  obs::SetEventSink(&sink);
  obs::TraceRecorder::Global().Clear();
  obs::TraceRecorder::Global().Enable();
  auto result = eval::RunTrial(method.get(), ds, /*seed=*/1);
  auto fairwos = core::TrainFairwos(config, ds, /*seed=*/1, nullptr);
  obs::TraceRecorder::Global().Disable();
  obs::SetEventSink(nullptr);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(fairwos.ok()) << fairwos.status().ToString();

  // Each phase's epoch events carry exactly these fields.
  const std::set<std::string> common_keys = {"event", "phase", "epoch"};
  const std::map<std::string, std::set<std::string>> phase_keys = {
      {"baseline",
       {"loss_total", "loss_cls", "loss_penalty", "val_loss", "grad_norm",
        "lr"}},
      {"encoder", {"loss_cls", "val_loss", "grad_norm", "lr"}},
      {"pretrain", {"loss_cls", "val_loss", "grad_norm", "lr"}},
      {"finetune",
       {"loss_total", "loss_cls", "loss_fair", "mean_distance", "grad_norm",
        "lr", "val_acc"}},
  };
  std::map<std::string, int> epoch_events;
  for (const auto& e : sink.events()) {
    if (e.name() != "epoch") continue;
    const std::string phase = e.GetString("phase");
    ++epoch_events[phase];
    ASSERT_EQ(phase_keys.count(phase), 1u) << phase;
    std::set<std::string> expected = phase_keys.at(phase);
    expected.insert(common_keys.begin(), common_keys.end());
    EXPECT_EQ(EventKeys(e), expected) << e.ToJson();
  }
  EXPECT_EQ(epoch_events["baseline"], 5);
  EXPECT_EQ(epoch_events["encoder"], 3);
  EXPECT_EQ(epoch_events["pretrain"], 4);
  EXPECT_EQ(epoch_events["finetune"], 3);

  // The spans bench/e2e reads, plus the baseline's.
  std::set<std::string> seen;
  const std::vector<std::string> guarded_epochs = {
      "baseline/train_epoch", "encoder/pretrain_epoch",
      "fairwos/pretrain_epoch", "fairwos/finetune_epoch"};
  std::map<std::string, int> steps_under;
  for (const auto& ev : obs::TraceRecorder::Global().snapshot()) {
    seen.insert(ev.name);
    if (ev.name != "optimizer/step") continue;
    // Optimizer steps nest inside a per-epoch span.
    bool nested = false;
    for (const std::string& span : guarded_epochs) {
      if (ev.path.find(span + ">") != std::string::npos) {
        ++steps_under[span];
        nested = true;
      }
    }
    EXPECT_TRUE(nested) << ev.path;
  }
  obs::TraceRecorder::Global().Clear();
  for (const char* span :
       {"baseline/train", "baseline/train_epoch", "fairwos/encoder_pretrain",
        "fairwos/classifier_pretrain", "fairwos/pretrain_epoch",
        "fairwos/finetune", "fairwos/finetune_epoch",
        "fairwos/counterfactual_search", "encoder/pretrain_epoch",
        "optimizer/step"}) {
    EXPECT_EQ(seen.count(span), 1u) << span;
  }
  EXPECT_EQ(steps_under["baseline/train_epoch"], 5);
  EXPECT_EQ(steps_under["encoder/pretrain_epoch"], 3);
  EXPECT_EQ(steps_under["fairwos/pretrain_epoch"], 4);
  EXPECT_EQ(steps_under["fairwos/finetune_epoch"], 3);
}

TEST(HarnessTelemetryTest, PerturbCfAndFairGkdLoopsEmitEpochEvents) {
  auto ds = data::MakeDataset("toy", {}).value();
  baselines::MethodOptions options;
  options.train.epochs = 3;
  options.train.patience = 0;
  options.perturbcf.encoder.epochs = 2;
  options.perturbcf.finetune_epochs = 4;
  options.fairgkd.teacher_epochs = 5;
  obs::CollectingSink sink;
  obs::SetEventSink(&sink);
  for (const char* name : {"perturbcf", "fairgkd"}) {
    auto method = baselines::MakeMethod(name, options).value();
    EXPECT_TRUE(method->Fit(ds, /*seed=*/1).ok()) << name;
  }
  obs::SetEventSink(nullptr);

  const std::map<std::string, std::set<std::string>> phase_keys = {
      {"perturbcf_finetune",
       {"loss_total", "loss_cls", "loss_consistency", "val_acc", "grad_norm",
        "lr"}},
      {"fairgkd_teacher", {"loss_cls", "val_acc", "grad_norm", "lr"}},
  };
  std::map<std::string, int> epoch_events;
  for (const auto& e : sink.events()) {
    if (e.name() != "epoch") continue;
    const std::string phase = e.GetString("phase");
    ++epoch_events[phase];
    auto it = phase_keys.find(phase);
    if (it == phase_keys.end()) continue;
    std::set<std::string> expected = it->second;
    expected.insert({"event", "phase", "epoch"});
    EXPECT_EQ(EventKeys(e), expected) << e.ToJson();
  }
  // PerturbCF: encoder 2, pre-train 3, fine-tune 4. FairGKD: MLP teacher
  // 5, structure teacher 5 and student 3 (both "baseline").
  EXPECT_EQ(epoch_events["encoder"], 2);
  EXPECT_EQ(epoch_events["perturbcf_finetune"], 4);
  EXPECT_EQ(epoch_events["fairgkd_teacher"], 5);
  EXPECT_EQ(epoch_events["baseline"], 3 + 5 + 3);
}

TEST(EncoderTelemetryTest, ObservesEpochWindowAndGradNorm) {
  auto ds = data::MakeDataset("toy", {}).value();
  core::EncoderConfig config;
  config.out_dim = 4;
  config.epochs = 4;
  config.patience = 0;
  obs::WindowedHistogram* epoch_window =
      obs::MetricsRegistry::Global().GetWindowed("train.window.epoch_ms");
  epoch_window->Reset();

  obs::CollectingSink sink;
  obs::SetEventSink(&sink);
  ASSERT_TRUE(core::PretrainEncoder(config, ds, /*seed=*/3,
                                    common::Deadline::Never(), {})
                  .ok());
  obs::SetEventSink(nullptr);

  EXPECT_EQ(epoch_window->TakeSnapshot().count, 4);
  int epoch_events = 0;
  for (const auto& e : sink.events()) {
    if (e.name() != "epoch") continue;
    ++epoch_events;
    EXPECT_EQ(e.GetString("phase"), "encoder");
    EXPECT_GT(e.GetDouble("grad_norm"), 0.0) << e.ToJson();
  }
  EXPECT_EQ(epoch_events, 4);
}

// ------------------------------------------------------ propagate once --

/// The spans named `name` recorded since the last Clear, in order.
std::vector<obs::TraceEvent> SpansNamed(const std::string& name) {
  std::vector<obs::TraceEvent> out;
  for (const auto& ev : obs::TraceRecorder::Global().snapshot()) {
    if (ev.name == name) out.push_back(ev);
  }
  return out;
}

core::FairwosConfig SmallPropagateConfig() {
  core::FairwosConfig config;
  config.encoder.out_dim = 4;
  config.encoder.epochs = 3;
  config.pretrain_epochs = 4;
  config.pretrain_patience = 0;
  config.finetune_epochs = 3;
  config.gnn.hidden = 8;
  return config;
}

class PropagateCountTest : public TraceTest {};

TEST_F(PropagateCountTest, FairwosPropagatesFeaturesThenPseudoAttributes) {
  auto ds = data::MakeDataset("toy", {}).value();
  ASSERT_TRUE(core::FitFairwos(SmallPropagateConfig(), ds, 1, nullptr).ok());
  // One sparse product per constant input: the features (encoder), then X⁰
  // (pre-train, pseudo-labels and fine-tune).
  const auto propagate = SpansNamed("gnn/propagate");
  ASSERT_EQ(propagate.size(), 2u);
  EXPECT_NE(propagate[0].path.find("fairwos/encoder_pretrain"),
            std::string::npos)
      << propagate[0].path;
  EXPECT_EQ(propagate[1].path.find("fairwos/encoder_pretrain"),
            std::string::npos)
      << propagate[1].path;
  // Each GCN forward still opens one conv span: encoder 2 per epoch + its
  // final evaluation + X⁰ extraction (2*3 + 2), pre-train 2 per epoch +
  // pseudo-labels (2*4 + 1), fine-tune's reference accuracy + 3 per epoch
  // (1 + 3*3).
  EXPECT_EQ(SpansNamed("gcn_conv/forward").size(), 8u + 9u + 10u);
}

TEST_F(PropagateCountTest, FineTuneResumePropagatesRestoredPseudoAttributes) {
  auto ds = data::MakeDataset("toy", {}).value();
  const std::string dir = TempPath("fw_propagate_count_resume");
  fs::remove_all(dir);
  core::FairwosConfig config = SmallPropagateConfig();
  config.checkpoint.dir = dir;
  // Polls 1-3 encoder, 4-7 pre-train; the 9th stops fine-tune epoch 1.
  config.deadline = common::Deadline::AfterChecks(8);
  obs::TraceRecorder::Global().Disable();
  ASSERT_EQ(core::FitFairwos(config, ds, 1, nullptr).status().code(),
            common::StatusCode::kDeadlineExceeded);
  obs::TraceRecorder::Global().Enable();

  config.deadline = common::Deadline::Never();
  config.checkpoint.resume = true;
  core::FairwosStats stats;
  ASSERT_TRUE(core::FitFairwos(config, ds, 1, &stats).ok());
  fs::remove_all(dir);
  EXPECT_EQ(stats.resume_phase, 2);
  EXPECT_EQ(SpansNamed("gnn/propagate").size(), 1u);
  EXPECT_EQ(SpansNamed("gcn_conv/forward").size(), 3u * 2u);  // epochs 1, 2
}

TEST_F(PropagateCountTest, BaselineTrainerPropagatesItsFeaturesOnce) {
  auto ds = data::MakeDataset("toy", {}).value();
  common::Rng rng(1);
  nn::GnnConfig gnn;
  gnn.in_features = ds.num_attrs();
  nn::GnnClassifier model(gnn, ds.graph, &rng);
  baselines::TrainOptions options;
  options.epochs = 5;
  options.patience = 0;
  ASSERT_TRUE(baselines::TrainClassifier(options, ds, ds.features,
                                         /*penalty=*/nullptr, &model, &rng)
                  .ok());
  EXPECT_EQ(SpansNamed("gnn/propagate").size(), 1u);
  EXPECT_EQ(SpansNamed("gcn_conv/forward").size(), 2u * 5u);
}

// ------------------------------------------------------------ string util --

TEST(JsonEscapeTest, EscapesControlAndStructuralCharacters) {
  EXPECT_EQ(common::JsonEscape("plain"), "plain");
  EXPECT_EQ(common::JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(common::JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(common::JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(common::JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

}  // namespace
}  // namespace fairwos
