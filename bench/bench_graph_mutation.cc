// Dynamic-graph microbench (not a paper figure): replays a drifting
// temporal script through graph::MutableGraph and reports mutation apply
// throughput, publish and compaction pause quantiles, and affected-set
// sizes — the serving-side costs of docs/serving.md "Dynamic graphs". A
// reader thread spins on Current() the whole time, so the pause numbers
// reflect publication under concurrent snapshot readers, the way the
// inference engine consumes epochs.
//
// After the script drains, a refresh probe republishes single-edge
// mutations at the drifted scale and times the first operator build, once
// patched from the previous epoch and once from scratch over the
// materialized graph: the incremental cost must track the affected-row
// count, the rebuild cost the whole edge set. --json-out
// writes the full report (the serve-chaos CI job uploads it).
//
//   ./bench_graph_mutation [--dataset toy] [--scale 20] [--steps 2000]
//                          [--publish-every 16] [--compact-every 256]
//                          [--refresh-rounds 32] [--json-out FILE]
#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "data/temporal.h"
#include "graph/mutable_graph.h"
#include "obs/quantiles.h"

namespace fairwos::bench {
namespace {

/// One refresh-probe pass: `rounds` single-edge publishes against a private
/// MutableGraph over `base`, timing the first operator build after each
/// publish. With `incremental` the build patches the previous epoch's
/// cached operator (cost ~ |affected| rows); without it every publish
/// materializes the snapshot and builds the operator from scratch
/// (cost ~ O(E)).
struct RefreshProbe {
  std::vector<double> first_op_ms;
  std::vector<double> affected;
  int64_t ops_incremental = 0;
  int64_t ops_rebuilt = 0;
};

RefreshProbe RunRefreshProbe(const std::shared_ptr<const graph::Graph>& base,
                             const tensor::Tensor& features, int64_t rounds,
                             uint64_t seed, bool incremental) {
  graph::MutableGraphOptions options;
  options.max_pending = 2 * rounds + 4;
  graph::MutableGraph g(base, features, options);
  g.Current()->GcnNormalizedAdjacency();  // seed the epoch-0 operator cache

  RefreshProbe probe;
  common::Rng rng(seed);
  const int64_t n = base->num_nodes();
  for (int64_t round = 0; round < rounds; ++round) {
    int64_t u = 0, v = 0;
    do {
      u = rng.UniformInt(n);
      v = rng.UniformInt(n);
    } while (u == v || g.Current()->HasEdge(u, v));
    if (!g.AddEdge(u, v).ok()) continue;
    auto snap = g.Publish();
    common::Stopwatch op_watch;
    if (incremental) {
      snap->GcnNormalizedAdjacency();
    } else {
      snap->Materialized()->GcnNormalizedAdjacency();
    }
    probe.first_op_ms.push_back(op_watch.Millis());
    probe.affected.push_back(
        static_cast<double>(snap->affected_nodes().size()));
    probe.ops_incremental += snap->ops_incremental();
    probe.ops_rebuilt += snap->ops_rebuilt();
    // Retract the probe edge so every round measures the same |affected|
    // profile; the retraction publish also re-seeds the operator cache.
    if (!g.RemoveEdge(u, v).ok()) break;
    const auto retracted = g.Publish();
    if (incremental) retracted->GcnNormalizedAdjacency();
  }
  return probe;
}

int Main(int argc, char** argv) {
  auto flags = DieOnError(common::CliFlags::Parse(argc, argv));
  BenchOptions bench = ParseBenchOptions(flags);
  const std::string dataset_name = flags.GetString("dataset", "toy");
  const int64_t steps = flags.GetInt("steps", 2000);
  const int64_t publish_every = flags.GetInt("publish-every", 16);
  const int64_t compact_every = flags.GetInt("compact-every", 256);
  const int64_t refresh_rounds = flags.GetInt("refresh-rounds", 32);
  const std::string json_out = flags.GetString("json-out", "");

  data::DatasetOptions data_options;
  data_options.scale = bench.scale;
  data_options.seed = bench.seed;
  auto ds = DieOnError(data::MakeDataset(dataset_name, data_options));

  data::TemporalOptions temporal;
  temporal.num_steps = steps;
  common::Stopwatch script_watch;
  auto script = DieOnError(
      data::GenerateTemporalScript(ds, temporal, bench.seed));
  const double script_seconds = script_watch.Seconds();

  graph::MutableGraphOptions graph_options;
  graph_options.max_pending = steps + 1;
  graph::MutableGraph g(std::make_shared<const graph::Graph>(ds.graph),
                        ds.features, graph_options);

  // The reader: a serving stand-in pulling the published snapshot as fast
  // as it can. Publication must never block it for long — every pull is a
  // mutex-protected shared_ptr copy, nothing more.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto snap = g.Current();
      if (snap->epoch() >= 0) reads.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<double> apply_us, publish_ms, compact_ms;
  std::vector<double> affected_sizes;
  apply_us.reserve(static_cast<size_t>(steps));
  common::Stopwatch wall;
  int64_t step = 0;
  for (const graph::GraphMutation& m : script.events) {
    common::Stopwatch apply_watch;
    const common::Status status = g.Apply(m);
    if (!status.ok()) {
      std::fprintf(stderr, "apply failed at step %lld: %s\n",
                   static_cast<long long>(step), status.ToString().c_str());
      return 1;
    }
    apply_us.push_back(apply_watch.Millis() * 1000.0);
    ++step;
    if (step % publish_every == 0) {
      common::Stopwatch publish_watch;
      auto snap = g.Publish();
      publish_ms.push_back(publish_watch.Millis());
      affected_sizes.push_back(
          static_cast<double>(snap->affected_nodes().size()));
    }
    if (step % compact_every == 0) {
      common::Stopwatch compact_watch;
      const common::Status compacted = g.Compact();
      if (!compacted.ok()) {
        std::fprintf(stderr, "compaction failed: %s\n",
                     compacted.ToString().c_str());
        return 1;
      }
      compact_ms.push_back(compact_watch.Millis());
    }
  }
  g.Publish();
  const double mutate_seconds = wall.Seconds();
  stop.store(true);
  reader.join();

  const graph::MutableGraph::Stats stats = g.stats();
  const obs::ExactQuantiles apply_q{std::vector<double>(apply_us)};
  const obs::ExactQuantiles publish_q{std::vector<double>(publish_ms)};
  const obs::ExactQuantiles compact_q{std::vector<double>(compact_ms)};
  const obs::ExactQuantiles affected_q{std::vector<double>(affected_sizes)};
  const auto snap = g.Current();

  // Refresh probe at the drifted scale: same base graph, same probe edges,
  // only the operator build differs between the two passes.
  const std::shared_ptr<const graph::Graph> drifted = snap->Materialized();
  const tensor::Tensor drifted_features = snap->Features();
  const RefreshProbe inc = RunRefreshProbe(
      drifted, drifted_features, refresh_rounds, bench.seed + 7, true);
  const RefreshProbe rebuild = RunRefreshProbe(
      drifted, drifted_features, refresh_rounds, bench.seed + 7, false);
  const obs::ExactQuantiles inc_q{std::vector<double>(inc.first_op_ms)};
  const obs::ExactQuantiles rebuild_q{
      std::vector<double>(rebuild.first_op_ms)};
  const obs::ExactQuantiles probe_affected_q{
      std::vector<double>(inc.affected)};
  const double speedup_p50 =
      inc_q.Quantile(50) > 0.0 ? rebuild_q.Quantile(50) / inc_q.Quantile(50)
                               : 0.0;

  std::printf(
      "dynamic-graph mutation bench on %s (%lld nodes -> %lld, %lld edges)\n"
      "  script: %lld events generated in %.3fs\n"
      "  applies: %.0f/s  (us p50 %.2f  p99 %.2f)\n"
      "  publishes: %zu  (ms p50 %.4f  p99 %.4f)  "
      "affected-set mean %.1f  p99 %.0f\n"
      "  compactions: %lld  (ms p50 %.4f  p99 %.4f)\n"
      "  reader: %lld snapshot pulls while mutating (%.0f/s)\n"
      "  final epoch %lld, pending %lld, shed %lld\n",
      ds.name.c_str(), static_cast<long long>(ds.num_nodes()),
      static_cast<long long>(snap->num_nodes()),
      static_cast<long long>(snap->num_edges()),
      static_cast<long long>(steps), script_seconds,
      static_cast<double>(stats.applied) / mutate_seconds,
      apply_q.Quantile(50), apply_q.Quantile(99), publish_ms.size(),
      publish_q.Quantile(50), publish_q.Quantile(99), affected_q.Mean(),
      affected_q.Quantile(99), static_cast<long long>(stats.compactions),
      compact_q.Quantile(50), compact_q.Quantile(99),
      static_cast<long long>(reads.load()),
      static_cast<double>(reads.load()) / mutate_seconds,
      static_cast<long long>(stats.epoch),
      static_cast<long long>(stats.pending),
      static_cast<long long>(stats.shed));
  std::printf(
      "  refresh probe (%lld single-edge publishes, %lld edges, "
      "affected mean %.1f):\n"
      "    incremental first-op ms p50 %.4f  p99 %.4f  "
      "(%lld patched, %lld rebuilt)\n"
      "    rebuild     first-op ms p50 %.4f  p99 %.4f\n"
      "    p50 speedup %.1fx\n",
      static_cast<long long>(refresh_rounds),
      static_cast<long long>(snap->num_edges()), probe_affected_q.Mean(),
      inc_q.Quantile(50), inc_q.Quantile(99),
      static_cast<long long>(inc.ops_incremental),
      static_cast<long long>(inc.ops_rebuilt), rebuild_q.Quantile(50),
      rebuild_q.Quantile(99), speedup_p50);

  if (!json_out.empty()) {
    std::ofstream json_file(json_out);
    if (!json_file) {
      std::fprintf(stderr, "cannot open %s\n", json_out.c_str());
      return 1;
    }
    json_file << common::StrFormat(
        "{\"bench\":\"graph_mutation\",\"dataset\":\"%s\","
        "\"nodes\":%lld,\"edges\":%lld,\"steps\":%lld,"
        "\"apply_us\":{\"p50\":%.6f,\"p99\":%.6f},"
        "\"publish_ms\":{\"p50\":%.6f,\"p99\":%.6f},"
        "\"compact_ms\":{\"p50\":%.6f,\"p99\":%.6f},"
        "\"affected\":{\"mean\":%.3f,\"p99\":%.3f},"
        "\"refresh\":{\"rounds\":%lld,"
        "\"affected_mean\":%.3f,"
        "\"incremental\":{\"first_op_ms\":{\"p50\":%.6f,\"p99\":%.6f},"
        "\"ops_incremental\":%lld,\"ops_rebuilt\":%lld},"
        "\"rebuild\":{\"first_op_ms\":{\"p50\":%.6f,\"p99\":%.6f}},"
        "\"speedup_p50\":%.3f}}\n",
        ds.name.c_str(), static_cast<long long>(snap->num_nodes()),
        static_cast<long long>(snap->num_edges()),
        static_cast<long long>(steps), apply_q.Quantile(50),
        apply_q.Quantile(99), publish_q.Quantile(50), publish_q.Quantile(99),
        compact_q.Quantile(50), compact_q.Quantile(99), affected_q.Mean(),
        affected_q.Quantile(99), static_cast<long long>(refresh_rounds),
        probe_affected_q.Mean(), inc_q.Quantile(50), inc_q.Quantile(99),
        static_cast<long long>(inc.ops_incremental),
        static_cast<long long>(inc.ops_rebuilt), rebuild_q.Quantile(50),
        rebuild_q.Quantile(99), speedup_p50);
    std::fprintf(stderr, "wrote %s\n", json_out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace fairwos::bench

int main(int argc, char** argv) { return fairwos::bench::Main(argc, argv); }
